//! Purity / side-effect analysis of auxiliary code clones.
//!
//! The middle-end's `*__aux_*` clones run speculatively ahead of the
//! committed execution, so their effects must be confined to state the
//! runtime knows how to predict and validate — the dependence's
//! `declared_state`. This pass proves, per dependence, that the auxiliary
//! clone's whole reachable set touches only declared state:
//!
//! - a **store** to undeclared state is a hard error (an unrevertible side
//!   effect escaping speculation);
//! - a **load** of undeclared state that some dependence writes is a hard
//!   error (the value observed speculatively may differ from the committed
//!   one);
//! - a load of undeclared state *nobody* writes is only a warning (the
//!   variable is effectively a constant, but should still be declared).
//!
//! The per-dependence facts are computed as `DepPurity` by
//! `purity_facts`, independent of diagnostic rendering; the lint is their
//! only consumer.

use std::collections::HashSet;

use crate::ir::{Inst, Module};

use super::callgraph::{state_escape, CallGraph};
use super::{Diagnostic, LintKind, Severity};

/// Purity facts for one state dependence's auxiliary code.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DepPurity {
    /// The dependence's name.
    pub dep: String,
    /// The function analyzed: the auxiliary clone when the middle-end ran,
    /// otherwise the compute function.
    pub subject_fn: String,
    /// Whether `subject_fn` is an auxiliary clone.
    pub is_aux: bool,
    /// State variables the subject's reachable set loads (sorted).
    pub reads: Vec<String>,
    /// State variables the subject's reachable set stores (sorted).
    pub writes: Vec<String>,
    /// Accesses (reads or writes) to state outside `declared_state`
    /// (sorted).
    pub undeclared: Vec<String>,
}

/// Compute purity facts for every state dependence in `module`.
pub(crate) fn purity_facts(module: &Module, cg: &CallGraph) -> Vec<DepPurity> {
    module
        .metadata
        .state_deps
        .iter()
        .map(|dep| {
            let subject = dep.aux_fn.as_deref().unwrap_or(&dep.compute_fn);
            let esc = state_escape(module, cg, subject);
            let declared: HashSet<&str> = dep.declared_state.iter().map(String::as_str).collect();
            let mut reads: Vec<String> = esc.reads.iter().cloned().collect();
            let mut writes: Vec<String> = esc.writes.iter().cloned().collect();
            let mut undeclared: Vec<String> = esc
                .reads
                .union(&esc.writes)
                .filter(|s| !declared.contains(s.as_str()))
                .cloned()
                .collect();
            reads.sort();
            writes.sort();
            undeclared.sort();
            DepPurity {
                dep: dep.name.clone(),
                subject_fn: subject.to_string(),
                is_aux: dep.aux_fn.is_some(),
                reads,
                writes,
                undeclared,
            }
        })
        .collect()
}

/// Locate the first matching access of `state` reachable from `root` (store
/// when `want_store`, load otherwise), for diagnostics.
fn locate(
    module: &Module,
    cg: &CallGraph,
    root: &str,
    state: &str,
    want_store: bool,
) -> Option<crate::verify::Location> {
    let reachable = cg.reachable(root);
    for f in module.functions() {
        if !reachable.contains(&f.name) {
            continue;
        }
        for (i, inst) in f.insts().enumerate() {
            let hit = match inst {
                Inst::StoreState { state: s, .. } => want_store && s == state,
                Inst::LoadState { state: s, .. } => !want_store && s == state,
                _ => false,
            };
            if hit {
                return Some(crate::verify::Location::new(&f.name, i));
            }
        }
    }
    None
}

/// Run the purity check over every *auxiliary* clone of `module`. Before
/// the middle-end runs (no clones yet) this reports nothing — the race
/// check covers the compute functions.
pub fn check(module: &Module, cg: &CallGraph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    // State written by any dependence's compute set: loads of these are
    // unstable under speculation.
    let written_anywhere: HashSet<String> = module
        .metadata
        .state_deps
        .iter()
        .flat_map(|d| state_escape(module, cg, &d.compute_fn).writes)
        .collect();

    for fact in purity_facts(module, cg) {
        if !fact.is_aux {
            continue;
        }
        for state in &fact.undeclared {
            if fact.writes.contains(state) {
                diags.push(Diagnostic {
                    lint: LintKind::ImpureAux,
                    severity: Severity::Error,
                    message: format!(
                        "auxiliary clone `{}` of dependence `{}` stores undeclared \
                         state variable `{state}`: a side effect escaping speculation",
                        fact.subject_fn, fact.dep
                    ),
                    location: locate(module, cg, &fact.subject_fn, state, true),
                });
            } else {
                let (severity, why) = if written_anywhere.contains(state) {
                    (
                        Severity::Error,
                        "its speculative value may differ from the committed one",
                    )
                } else {
                    (Severity::Warning, "it behaves as an undeclared constant")
                };
                diags.push(Diagnostic {
                    lint: LintKind::ImpureAux,
                    severity,
                    message: format!(
                        "auxiliary clone `{}` of dependence `{}` loads undeclared \
                         state variable `{state}`: {why}",
                        fact.subject_fn, fact.dep
                    ),
                    location: locate(module, cg, &fact.subject_fn, state, false),
                });
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::compile;
    use crate::midend::{self, MidendOptions};

    fn midend_module(src: &str) -> Module {
        // Gate disabled: these tests exercise the analysis on modules the
        // gate would reject.
        midend::run_with(
            compile(src).unwrap(),
            MidendOptions {
                enforce_analysis: false,
                ..MidendOptions::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn facts_cover_aux_clone_and_mark_impurity() {
        let m = midend_module(
            "state log = 0;
             state_dependence d { compute = step; }
             fn step(x) { log = x; return x; }",
        );
        let cg = CallGraph::build(&m);
        let facts = purity_facts(&m, &cg);
        assert_eq!(facts.len(), 1);
        let f = &facts[0];
        assert!(f.is_aux);
        assert_eq!(f.subject_fn, "step__aux_d");
        assert_eq!(f.writes, ["log"]);
        assert_eq!(f.undeclared, ["log"]);
        let diags = check(&m, &cg);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("stores undeclared"));
        assert_eq!(diags[0].location.as_ref().unwrap().function, "step__aux_d");
    }

    #[test]
    fn declared_state_is_pure() {
        let m = midend_module(
            "state acc = 0;
             state_dependence d { compute = step; state = [acc]; }
             fn step(x) { acc = acc + x; return acc; }",
        );
        let cg = CallGraph::build(&m);
        let facts = purity_facts(&m, &cg);
        assert!(facts[0].undeclared.is_empty());
        assert!(check(&m, &cg).is_empty());
    }

    #[test]
    fn constant_state_load_is_warning() {
        let m = midend_module(
            "state scale = 2;
             state_dependence d { compute = step; }
             fn step(x) { return x * scale; }",
        );
        let cg = CallGraph::build(&m);
        let diags = check(&m, &cg);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("undeclared constant"));
    }

    #[test]
    fn no_aux_no_findings() {
        let m = compile(
            "state acc = 0;
             state_dependence d { compute = step; }
             fn step(x) { acc = acc + x; return acc; }",
        )
        .unwrap()
        .module;
        let cg = CallGraph::build(&m);
        assert!(check(&m, &cg).is_empty());
        // Facts still available, on the compute function.
        let facts = purity_facts(&m, &cg);
        assert!(!facts[0].is_aux);
        assert_eq!(facts[0].subject_fn, "step");
    }
}

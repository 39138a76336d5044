//! Speculation-safety static analysis.
//!
//! STATS parallelizes nondeterministic applications by running each state
//! dependence's auxiliary clone speculatively, one invocation ahead. That
//! is only sound when the compiler can see every channel through which an
//! invocation influences the next. This module tree proves (or refutes)
//! that, over the block IR, with four checks built on a shared
//! forward-dataflow framework ([`dataflow`]) and call graph + state-escape
//! analysis ([`callgraph`]):
//!
//! | check | lint | severity |
//! |---|---|---|
//! | undeclared cross-invocation flow | [`LintKind::UndeclaredStateRace`] | error |
//! | aux clone touching undeclared state | [`LintKind::ImpureAux`] | error |
//! | default-vs-full-range interval divergence | [`LintKind::IntervalDivergence`] | warning |
//! | dead tradeoffs / unreachable functions | [`LintKind::UnusedTradeoff`], [`LintKind::UnreachableFunction`] | warning |
//!
//! The checks are exposed two ways: the `stats-lint` binary (structured
//! diagnostics for humans and CI) and the middle-end gate
//! ([`crate::midend::MidendOptions::enforce_analysis`], which refuses
//! codegen on error-severity findings).

pub mod callgraph;
pub mod dataflow;
pub mod interval;
pub mod lints;
pub mod purity;
pub mod races;

use crate::ir::Module;
use crate::verify::Location;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not unsound; never blocks compilation.
    Warning,
    /// Unsound under speculative execution; blocks the middle-end unless
    /// the gate is disabled.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Which check produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintKind {
    /// Cross-invocation state flow not covered by a `state = [..];`
    /// declaration — a data race under speculation.
    UndeclaredStateRace,
    /// An auxiliary clone reads or writes state outside its dependence's
    /// declaration.
    ImpureAux,
    /// A value interval bounded at the default configuration but
    /// divergent (zero divisor / unbounded) over the full tradeoff range.
    IntervalDivergence,
    /// A tradeoff row no instruction references.
    UnusedTradeoff,
    /// A function unreachable from every dependence entry point.
    UnreachableFunction,
}

impl LintKind {
    /// Stable kebab-case lint name, as printed in diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            LintKind::UndeclaredStateRace => "undeclared-state-race",
            LintKind::ImpureAux => "impure-aux",
            LintKind::IntervalDivergence => "interval-divergence",
            LintKind::UnusedTradeoff => "unused-tradeoff",
            LintKind::UnreachableFunction => "unreachable-function",
        }
    }
}

/// One analysis finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The check that fired.
    pub lint: LintKind,
    /// Error (gates codegen) or warning.
    pub severity: Severity,
    /// Human-readable explanation, naming the offending items.
    pub message: String,
    /// The offending instruction, when the finding is tied to one (shares
    /// [`crate::verify::Location`] with the IR verifier).
    pub location: Option<Location>,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity,
            self.lint.name(),
            self.message
        )?;
        if let Some(loc) = &self.location {
            write!(f, " (at {loc})")?;
        }
        Ok(())
    }
}

/// Run every check over `module` and return the findings, errors first,
/// deduplicated. Sound on both front-end output (no auxiliary clones yet:
/// purity and interval checks have nothing to inspect) and middle-end
/// output.
pub fn analyze(module: &Module) -> Vec<Diagnostic> {
    let cg = callgraph::CallGraph::build(module);
    let mut diags = races::check(module, &cg);
    diags.extend(purity::check(module, &cg));
    diags.extend(interval::check(module, &cg));
    diags.extend(lints::check(module, &cg));
    dedup_sorted(diags)
}

/// Sort errors before warnings (stable within a severity) and drop exact
/// duplicates (same lint, message, and location).
pub fn dedup_sorted(mut diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut seen: Vec<(LintKind, String)> = Vec::new();
    diags.retain(|d| {
        let key = (d.lint, d.message.clone());
        if seen.contains(&key) {
            false
        } else {
            seen.push(key);
            true
        }
    });
    diags.sort_by_key(|d| std::cmp::Reverse(d.severity));
    diags
}

/// Do any findings gate compilation?
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::compile;

    #[test]
    fn analyze_clean_program_is_quiet() {
        let m = compile(
            "tradeoff layers { max_index = 10; default_index = 4; value(i) = i + 1; }
             state_dependence d { compute = step; }
             fn step(v) { return v * tradeoff layers; }",
        )
        .unwrap()
        .module;
        assert!(analyze(&m).is_empty());
    }

    #[test]
    fn analyze_orders_errors_first_and_dedups() {
        let m = compile(
            "state acc = 0;
             tradeoff dead { values = [1]; default_index = 0; }
             state_dependence d { compute = step; }
             fn step(x) { acc = acc + x; return acc; }",
        )
        .unwrap()
        .module;
        let diags = analyze(&m);
        assert!(diags.len() >= 2);
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(has_errors(&diags));
        // Re-analyzing and concatenating must not duplicate findings.
        let twice = dedup_sorted(diags.iter().cloned().chain(diags.iter().cloned()).collect());
        assert_eq!(twice.len(), diags.len());
    }

    #[test]
    fn diagnostic_display_carries_lint_and_location() {
        let d = Diagnostic {
            lint: LintKind::UndeclaredStateRace,
            severity: Severity::Error,
            message: "boom".into(),
            location: Some(Location::new("f", 3)),
        };
        assert_eq!(
            format!("{d}"),
            "error[undeclared-state-race]: boom (at f@3)"
        );
    }
}

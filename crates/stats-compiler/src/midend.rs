//! The middle-end compiler (paper §3.4, "Generating IR with auxiliary code").
//!
//! For each state dependence `d`, the middle-end clones `d`'s
//! `compute_output` and links the clone into `d`'s metadata entry. Cloning
//! is *deep but selective*: a bottom-up analysis of the call graph finds the
//! functions that contain (or reach) tradeoff references, and only those are
//! cloned, stopping at an instruction budget. Cloned tradeoffs get fresh
//! metadata rows so STATS can tune the auxiliary code's quality
//! independently of the rest of the program. Finally, every tradeoff
//! *outside* auxiliary code is pinned to its default value and its metadata
//! row deleted: the middle-end's output contains only tradeoffs that belong
//! to auxiliary code.

use std::collections::HashSet;

use crate::bytecode::BytecodeInterp;
use crate::frontend::{CompileError, Compiled};
use crate::ir::{Function, Inst, Module, Operand, Ty, TyRef};
use crate::metadata::{TradeoffMeta, TradeoffValues};
use crate::value::Value;

/// Middle-end options.
#[derive(Debug, Clone, Copy)]
pub struct MidendOptions {
    /// Maximum total instructions cloned per `compute_output` (the paper's
    /// budget that balances generated-code size against degrees of freedom).
    pub max_clone_insts: usize,
    /// Run the speculation-safety analysis ([`crate::analysis`]) over the
    /// generated module and refuse codegen when it finds hard errors
    /// (undeclared state races, impure auxiliary clones). On by default;
    /// disable to inspect or execute known-unsafe programs (`stats-lint`
    /// does this to report *all* findings instead of stopping).
    pub enforce_analysis: bool,
}

impl Default for MidendOptions {
    fn default() -> Self {
        MidendOptions {
            max_clone_insts: 4096,
            enforce_analysis: true,
        }
    }
}

/// Run the middle-end with default options.
pub fn run(compiled: Compiled) -> Result<Module, CompileError> {
    run_with(compiled, MidendOptions::default())
}

/// Run the middle-end.
pub fn run_with(compiled: Compiled, options: MidendOptions) -> Result<Module, CompileError> {
    let mut module = compiled.module;

    let dep_names: Vec<String> = module
        .metadata
        .state_deps
        .iter()
        .map(|d| d.name.clone())
        .collect();
    for dep in dep_names {
        generate_aux(&mut module, &dep, options)?;
    }

    pin_global_tradeoffs_to_defaults(&mut module)?;

    if options.enforce_analysis {
        let diags = crate::analysis::analyze(&module);
        if crate::analysis::has_errors(&diags) {
            return Err(CompileError::Analysis(diags));
        }
    }
    Ok(module)
}

/// Clone suffix for one dependence's auxiliary code.
fn aux_suffix(dep: &str) -> String {
    format!("__aux_{dep}")
}

/// Functions reachable from `root` through direct calls, including `root`.
fn reachable(module: &Module, root: &str) -> Vec<String> {
    let mut seen: HashSet<String> = HashSet::new();
    let mut stack = vec![root.to_string()];
    let mut order = Vec::new();
    while let Some(name) = stack.pop() {
        if !seen.insert(name.clone()) {
            continue;
        }
        if let Some(f) = module.function(&name) {
            order.push(name.clone());
            for callee in f.callees() {
                stack.push(callee);
            }
        }
    }
    order
}

/// Bottom-up mark: which reachable functions contain, or call something that
/// contains, a tradeoff reference?
fn tradeoff_carrying(module: &Module, roots: &[String]) -> HashSet<String> {
    let mut carrying: HashSet<String> = HashSet::new();
    // Fixed point: usually converges in a couple of sweeps.
    loop {
        let mut changed = false;
        for name in roots {
            if carrying.contains(name) {
                continue;
            }
            let Some(f) = module.function(name) else {
                continue;
            };
            let direct = !f.tradeoff_refs().is_empty();
            let via_callee = f.callees().iter().any(|c| carrying.contains(c));
            if direct || via_callee {
                carrying.insert(name.clone());
                changed = true;
            }
        }
        if !changed {
            return carrying;
        }
    }
}

fn generate_aux(
    module: &mut Module,
    dep: &str,
    options: MidendOptions,
) -> Result<(), CompileError> {
    let compute_fn = module
        .metadata
        .state_dep(dep)
        .map(|d| d.compute_fn.clone())
        .ok_or_else(|| CompileError::Semantic(format!("unknown state dependence `{dep}`")))?;
    let suffix = aux_suffix(dep);

    let order = reachable(module, &compute_fn);
    let carrying = tradeoff_carrying(module, &order);

    // Decide the clone set: compute_output always, plus carrying functions,
    // bottom-up (deepest first: reverse discovery order approximates this),
    // until the instruction budget runs out.
    let mut budget = options.max_clone_insts;
    let mut clone_set: Vec<String> = Vec::new();
    let root_cost = module
        .function(&compute_fn)
        .map(Function::inst_count)
        .unwrap_or(0);
    budget = budget.saturating_sub(root_cost);
    clone_set.push(compute_fn.clone());
    for name in order.iter().rev() {
        if name == &compute_fn || !carrying.contains(name) {
            continue;
        }
        let cost = module.function(name).map(Function::inst_count).unwrap_or(0);
        if cost <= budget {
            budget -= cost;
            clone_set.push(name.clone());
        }
        // Paper: "stops cloning when it reaches a maximum number of
        // instructions per computeOutput()".
    }

    // Which tradeoffs end up inside the clone set? Those get cloned rows.
    let mut cloned_tradeoffs: Vec<String> = Vec::new();
    for name in &clone_set {
        if let Some(f) = module.function(name) {
            for t in f.tradeoff_refs() {
                if !cloned_tradeoffs.contains(&t) {
                    cloned_tradeoffs.push(t);
                }
            }
        }
    }

    // Clone the functions, rewriting intra-set calls and tradeoff names.
    let in_set: HashSet<&String> = clone_set.iter().collect();
    for name in &clone_set {
        let Some(original) = module.function(name) else {
            continue;
        };
        let mut clone = original.clone();
        clone.name = format!("{name}{suffix}");
        for inst in clone.insts_mut() {
            match inst {
                Inst::Call { callee, .. } if in_set.contains(callee) => {
                    *callee = format!("{callee}{suffix}");
                }
                Inst::TradeoffRef { tradeoff, .. } | Inst::CallTradeoff { tradeoff, .. } => {
                    *tradeoff = format!("{tradeoff}{suffix}");
                }
                Inst::Cast {
                    to: TyRef::Tradeoff(t),
                    ..
                } => {
                    *t = format!("{t}{suffix}");
                }
                _ => {}
            }
        }
        module.add_function(clone);
    }

    // Clone the tradeoff metadata rows.
    let mut aux_tradeoff_names = Vec::with_capacity(cloned_tradeoffs.len());
    for t in &cloned_tradeoffs {
        let row = module
            .metadata
            .tradeoff(t)
            .cloned()
            .ok_or_else(|| CompileError::Semantic(format!("unknown tradeoff `{t}`")))?;
        let cloned_name = format!("{t}{suffix}");
        module.metadata.tradeoffs.push(TradeoffMeta {
            name: cloned_name.clone(),
            cloned_from: Some(t.clone()),
            owner_dep: Some(dep.to_string()),
            ..row
        });
        aux_tradeoff_names.push(cloned_name);
    }

    // Link the clone into the dependence's metadata entry.
    let aux_name = format!("{compute_fn}{suffix}");
    for d in module.metadata.state_deps.iter_mut() {
        if d.name == dep {
            d.aux_fn = Some(aux_name.clone());
            d.aux_tradeoffs = aux_tradeoff_names.clone();
        }
    }
    Ok(())
}

/// The value of a tradeoff at `index`, computed the way the back-end does
/// (interpreting `getValue` for computed rules — the paper's dynamic
/// compilation).
pub(crate) fn tradeoff_value_at(
    module: &Module,
    row: &TradeoffMeta,
    index: i64,
) -> Result<ResolvedValue, CompileError> {
    let index = index.clamp(0, row.max_index - 1);
    Ok(match &row.values {
        TradeoffValues::Computed { get_value_fn } => {
            let out = BytecodeInterp::new(module)
                .call(get_value_fn, &[Value::Int(index)])
                .map_err(|e| CompileError::Semantic(format!("evaluating `{get_value_fn}`: {e}")))?
                .ok_or_else(|| {
                    CompileError::Semantic(format!("`{get_value_fn}` returned nothing"))
                })?;
            match out {
                Value::Int(v) => ResolvedValue::Int(v),
                Value::Float(v) => ResolvedValue::Float(v),
            }
        }
        TradeoffValues::Values(vs) => {
            let v = vs[index as usize];
            if v.fract() == 0.0 && v.abs() < 9e15 {
                ResolvedValue::Int(v as i64)
            } else {
                ResolvedValue::Float(v)
            }
        }
        TradeoffValues::Functions(fs) => ResolvedValue::Function(fs[index as usize].clone()),
        TradeoffValues::Types(ts) => ResolvedValue::Type(ts[index as usize]),
    })
}

/// A tradeoff value resolved at configuration time.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedValue {
    /// Integer constant.
    Int(i64),
    /// Float constant.
    Float(f64),
    /// Selected callee.
    Function(String),
    /// Selected scalar type.
    Type(Ty),
}

/// Substitute every reference to `tradeoff` in `module` with `value` — the
/// three mechanisms of §3.4 "Setting a tradeoff": constants replace
/// placeholder calls, types retype casts, functions replace callees.
pub(crate) fn substitute(
    module: &mut Module,
    tradeoff: &str,
    value: &ResolvedValue,
) -> Result<(), CompileError> {
    let mut bad: Option<String> = None;
    for f in module.functions_mut() {
        for inst in f.insts_mut() {
            match inst {
                Inst::TradeoffRef { dst, tradeoff: t } if t == tradeoff => {
                    let imm = match value {
                        ResolvedValue::Int(v) => Operand::ImmInt(*v),
                        ResolvedValue::Float(v) => Operand::ImmFloat(*v),
                        other => {
                            bad = Some(format!(
                                "constant reference to `{tradeoff}` but value is {other:?}"
                            ));
                            continue;
                        }
                    };
                    *inst = Inst::Const {
                        dst: *dst,
                        value: imm,
                    };
                }
                Inst::CallTradeoff {
                    dst,
                    tradeoff: t,
                    args,
                } if t == tradeoff => {
                    let callee = match value {
                        ResolvedValue::Function(name) => name.clone(),
                        other => {
                            bad = Some(format!(
                                "function reference to `{tradeoff}` but value is {other:?}"
                            ));
                            continue;
                        }
                    };
                    *inst = Inst::Call {
                        dst: *dst,
                        callee,
                        args: std::mem::take(args),
                    };
                }
                Inst::Cast { to, .. } => {
                    if let TyRef::Tradeoff(t) = to {
                        if t == tradeoff {
                            let ty = match value {
                                ResolvedValue::Type(ty) => *ty,
                                other => {
                                    bad = Some(format!(
                                        "type reference to `{tradeoff}` but value is {other:?}"
                                    ));
                                    continue;
                                }
                            };
                            *to = TyRef::Concrete(ty);
                        }
                    }
                }
                _ => {}
            }
        }
    }
    match bad {
        Some(msg) => Err(CompileError::Semantic(msg)),
        None => Ok(()),
    }
}

fn pin_global_tradeoffs_to_defaults(module: &mut Module) -> Result<(), CompileError> {
    // Global rows = rows not owned by a dependence's auxiliary code.
    let global: Vec<TradeoffMeta> = module
        .metadata
        .tradeoffs
        .iter()
        .filter(|t| t.owner_dep.is_none())
        .cloned()
        .collect();
    for row in &global {
        let value = tradeoff_value_at(module, row, row.default_index)?;
        substitute(module, &row.name, &value)?;
        module.metadata.remove_tradeoff(&row.name);
    }
    Ok(())
}

/// Statistics describing what the middle-end generated (Table 1 inputs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloneStats {
    /// Instructions in the module before auxiliary generation.
    pub original_insts: usize,
    /// Instructions after (clones included, globals pinned).
    pub final_insts: usize,
}

impl CloneStats {
    /// Relative size increase (Table 1's "binary size increase").
    pub fn size_increase(&self) -> f64 {
        if self.original_insts == 0 {
            return 0.0;
        }
        self.final_insts as f64 / self.original_insts as f64 - 1.0
    }
}

/// Run the middle-end and also report size statistics.
pub fn run_with_stats(
    compiled: Compiled,
    options: MidendOptions,
) -> Result<(Module, CloneStats), CompileError> {
    let original_insts = compiled.module.inst_count();
    let module = run_with(compiled, options)?;
    let stats = CloneStats {
        original_insts,
        final_insts: module.inst_count(),
    };
    Ok((module, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::compile;

    const SRC: &str = r#"
        tradeoff layers { max_index = 10; default_index = 4; value(i) = i + 1; }
        tradeoff prec { types = [f64, f32]; default_index = 0; }
        state_dependence d { compute = step; }
        fn inner(x) { return x * tradeoff layers; }
        fn plain(x) { return x + 1; }
        fn step(v) { return inner(v) + plain(v); }
    "#;

    fn midend(src: &str) -> Module {
        run(compile(src).unwrap()).unwrap()
    }

    #[test]
    fn clones_compute_and_carrying_callees() {
        let m = midend(SRC);
        assert!(m.function("step__aux_d").is_some());
        assert!(m.function("inner__aux_d").is_some());
        // `plain` has no tradeoffs anywhere below it: not cloned.
        assert!(m.function("plain__aux_d").is_none());
        // Originals survive untouched in name.
        assert!(m.function("step").is_some());
        assert!(m.function("inner").is_some());
    }

    #[test]
    fn clone_calls_cloned_callee_but_keeps_shared_plain() {
        let m = midend(SRC);
        let aux = m.function("step__aux_d").unwrap();
        let callees = aux.callees();
        assert!(callees.contains(&"inner__aux_d".to_string()));
        assert!(callees.contains(&"plain".to_string()));
    }

    #[test]
    fn cloned_tradeoffs_get_rows_and_originals_are_deleted() {
        let m = midend(SRC);
        // Only cloned rows remain (paper: "includes only tradeoffs that are
        // part of auxiliary code").
        assert!(m.metadata.tradeoff("layers").is_none());
        let clone = m.metadata.tradeoff("layers__aux_d").unwrap();
        assert_eq!(clone.cloned_from.as_deref(), Some("layers"));
        assert_eq!(clone.owner_dep.as_deref(), Some("d"));
        // `prec` was never referenced: defaulted (no refs) and deleted.
        assert!(m.metadata.tradeoff("prec").is_none());
    }

    #[test]
    fn original_code_is_pinned_to_defaults() {
        let m = midend(SRC);
        // `inner` (original) must contain no tradeoff refs any more, and
        // executing it uses the default (index 4 -> value 5).
        let inner = m.function("inner").unwrap();
        assert!(inner.tradeoff_refs().is_empty());
        let out = crate::interp::Interp::new(&m)
            .call("inner", &[crate::interp::Value::Int(3)])
            .unwrap()
            .unwrap();
        assert_eq!(out.as_int(), Some(15));
    }

    #[test]
    fn aux_clone_still_has_placeholder() {
        let m = midend(SRC);
        let aux = m.function("inner__aux_d").unwrap();
        assert_eq!(aux.tradeoff_refs(), vec!["layers__aux_d".to_string()]);
    }

    #[test]
    fn dependence_row_links_aux() {
        let m = midend(SRC);
        let d = m.metadata.state_dep("d").unwrap();
        assert_eq!(d.aux_fn.as_deref(), Some("step__aux_d"));
        assert_eq!(d.aux_tradeoffs, vec!["layers__aux_d".to_string()]);
    }

    #[test]
    fn budget_limits_cloning() {
        let compiled = compile(SRC).unwrap();
        let m = run_with(
            compiled,
            MidendOptions {
                max_clone_insts: 1, // only compute_output itself fits
                ..MidendOptions::default()
            },
        )
        .unwrap();
        assert!(m.function("step__aux_d").is_some());
        assert!(m.function("inner__aux_d").is_none());
        // The uncloned callee keeps its original name in the clone…
        let aux = m.function("step__aux_d").unwrap();
        assert!(aux.callees().contains(&"inner".to_string()));
        // …and since `layers` was then pinned inside `inner`, the aux code
        // has no tunable tradeoffs.
        let d = m.metadata.state_dep("d").unwrap();
        assert!(d.aux_tradeoffs.is_empty());
    }

    #[test]
    fn two_dependences_get_independent_clones() {
        let src = r#"
            tradeoff k { values = [1, 2, 3]; default_index = 0; }
            state_dependence a { compute = f; }
            state_dependence b { compute = f; }
            fn f(x) { return x * tradeoff k; }
        "#;
        let m = midend(src);
        assert!(m.function("f__aux_a").is_some());
        assert!(m.function("f__aux_b").is_some());
        assert!(m.metadata.tradeoff("k__aux_a").is_some());
        assert!(m.metadata.tradeoff("k__aux_b").is_some());
    }

    #[test]
    fn gate_rejects_undeclared_state_race() {
        let src = r#"
            state acc = 0;
            state_dependence d { compute = step; }
            fn step(x) { acc = acc + x; return acc; }
        "#;
        let err = run(compile(src).unwrap()).unwrap_err();
        match err {
            CompileError::Analysis(diags) => {
                assert!(crate::analysis::has_errors(&diags));
                assert!(diags
                    .iter()
                    .any(|d| d.lint == crate::analysis::LintKind::UndeclaredStateRace));
            }
            other => panic!("expected analysis rejection, got {other:?}"),
        }
        // The same program passes once the dependence declares the state…
        let declared = src.replace("compute = step;", "compute = step; state = [acc];");
        run(compile(&declared).unwrap()).unwrap();
        // …or when the gate is explicitly disabled.
        run_with(
            compile(src).unwrap(),
            MidendOptions {
                enforce_analysis: false,
                ..MidendOptions::default()
            },
        )
        .unwrap();
    }

    #[test]
    fn size_stats() {
        let compiled = compile(SRC).unwrap();
        let (_, stats) = run_with_stats(compiled, MidendOptions::default()).unwrap();
        assert!(stats.final_insts > stats.original_insts);
        assert!(stats.size_increase() > 0.0);
    }
}

//! Module-level IR verification.
//!
//! This pass checks the invariants the pipeline relies on between phases:
//!
//! - every function's block structure ([`crate::ir::validate`], the check
//!   the interpreters run before executing a function);
//! - every direct call targets a defined function or a host intrinsic
//!   (the closed table in [`crate::value`]), with matching arity for
//!   defined functions; no defined function has an intrinsic's name, since
//!   intrinsics shadow module functions and no call could reach it;
//! - metadata referential integrity: each state dependence's `compute_fn`
//!   (and `aux_fn`, once the middle-end ran) exists; every name in
//!   `aux_tradeoffs` has a tradeoff row; every tradeoff row's
//!   `cloned_from`/`owner_dep` references exist; computed rows point at a
//!   defined `getValue` function, and every candidate of a function row is
//!   a defined function or a host intrinsic;
//! - every tradeoff referenced by instructions has a metadata row (before
//!   the back-end) — after instantiation, [`verify_instantiated`] instead
//!   requires that *no* placeholder survived.

use std::collections::HashSet;

use crate::ir::{Function, Inst, Module};
use crate::metadata::TradeoffValues;
use crate::value::intrinsic;

/// A precise code location: a function plus a flat instruction index (the
/// position in [`Function::insts`] iteration order). Shared by verification
/// errors and the [`crate::analysis`] lint diagnostics so every finding can
/// point at the offending instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Location {
    /// The containing function's name.
    pub function: String,
    /// Flat instruction index within the function (0-based, in
    /// [`Function::insts`] order).
    pub inst: usize,
}

impl Location {
    /// Build a location.
    pub fn new(function: impl Into<String>, inst: usize) -> Self {
        Location {
            function: function.into(),
            inst,
        }
    }
}

impl std::fmt::Display for Location {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.function, self.inst)
    }
}

/// A verification failure, with the offending item named and (for
/// per-instruction failures) located.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    /// Human-readable description.
    pub message: String,
    /// The offending instruction, when the failure is inside a function
    /// body (metadata-table failures carry no location).
    pub location: Option<Location>,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.location {
            Some(loc) => write!(f, "verify: {} (at {loc})", self.message),
            None => write!(f, "verify: {}", self.message),
        }
    }
}

impl std::error::Error for VerifyError {}

fn err(message: String) -> VerifyError {
    VerifyError {
        message,
        location: None,
    }
}

fn err_at(message: String, location: Location) -> VerifyError {
    VerifyError {
        message,
        location: Some(location),
    }
}

/// Per-instruction checks: calls resolve with matching arity, tradeoff
/// references have metadata rows, state accesses name declared variables.
fn check_insts(
    module: &Module,
    f: &Function,
    tradeoff_names: &HashSet<&str>,
    state_names: &HashSet<&str>,
) -> Result<(), VerifyError> {
    for (i, inst) in f.insts().enumerate() {
        let at = || Location::new(&f.name, i);
        match inst {
            Inst::Call { callee, args, .. } if intrinsic(callee).is_none() => {
                match module.function(callee) {
                    None => {
                        return Err(err_at(
                            format!("`{}` calls undefined function `{callee}`", f.name),
                            at(),
                        ))
                    }
                    Some(target) if target.params.len() != args.len() => {
                        return Err(err_at(
                            format!(
                                "`{}` calls `{callee}` with {} arguments; it takes {}",
                                f.name,
                                args.len(),
                                target.params.len()
                            ),
                            at(),
                        ))
                    }
                    Some(_) => {}
                }
            }
            Inst::TradeoffRef { tradeoff, .. } | Inst::CallTradeoff { tradeoff, .. }
                if !tradeoff_names.contains(tradeoff.as_str()) =>
            {
                return Err(err_at(
                    format!(
                        "`{}` references tradeoff `{tradeoff}` with no metadata row",
                        f.name
                    ),
                    at(),
                ));
            }
            Inst::Cast {
                to: crate::ir::TyRef::Tradeoff(t),
                ..
            } if !tradeoff_names.contains(t.as_str()) => {
                return Err(err_at(
                    format!(
                        "`{}` references tradeoff `{t}` with no metadata row",
                        f.name
                    ),
                    at(),
                ));
            }
            Inst::LoadState { state, .. } | Inst::StoreState { state, .. }
                if !state_names.contains(state.as_str()) =>
            {
                return Err(err_at(
                    format!("`{}` accesses undeclared state variable `{state}`", f.name),
                    at(),
                ));
            }
            _ => {}
        }
    }
    Ok(())
}

/// Verify a module in its pre-instantiation state (front-end or middle-end
/// output): calls resolve and metadata is internally consistent.
pub fn verify(module: &Module) -> Result<(), VerifyError> {
    let tradeoff_names: HashSet<&str> = module
        .metadata
        .tradeoffs
        .iter()
        .map(|t| t.name.as_str())
        .collect();
    let state_names: HashSet<&str> = module
        .metadata
        .state_vars
        .iter()
        .map(|v| v.name.as_str())
        .collect();

    for f in module.functions() {
        if intrinsic(&f.name).is_some() {
            return Err(err(format!(
                "function `{0}` is unreachable: the host intrinsic `{0}` shadows it",
                f.name
            )));
        }
        crate::ir::validate(f).map_err(|e| err(e.to_string()))?;
        check_insts(module, f, &tradeoff_names, &state_names)?;
    }

    for row in &module.metadata.tradeoffs {
        if row.default_index < 0 || row.default_index >= row.max_index {
            return Err(err(format!(
                "tradeoff `{}`: default index {} outside 0..{}",
                row.name, row.default_index, row.max_index
            )));
        }
        match &row.values {
            TradeoffValues::Computed { get_value_fn }
                if module.function(get_value_fn).is_none() =>
            {
                return Err(err(format!(
                    "tradeoff `{}`: getValue function `{get_value_fn}` missing",
                    row.name
                )));
            }
            TradeoffValues::Functions(candidates) => {
                let unknown = candidates
                    .iter()
                    .find(|c| module.function(c).is_none() && intrinsic(c).is_none());
                if let Some(c) = unknown {
                    return Err(err(format!(
                        "tradeoff `{}`: candidate `{c}` is neither a function nor an intrinsic",
                        row.name
                    )));
                }
            }
            _ => {}
        }
        if let Some(orig) = &row.cloned_from {
            // The original row is deleted by the middle-end; only require
            // the owner dependence to exist.
            let _ = orig;
            match &row.owner_dep {
                Some(dep) if module.metadata.state_dep(dep).is_some() => {}
                Some(dep) => {
                    return Err(err(format!(
                        "tradeoff `{}` owned by unknown dependence `{dep}`",
                        row.name
                    )))
                }
                None => {
                    return Err(err(format!(
                        "cloned tradeoff `{}` has no owner dependence",
                        row.name
                    )))
                }
            }
        }
    }

    for dep in &module.metadata.state_deps {
        if module.function(&dep.compute_fn).is_none() {
            return Err(err(format!(
                "dependence `{}`: compute function `{}` missing",
                dep.name, dep.compute_fn
            )));
        }
        if let Some(aux) = &dep.aux_fn {
            if module.function(aux).is_none() {
                return Err(err(format!(
                    "dependence `{}`: auxiliary function `{aux}` missing",
                    dep.name
                )));
            }
        }
        for t in &dep.aux_tradeoffs {
            if !tradeoff_names.contains(t.as_str()) {
                return Err(err(format!(
                    "dependence `{}` lists unknown auxiliary tradeoff `{t}`",
                    dep.name
                )));
            }
        }
        for s in &dep.declared_state {
            if !state_names.contains(s.as_str()) {
                return Err(err(format!(
                    "dependence `{}` declares unknown state variable `{s}`",
                    dep.name
                )));
            }
        }
    }
    Ok(())
}

/// Verify a back-end output: everything [`verify`] checks, plus no
/// tradeoff placeholder of any kind survived instantiation.
pub fn verify_instantiated(module: &Module) -> Result<(), VerifyError> {
    verify(module)?;
    for f in module.functions() {
        let refs = f.tradeoff_refs();
        if !refs.is_empty() {
            return Err(err(format!(
                "`{}` still contains tradeoff placeholders after \
                 instantiation: {refs:?}",
                f.name
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{self, DepConfig};
    use crate::frontend::{compile, CompileError};
    use crate::midend;

    const SRC: &str = r#"
        tradeoff layers { max_index = 10; default_index = 4; value(i) = i + 1; }
        state_dependence d { compute = step; }
        fn helper(x) { return x * tradeoff layers; }
        fn step(v) { return helper(v) + sqrt(v); }
    "#;

    #[test]
    fn frontend_and_midend_outputs_verify() {
        let compiled = compile(SRC).unwrap();
        verify(&compiled.module).unwrap();
        let module = midend::run(compiled).unwrap();
        verify(&module).unwrap();
    }

    #[test]
    fn instantiated_output_verifies() {
        let module = midend::run(compile(SRC).unwrap()).unwrap();
        let cfg: DepConfig = [("d".to_string(), vec![3])].into_iter().collect();
        let binary = backend::instantiate(&module, &cfg).unwrap();
        verify_instantiated(&binary).unwrap();
    }

    #[test]
    fn pre_instantiation_module_fails_instantiated_check() {
        let module = midend::run(compile(SRC).unwrap()).unwrap();
        let e = verify_instantiated(&module).unwrap_err();
        assert!(e.message.contains("placeholders"));
    }

    #[test]
    fn undefined_call_detected() {
        use crate::ir::{BlockId, Function, Inst};
        let mut m = Module::new();
        let mut f = Function::new("f", 0);
        f.push(
            BlockId(0),
            Inst::Call {
                dst: None,
                callee: "ghost".into(),
                args: vec![],
            },
        );
        f.push(BlockId(0), Inst::Ret { value: None });
        m.add_function(f);
        let e = verify(&m).unwrap_err();
        assert!(e.message.contains("ghost"));
    }

    #[test]
    fn call_arity_detected() {
        use crate::ir::{BlockId, Function, Inst, Operand};
        let mut m = Module::new();
        m.add_function(Function::new("g", 2));
        // g has no terminator -> give it one.
        m.function_mut("g")
            .unwrap()
            .push(BlockId(0), Inst::Ret { value: None });
        let mut f = Function::new("f", 0);
        f.push(
            BlockId(0),
            Inst::Call {
                dst: None,
                callee: "g".into(),
                args: vec![Operand::ImmInt(1)],
            },
        );
        f.push(BlockId(0), Inst::Ret { value: None });
        m.add_function(f);
        let e = verify(&m).unwrap_err();
        assert!(e.message.contains("takes 2"));
    }

    #[test]
    fn dangling_metadata_detected() {
        use crate::metadata::StateDepMeta;
        let mut m = Module::new();
        m.metadata.state_deps.push(StateDepMeta {
            name: "d".into(),
            compute_fn: "missing".into(),
            aux_fn: None,
            aux_tradeoffs: vec![],
            declared_state: vec![],
        });
        let e = verify(&m).unwrap_err();
        assert!(e.message.contains("missing"));
    }

    #[test]
    fn unknown_function_tradeoff_candidate_detected() {
        let err = compile(
            "tradeoff r { functions = [nope, sqrt]; default_index = 0; }
             state_dependence d { compute = f; }
             fn f(a) { return choose r(a); }",
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::Semantic(_)), "{err}");
        assert!(format!("{err}").contains("candidate `nope`"), "{err}");
        // Candidates naming a function or an intrinsic verify.
        compile(
            "tradeoff r { functions = [g, sqrt]; default_index = 0; }
             fn g(a) { return a; }
             fn f(a) { return choose r(a); }",
        )
        .unwrap();
    }

    #[test]
    fn orphan_tradeoff_reference_detected() {
        let mut m = Module::new();
        use crate::ir::{BlockId, Function, Inst};
        let mut f = Function::new("f", 0);
        let dst = f.fresh_reg();
        f.push(
            BlockId(0),
            Inst::TradeoffRef {
                dst,
                tradeoff: "nowhere".into(),
            },
        );
        f.push(
            BlockId(0),
            Inst::Ret {
                value: Some(dst.into()),
            },
        );
        m.add_function(f);
        let e = verify(&m).unwrap_err();
        assert!(e.message.contains("nowhere"));
    }

    /// `verify` and the interpreters run one block-structure check
    /// (`ir::validate`): a block ends at its first terminator, so code
    /// after it is not checked, and a block with no terminator is refused
    /// by both, naming the same block.
    #[test]
    fn verify_and_the_interpreter_agree_on_block_structure() {
        use crate::bytecode::BytecodeInterp;
        use crate::ir::{BlockId, Function, Inst, Operand};
        use crate::value::{ExecError, Value};

        let mut dead_tail = Function::new("dead_tail", 0);
        dead_tail.push(
            BlockId(0),
            Inst::Ret {
                value: Some(Operand::ImmInt(5)),
            },
        );
        dead_tail.push(
            BlockId(0),
            Inst::Jmp {
                target: BlockId(99),
            },
        );
        let mut m = Module::new();
        m.add_function(dead_tail);
        verify(&m).unwrap();
        let out = BytecodeInterp::new(&m).call("dead_tail", &[]).unwrap();
        assert_eq!(out, Some(Value::Int(5)));

        let mut open = Function::new("open", 0);
        let b1 = open.new_block();
        open.push(BlockId(0), Inst::Jmp { target: b1 });
        let r = open.fresh_reg();
        open.push(
            b1,
            Inst::Const {
                dst: r,
                value: Operand::ImmInt(1),
            },
        );
        let mut m = Module::new();
        m.add_function(open);
        let e = verify(&m).unwrap_err();
        assert!(e.message.contains("block 1"), "{e}");
        let err = BytecodeInterp::new(&m).call("open", &[]).unwrap_err();
        assert_eq!(
            err,
            ExecError::MalformedBlock {
                function: "open".into(),
                block: 1,
            }
        );
    }

    #[test]
    fn intrinsics_need_no_definition() {
        let m = midend::run(compile("fn f(x) { return max(x, floor(x)); }").unwrap()).unwrap();
        verify(&m).unwrap();
    }
}

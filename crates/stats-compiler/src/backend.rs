//! The back-end compiler (paper §3.4, "Generating a binary").
//!
//! The back-end takes the middle-end's IR plus one autotuner configuration
//! (which state dependences get auxiliary code, and each auxiliary
//! tradeoff's index) and produces the executable artifact. Setting each
//! tradeoff fetches its value by "dynamically compiling" `getValue(i)`
//! (here: compiling it to [`crate::bytecode`] and calling it) and then
//! rewrites references: constants replace placeholder calls, type
//! tradeoffs retype casts, function tradeoffs replace callees. The
//! instantiation step is deliberately cheap — the autotuner instantiates
//! the same IR for many configurations.
//!
//! The binary runs the same way: build one
//! [`BytecodeInterp`](crate::bytecode::BytecodeInterp) over it and call
//! its functions through that interpreter, which compiles each function
//! once.

use std::collections::HashMap;

use stats_core::{ScalarType, TradeoffBindings, TradeoffValue};

use crate::frontend::CompileError;
use crate::ir::{Module, Ty};
use crate::midend::{substitute, tradeoff_value_at, ResolvedValue};

/// A per-dependence configuration: tradeoff indices in the order of the
/// dependence's `aux_tradeoffs` metadata.
pub type DepConfig = HashMap<String, Vec<i64>>;

/// Instantiate `module` for one configuration, producing an executable
/// module (the "binary"). Dependences absent from `config` have their
/// auxiliary tradeoffs pinned to defaults (the autotuner may still decide
/// not to *use* the auxiliary code at run time; that switch lives in
/// `SpecConfig::speculate`).
pub fn instantiate(module: &Module, config: &DepConfig) -> Result<Module, CompileError> {
    let mut out = module.clone();
    let rows = out.metadata.tradeoffs.clone();
    for row in &rows {
        let Some(dep) = row.owner_dep.clone() else {
            return Err(CompileError::Semantic(format!(
                "tradeoff `{}` survived the middle-end without an owner",
                row.name
            )));
        };
        let position = out
            .metadata
            .state_dep(&dep)
            .and_then(|d| d.aux_tradeoffs.iter().position(|t| *t == row.name));
        let index = match (config.get(&dep), position) {
            (Some(indices), Some(pos)) => indices.get(pos).copied().unwrap_or(row.default_index),
            _ => row.default_index,
        };
        let value = tradeoff_value_at(&out, row, index)?;
        substitute(&mut out, &row.name, &value)?;
    }
    debug_assert!(
        crate::verify::verify_instantiated(&out).is_ok(),
        "back-end produced an unverifiable module: {:?}",
        crate::verify::verify_instantiated(&out)
    );
    Ok(out)
}

/// Build [`stats_core::TradeoffBindings`] for one dependence's auxiliary
/// code from an instantiated configuration — the bridge between the
/// compiler pipeline and native-Rust workloads. Keys are the *original*
/// tradeoff names (what workload code references via `InvocationCtx`).
pub fn core_bindings(
    module: &Module,
    dep: &str,
    indices: &[i64],
) -> Result<TradeoffBindings, CompileError> {
    let dep_row = module
        .metadata
        .state_dep(dep)
        .ok_or_else(|| CompileError::Semantic(format!("unknown state dependence `{dep}`")))?;
    let mut bindings = TradeoffBindings::new();
    for (pos, t) in dep_row.aux_tradeoffs.clone().iter().enumerate() {
        let row = module
            .metadata
            .tradeoff(t)
            .ok_or_else(|| CompileError::Semantic(format!("unknown tradeoff `{t}`")))?;
        let index = indices.get(pos).copied().unwrap_or(row.default_index);
        let key = row.cloned_from.clone().unwrap_or_else(|| row.name.clone());
        let value = match tradeoff_value_at(module, row, index)? {
            ResolvedValue::Int(v) => TradeoffValue::Int(v),
            ResolvedValue::Float(v) => TradeoffValue::Float(v),
            ResolvedValue::Function(name) => TradeoffValue::Function(name),
            ResolvedValue::Type(Ty::F32) => TradeoffValue::Type(ScalarType::F32),
            ResolvedValue::Type(Ty::F64) => TradeoffValue::Type(ScalarType::F64),
            ResolvedValue::Type(Ty::I64) => TradeoffValue::Int(0),
        };
        bindings.set(key, value);
    }
    Ok(bindings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::BytecodeInterp;
    use crate::frontend::compile;
    use crate::midend;
    use crate::value::{ExecError, Value};

    /// Run one function of an instantiated module the way the product
    /// path does: compile it to bytecode, then call it.
    fn call(module: &Module, function: &str, args: &[Value]) -> Result<Option<Value>, ExecError> {
        BytecodeInterp::new(module).call(function, args)
    }

    fn module() -> Module {
        let src = r#"
            tradeoff layers { max_index = 10; default_index = 4; value(i) = i + 1; }
            state_dependence d { compute = step; }
            fn step(v) {
                let l = tradeoff layers;
                return v * l;
            }
        "#;
        midend::run(compile(src).unwrap()).unwrap()
    }

    #[test]
    fn constant_tradeoff_substitution() {
        let m = module();
        let cfg: DepConfig = [("d".to_string(), vec![9])].into_iter().collect();
        let binary = instantiate(&m, &cfg).unwrap();
        // Aux clone uses index 9 -> value 10.
        let out = call(&binary, "step__aux_d", &[3.into()]).unwrap().unwrap();
        assert_eq!(out.as_int(), Some(30));
        // Original code uses the default (index 4 -> 5).
        let out = call(&binary, "step", &[3.into()]).unwrap().unwrap();
        assert_eq!(out.as_int(), Some(15));
    }

    #[test]
    fn missing_config_uses_defaults() {
        let m = module();
        let binary = instantiate(&m, &DepConfig::new()).unwrap();
        let out = call(&binary, "step__aux_d", &[3.into()]).unwrap().unwrap();
        assert_eq!(out.as_int(), Some(15));
    }

    #[test]
    fn out_of_range_index_is_clamped() {
        let m = module();
        let cfg: DepConfig = [("d".to_string(), vec![1000])].into_iter().collect();
        let binary = instantiate(&m, &cfg).unwrap();
        let out = call(&binary, "step__aux_d", &[1.into()]).unwrap().unwrap();
        assert_eq!(out.as_int(), Some(10));
    }

    #[test]
    fn instantiation_is_repeatable() {
        // The autotuner instantiates the same IR many times; instantiation
        // must not mutate its input.
        let m = module();
        let cfg1: DepConfig = [("d".to_string(), vec![0])].into_iter().collect();
        let cfg2: DepConfig = [("d".to_string(), vec![9])].into_iter().collect();
        let b1 = instantiate(&m, &cfg1).unwrap();
        let b2 = instantiate(&m, &cfg2).unwrap();
        let o1 = call(&b1, "step__aux_d", &[1.into()]).unwrap().unwrap();
        let o2 = call(&b2, "step__aux_d", &[1.into()]).unwrap().unwrap();
        assert_eq!(o1.as_int(), Some(1));
        assert_eq!(o2.as_int(), Some(10));
    }

    #[test]
    fn instantiated_module_has_no_placeholders() {
        let m = module();
        let cfg: DepConfig = [("d".to_string(), vec![2])].into_iter().collect();
        let binary = instantiate(&m, &cfg).unwrap();
        for f in binary.functions() {
            assert!(
                f.tradeoff_refs().is_empty(),
                "{} still has tradeoff refs",
                f.name
            );
        }
    }

    #[test]
    fn function_tradeoff_substitution() {
        use crate::ir::{BlockId, Function, Inst};
        use crate::metadata::{StateDepMeta, TradeoffMeta, TradeoffValues};
        // Build: step(v) = <sqrtVersion>(v), tradeoff over {sqrt, half}.
        let mut m = Module::new();
        let mut half = Function::new("half", 1);
        let p = half.params[0];
        let dst = half.fresh_reg();
        half.push(
            BlockId(0),
            Inst::Bin {
                op: crate::ir::BinOp::Div,
                dst,
                lhs: p.into(),
                rhs: crate::ir::Operand::ImmFloat(2.0),
            },
        );
        half.push(
            BlockId(0),
            Inst::Ret {
                value: Some(dst.into()),
            },
        );
        m.add_function(half);

        let mut step = Function::new("step__aux_d", 1);
        let p = step.params[0];
        let dst = step.fresh_reg();
        step.push(
            BlockId(0),
            Inst::CallTradeoff {
                dst: Some(dst),
                tradeoff: "sqrtVersion__aux_d".into(),
                args: vec![p.into()],
            },
        );
        step.push(
            BlockId(0),
            Inst::Ret {
                value: Some(dst.into()),
            },
        );
        m.add_function(step);

        // The original compute function the metadata row points at (the
        // module verifier checks referential integrity).
        let mut orig = Function::new("step", 1);
        let po = orig.params[0];
        orig.push(
            BlockId(0),
            Inst::Ret {
                value: Some(po.into()),
            },
        );
        m.add_function(orig);

        m.metadata.tradeoffs.push(TradeoffMeta {
            name: "sqrtVersion__aux_d".into(),
            max_index: 2,
            default_index: 0,
            values: TradeoffValues::Functions(vec!["sqrt".into(), "half".into()]),
            cloned_from: Some("sqrtVersion".into()),
            owner_dep: Some("d".into()),
        });
        m.metadata.state_deps.push(StateDepMeta {
            name: "d".into(),
            compute_fn: "step".into(),
            aux_fn: Some("step__aux_d".into()),
            aux_tradeoffs: vec!["sqrtVersion__aux_d".into()],
            declared_state: vec![],
        });

        let cfg: DepConfig = [("d".to_string(), vec![1])].into_iter().collect();
        let binary = instantiate(&m, &cfg).unwrap();
        let out = call(&binary, "step__aux_d", &[8.0.into()])
            .unwrap()
            .unwrap();
        assert_eq!(out.as_float(), 4.0);

        let cfg0: DepConfig = [("d".to_string(), vec![0])].into_iter().collect();
        let binary0 = instantiate(&m, &cfg0).unwrap();
        let out0 = call(&binary0, "step__aux_d", &[9.0.into()])
            .unwrap()
            .unwrap();
        assert_eq!(out0.as_float(), 3.0);
    }

    #[test]
    fn choose_syntax_end_to_end() {
        // A function tradeoff declared and used entirely in the DSL.
        let src = r#"
            tradeoff rootVersion { functions = [exact_like, half]; default_index = 0; }
            state_dependence d { compute = step; }
            fn exact_like(x) { return x; }
            fn half(x) { return x / 2; }
            fn step(v) { return choose rootVersion(v) + 1; }
        "#;
        let m = midend::run(compile(src).unwrap()).unwrap();
        let cfg1: DepConfig = [("d".to_string(), vec![1])].into_iter().collect();
        let b1 = instantiate(&m, &cfg1).unwrap();
        let out = call(&b1, "step__aux_d", &[8.into()]).unwrap().unwrap();
        assert_eq!(out.as_int(), Some(5)); // half(8) + 1
                                           // Original code pins to the default (exact_like).
        let out = call(&b1, "step", &[8.into()]).unwrap().unwrap();
        assert_eq!(out.as_int(), Some(9));
    }

    #[test]
    fn quantize_syntax_end_to_end() {
        // A type tradeoff declared and applied entirely in the DSL: at f32
        // the value loses precision, at f64 it is exact.
        let src = r#"
            tradeoff prec { types = [f32, f64]; default_index = 1; }
            state_dependence d { compute = step; }
            fn step(v) { return quantize prec(v / 3.0); }
        "#;
        let m = midend::run(compile(src).unwrap()).unwrap();
        let x = 1.0_f64;
        let exact = x / 3.0;
        let cfg64: DepConfig = [("d".to_string(), vec![1])].into_iter().collect();
        let b64 = instantiate(&m, &cfg64).unwrap();
        let out64 = call(&b64, "step__aux_d", &[x.into()]).unwrap().unwrap();
        assert_eq!(out64.as_float(), exact);

        let cfg32: DepConfig = [("d".to_string(), vec![0])].into_iter().collect();
        let b32 = instantiate(&m, &cfg32).unwrap();
        let out32 = call(&b32, "step__aux_d", &[x.into()]).unwrap().unwrap();
        assert_eq!(out32.as_float(), exact as f32 as f64);
        assert_ne!(out32.as_float(), exact);
    }

    #[test]
    fn core_bindings_bridge() {
        let m = module();
        let b = core_bindings(&m, "d", &[9]).unwrap();
        assert_eq!(b.get("layers").unwrap().as_int(), Some(10));
        let b_def = core_bindings(&m, "d", &[]).unwrap();
        assert_eq!(b_def.get("layers").unwrap().as_int(), Some(5));
    }

    #[test]
    fn unknown_dep_in_bindings_is_error() {
        let m = module();
        assert!(core_bindings(&m, "ghost", &[]).is_err());
    }
}

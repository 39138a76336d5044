//! Post-instantiation IR optimizations.
//!
//! The back-end's tradeoff substitution leaves obvious constants behind
//! (`dst = const; use dst` chains, branches on constant conditions). These
//! passes clean the instantiated module before execution: dead-tail
//! removal, block-local constant folding, branch simplification,
//! unreachable-block elimination, and dead-store elimination. They keep
//! instantiation cheap (all passes are linear) while shrinking the
//! "binary".

use std::collections::{HashMap, HashSet};

use crate::ir::{BinOp, Block, Function, Inst, Module, Operand, Reg};
use crate::value::{binop, Value};

/// Run every optimization pass over each function of the module, to a fixed
/// point (bounded), and return the number of instructions removed.
pub fn optimize(module: &mut Module) -> usize {
    let before = module.inst_count();
    for f in module.functions_mut() {
        // Code after a block's terminator never runs. Dropping it first
        // keeps the terminator last, so no later pass sees (or remaps) a
        // dead jump to a block it removed.
        for block in f.blocks.iter_mut() {
            block.insts.truncate(block.live().len());
        }
        for _ in 0..4 {
            let changed = fold_constants(f) | simplify_branches(f);
            remove_unreachable_blocks(f);
            eliminate_dead_stores(f);
            if !changed {
                break;
            }
        }
    }
    before.saturating_sub(module.inst_count())
}

fn as_const(op: &Operand) -> Option<Value> {
    match op {
        Operand::ImmInt(v) => Some(Value::Int(*v)),
        Operand::ImmFloat(v) => Some(Value::Float(*v)),
        Operand::Reg(_) => None,
    }
}

fn to_operand(v: Value) -> Operand {
    match v {
        Value::Int(i) => Operand::ImmInt(i),
        Value::Float(f) => Operand::ImmFloat(f),
    }
}

/// Block-local constant propagation and folding. Registers written by
/// non-constant instructions (or in other blocks) are conservatively
/// unknown at block entry, which is sound for the mutable-register IR.
fn fold_constants(f: &mut Function) -> bool {
    let mut changed = false;
    for block in f.blocks.iter_mut() {
        let mut env: HashMap<Reg, Value> = HashMap::new();
        for inst in block.insts.iter_mut() {
            for op in inst.operands_mut() {
                if let Operand::Reg(r) = op {
                    if let Some(&v) = env.get(r) {
                        *op = to_operand(v);
                        changed = true;
                    }
                }
            }
            let Some(dst) = inst.def() else { continue };
            // Every register operand left is one not known to be constant.
            let folded = match inst {
                Inst::Const { value, .. } => as_const(value),
                // A division by zero is left to fail at run time.
                Inst::Bin { op, lhs, rhs, .. } => match (as_const(lhs), as_const(rhs)) {
                    (Some(a), Some(b)) => binop(*op, a, b).ok(),
                    _ => None,
                },
                _ => None,
            };
            match folded {
                Some(v) => {
                    if !matches!(inst, Inst::Const { .. }) {
                        *inst = Inst::Const {
                            dst,
                            value: to_operand(v),
                        };
                        changed = true;
                    }
                    env.insert(dst, v);
                }
                None => {
                    env.remove(&dst);
                }
            }
        }
    }
    changed
}

/// Rewrite branches whose condition is a constant into jumps.
fn simplify_branches(f: &mut Function) -> bool {
    let mut changed = false;
    for block in f.blocks.iter_mut() {
        if let Some(Inst::Br {
            cond,
            then_b,
            else_b,
        }) = block.terminator()
        {
            let taken = match cond {
                Operand::ImmInt(v) => Some(if *v != 0 { *then_b } else { *else_b }),
                Operand::ImmFloat(v) => Some(if *v != 0.0 { *then_b } else { *else_b }),
                Operand::Reg(_) => None,
            };
            if let Some(target) = taken {
                let at = block.live().len() - 1;
                block.insts[at] = Inst::Jmp { target };
                changed = true;
            }
        }
    }
    changed
}

/// Drop blocks unreachable from the entry (after branch simplification),
/// remapping block ids.
fn remove_unreachable_blocks(f: &mut Function) {
    let n = f.blocks.len();
    let mut reachable = vec![false; n];
    let mut stack = vec![0usize];
    while let Some(b) = stack.pop() {
        if b >= n || reachable[b] {
            continue;
        }
        reachable[b] = true;
        stack.extend(f.blocks[b].successors().map(|s| s.0));
    }
    if reachable.iter().all(|&r| r) {
        return;
    }
    let mut remap = vec![usize::MAX; n];
    let mut kept: Vec<Block> = Vec::new();
    for (i, block) in f.blocks.drain(..).enumerate() {
        if reachable[i] {
            remap[i] = kept.len();
            kept.push(block);
        }
    }
    for block in kept.iter_mut() {
        for inst in block.insts.iter_mut() {
            match inst {
                Inst::Jmp { target } => target.0 = remap[target.0],
                Inst::Br { then_b, else_b, .. } => {
                    then_b.0 = remap[then_b.0];
                    else_b.0 = remap[else_b.0];
                }
                _ => {}
            }
        }
    }
    f.blocks = kept;
}

/// Remove pure instructions whose destination register is never read
/// anywhere in the function (sound even with mutable registers: a register
/// with no reads at all cannot affect behavior).
fn eliminate_dead_stores(f: &mut Function) {
    let read: HashSet<Reg> = f.insts().flat_map(Inst::reads).collect();
    for block in f.blocks.iter_mut() {
        block.insts.retain(|inst| match inst {
            // Division and remainder can trap: only dead when the divisor
            // is a provably nonzero immediate.
            Inst::Bin {
                op: BinOp::Div | BinOp::Rem,
                dst,
                rhs,
                ..
            } => {
                let provably_nonzero = matches!(rhs, Operand::ImmInt(v) if *v != 0)
                    || matches!(rhs, Operand::ImmFloat(v) if *v != 0.0);
                read.contains(dst) || !provably_nonzero
            }
            // A state load is a pure read: dead when its result is unread.
            Inst::Const { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Cast { dst, .. }
            | Inst::LoadState { dst, .. } => read.contains(dst),
            // Calls may have effects and state stores always do; keep them.
            // Terminators always stay.
            _ => true,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend;
    use crate::frontend::compile;
    use crate::interp::{Interp, Value};
    use crate::midend;

    fn compiled_module(src: &str) -> Module {
        midend::run(compile(src).unwrap()).unwrap()
    }

    #[test]
    fn folds_constant_arithmetic() {
        let mut m = compiled_module("fn f() { let a = 3; let b = 4; return a * b + 1; }");
        let removed = optimize(&mut m);
        assert!(removed > 0, "nothing folded");
        let out = Interp::new(&m).call("f", &[]).unwrap().unwrap();
        assert_eq!(out, Value::Int(13));
        // The function should now be a single constant return (plus the
        // residual block structure).
        assert!(m.function("f").unwrap().inst_count() <= 2);
    }

    #[test]
    fn preserves_division_by_zero() {
        let mut m = compiled_module("fn f() { return 1 / 0; }");
        optimize(&mut m);
        let err = Interp::new(&m).call("f", &[]).unwrap_err();
        assert_eq!(err, crate::interp::ExecError::DivisionByZero);
    }

    #[test]
    fn simplifies_constant_branches_and_drops_dead_blocks() {
        let mut m =
            compiled_module("fn f(x) { if (1 < 2) { return x + 1; } else { return x - 1; } }");
        let before_blocks = m.function("f").unwrap().blocks.len();
        optimize(&mut m);
        let after_blocks = m.function("f").unwrap().blocks.len();
        assert!(after_blocks < before_blocks);
        let out = Interp::new(&m)
            .call("f", &[Value::Int(9)])
            .unwrap()
            .unwrap();
        assert_eq!(out, Value::Int(10));
    }

    #[test]
    fn loops_still_work_after_optimization() {
        let src = "fn sum(n) { let s = 0; let i = 1; while (i <= n) { s = s + i; i = i + 1; } return s; }";
        let mut m = compiled_module(src);
        optimize(&mut m);
        let out = Interp::new(&m)
            .call("sum", &[Value::Int(100)])
            .unwrap()
            .unwrap();
        assert_eq!(out, Value::Int(5050));
    }

    #[test]
    fn instantiated_module_optimizes_and_agrees() {
        let src = r#"
            tradeoff k { max_index = 8; default_index = 3; value(i) = i * 2; }
            state_dependence d { compute = step; }
            fn step(v) {
                let a = tradeoff k;
                if (a > 100) { return 0; }
                return v * a + a;
            }
        "#;
        let m = compiled_module(src);
        let cfg = [("d".to_string(), vec![5_i64])].into_iter().collect();
        let binary = backend::instantiate(&m, &cfg).unwrap();
        let mut optimized = binary.clone();
        let removed = optimize(&mut optimized);
        assert!(removed > 0);
        for arg in [0_i64, 7, -3] {
            let a = backend::call(&binary, "step__aux_d", &[arg.into()]).unwrap();
            let b = backend::call(&optimized, "step__aux_d", &[arg.into()]).unwrap();
            assert_eq!(a, b, "optimization changed behavior for {arg}");
        }
    }

    #[test]
    fn dead_stores_removed() {
        let mut m = compiled_module("fn f(x) { let unused = x * 99; return x; }");
        let before = m.function("f").unwrap().inst_count();
        optimize(&mut m);
        let after = m.function("f").unwrap().inst_count();
        assert!(after < before);
        let out = Interp::new(&m)
            .call("f", &[Value::Int(4)])
            .unwrap()
            .unwrap();
        assert_eq!(out, Value::Int(4));
    }

    /// Lowering leaves a dead `jmp` after each `return`. The optimizer
    /// drops it before it removes blocks, so no jump is left pointing at a
    /// block that is gone.
    #[test]
    fn no_jump_outlives_its_target() {
        let mut m = compiled_module("fn f(x) { if (1 < 2) { return x; } else { return 0; } }");
        optimize(&mut m);
        let f = m.function("f").unwrap();
        crate::ir::validate(f).unwrap();
        assert!(f.blocks.iter().all(|b| b.live().len() == b.insts.len()));
        let out = Interp::new(&m).call("f", &[Value::Int(3)]).unwrap();
        assert_eq!(out, Some(Value::Int(3)));
    }

    #[test]
    fn calls_are_never_deleted() {
        let mut m = compiled_module("fn g(x) { return x; } fn f() { let r = g(1); return 2; }");
        optimize(&mut m);
        // g(1)'s result is dead but the call might have effects: kept.
        let f = m.function("f").unwrap();
        assert!(f.insts().any(|i| matches!(i, Inst::Call { .. })));
    }
}

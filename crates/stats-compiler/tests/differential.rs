//! Differential testing across three engines: a reference AST evaluator
//! (the "tree interpreter"), the slot-resolved interpreter, and the flat
//! bytecode interpreter, over randomly generated programs. The slot and
//! bytecode engines must agree *exactly* — same values AND same errors
//! (including static `ExecError::UnassignedRegister`) — while the AST
//! reference pins the integer semantics both must implement. Any
//! divergence is a bug in the lowerer, an interpreter or the bytecode
//! compiler.

use proptest::prelude::*;
use stats_compiler::ast::{BinOp, Expr, FnDef, Stmt};
use stats_compiler::bytecode::BytecodeInterp;
use stats_compiler::interp::{Interp, Value};
use stats_compiler::ir::{validate, Module};
use stats_compiler::lower::lower_fn;

/// Reference evaluator over the AST (integer-only semantics, wrapping
/// arithmetic, mirroring the interpreter's `i64` rules).
fn eval_expr(e: &Expr, env: &std::collections::HashMap<String, i64>) -> Option<i64> {
    Some(match e {
        Expr::Int(v) => *v,
        Expr::Float(_)
        | Expr::TradeoffRef(_)
        | Expr::Call(..)
        | Expr::TradeoffCall(..)
        | Expr::TradeoffCast(..) => return None,
        Expr::Var(n) => *env.get(n)?,
        Expr::Neg(x) => 0i64.wrapping_sub(eval_expr(x, env)?),
        Expr::Not(x) => (eval_expr(x, env)? == 0) as i64,
        Expr::Bin(op, a, b) => {
            let x = eval_expr(a, env)?;
            let y = eval_expr(b, env)?;
            match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Div => {
                    if y == 0 {
                        return None;
                    }
                    x.wrapping_div(y)
                }
                BinOp::Rem => {
                    if y == 0 {
                        return None;
                    }
                    x.wrapping_rem(y)
                }
                BinOp::Lt => (x < y) as i64,
                BinOp::Le => (x <= y) as i64,
                BinOp::Gt => (x > y) as i64,
                BinOp::Ge => (x >= y) as i64,
                BinOp::Eq => (x == y) as i64,
                BinOp::Ne => (x != y) as i64,
                BinOp::And => ((x != 0) && (y != 0)) as i64,
                BinOp::Or => ((x != 0) || (y != 0)) as i64,
            }
        }
    })
}

/// Execute a straight-line body of let/assign/if statements, returning the
/// value of the final `return`.
fn eval_body(
    stmts: &[Stmt],
    env: &mut std::collections::HashMap<String, i64>,
) -> Option<Option<i64>> {
    for s in stmts {
        match s {
            Stmt::Let(n, e) => {
                let v = eval_expr(e, env)?;
                env.insert(n.clone(), v);
            }
            Stmt::Assign(n, e) => {
                let v = eval_expr(e, env)?;
                if !env.contains_key(n) {
                    return None; // lowering rejects this; skip
                }
                env.insert(n.clone(), v);
            }
            Stmt::Return(e) => {
                let v = eval_expr(e, env)?;
                return Some(Some(v));
            }
            Stmt::If(c, t, f) => {
                let cond = eval_expr(c, env)?;
                let branch = if cond != 0 { t } else { f };
                if let Some(ret) = eval_body(branch, env)? {
                    return Some(Some(ret));
                }
            }
            Stmt::While(c, b) => {
                let mut fuel = 10_000u32;
                loop {
                    let cond = eval_expr(c, env)?;
                    if cond == 0 {
                        break;
                    }
                    if let Some(ret) = eval_body(b, env)? {
                        return Some(Some(ret));
                    }
                    fuel = fuel.checked_sub(1)?;
                }
            }
            Stmt::For(var, lo, hi, b) => {
                let start = eval_expr(lo, env)?;
                let end = eval_expr(hi, env)?;
                let mut i = start;
                while i < end {
                    env.insert(var.clone(), i);
                    if let Some(ret) = eval_body(b, env)? {
                        return Some(Some(ret));
                    }
                    // The desugared loop increments the variable slot, so
                    // body writes to it affect iteration; mirror that.
                    i = env.get(var).copied()?.wrapping_add(1);
                }
                env.insert(var.clone(), i);
            }
            Stmt::Expr(_) => return None,
        }
    }
    Some(None)
}

/// Expression strategy over variables `a`, `b` with arithmetic/compare ops.
fn arb_expr(depth: u32) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-50i64..50).prop_map(Expr::Int),
        Just(Expr::Var("a".into())),
        Just(Expr::Var("b".into())),
    ];
    leaf.prop_recursive(depth, 64, 2, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Mul),
                    Just(BinOp::Div),
                    Just(BinOp::Rem),
                    Just(BinOp::Lt),
                    Just(BinOp::Le),
                    Just(BinOp::Gt),
                    Just(BinOp::Ge),
                    Just(BinOp::Eq),
                    Just(BinOp::Ne),
                    Just(BinOp::And),
                    Just(BinOp::Or),
                ],
                inner.clone(),
                inner.clone()
            )
                .prop_map(|(op, a, b)| Expr::Bin(op, Box::new(a), Box::new(b))),
            inner.clone().prop_map(|e| Expr::Neg(Box::new(e))),
            inner.prop_map(|e| Expr::Not(Box::new(e))),
        ]
    })
}

/// Statement-list strategy: lets, assigns to existing names, ifs, bounded
/// for-loops, ending in a return.
fn arb_body() -> impl Strategy<Value = Vec<Stmt>> {
    let stmt = prop_oneof![
        arb_expr(2).prop_map(|e| Stmt::Let("x".into(), e)),
        arb_expr(2).prop_map(|e| Stmt::Let("y".into(), e)),
        (arb_expr(2), arb_expr(1), arb_expr(1)).prop_map(|(c, t, f)| {
            Stmt::If(
                c,
                vec![Stmt::Let("x".into(), t)],
                vec![Stmt::Let("y".into(), f)],
            )
        }),
        // Bounded for-loop accumulating into x (trip count <= 8).
        (0i64..8, arb_expr(1)).prop_map(|(n, body)| {
            Stmt::For(
                "i".into(),
                Expr::Int(0),
                Expr::Int(n),
                vec![Stmt::Let(
                    "x".into(),
                    Expr::Bin(BinOp::Add, Box::new(Expr::Var("x".into())), Box::new(body)),
                )],
            )
        }),
    ];
    (proptest::collection::vec(stmt, 0..6), arb_expr(3)).prop_map(|(mut body, ret)| {
        // Make x/y defined before any use.
        let mut stmts = vec![
            Stmt::Let("x".into(), Expr::Int(1)),
            Stmt::Let("y".into(), Expr::Int(2)),
        ];
        stmts.append(&mut body);
        stmts.push(Stmt::Return(ret_with_xy(ret)));
        stmts
    })
}

fn ret_with_xy(e: Expr) -> Expr {
    // Mix x and y into the result so dead-store elimination is exercised.
    Expr::Bin(
        BinOp::Add,
        Box::new(e),
        Box::new(Expr::Bin(
            BinOp::Sub,
            Box::new(Expr::Var("x".into())),
            Box::new(Expr::Var("y".into())),
        )),
    )
}

fn run_ir(
    module: &Module,
    a: i64,
    b: i64,
) -> Result<Option<Value>, stats_compiler::interp::ExecError> {
    Interp::new(module)
        .with_fuel(100_000)
        .call("f", &[Value::Int(a), Value::Int(b)])
}

fn run_bytecode(
    module: &Module,
    a: i64,
    b: i64,
) -> Result<Option<Value>, stats_compiler::interp::ExecError> {
    BytecodeInterp::new(module)
        .with_fuel(100_000)
        .call("f", &[Value::Int(a), Value::Int(b)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Pure expressions: lower+interpret == reference evaluation.
    #[test]
    fn expressions_agree(e in arb_expr(4), a in -40i64..40, b in -40i64..40) {
        let def = FnDef {
            name: "f".into(),
            params: vec!["a".into(), "b".into()],
            body: vec![Stmt::Return(e.clone())],
        };
        let lowered = lower_fn(&def).unwrap();
        validate(&lowered).unwrap();
        let mut module = Module::new();
        module.add_function(lowered);

        let mut env = std::collections::HashMap::new();
        env.insert("a".to_string(), a);
        env.insert("b".to_string(), b);
        let reference = eval_expr(&e, &env);
        let got = run_ir(&module, a, b);
        prop_assert_eq!(
            &got,
            &run_bytecode(&module, a, b),
            "slot and bytecode engines diverged"
        );
        match (reference, got) {
            (Some(v), Ok(Some(out))) => prop_assert_eq!(out, Value::Int(v)),
            (None, Err(_)) => {} // both report division/remainder by zero
            (None, Ok(_)) => {
                // Reference bailed on div-by-zero in a branch the IR never
                // evaluated eagerly? Expressions lower eagerly, so any
                // div-by-zero the reference hits must also trap in IR.
                prop_assert!(false, "IR succeeded where reference trapped");
            }
            (Some(v), other) => prop_assert!(false, "IR {other:?} vs reference {v}"),
        }
    }

    /// Whole bodies with control flow.
    #[test]
    fn bodies_agree_across_engines(
        body in arb_body(),
        a in -40i64..40,
        b in -40i64..40,
    ) {
        let def = FnDef {
            name: "f".into(),
            params: vec!["a".into(), "b".into()],
            body: body.clone(),
        };
        let lowered = lower_fn(&def).unwrap();
        validate(&lowered).unwrap();
        let mut module = Module::new();
        module.add_function(lowered);

        let mut env = std::collections::HashMap::new();
        env.insert("a".to_string(), a);
        env.insert("b".to_string(), b);
        let reference = eval_body(&body, &mut env);

        let raw = run_ir(&module, a, b);
        prop_assert_eq!(
            &raw,
            &run_bytecode(&module, a, b),
            "slot and bytecode engines diverged"
        );
        if let Some(Some(v)) = reference {
            if let Ok(Some(out)) = raw {
                prop_assert_eq!(out, Value::Int(v));
            } else {
                prop_assert!(false, "IR failed where reference computed {v}: {raw:?}");
            }
        }
        // `reference == Some(None)` (fell off the end) lowers to `ret 0`;
        // `None` means the reference hit a trap or unsupported construct —
        // the IR must then trap too or be a legitimate superset (traps).
    }

    /// Fuel accounting is part of the contract: with any budget, both
    /// engines exhaust fuel at exactly the same step (or both finish).
    #[test]
    fn fuel_exhaustion_agrees(body in arb_body(), a in -40i64..40, fuel in 0u64..400) {
        let def = FnDef {
            name: "f".into(),
            params: vec!["a".into(), "b".into()],
            body,
        };
        let lowered = lower_fn(&def).unwrap();
        validate(&lowered).unwrap();
        let mut module = Module::new();
        module.add_function(lowered);
        let slot = Interp::new(&module)
            .with_fuel(fuel)
            .call("f", &[Value::Int(a), Value::Int(0)]);
        let byte = BytecodeInterp::new(&module)
            .with_fuel(fuel)
            .call("f", &[Value::Int(a), Value::Int(0)]);
        prop_assert_eq!(slot, byte, "fuel divergence at budget {}", fuel);
    }
}

/// Both engines reject a partially-assigned register with the identical
/// static error — the definite-assignment check runs in both pipelines.
#[test]
fn unassigned_register_error_is_identical() {
    use stats_compiler::interp::ExecError;
    use stats_compiler::ir::{BlockId, Inst, Operand};
    let mut f = stats_compiler::ir::Function::new("half", 1);
    let cond = f.params[0];
    let r = f.fresh_reg();
    let then_b = f.new_block();
    let else_b = f.new_block();
    let join = f.new_block();
    f.push(
        BlockId(0),
        Inst::Br {
            cond: cond.into(),
            then_b,
            else_b,
        },
    );
    f.push(
        then_b,
        Inst::Const {
            dst: r,
            value: Operand::ImmInt(1),
        },
    );
    f.push(then_b, Inst::Jmp { target: join });
    f.push(else_b, Inst::Jmp { target: join });
    f.push(
        join,
        Inst::Ret {
            value: Some(r.into()),
        },
    );
    let mut m = Module::new();
    m.add_function(f);
    let expected = ExecError::UnassignedRegister {
        function: "half".into(),
        reg: r.0,
    };
    assert_eq!(
        Interp::new(&m).call("half", &[Value::Int(1)]).unwrap_err(),
        expected
    );
    assert_eq!(
        BytecodeInterp::new(&m)
            .call("half", &[Value::Int(1)])
            .unwrap_err(),
        expected
    );
}

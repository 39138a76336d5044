//! Slot-resolved IR interpreter — the reference semantics.
//!
//! The paper generates machine code for a tradeoff's `getValue()` function
//! at configuration time and invokes it; the product path does the same
//! with [`crate::bytecode::BytecodeInterp`]. This interpreter executes the
//! same IR by the same rules ([`crate::value`]) in the most direct form,
//! and `tests/differential.rs` and `tests/interleaving.rs` check the
//! bytecode tier and the pipeline against it.
//!
//! Functions are *slot-resolved* before their first execution: registers
//! become indices into a flat frame (`Vec<Value>`), state variables become
//! indices into the interpreter's state slots, and callees are resolved to
//! intrinsic/function indices — so the hot execution loop performs no name
//! hashing and no `String` clones. The shared prepare check runs first, so
//! a malformed block ([`ExecError::MalformedBlock`]) or a read of a
//! never-assigned register ([`ExecError::UnassignedRegister`]) is a static
//! error instead of a panic or a silent default value.

use std::rc::Rc;

pub use crate::value::{ExecError, Value};

use crate::ir::{BinOp, Inst, Module, Operand, Ty, TyRef};
use crate::value::{binop, cast, check_arity, Callee, Env};

/// A resolved operand: a frame slot or an immediate.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Frame index.
    Reg(usize),
    /// Integer immediate.
    Int(i64),
    /// Float immediate.
    Float(f64),
}

/// A slot-resolved instruction: every name the source instruction carried
/// (registers, state variables, callees) is already an index.
#[derive(Debug, Clone)]
enum PInst {
    Const {
        dst: usize,
        value: Slot,
    },
    Bin {
        op: BinOp,
        dst: usize,
        lhs: Slot,
        rhs: Slot,
    },
    Cast {
        dst: usize,
        src: Slot,
        to: Ty,
    },
    LoadState {
        dst: usize,
        slot: usize,
    },
    StoreState {
        slot: usize,
        src: Slot,
    },
    CallIntrinsic {
        dst: Option<usize>,
        intrinsic: usize,
        args: Vec<Slot>,
    },
    CallFn {
        dst: Option<usize>,
        callee: usize,
        args: Vec<Slot>,
    },
    /// Call to a name neither the intrinsic table nor the module defines.
    /// Kept lazy: the error surfaces only if the call is actually reached,
    /// matching the unprepared interpreter's behavior.
    UnknownCallee {
        callee: String,
    },
    /// An unsubstituted tradeoff placeholder; errors when reached.
    UnresolvedTradeoff {
        tradeoff: String,
    },
    Jmp {
        target: usize,
    },
    Br {
        cond: Slot,
        then_b: usize,
        else_b: usize,
    },
    Ret {
        value: Option<Slot>,
    },
}

/// A function after slot resolution, ready for the hot loop.
struct PreparedFn {
    name: String,
    /// Frame indices of the parameters, in call order.
    params: Vec<usize>,
    /// Frame size.
    nregs: usize,
    /// Each block up to and including its terminator.
    blocks: Vec<Vec<PInst>>,
}

/// Interpreter over a module, with a fuel budget shared across calls.
///
/// Cross-invocation state variables (`state NAME = ..;` declarations) live
/// in the interpreter, seeded from the module's state table, and persist
/// across [`Interp::call`]s — one `Interp` models one sequential stream of
/// invocations, matching the paper's `State` that `computeOutput` carries
/// from invocation to invocation.
///
/// Each function is slot-resolved once, on its first call, and cached; the
/// per-call cost is a flat `Vec<Value>` frame indexed by register number.
pub struct Interp<'m> {
    env: Env<'m, PreparedFn>,
}

impl<'m> Interp<'m> {
    /// Create an interpreter with the default fuel budget (1M steps).
    pub fn new(module: &'m Module) -> Self {
        Interp {
            env: Env::new(module),
        }
    }

    /// Replace the fuel budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.env.fuel = fuel;
        self
    }

    /// The current value of a state variable.
    pub fn state_value(&self, name: &str) -> Option<Value> {
        self.env.state_value(name)
    }

    /// Overwrite a state variable (e.g. to restore a checkpoint).
    pub fn set_state(&mut self, name: impl Into<String>, value: Value) {
        self.env.set_state(&name.into(), value);
    }

    /// Register a host intrinsic callable from IR.
    ///
    /// Invalidates the prepared-function cache: a new intrinsic can change
    /// how callee names resolve.
    pub fn register_intrinsic(&mut self, name: impl Into<String>, f: fn(&[Value]) -> Value) {
        self.env.register_intrinsic(name.into(), f);
    }

    /// Call `name` with `args`; returns the function's returned value.
    pub fn call(&mut self, name: &str, args: &[Value]) -> Result<Option<Value>, ExecError> {
        let f = self.prepare(self.env.function(name)?)?;
        check_arity(name, f.params.len(), args.len())?;
        self.exec(&f, args)
    }

    /// Slot-resolve a function (cached after the first call).
    fn prepare(&mut self, idx: usize) -> Result<Rc<PreparedFn>, ExecError> {
        self.env.prepare(idx, |env, f, nregs| PreparedFn {
            name: f.name.clone(),
            params: f.params.iter().map(|p| p.0 as usize).collect(),
            nregs,
            blocks: f
                .blocks
                .iter()
                .map(|block| block.live().iter().map(|i| resolve(env, i)).collect())
                .collect(),
        })
    }

    fn exec(&mut self, f: &PreparedFn, args: &[Value]) -> Result<Option<Value>, ExecError> {
        let mut frame: Vec<Value> = vec![Value::Int(0); f.nregs];
        for (&p, &a) in f.params.iter().zip(args) {
            frame[p] = a;
        }
        let mut block = 0usize;
        let mut pc = 0usize;
        loop {
            if self.env.fuel == 0 {
                return Err(ExecError::OutOfFuel);
            }
            self.env.fuel -= 1;
            let inst = &f.blocks[block][pc];
            pc += 1;
            match inst {
                PInst::Const { dst, value } => {
                    frame[*dst] = read(&frame, *value);
                }
                PInst::Bin { op, dst, lhs, rhs } => {
                    let a = read(&frame, *lhs);
                    let b = read(&frame, *rhs);
                    frame[*dst] = binop(*op, a, b)?;
                }
                PInst::Cast { dst, src, to } => {
                    frame[*dst] = cast(read(&frame, *src), *to);
                }
                PInst::LoadState { dst, slot } => {
                    frame[*dst] = self.env.state[*slot];
                }
                PInst::StoreState { slot, src } => {
                    self.env.state[*slot] = read(&frame, *src);
                }
                PInst::UnresolvedTradeoff { tradeoff } => {
                    return Err(ExecError::UnresolvedTradeoff(tradeoff.clone()))
                }
                PInst::UnknownCallee { callee } => {
                    return Err(ExecError::UnknownFunction(callee.clone()))
                }
                PInst::CallIntrinsic {
                    dst,
                    intrinsic,
                    args,
                } => {
                    let vals: Vec<Value> = args.iter().map(|&a| read(&frame, a)).collect();
                    let result = self.env.intrinsics[*intrinsic](&vals);
                    if let Some(dst) = dst {
                        frame[*dst] = result;
                    }
                }
                PInst::CallFn { dst, callee, args } => {
                    let vals: Vec<Value> = args.iter().map(|&a| read(&frame, a)).collect();
                    let callee = self.prepare(*callee)?;
                    check_arity(&callee.name, callee.params.len(), vals.len())?;
                    let result = self.exec(&callee, &vals)?;
                    if let Some(dst) = dst {
                        frame[*dst] = result.unwrap_or(Value::Int(0));
                    }
                }
                PInst::Jmp { target } => {
                    block = *target;
                    pc = 0;
                }
                PInst::Br {
                    cond,
                    then_b,
                    else_b,
                } => {
                    block = if read(&frame, *cond).truthy() {
                        *then_b
                    } else {
                        *else_b
                    };
                    pc = 0;
                }
                PInst::Ret { value } => {
                    return Ok(value.map(|v| read(&frame, v)));
                }
            }
        }
    }
}

fn resolve(env: &mut Env<'_, PreparedFn>, inst: &Inst) -> PInst {
    let slot = |op: &Operand| -> Slot {
        match *op {
            Operand::Reg(r) => Slot::Reg(r.0 as usize),
            Operand::ImmInt(v) => Slot::Int(v),
            Operand::ImmFloat(v) => Slot::Float(v),
        }
    };
    match inst {
        Inst::Const { dst, value } => PInst::Const {
            dst: dst.0 as usize,
            value: slot(value),
        },
        Inst::Bin { op, dst, lhs, rhs } => PInst::Bin {
            op: *op,
            dst: dst.0 as usize,
            lhs: slot(lhs),
            rhs: slot(rhs),
        },
        Inst::Cast { dst, src, to } => match to {
            TyRef::Concrete(t) => PInst::Cast {
                dst: dst.0 as usize,
                src: slot(src),
                to: *t,
            },
            TyRef::Tradeoff(name) => PInst::UnresolvedTradeoff {
                tradeoff: name.clone(),
            },
        },
        Inst::TradeoffRef { tradeoff, .. } | Inst::CallTradeoff { tradeoff, .. } => {
            PInst::UnresolvedTradeoff {
                tradeoff: tradeoff.clone(),
            }
        }
        Inst::LoadState { dst, state } => PInst::LoadState {
            dst: dst.0 as usize,
            slot: env.state_slot(state),
        },
        Inst::StoreState { state, src } => PInst::StoreState {
            slot: env.state_slot(state),
            src: slot(src),
        },
        Inst::Call { dst, callee, args } => {
            let dst = dst.map(|d| d.0 as usize);
            let args: Vec<Slot> = args.iter().map(&slot).collect();
            match env.callee(callee) {
                Some(Callee::Intrinsic(intrinsic)) => PInst::CallIntrinsic {
                    dst,
                    intrinsic,
                    args,
                },
                Some(Callee::Function(callee)) => PInst::CallFn { dst, callee, args },
                None => PInst::UnknownCallee {
                    callee: callee.clone(),
                },
            }
        }
        Inst::Jmp { target } => PInst::Jmp { target: target.0 },
        Inst::Br {
            cond,
            then_b,
            else_b,
        } => PInst::Br {
            cond: slot(cond),
            then_b: then_b.0,
            else_b: else_b.0,
        },
        Inst::Ret { value } => PInst::Ret {
            value: value.as_ref().map(slot),
        },
    }
}

#[inline]
fn read(frame: &[Value], s: Slot) -> Value {
    match s {
        Slot::Reg(i) => frame[i],
        Slot::Int(v) => Value::Int(v),
        Slot::Float(v) => Value::Float(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::validate;
    use crate::lower::lower_fn;
    use crate::parser::parse;

    fn module_of(src: &str) -> Module {
        let p = parse(src).unwrap();
        let mut m = Module::new();
        for f in &p.functions {
            let lowered = lower_fn(f).unwrap();
            validate(&lowered).unwrap();
            m.add_function(lowered);
        }
        m
    }

    fn run(src: &str, f: &str, args: &[Value]) -> Value {
        let m = module_of(src);
        Interp::new(&m).call(f, args).unwrap().unwrap()
    }

    #[test]
    fn arithmetic() {
        assert_eq!(
            run(
                "fn f(a, b) { return a * b + 2; }",
                "f",
                &[3.into(), 4.into()]
            ),
            Value::Int(14)
        );
    }

    #[test]
    fn float_arithmetic() {
        assert_eq!(
            run("fn f(a) { return a / 2.0; }", "f", &[7.into()]),
            Value::Float(3.5)
        );
    }

    #[test]
    fn loops_terminate() {
        assert_eq!(
            run(
                "fn sum(n) { let s = 0; let i = 1; while (i <= n) { s = s + i; i = i + 1; } return s; }",
                "sum",
                &[100.into()],
            ),
            Value::Int(5050)
        );
    }

    #[test]
    fn conditionals() {
        let src = "fn sign(x) { if (x > 0) { return 1; } else if (x < 0) { return 0 - 1; } else { return 0; } }";
        assert_eq!(run(src, "sign", &[5.into()]), Value::Int(1));
        assert_eq!(run(src, "sign", &[(-5).into()]), Value::Int(-1));
        assert_eq!(run(src, "sign", &[0.into()]), Value::Int(0));
    }

    #[test]
    fn calls_between_functions() {
        let src = "fn sq(x) { return x * x; } fn f(a) { return sq(a) + sq(a + 1); }";
        assert_eq!(run(src, "f", &[3.into()]), Value::Int(25));
    }

    #[test]
    fn recursion() {
        let src = "fn fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); }";
        assert_eq!(run(src, "fact", &[10.into()]), Value::Int(3628800));
    }

    #[test]
    fn intrinsic_sqrt() {
        assert_eq!(
            run("fn f(x) { return sqrt(x); }", "f", &[9.0.into()]),
            Value::Float(3.0)
        );
    }

    #[test]
    fn for_loops() {
        assert_eq!(
            run(
                "fn sum(n) { let s = 0; for i in 0..n { s = s + i; } return s; }",
                "sum",
                &[10.into()],
            ),
            Value::Int(45)
        );
        // The bound is evaluated once; mutating it in the body has no
        // effect on trip count.
        assert_eq!(
            run(
                "fn f() { let n = 3; let c = 0; for i in 0..n { n = 100; c = c + 1; } return c; }",
                "f",
                &[],
            ),
            Value::Int(3)
        );
        // Empty and reversed ranges run zero iterations.
        assert_eq!(
            run(
                "fn f() { let c = 0; for i in 5..5 { c = c + 1; } return c; }",
                "f",
                &[]
            ),
            Value::Int(0)
        );
        assert_eq!(
            run(
                "fn f() { let c = 0; for i in 7..2 { c = c + 1; } return c; }",
                "f",
                &[]
            ),
            Value::Int(0)
        );
    }

    #[test]
    fn nested_for_loops() {
        assert_eq!(
            run(
                "fn f(n) { let s = 0; for i in 0..n { for j in 0..i { s = s + 1; } } return s; }",
                "f",
                &[5.into()],
            ),
            Value::Int(10)
        );
    }

    #[test]
    fn math_intrinsics() {
        assert_eq!(
            run("fn f(x) { return exp(ln(x)); }", "f", &[5.0.into()])
                .as_float()
                .round(),
            5.0
        );
        assert_eq!(
            run(
                "fn f(a, b) { return pow(a, b); }",
                "f",
                &[2.0.into(), 10.0.into()]
            ),
            Value::Float(1024.0)
        );
        assert_eq!(
            run("fn f(x) { return floor(x); }", "f", &[3.9.into()]),
            Value::Int(3)
        );
    }

    #[test]
    fn fuel_limits_runaway_loops() {
        let m = module_of("fn spin() { let i = 0; while (i < 100) { i = i; } return i; }");
        let err = Interp::new(&m)
            .with_fuel(1000)
            .call("spin", &[])
            .unwrap_err();
        assert_eq!(err, ExecError::OutOfFuel);
    }

    #[test]
    fn unresolved_tradeoff_is_an_error() {
        let m = module_of("fn f() { return tradeoff k; }");
        let err = Interp::new(&m).call("f", &[]).unwrap_err();
        assert_eq!(err, ExecError::UnresolvedTradeoff("k".into()));
    }

    #[test]
    fn division_by_zero() {
        let m = module_of("fn f(a) { return a / 0; }");
        let err = Interp::new(&m).call("f", &[1.into()]).unwrap_err();
        assert_eq!(err, ExecError::DivisionByZero);
    }

    #[test]
    fn unknown_function() {
        let m = module_of("fn f() { return g(); }");
        let err = Interp::new(&m).call("f", &[]).unwrap_err();
        assert_eq!(err, ExecError::UnknownFunction("g".into()));
    }

    #[test]
    fn arity_mismatch() {
        let m = module_of("fn f(a, b) { return a + b; }");
        let err = Interp::new(&m).call("f", &[1.into()]).unwrap_err();
        assert!(matches!(err, ExecError::ArityMismatch { .. }));
    }

    #[test]
    fn logical_operators() {
        let src = "fn f(a, b) { if (a > 0 && b > 0) { return 1; } return 0; }";
        assert_eq!(run(src, "f", &[1.into(), 1.into()]), Value::Int(1));
        assert_eq!(run(src, "f", &[1.into(), 0.into()]), Value::Int(0));
        let src2 = "fn f(a, b) { if (a > 0 || b > 0) { return 1; } return 0; }";
        assert_eq!(run(src2, "f", &[0.into(), 1.into()]), Value::Int(1));
        assert_eq!(run(src2, "f", &[0.into(), 0.into()]), Value::Int(0));
    }

    #[test]
    fn f32_cast_quantizes() {
        use crate::ir::{BlockId, Inst, TyRef};
        let mut f = crate::ir::Function::new("q", 1);
        let p = f.params[0];
        let dst = f.fresh_reg();
        f.push(
            BlockId(0),
            Inst::Cast {
                dst,
                src: p.into(),
                to: TyRef::Concrete(Ty::F32),
            },
        );
        f.push(
            BlockId(0),
            Inst::Ret {
                value: Some(dst.into()),
            },
        );
        let mut m = Module::new();
        m.add_function(f);
        let x = 0.1_f64 + 1e-12;
        let out = Interp::new(&m).call("q", &[x.into()]).unwrap().unwrap();
        assert_ne!(out.as_float(), x);
        assert_eq!(out.as_float(), x as f32 as f64);
    }

    /// Regression: reading a never-assigned register used to silently
    /// evaluate to `Int(0)`; it must be a static error.
    #[test]
    fn unassigned_register_is_an_error() {
        use crate::ir::{BlockId, Inst, Operand, Reg};
        let mut f = crate::ir::Function::new("bad", 0);
        f.push(
            BlockId(0),
            Inst::Ret {
                value: Some(Operand::Reg(Reg(5))),
            },
        );
        let mut m = Module::new();
        m.add_function(f);
        let err = Interp::new(&m).call("bad", &[]).unwrap_err();
        assert_eq!(
            err,
            ExecError::UnassignedRegister {
                function: "bad".into(),
                reg: 5
            }
        );
    }

    /// A register assigned on only one arm of a branch is not definitely
    /// assigned at the join.
    #[test]
    fn partially_assigned_register_is_an_error() {
        use crate::ir::{BlockId, Inst, Operand};
        let mut f = crate::ir::Function::new("half", 1);
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
        let err = Interp::new(&m).call("half", &[1.into()]).unwrap_err();
        assert!(matches!(
            err,
            ExecError::UnassignedRegister { reg, .. } if reg == r.0
        ));
    }

    /// A register assigned on both arms IS definitely assigned at the join:
    /// the dataflow must not be over-strict.
    #[test]
    fn both_arms_assigned_is_fine() {
        use crate::ir::{BlockId, Inst, Operand};
        let mut f = crate::ir::Function::new("full", 1);
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
        for (b, v) in [(then_b, 1), (else_b, 2)] {
            f.push(
                b,
                Inst::Const {
                    dst: r,
                    value: Operand::ImmInt(v),
                },
            );
            f.push(b, Inst::Jmp { target: join });
        }
        f.push(
            join,
            Inst::Ret {
                value: Some(r.into()),
            },
        );
        let mut m = Module::new();
        m.add_function(f);
        let mut interp = Interp::new(&m);
        assert_eq!(
            interp.call("full", &[1.into()]).unwrap(),
            Some(Value::Int(1))
        );
        assert_eq!(
            interp.call("full", &[0.into()]).unwrap(),
            Some(Value::Int(2))
        );
    }
}

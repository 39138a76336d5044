//! Flat bytecode compiler and interpreter — the product execution tier.
//!
//! The paper's back-end compiles a tradeoff's `getValue(i)` at
//! configuration time only to fetch one value per configuration (§3.4),
//! and every caller here does the same: [`crate::backend::call`], the
//! middle-end's `getValue` runs, `stats-cli compile --run` and the
//! benchmark's `tune` job each build an interpreter, compile a function on
//! its first call and call it once. No caller runs a DSL function in a
//! loop, so the tier is the plainest form that still leaves the IR behind:
//!
//! - **One op per IR instruction**: each function compiles to one flat
//!   `Vec<Op>` of fixed-layout `{code, dst, a, b, c}` records, one for
//!   every instruction up to its block's terminator. Block structure
//!   disappears and a single program counter replaces the `(block, pc)`
//!   pair.
//! - **Absolute jumps**: `Jmp`/`Br` targets are instruction offsets
//!   patched at compile time.
//! - **Pooled constants**: immediates are materialized into a
//!   per-function constant pool that occupies the tail of the frame, so at
//!   run time every operand is a frame index.
//! - **Frame arena**: frames live in one reusable value stack owned by the
//!   interpreter (calls push/pop a region); after the first call of each
//!   function a call allocates nothing.
//!
//! Every code, frame and state access is an ordinary checked index. The
//! prepare check makes each of them in range — every block ends in a
//! terminator whose targets exist and the frame covers every register —
//! so none of them panics.
//!
//! Semantics are bit-identical to the reference interpreter `Interp` by
//! construction: both engines embed the same environment and run the same
//! prepare check ([`crate::value`]), share `binop`, `cast` and the
//! intrinsic table, and charge one fuel unit per executed IR instruction,
//! so even `OutOfFuel` surfaces at the same step. `tests/differential.rs`
//! property-tests the equivalence across random programs on all three
//! engines (AST reference, slot, bytecode).

use std::collections::HashMap;
use std::fmt;

use crate::ir::{BinOp, Block, Function, Inst, Module, Operand, Ty, TyRef};
use crate::value::{binop, cast, check_arity, Callee, Env, ExecError, Value, DEFAULT_INTRINSICS};

/// Sentinel slot meaning "no destination register".
const NO_SLOT: u32 = u32::MAX;

/// What an [`Op`] does: one opcode per kind of IR instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpCode {
    /// `frame[dst] = frame[a]` (covers `Const` after immediates are pooled).
    Mov,
    /// `frame[dst] = frame[a] <op> frame[b]`.
    Bin(BinOp),
    /// `frame[dst] = cast(frame[a])` to the type.
    Cast(Ty),
    /// `frame[dst] = state[a]`.
    LoadState,
    /// `state[a] = frame[b]`.
    StoreState,
    /// Intrinsic `a` over `args_pool[b..b+c]`; result to `dst` unless
    /// `NO_SLOT`.
    CallIntrinsic,
    /// Module function `a` over `args_pool[b..b+c]`; result to `dst`
    /// unless `NO_SLOT`.
    CallFn,
    /// Raise `errors[a]` (lazy `UnknownFunction` / `UnresolvedTradeoff`).
    Fail,
    /// `pc = a`.
    Jmp,
    /// `pc = if frame[a] truthy { b } else { c }`.
    Br,
    /// Return with no value.
    RetNone,
    /// Return `frame[a]`.
    RetVal,
}

/// One fixed-layout bytecode instruction. Field meaning depends on the
/// opcode (see [`OpCode`]); unused fields are zero.
#[derive(Debug, Clone, Copy)]
struct Op {
    code: OpCode,
    dst: u32,
    a: u32,
    b: u32,
    c: u32,
}

impl Op {
    /// An op with every field zero; struct update fills in the rest.
    fn of(code: OpCode) -> Op {
        Op {
            code,
            dst: 0,
            a: 0,
            b: 0,
            c: 0,
        }
    }
}

/// A function compiled to flat bytecode.
struct CompiledFn {
    name: String,
    /// Frame indices of the parameters, in call order.
    params: Vec<u32>,
    /// Register count (the head of the frame).
    nregs: usize,
    /// Materialized immediates, copied into the frame tail on entry.
    consts: Vec<Value>,
    /// The flat instruction stream.
    code: Vec<Op>,
    /// Argument frame-slots for all calls, referenced by `(b, c)` ranges.
    args_pool: Vec<u32>,
    /// Pre-built lazy errors raised by [`OpCode::Fail`].
    errors: Vec<ExecError>,
}

/// Bytecode interpreter over a module, API-compatible with the reference
/// interpreter `Interp` and embedding the same environment: a fuel budget
/// shared across calls, cross-invocation state variables seeded from the
/// module's state table, and host intrinsics that shadow module functions.
/// Functions compile to flat bytecode once, on first call, and are cached.
pub struct BytecodeInterp<'m> {
    env: Env<'m, CompiledFn>,
    /// The frame arena: every call frame is a region of this stack. Grows
    /// to the deepest call chain seen, then never reallocates.
    stack: Vec<Value>,
    /// Scratch for marshalling intrinsic arguments; reused across calls.
    scratch: Vec<Value>,
}

impl<'m> BytecodeInterp<'m> {
    /// Create an interpreter with the default fuel budget (1M steps).
    pub fn new(module: &'m Module) -> Self {
        BytecodeInterp {
            env: Env::new(module),
            stack: Vec::new(),
            scratch: Vec::new(),
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

    /// Call `name` with `args`; returns the function's returned value.
    pub fn call(&mut self, name: &str, args: &[Value]) -> Result<Option<Value>, ExecError> {
        let f = self.env.prepare(self.env.function(name)?, Self::compile)?;
        check_arity(name, f.params.len(), args.len())?;
        let base = self.push_frame(&f);
        for (&p, &a) in f.params.iter().zip(args) {
            self.stack[base + p as usize] = a;
        }
        let result = self.exec_at(&f, base);
        self.stack.truncate(base);
        result
    }

    /// Compile a function that passed the prepare check to bytecode.
    fn compile(env: &mut Env<'_, CompiledFn>, f: &Function, nregs: usize) -> CompiledFn {
        // Blocks are laid out end to end, each up to its terminator, so a
        // jump to a block is a jump to the offset of its first op.
        let mut starts = Vec::with_capacity(f.blocks.len());
        let mut at = 0u32;
        for block in &f.blocks {
            starts.push(at);
            at += block.live().len() as u32;
        }

        // Immediates are pooled (deduplicated by bit pattern) into frame
        // slots past the registers.
        let mut consts: Vec<Value> = Vec::new();
        let mut const_index: HashMap<(bool, u64), u32> = HashMap::new();
        let mut slot = |op: &Operand| -> u32 {
            let (key, value) = match *op {
                Operand::Reg(r) => return r.0,
                Operand::ImmInt(v) => ((false, v as u64), Value::Int(v)),
                Operand::ImmFloat(v) => ((true, v.to_bits()), Value::Float(v)),
            };
            *const_index.entry(key).or_insert_with(|| {
                consts.push(value);
                (nregs + consts.len() - 1) as u32
            })
        };
        let mut errors: Vec<ExecError> = Vec::new();
        let mut fail = |e: ExecError| {
            errors.push(e);
            Op {
                a: (errors.len() - 1) as u32,
                ..Op::of(OpCode::Fail)
            }
        };
        let mut args_pool: Vec<u32> = Vec::new();
        let mut code: Vec<Op> = Vec::with_capacity(at as usize);
        for inst in f.blocks.iter().flat_map(Block::live) {
            code.push(match inst {
                Inst::Const { dst, value } => Op {
                    dst: dst.0,
                    a: slot(value),
                    ..Op::of(OpCode::Mov)
                },
                Inst::Bin { op, dst, lhs, rhs } => Op {
                    dst: dst.0,
                    a: slot(lhs),
                    b: slot(rhs),
                    ..Op::of(OpCode::Bin(*op))
                },
                Inst::Cast {
                    dst,
                    src,
                    to: TyRef::Concrete(ty),
                } => Op {
                    dst: dst.0,
                    a: slot(src),
                    ..Op::of(OpCode::Cast(*ty))
                },
                Inst::Cast {
                    to: TyRef::Tradeoff(name),
                    ..
                }
                | Inst::TradeoffRef { tradeoff: name, .. }
                | Inst::CallTradeoff { tradeoff: name, .. } => {
                    fail(ExecError::UnresolvedTradeoff(name.clone()))
                }
                Inst::LoadState { dst, state } => Op {
                    dst: dst.0,
                    a: env.state_slot(state) as u32,
                    ..Op::of(OpCode::LoadState)
                },
                Inst::StoreState { state, src } => Op {
                    a: env.state_slot(state) as u32,
                    b: slot(src),
                    ..Op::of(OpCode::StoreState)
                },
                Inst::Call { dst, callee, args } => {
                    let call = |code, a| Op {
                        code,
                        dst: dst.map_or(NO_SLOT, |d| d.0),
                        a,
                        b: args_pool.len() as u32,
                        c: args.len() as u32,
                    };
                    let op = match env.callee(callee) {
                        Some(Callee::Intrinsic(i)) => call(OpCode::CallIntrinsic, i as u32),
                        Some(Callee::Function(i)) => call(OpCode::CallFn, i as u32),
                        None => fail(ExecError::UnknownFunction(callee.clone())),
                    };
                    args_pool.extend(args.iter().map(&mut slot));
                    op
                }
                Inst::Jmp { target } => Op {
                    a: starts[target.0],
                    ..Op::of(OpCode::Jmp)
                },
                Inst::Br {
                    cond,
                    then_b,
                    else_b,
                } => Op {
                    a: slot(cond),
                    b: starts[then_b.0],
                    c: starts[else_b.0],
                    ..Op::of(OpCode::Br)
                },
                Inst::Ret { value: None } => Op::of(OpCode::RetNone),
                Inst::Ret { value: Some(v) } => Op {
                    a: slot(v),
                    ..Op::of(OpCode::RetVal)
                },
            });
        }
        CompiledFn {
            name: f.name.clone(),
            params: f.params.iter().map(|p| p.0).collect(),
            nregs,
            consts,
            code,
            args_pool,
            errors,
        }
    }

    /// Push a frame for `f` onto the arena — registers zeroed, pooled
    /// constants in its tail — and return its base.
    fn push_frame(&mut self, f: &CompiledFn) -> usize {
        let base = self.stack.len();
        self.stack.resize(base + f.nregs, Value::Int(0));
        self.stack.extend_from_slice(&f.consts);
        base
    }

    /// Execute `f` with its frame at `stack[base..]`, one op per step and
    /// one fuel unit per op.
    fn exec_at(&mut self, f: &CompiledFn, base: usize) -> Result<Option<Value>, ExecError> {
        let at = |slot: u32| base + slot as usize;
        let mut pc = 0;
        loop {
            if self.env.fuel == 0 {
                return Err(ExecError::OutOfFuel);
            }
            self.env.fuel -= 1;
            let op = f.code[pc];
            pc += 1;
            match op.code {
                OpCode::Mov => self.stack[at(op.dst)] = self.stack[at(op.a)],
                OpCode::Bin(bin) => {
                    self.stack[at(op.dst)] =
                        binop(bin, self.stack[at(op.a)], self.stack[at(op.b)])?;
                }
                OpCode::Cast(ty) => self.stack[at(op.dst)] = cast(self.stack[at(op.a)], ty),
                OpCode::LoadState => self.stack[at(op.dst)] = self.env.state[op.a as usize],
                OpCode::StoreState => self.env.state[op.a as usize] = self.stack[at(op.b)],
                OpCode::CallIntrinsic => {
                    let args = &f.args_pool[op.b as usize..(op.b + op.c) as usize];
                    self.scratch.clear();
                    self.scratch.extend(args.iter().map(|&a| self.stack[at(a)]));
                    let result = (DEFAULT_INTRINSICS[op.a as usize].1)(&self.scratch);
                    if op.dst != NO_SLOT {
                        self.stack[at(op.dst)] = result;
                    }
                }
                OpCode::CallFn => self.call_fn(f, base, op)?,
                OpCode::Fail => return Err(f.errors[op.a as usize].clone()),
                OpCode::Jmp => pc = op.a as usize,
                OpCode::Br => {
                    let taken = self.stack[at(op.a)].truthy();
                    pc = if taken { op.b as usize } else { op.c as usize };
                }
                OpCode::RetNone => return Ok(None),
                OpCode::RetVal => return Ok(Some(self.stack[at(op.a)])),
            }
        }
    }

    /// [`OpCode::CallFn`] from the frame at `base`: push a callee frame
    /// onto the arena, run it, pop it, store the result.
    fn call_fn(&mut self, f: &CompiledFn, base: usize, op: Op) -> Result<(), ExecError> {
        let callee = self.env.prepare(op.a as usize, Self::compile)?;
        check_arity(&callee.name, callee.params.len(), op.c as usize)?;
        let cbase = self.push_frame(&callee);
        for (&p, &a) in callee.params.iter().zip(&f.args_pool[op.b as usize..]) {
            self.stack[cbase + p as usize] = self.stack[base + a as usize];
        }
        let result = self.exec_at(&callee, cbase);
        self.stack.truncate(cbase);
        let result = result?;
        if op.dst != NO_SLOT {
            self.stack[base + op.dst as usize] = result.unwrap_or(Value::Int(0));
        }
        Ok(())
    }
}

impl fmt::Debug for BytecodeInterp<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BytecodeInterp")
            .field("fuel", &self.env.fuel)
            .field("state", &self.env.state.len())
            .field("compiled", &self.env.prepared_count())
            .finish()
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
        BytecodeInterp::new(&m).call(f, args).unwrap().unwrap()
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
    fn fuel_matches_slot_interpreter_exactly() {
        // Same program, same budget: both engines run out of fuel at the
        // same step, or neither does. Probe a band of budgets around the
        // program's exact cost.
        use crate::interp::Interp;
        let src = "fn sum(n) { let s = 0; for i in 0..n { s = s + i; } return s; }";
        let m = module_of(src);
        for fuel in 0..200u64 {
            let a = Interp::new(&m).with_fuel(fuel).call("sum", &[10.into()]);
            let b = BytecodeInterp::new(&m)
                .with_fuel(fuel)
                .call("sum", &[10.into()]);
            assert_eq!(a, b, "divergence at fuel {fuel}");
        }
    }

    #[test]
    fn fuel_limits_runaway_loops() {
        let m = module_of("fn spin() { let i = 0; while (i < 100) { i = i; } return i; }");
        let err = BytecodeInterp::new(&m)
            .with_fuel(1000)
            .call("spin", &[])
            .unwrap_err();
        assert_eq!(err, ExecError::OutOfFuel);
    }

    #[test]
    fn unresolved_tradeoff_is_an_error() {
        let m = module_of("fn f() { return tradeoff k; }");
        let err = BytecodeInterp::new(&m).call("f", &[]).unwrap_err();
        assert_eq!(err, ExecError::UnresolvedTradeoff("k".into()));
    }

    #[test]
    fn division_by_zero() {
        let m = module_of("fn f(a) { return a / 0; }");
        let err = BytecodeInterp::new(&m).call("f", &[1.into()]).unwrap_err();
        assert_eq!(err, ExecError::DivisionByZero);
    }

    #[test]
    fn unknown_function() {
        let m = module_of("fn f() { return g(); }");
        let err = BytecodeInterp::new(&m).call("f", &[]).unwrap_err();
        assert_eq!(err, ExecError::UnknownFunction("g".into()));
    }

    #[test]
    fn arity_mismatch() {
        let m = module_of("fn f(a, b) { return a + b; }");
        let err = BytecodeInterp::new(&m).call("f", &[1.into()]).unwrap_err();
        assert!(matches!(err, ExecError::ArityMismatch { .. }));
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
        let out = BytecodeInterp::new(&m)
            .call("q", &[x.into()])
            .unwrap()
            .unwrap();
        assert_eq!(out.as_float(), x as f32 as f64);
    }

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
        let err = BytecodeInterp::new(&m).call("bad", &[]).unwrap_err();
        assert_eq!(
            err,
            ExecError::UnassignedRegister {
                function: "bad".into(),
                reg: 5
            }
        );
    }

    #[test]
    fn state_persists_across_calls() {
        use crate::ir::{BlockId, Inst, Operand};
        // fn bump() { s = load_state("acc"); s = s + 1; store_state("acc", s); return s; }
        let mut f = crate::ir::Function::new("bump", 0);
        let s = f.fresh_reg();
        let t = f.fresh_reg();
        f.push(
            BlockId(0),
            Inst::LoadState {
                dst: s,
                state: "acc".into(),
            },
        );
        f.push(
            BlockId(0),
            Inst::Bin {
                op: BinOp::Add,
                dst: t,
                lhs: s.into(),
                rhs: Operand::ImmInt(1),
            },
        );
        f.push(
            BlockId(0),
            Inst::StoreState {
                state: "acc".into(),
                src: t.into(),
            },
        );
        f.push(
            BlockId(0),
            Inst::Ret {
                value: Some(t.into()),
            },
        );
        let mut m = Module::new();
        m.add_function(f);
        let mut interp = BytecodeInterp::new(&m);
        assert_eq!(interp.call("bump", &[]).unwrap(), Some(Value::Int(1)));
        assert_eq!(interp.call("bump", &[]).unwrap(), Some(Value::Int(2)));
        assert_eq!(interp.state_value("acc"), Some(Value::Int(2)));
        interp.set_state("acc", Value::Int(40));
        assert_eq!(interp.call("bump", &[]).unwrap(), Some(Value::Int(41)));
    }

    #[test]
    fn arena_does_not_leak_between_calls() {
        // After any call — including deep recursion — the arena is empty,
        // and repeated calls return identical results (no stale-frame
        // reuse bugs).
        let src = "fn fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); }";
        let m = module_of(src);
        let mut interp = BytecodeInterp::new(&m);
        for _ in 0..3 {
            assert_eq!(
                interp.call("fact", &[12.into()]).unwrap(),
                Some(Value::Int(479001600))
            );
            assert!(interp.stack.is_empty());
        }
    }
}

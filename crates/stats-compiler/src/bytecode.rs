//! Flat bytecode compiler and interpreter — the raw-speed execution tier.
//!
//! The slot-resolved reference interpreter (`Interp`) walks a
//! `Vec<Vec<PInst>>` of nested enums: every step matches an instruction
//! enum, then matches each `Slot` operand, and every call allocates a fresh
//! frame. This module takes the next multiple off the hot path, the way
//! speculative-parallelization systems lower loop bodies to a flat
//! executable form before speculating:
//!
//! - **Contiguous code**: each function compiles to one flat `Vec<Op>`;
//!   block structure disappears and a single program counter replaces the
//!   `(block, pc)` pair.
//! - **Branch-threaded jumps**: `Jmp`/`Br` targets are absolute instruction
//!   offsets patched at compile time — taking a branch is one assignment.
//! - **Pre-resolved operands**: immediates are materialized into a
//!   per-function constant pool that occupies the tail of the frame, so at
//!   run time *every* operand is a frame index — no `Slot` match per read.
//! - **Fixed-layout ops**: `Op` is a flat `{code, dst, a, b, c}` record;
//!   dispatch is a single match on a fieldless opcode.
//! - **Frame arena**: frames live in one reusable value stack owned by the
//!   interpreter (calls push/pop a region); after the first call of each
//!   function the interpreter performs **zero heap allocation per call**.
//!
//! - **Superinstructions**: a peephole pass (`fuse`) collapses the
//!   hottest adjacent pairs (compare+branch, accumulate+move, latch+jump)
//!   into single fused ops, since dispatch count — not arm cost — is what
//!   the hot loop pays for.
//!
//! Semantics are bit-identical to the reference interpreter by
//! construction: both engines embed the same environment and run the same
//! prepare check ([`crate::value`]), share `binop`, `cast` and the
//! intrinsic table, and keep the same fuel discipline (one unit per
//! executed IR instruction; fused ops charge one unit per covered
//! instruction with the budget check in between, so even `OutOfFuel`
//! surfaces at the same step). `tests/differential.rs`
//! property-tests the equivalence across random programs on all three
//! engines (AST reference, slot, bytecode).

use std::collections::HashMap;
use std::fmt;

use crate::ir::{BinOp, Block, Function, Inst, Module, Operand, Ty, TyRef};
use crate::value::{binop, cast, check_arity, Callee, Env, ExecError, Value};

/// Sentinel slot meaning "no destination register".
const NO_SLOT: u32 = u32::MAX;

/// Fieldless opcode: one dispatch match, no nested payload enums. Binary
/// operators get one opcode each so the shared `binop` helper is invoked
/// with a constant operator the compiler folds away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpCode {
    /// `frame[dst] = frame[a]` (covers `Const` after immediates are pooled).
    Mov,
    /// `frame[dst] = frame[a] + frame[b]` — and so on for the arithmetic
    /// and comparison opcodes below.
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    /// `frame[dst] = cast(frame[a])` to the opcode's type.
    CastI64,
    CastF32,
    CastF64,
    /// `frame[dst] = state[a]`.
    LoadState,
    /// `state[a] = frame[b]`.
    StoreState,
    /// Intrinsic `a` over `args_pool[b..b+c]`; result to `dst` unless
    /// `NO_SLOT`.
    CallIntrinsic,
    /// Module function `a` over `args_pool[b..b+c]`; result to `dst`.
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
    // --- Fused superinstructions (see `fuse`) ---------------------------
    // Each covers two IR instructions and charges two fuel units with a
    // budget check between them, so `OutOfFuel` surfaces at exactly the
    // same step as the slot interpreter.
    /// Compare `frame[a]` with `frame[b]`, then branch:
    /// `pc = if cmp { dst } else { c }`. Only emitted when the compare's
    /// destination register is read by nothing but the branch.
    LtBr,
    /// See [`OpCode::LtBr`].
    LeBr,
    /// See [`OpCode::LtBr`].
    GtBr,
    /// See [`OpCode::LtBr`].
    GeBr,
    /// See [`OpCode::LtBr`].
    EqBr,
    /// See [`OpCode::LtBr`].
    NeBr,
    /// `frame[dst] = frame[a] <op> frame[b]`, where the original
    /// instruction pair computed into a temporary read only by the
    /// following `Mov` — the temporary write is elided.
    AddMov,
    /// See [`OpCode::AddMov`].
    SubMov,
    /// See [`OpCode::AddMov`].
    MulMov,
    /// See [`OpCode::AddMov`].
    DivMov,
    /// See [`OpCode::AddMov`].
    RemMov,
    /// See [`OpCode::AddMov`].
    LtMov,
    /// See [`OpCode::AddMov`].
    LeMov,
    /// See [`OpCode::AddMov`].
    GtMov,
    /// See [`OpCode::AddMov`].
    GeMov,
    /// See [`OpCode::AddMov`].
    EqMov,
    /// See [`OpCode::AddMov`].
    NeMov,
    /// `frame[dst] = frame[a] <op> frame[b]; pc = c` — a loop latch
    /// (typically the induction increment) fused with its back-edge.
    AddJmp,
    /// See [`OpCode::AddJmp`].
    SubJmp,
    /// See [`OpCode::AddJmp`].
    MulJmp,
    /// See [`OpCode::AddJmp`].
    DivJmp,
    /// See [`OpCode::AddJmp`].
    RemJmp,
    /// See [`OpCode::AddJmp`].
    LtJmp,
    /// See [`OpCode::AddJmp`].
    LeJmp,
    /// See [`OpCode::AddJmp`].
    GtJmp,
    /// See [`OpCode::AddJmp`].
    GeJmp,
    /// See [`OpCode::AddJmp`].
    EqJmp,
    /// See [`OpCode::AddJmp`].
    NeJmp,
    /// `frame[dst] = frame[a]; pc = c`.
    MovJmp,
    /// Two chained infallible binary ops: `t = frame[a] <op1> frame[b]`
    /// into `frame[dst] = t <op2> frame[c]` (operand order per [`Op::aux`];
    /// the temporary `t` is read only by the second op and is elided).
    /// Only `Add`/`Sub`/`Mul` pairs are fused — `Div`/`Rem` can fail, and
    /// the error must surface exactly where the slot interpreter raises it.
    AddAdd,
    /// See [`OpCode::AddAdd`].
    AddSub,
    /// See [`OpCode::AddAdd`].
    AddMul,
    /// See [`OpCode::AddAdd`].
    SubAdd,
    /// See [`OpCode::AddAdd`].
    SubSub,
    /// See [`OpCode::AddAdd`].
    SubMul,
    /// See [`OpCode::AddAdd`].
    MulAdd,
    /// See [`OpCode::AddAdd`].
    MulSub,
    /// See [`OpCode::AddAdd`].
    MulMul,
    /// Intrinsic `a` over the single argument `frame[b]`; result to `dst`
    /// unless `NO_SLOT`. Specialization of [`OpCode::CallIntrinsic`] that
    /// skips the argument-marshalling scratch buffer and `args_pool`
    /// indirection (covers `sqrt` and friends — the common case).
    CallIntrinsic1,
    /// Intrinsic `a` over `(frame[b], frame[c])`; result to `dst` unless
    /// `NO_SLOT`.
    CallIntrinsic2,
}

impl OpCode {
    /// The `cmp + Br` superinstruction for a comparison opcode.
    fn with_br(self) -> Option<OpCode> {
        Some(match self {
            OpCode::Lt => OpCode::LtBr,
            OpCode::Le => OpCode::LeBr,
            OpCode::Gt => OpCode::GtBr,
            OpCode::Ge => OpCode::GeBr,
            OpCode::Eq => OpCode::EqBr,
            OpCode::Ne => OpCode::NeBr,
            _ => return None,
        })
    }

    /// The `bin + Mov` superinstruction for a binary opcode.
    fn with_mov(self) -> Option<OpCode> {
        Some(match self {
            OpCode::Add => OpCode::AddMov,
            OpCode::Sub => OpCode::SubMov,
            OpCode::Mul => OpCode::MulMov,
            OpCode::Div => OpCode::DivMov,
            OpCode::Rem => OpCode::RemMov,
            OpCode::Lt => OpCode::LtMov,
            OpCode::Le => OpCode::LeMov,
            OpCode::Gt => OpCode::GtMov,
            OpCode::Ge => OpCode::GeMov,
            OpCode::Eq => OpCode::EqMov,
            OpCode::Ne => OpCode::NeMov,
            _ => return None,
        })
    }

    /// The chained-pair superinstruction for two infallible binary ops.
    fn with_bin(self, second: OpCode) -> Option<OpCode> {
        use OpCode::*;
        Some(match (self, second) {
            (Add, Add) => AddAdd,
            (Add, Sub) => AddSub,
            (Add, Mul) => AddMul,
            (Sub, Add) => SubAdd,
            (Sub, Sub) => SubSub,
            (Sub, Mul) => SubMul,
            (Mul, Add) => MulAdd,
            (Mul, Sub) => MulSub,
            (Mul, Mul) => MulMul,
            _ => return None,
        })
    }

    /// The `bin + Jmp` superinstruction for a binary opcode.
    fn with_jmp(self) -> Option<OpCode> {
        Some(match self {
            OpCode::Add => OpCode::AddJmp,
            OpCode::Sub => OpCode::SubJmp,
            OpCode::Mul => OpCode::MulJmp,
            OpCode::Div => OpCode::DivJmp,
            OpCode::Rem => OpCode::RemJmp,
            OpCode::Lt => OpCode::LtJmp,
            OpCode::Le => OpCode::LeJmp,
            OpCode::Gt => OpCode::GtJmp,
            OpCode::Ge => OpCode::GeJmp,
            OpCode::Eq => OpCode::EqJmp,
            OpCode::Ne => OpCode::NeJmp,
            _ => return None,
        })
    }
}

/// One fixed-layout bytecode instruction. Field meaning depends on the
/// opcode (see [`OpCode`]); unused fields are zero.
#[derive(Debug, Clone, Copy)]
struct Op {
    code: OpCode,
    /// Operand-order selector for chained-pair ops ([`OpCode::AddAdd`]
    /// family): `0` if the first result is the second op's left operand,
    /// `1` if it is the right. Lives in `Op`'s alignment padding — free.
    aux: u8,
    dst: u32,
    a: u32,
    b: u32,
    c: u32,
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
    /// `nregs + consts.len()` — the full frame footprint.
    frame_len: usize,
    /// The flat instruction stream.
    code: Vec<Op>,
    /// Argument frame-slots for all calls, referenced by `(b, c)` ranges.
    args_pool: Vec<u32>,
    /// Pre-built lazy errors raised by [`OpCode::Fail`].
    errors: Vec<ExecError>,
}

impl fmt::Debug for CompiledFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledFn")
            .field("name", &self.name)
            .field("frame_len", &self.frame_len)
            .field("ops", &self.code.len())
            .finish()
    }
}

/// Bytecode interpreter over a module, API-compatible with the reference
/// interpreter `Interp` and embedding the same environment: a fuel budget
/// shared across calls, cross-invocation state variables seeded from the
/// module's state table, and host intrinsics that shadow module functions.
/// Functions compile to flat bytecode once, on first call, and are cached.
pub struct BytecodeInterp<'m> {
    env: Env<'m, CompiledFn>,
    /// One-entry call-target cache: the last `(name, function index)` pair
    /// [`Self::call`] resolved. Entry-point calls overwhelmingly repeat the
    /// same function, and the module's function table never changes, so a
    /// string compare replaces a hash-map lookup on the per-call path.
    last_call: Option<(String, usize)>,
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
            last_call: None,
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

    /// Register a host intrinsic callable from IR.
    ///
    /// Invalidates the compiled-function cache: a new intrinsic can change
    /// how callee names resolve.
    pub fn register_intrinsic(&mut self, name: impl Into<String>, f: fn(&[Value]) -> Value) {
        self.env.register_intrinsic(name.into(), f);
    }

    /// Call `name` with `args`; returns the function's returned value.
    pub fn call(&mut self, name: &str, args: &[Value]) -> Result<Option<Value>, ExecError> {
        let idx = match &self.last_call {
            Some((n, i)) if n == name => *i,
            _ => {
                let i = self.env.function(name)?;
                self.last_call = Some((name.to_string(), i));
                i
            }
        };
        let f = self.env.prepare(idx, Self::compile)?;
        check_arity(name, f.params.len(), args.len())?;
        let base = self.stack.len();
        self.stack.resize(base + f.frame_len, Value::Int(0));
        for (&p, &a) in f.params.iter().zip(args) {
            self.stack[base + p as usize] = a;
        }
        self.stack[base + f.nregs..base + f.frame_len].copy_from_slice(&f.consts);
        let result = self.exec_at(&f, base);
        self.stack.truncate(base);
        result
    }

    /// Compile a function that passed the prepare check to bytecode.
    fn compile(env: &mut Env<'_, CompiledFn>, f: &Function, nregs: usize) -> CompiledFn {
        // Pass 1: lay out blocks end to end, each up to its terminator.
        let mut starts = Vec::with_capacity(f.blocks.len());
        let mut at = 0u32;
        for block in &f.blocks {
            starts.push(at);
            at += block.live().len() as u32;
        }

        // Pass 2: emit, pooling immediates (deduplicated by bit pattern)
        // into frame slots past the registers.
        let mut consts: Vec<Value> = Vec::new();
        let mut const_index: HashMap<(bool, u64), u32> = HashMap::new();
        let mut code: Vec<Op> = Vec::with_capacity(at as usize);
        let mut args_pool: Vec<u32> = Vec::new();
        let mut errors: Vec<ExecError> = Vec::new();
        let mut slot = |op: &Operand, consts: &mut Vec<Value>| -> u32 {
            let (key, value) = match *op {
                Operand::Reg(r) => return r.0,
                Operand::ImmInt(v) => ((false, v as u64), Value::Int(v)),
                Operand::ImmFloat(v) => ((true, v.to_bits()), Value::Float(v)),
            };
            *const_index.entry(key).or_insert_with(|| {
                consts.push(value);
                nregs as u32 + (consts.len() - 1) as u32
            })
        };
        let op0 = |code: OpCode| Op {
            code,
            aux: 0,
            dst: 0,
            a: 0,
            b: 0,
            c: 0,
        };
        for block in &f.blocks {
            for inst in block.live() {
                let op = match inst {
                    Inst::Const { dst, value } => Op {
                        dst: dst.0,
                        a: slot(value, &mut consts),
                        ..op0(OpCode::Mov)
                    },
                    Inst::Bin { op, dst, lhs, rhs } => Op {
                        dst: dst.0,
                        a: slot(lhs, &mut consts),
                        b: slot(rhs, &mut consts),
                        ..op0(match op {
                            BinOp::Add => OpCode::Add,
                            BinOp::Sub => OpCode::Sub,
                            BinOp::Mul => OpCode::Mul,
                            BinOp::Div => OpCode::Div,
                            BinOp::Rem => OpCode::Rem,
                            BinOp::Lt => OpCode::Lt,
                            BinOp::Le => OpCode::Le,
                            BinOp::Gt => OpCode::Gt,
                            BinOp::Ge => OpCode::Ge,
                            BinOp::Eq => OpCode::Eq,
                            BinOp::Ne => OpCode::Ne,
                        })
                    },
                    Inst::Cast { dst, src, to } => match to {
                        TyRef::Concrete(t) => Op {
                            dst: dst.0,
                            a: slot(src, &mut consts),
                            ..op0(match t {
                                Ty::I64 => OpCode::CastI64,
                                Ty::F32 => OpCode::CastF32,
                                Ty::F64 => OpCode::CastF64,
                            })
                        },
                        TyRef::Tradeoff(name) => {
                            errors.push(ExecError::UnresolvedTradeoff(name.clone()));
                            Op {
                                a: (errors.len() - 1) as u32,
                                ..op0(OpCode::Fail)
                            }
                        }
                    },
                    Inst::TradeoffRef { tradeoff, .. } | Inst::CallTradeoff { tradeoff, .. } => {
                        errors.push(ExecError::UnresolvedTradeoff(tradeoff.clone()));
                        Op {
                            a: (errors.len() - 1) as u32,
                            ..op0(OpCode::Fail)
                        }
                    }
                    Inst::LoadState { dst, state } => Op {
                        dst: dst.0,
                        a: env.state_slot(state) as u32,
                        ..op0(OpCode::LoadState)
                    },
                    Inst::StoreState { state, src } => Op {
                        a: env.state_slot(state) as u32,
                        b: slot(src, &mut consts),
                        ..op0(OpCode::StoreState)
                    },
                    Inst::Call { dst, callee, args } => {
                        let dst = dst.map(|d| d.0).unwrap_or(NO_SLOT);
                        let start = args_pool.len() as u32;
                        for a in args {
                            let s = slot(a, &mut consts);
                            args_pool.push(s);
                        }
                        match env.callee(callee) {
                            Some(Callee::Intrinsic(i)) => match args_pool[start as usize..] {
                                [arg] => Op {
                                    dst,
                                    a: i as u32,
                                    b: arg,
                                    c: 0,
                                    code: OpCode::CallIntrinsic1,
                                    aux: 0,
                                },
                                [arg0, arg1] => Op {
                                    dst,
                                    a: i as u32,
                                    b: arg0,
                                    c: arg1,
                                    code: OpCode::CallIntrinsic2,
                                    aux: 0,
                                },
                                _ => Op {
                                    dst,
                                    a: i as u32,
                                    b: start,
                                    c: args.len() as u32,
                                    code: OpCode::CallIntrinsic,
                                    aux: 0,
                                },
                            },
                            Some(Callee::Function(i)) => Op {
                                dst,
                                a: i as u32,
                                b: start,
                                c: args.len() as u32,
                                code: OpCode::CallFn,
                                aux: 0,
                            },
                            None => {
                                errors.push(ExecError::UnknownFunction(callee.clone()));
                                Op {
                                    a: (errors.len() - 1) as u32,
                                    ..op0(OpCode::Fail)
                                }
                            }
                        }
                    }
                    Inst::Jmp { target } => Op {
                        a: starts[target.0],
                        ..op0(OpCode::Jmp)
                    },
                    Inst::Br {
                        cond,
                        then_b,
                        else_b,
                    } => Op {
                        a: slot(cond, &mut consts),
                        b: starts[then_b.0],
                        c: starts[else_b.0],
                        ..op0(OpCode::Br)
                    },
                    Inst::Ret { value } => match value {
                        Some(v) => Op {
                            a: slot(v, &mut consts),
                            ..op0(OpCode::RetVal)
                        },
                        None => op0(OpCode::RetNone),
                    },
                };
                code.push(op);
            }
        }
        debug_assert_eq!(code.len() as u32, at, "pass-1/pass-2 layout mismatch");

        // Pass 3: peephole-fuse adjacent instruction pairs into
        // superinstructions (dispatch count is the dominant hot-loop cost). A
        // pair may elide a temporary only the pair itself reads, so count each
        // register's reads first.
        let mut reads = vec![0u32; nregs];
        for r in f.blocks.iter().flat_map(Block::live).flat_map(Inst::reads) {
            reads[r.0 as usize] += 1;
        }
        fuse(&mut code, &reads);

        let frame_len = nregs + consts.len();
        CompiledFn {
            name: f.name.clone(),
            params: f.params.iter().map(|p| p.0).collect(),
            nregs,
            consts,
            frame_len,
            code,
            args_pool,
            errors,
        }
    }

    /// The hot loop: execute `f` with its frame at `stack[base..]`.
    ///
    /// Fuel, the frame arena, and the state table all live in locals for
    /// the duration of the loop (moved out of `self` and written back on
    /// every exit path and around nested calls) so their base pointers stay
    /// register-resident instead of being reloaded through `&mut self` each
    /// op. Frame/state accesses go through [`fget`]/[`fset`]/[`sget`]/
    /// [`sset`], whose bounds are established once by construction in
    /// [`Self::compile`] rather than re-checked on every operand.
    fn exec_at(&mut self, f: &CompiledFn, base: usize) -> Result<Option<Value>, ExecError> {
        let mut pc = 0usize;
        let mut fuel = self.env.fuel;
        let mut stack = std::mem::take(&mut self.stack);
        let mut state = std::mem::take(&mut self.env.state);
        macro_rules! bin_arm {
            ($bop:expr, $op:expr) => {{
                let a = fget(&stack, base, $op.a);
                let b = fget(&stack, base, $op.b);
                match binop($bop, a, b) {
                    Ok(v) => fset(&mut stack, base, $op.dst, v),
                    Err(e) => break Err(e),
                }
            }};
        }
        // Fused two-instruction arms charge the second fuel unit
        // themselves (the loop header charged the first), with the budget
        // check between the halves — identical `OutOfFuel` timing to
        // executing the pair unfused.
        macro_rules! second_unit {
            () => {{
                if fuel == 0 {
                    break Err(ExecError::OutOfFuel);
                }
                fuel -= 1;
            }};
        }
        macro_rules! cmp_br_arm {
            ($bop:expr, $op:expr) => {{
                let a = fget(&stack, base, $op.a);
                let b = fget(&stack, base, $op.b);
                // Comparisons never fail; the elided destination register
                // is read by nothing but this branch (checked by `fuse`).
                let Ok(v) = binop($bop, a, b) else {
                    unreachable!("comparison cannot fail")
                };
                second_unit!();
                pc = if v.truthy() {
                    $op.dst as usize
                } else {
                    $op.c as usize
                };
            }};
        }
        macro_rules! bin_mov_arm {
            ($bop:expr, $op:expr) => {{
                let a = fget(&stack, base, $op.a);
                let b = fget(&stack, base, $op.b);
                match binop($bop, a, b) {
                    Ok(v) => {
                        second_unit!();
                        fset(&mut stack, base, $op.dst, v);
                    }
                    Err(e) => break Err(e),
                }
            }};
        }
        macro_rules! bin_bin_arm {
            ($b1:expr, $b2:expr, $op:expr) => {{
                let a = fget(&stack, base, $op.a);
                let b = fget(&stack, base, $op.b);
                // Add/Sub/Mul never fail (fuse never pairs Div/Rem here).
                let Ok(t) = binop($b1, a, b) else {
                    unreachable!("add/sub/mul cannot fail")
                };
                second_unit!();
                let o = fget(&stack, base, $op.c);
                let (x, y) = if $op.aux == 0 { (t, o) } else { (o, t) };
                let Ok(v) = binop($b2, x, y) else {
                    unreachable!("add/sub/mul cannot fail")
                };
                fset(&mut stack, base, $op.dst, v);
            }};
        }
        macro_rules! bin_jmp_arm {
            ($bop:expr, $op:expr) => {{
                let a = fget(&stack, base, $op.a);
                let b = fget(&stack, base, $op.b);
                match binop($bop, a, b) {
                    Ok(v) => {
                        fset(&mut stack, base, $op.dst, v);
                        second_unit!();
                        pc = $op.c as usize;
                    }
                    Err(e) => break Err(e),
                }
            }};
        }
        let result = loop {
            if fuel == 0 {
                break Err(ExecError::OutOfFuel);
            }
            fuel -= 1;
            // SAFETY: pc stays in bounds: the prepare check gave every block
            // a terminator whose targets exist, `compile` emits each block
            // up to that terminator and points jumps at block starts, so
            // execution from a block start reaches its terminator before
            // running off its end — every read is within `code`.
            let op = unsafe { *f.code.get_unchecked(pc) };
            pc += 1;
            match op.code {
                OpCode::Mov => {
                    let v = fget(&stack, base, op.a);
                    fset(&mut stack, base, op.dst, v);
                }
                OpCode::Add => bin_arm!(BinOp::Add, op),
                OpCode::Sub => bin_arm!(BinOp::Sub, op),
                OpCode::Mul => bin_arm!(BinOp::Mul, op),
                OpCode::Div => bin_arm!(BinOp::Div, op),
                OpCode::Rem => bin_arm!(BinOp::Rem, op),
                OpCode::Lt => bin_arm!(BinOp::Lt, op),
                OpCode::Le => bin_arm!(BinOp::Le, op),
                OpCode::Gt => bin_arm!(BinOp::Gt, op),
                OpCode::Ge => bin_arm!(BinOp::Ge, op),
                OpCode::Eq => bin_arm!(BinOp::Eq, op),
                OpCode::Ne => bin_arm!(BinOp::Ne, op),
                OpCode::CastI64 => {
                    let v = cast(fget(&stack, base, op.a), Ty::I64);
                    fset(&mut stack, base, op.dst, v);
                }
                OpCode::CastF32 => {
                    let v = cast(fget(&stack, base, op.a), Ty::F32);
                    fset(&mut stack, base, op.dst, v);
                }
                OpCode::CastF64 => {
                    let v = cast(fget(&stack, base, op.a), Ty::F64);
                    fset(&mut stack, base, op.dst, v);
                }
                OpCode::LoadState => {
                    let v = sget(&state, op.a);
                    fset(&mut stack, base, op.dst, v);
                }
                OpCode::StoreState => {
                    let v = fget(&stack, base, op.b);
                    sset(&mut state, op.a, v);
                }
                OpCode::CallIntrinsic => {
                    let args = &f.args_pool[op.b as usize..(op.b + op.c) as usize];
                    self.scratch.clear();
                    for &a in args {
                        let v = fget(&stack, base, a);
                        self.scratch.push(v);
                    }
                    let func = self.env.intrinsics[op.a as usize];
                    let result = func(&self.scratch);
                    if op.dst != NO_SLOT {
                        fset(&mut stack, base, op.dst, result);
                    }
                }
                OpCode::CallFn => {
                    self.env.fuel = fuel;
                    self.stack = stack;
                    self.env.state = state;
                    let r = self.call_fn(f, base, op);
                    fuel = self.env.fuel;
                    stack = std::mem::take(&mut self.stack);
                    state = std::mem::take(&mut self.env.state);
                    if let Err(e) = r {
                        break Err(e);
                    }
                }
                OpCode::Fail => break Err(f.errors[op.a as usize].clone()),
                OpCode::Jmp => pc = op.a as usize,
                OpCode::Br => {
                    pc = if fget(&stack, base, op.a).truthy() {
                        op.b as usize
                    } else {
                        op.c as usize
                    };
                }
                OpCode::RetNone => break Ok(None),
                OpCode::RetVal => break Ok(Some(fget(&stack, base, op.a))),
                OpCode::LtBr => cmp_br_arm!(BinOp::Lt, op),
                OpCode::LeBr => cmp_br_arm!(BinOp::Le, op),
                OpCode::GtBr => cmp_br_arm!(BinOp::Gt, op),
                OpCode::GeBr => cmp_br_arm!(BinOp::Ge, op),
                OpCode::EqBr => cmp_br_arm!(BinOp::Eq, op),
                OpCode::NeBr => cmp_br_arm!(BinOp::Ne, op),
                OpCode::AddMov => bin_mov_arm!(BinOp::Add, op),
                OpCode::SubMov => bin_mov_arm!(BinOp::Sub, op),
                OpCode::MulMov => bin_mov_arm!(BinOp::Mul, op),
                OpCode::DivMov => bin_mov_arm!(BinOp::Div, op),
                OpCode::RemMov => bin_mov_arm!(BinOp::Rem, op),
                OpCode::LtMov => bin_mov_arm!(BinOp::Lt, op),
                OpCode::LeMov => bin_mov_arm!(BinOp::Le, op),
                OpCode::GtMov => bin_mov_arm!(BinOp::Gt, op),
                OpCode::GeMov => bin_mov_arm!(BinOp::Ge, op),
                OpCode::EqMov => bin_mov_arm!(BinOp::Eq, op),
                OpCode::NeMov => bin_mov_arm!(BinOp::Ne, op),
                OpCode::AddJmp => bin_jmp_arm!(BinOp::Add, op),
                OpCode::SubJmp => bin_jmp_arm!(BinOp::Sub, op),
                OpCode::MulJmp => bin_jmp_arm!(BinOp::Mul, op),
                OpCode::DivJmp => bin_jmp_arm!(BinOp::Div, op),
                OpCode::RemJmp => bin_jmp_arm!(BinOp::Rem, op),
                OpCode::LtJmp => bin_jmp_arm!(BinOp::Lt, op),
                OpCode::LeJmp => bin_jmp_arm!(BinOp::Le, op),
                OpCode::GtJmp => bin_jmp_arm!(BinOp::Gt, op),
                OpCode::GeJmp => bin_jmp_arm!(BinOp::Ge, op),
                OpCode::EqJmp => bin_jmp_arm!(BinOp::Eq, op),
                OpCode::NeJmp => bin_jmp_arm!(BinOp::Ne, op),
                OpCode::MovJmp => {
                    let v = fget(&stack, base, op.a);
                    fset(&mut stack, base, op.dst, v);
                    second_unit!();
                    pc = op.c as usize;
                }
                OpCode::AddAdd => bin_bin_arm!(BinOp::Add, BinOp::Add, op),
                OpCode::AddSub => bin_bin_arm!(BinOp::Add, BinOp::Sub, op),
                OpCode::AddMul => bin_bin_arm!(BinOp::Add, BinOp::Mul, op),
                OpCode::SubAdd => bin_bin_arm!(BinOp::Sub, BinOp::Add, op),
                OpCode::SubSub => bin_bin_arm!(BinOp::Sub, BinOp::Sub, op),
                OpCode::SubMul => bin_bin_arm!(BinOp::Sub, BinOp::Mul, op),
                OpCode::MulAdd => bin_bin_arm!(BinOp::Mul, BinOp::Add, op),
                OpCode::MulSub => bin_bin_arm!(BinOp::Mul, BinOp::Sub, op),
                OpCode::MulMul => bin_bin_arm!(BinOp::Mul, BinOp::Mul, op),
                OpCode::CallIntrinsic1 => {
                    let args = [fget(&stack, base, op.b)];
                    let func = self.env.intrinsics[op.a as usize];
                    let result = func(&args);
                    if op.dst != NO_SLOT {
                        fset(&mut stack, base, op.dst, result);
                    }
                }
                OpCode::CallIntrinsic2 => {
                    let args = [fget(&stack, base, op.b), fget(&stack, base, op.c)];
                    let func = self.env.intrinsics[op.a as usize];
                    let result = func(&args);
                    if op.dst != NO_SLOT {
                        fset(&mut stack, base, op.dst, result);
                    }
                }
            }
        };
        self.env.fuel = fuel;
        self.stack = stack;
        self.env.state = state;
        result
    }

    /// The cold half of [`OpCode::CallFn`]: push a callee frame onto the
    /// arena, run it, pop it, store the result. Kept out of line so the
    /// dispatch loop stays small.
    #[inline(never)]
    fn call_fn(&mut self, f: &CompiledFn, base: usize, op: Op) -> Result<(), ExecError> {
        let callee = self.env.prepare(op.a as usize, Self::compile)?;
        check_arity(&callee.name, callee.params.len(), op.c as usize)?;
        let cbase = self.stack.len();
        self.stack.resize(cbase + callee.frame_len, Value::Int(0));
        for (i, &p) in callee.params.iter().enumerate() {
            let a = f.args_pool[op.b as usize + i];
            let v = fget(&self.stack, base, a);
            self.stack[cbase + p as usize] = v;
        }
        self.stack[cbase + callee.nregs..cbase + callee.frame_len].copy_from_slice(&callee.consts);
        let result = self.exec_at(&callee, cbase);
        self.stack.truncate(cbase);
        let result = result?;
        if op.dst != NO_SLOT {
            fset(
                &mut self.stack,
                base,
                op.dst,
                result.unwrap_or(Value::Int(0)),
            );
        }
        Ok(())
    }
}

/// Peephole pass: fuse adjacent instruction pairs into superinstructions.
///
/// Dispatch — the indirect branch at the top of the interpreter loop — is
/// the dominant per-op cost, so halving the number of dispatched ops on
/// the hottest patterns buys more than shaving any single arm. Three pairs
/// cover the loop shapes the front end emits:
///
/// - `cmp t, a, b; Br t, then, else` → `CmpBr` — legal only when `t` is
///   read by nothing but that branch (the fused op elides the write).
/// - `bin t, a, b; Mov d, t` → `BinMov d, a, b` — same deadness condition
///   on `t`; covers the `acc = acc + ...` accumulator pattern.
/// - `bin d, a, b; Jmp target` / `Mov d, a; Jmp target` → `BinJmp` /
///   `MovJmp` — the loop-latch increment fused with its back-edge.
///
/// Each fused op still charges one fuel unit per covered IR instruction,
/// with the budget check between the two units, so `OutOfFuel` (and any
/// `DivisionByZero` from the first half) surfaces at exactly the same
/// step as the slot interpreter. Fusion never crosses a block boundary:
/// the second element of a pair is mid-block by construction, and jump
/// targets only ever point at block starts — asserted when remapping.
fn fuse(code: &mut Vec<Op>, reads: &[u32]) {
    // Defensive: never fuse across an instruction something jumps to. By
    // construction targets are block starts and pairs are intra-block, so
    // this should never actually block a fusion.
    let mut is_target = vec![false; code.len()];
    for op in code.iter() {
        match op.code {
            OpCode::Jmp => is_target[op.a as usize] = true,
            OpCode::Br => {
                is_target[op.b as usize] = true;
                is_target[op.c as usize] = true;
            }
            _ => {}
        }
    }

    let mut out: Vec<Op> = Vec::with_capacity(code.len());
    let mut map = vec![u32::MAX; code.len()];
    let mut i = 0;
    while i < code.len() {
        map[i] = out.len() as u32;
        let op = code[i];
        let next = code.get(i + 1).copied().filter(|_| !is_target[i + 1]);
        let dead_dst = |dst: u32| reads[dst as usize] == 1;
        let fused = next.and_then(|n| match n.code {
            OpCode::Br if n.a == op.dst && dead_dst(op.dst) => op.code.with_br().map(|code| Op {
                code,
                aux: 0,
                dst: n.b,
                a: op.a,
                b: op.b,
                c: n.c,
            }),
            OpCode::Mov if n.a == op.dst && dead_dst(op.dst) => op.code.with_mov().map(|code| Op {
                code,
                aux: 0,
                dst: n.dst,
                a: op.a,
                b: op.b,
                c: 0,
            }),
            OpCode::Add | OpCode::Sub | OpCode::Mul
                if (n.a == op.dst) != (n.b == op.dst) && dead_dst(op.dst) =>
            {
                op.code.with_bin(n.code).map(|code| Op {
                    code,
                    aux: u8::from(n.b == op.dst),
                    dst: n.dst,
                    a: op.a,
                    b: op.b,
                    c: if n.a == op.dst { n.b } else { n.a },
                })
            }
            OpCode::Jmp if op.code == OpCode::Mov => Some(Op {
                code: OpCode::MovJmp,
                aux: 0,
                dst: op.dst,
                a: op.a,
                b: 0,
                c: n.a,
            }),
            OpCode::Jmp => op.code.with_jmp().map(|code| Op {
                code,
                aux: 0,
                dst: op.dst,
                a: op.a,
                b: op.b,
                c: n.a,
            }),
            _ => None,
        });
        match fused {
            Some(f) => {
                out.push(f);
                i += 2;
            }
            None => {
                out.push(op);
                i += 1;
            }
        }
    }

    // Remap jump targets from pre-fusion to post-fusion indices.
    let remap = |t: &mut u32| {
        let new = map[*t as usize];
        debug_assert_ne!(new, u32::MAX, "jump target fused away");
        *t = new;
    };
    for op in &mut out {
        match op.code {
            OpCode::Jmp => remap(&mut op.a),
            OpCode::Br => {
                remap(&mut op.b);
                remap(&mut op.c);
            }
            OpCode::LtBr
            | OpCode::LeBr
            | OpCode::GtBr
            | OpCode::GeBr
            | OpCode::EqBr
            | OpCode::NeBr => {
                remap(&mut op.dst);
                remap(&mut op.c);
            }
            OpCode::AddJmp
            | OpCode::SubJmp
            | OpCode::MulJmp
            | OpCode::DivJmp
            | OpCode::RemJmp
            | OpCode::LtJmp
            | OpCode::LeJmp
            | OpCode::GtJmp
            | OpCode::GeJmp
            | OpCode::EqJmp
            | OpCode::NeJmp
            | OpCode::MovJmp => remap(&mut op.c),
            _ => {}
        }
    }
    *code = out;
}

/// Read frame slot `slot` of the frame at `base`.
#[inline(always)]
fn fget(stack: &[Value], base: usize, slot: u32) -> Value {
    debug_assert!(base + (slot as usize) < stack.len());
    // SAFETY: `compile` only emits operand slots below `frame_len`
    // (the prepare check sized `nregs` to cover every register the
    // emitted instructions name, pooled constants sit at
    // `nregs..frame_len` by construction), and the frame
    // `[base, base + frame_len)` stays inside the arena for the whole
    // call — callees push strictly above it and truncate back on return.
    unsafe { *stack.get_unchecked(base + slot as usize) }
}

/// Write frame slot `slot` of the frame at `base`.
#[inline(always)]
fn fset(stack: &mut [Value], base: usize, slot: u32, v: Value) {
    debug_assert!(base + (slot as usize) < stack.len());
    // SAFETY: same bounds argument as `fget`; destination slots are
    // always registers (`< nregs`) and `NO_SLOT` is filtered by callers.
    unsafe {
        *stack.get_unchecked_mut(base + slot as usize) = v;
    }
}

/// Read interpreter state slot `slot`.
#[inline(always)]
fn sget(state: &[Value], slot: u32) -> Value {
    debug_assert!((slot as usize) < state.len());
    // SAFETY: `compile` resolves state slots through `state_slot`, which
    // returns an index into `state`, and `state` never shrinks.
    unsafe { *state.get_unchecked(slot as usize) }
}

/// Write interpreter state slot `slot`.
#[inline(always)]
fn sset(state: &mut [Value], slot: u32, v: Value) {
    debug_assert!((slot as usize) < state.len());
    // SAFETY: same argument as `sget`.
    unsafe {
        *state.get_unchecked_mut(slot as usize) = v;
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
    use crate::lower::{lower_fn, validate};
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

    #[test]
    fn intrinsic_override_invalidates_cache() {
        let src = "fn f(x) { return sqrt(x); }";
        let m = module_of(src);
        let mut interp = BytecodeInterp::new(&m);
        assert_eq!(
            interp.call("f", &[4.0.into()]).unwrap(),
            Some(Value::Float(2.0))
        );
        interp.register_intrinsic("sqrt", |_| Value::Float(7.0));
        assert_eq!(
            interp.call("f", &[4.0.into()]).unwrap(),
            Some(Value::Float(7.0))
        );
    }
}

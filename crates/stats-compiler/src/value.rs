//! The IR's execution rules, written once for both interpreters.
//!
//! [`crate::bytecode::BytecodeInterp`] runs the product path (it stands in
//! for the paper's dynamic compiler of `getValue(i)`) and the slot-resolved
//! `Interp` is the reference semantics it is tested against. Both execute
//! the same IR by the rules in this module:
//!
//! - the runtime [`Value`] and every [`ExecError`];
//! - arithmetic and comparisons (`binop`) and conversions (`cast`);
//! - the host intrinsics (`DEFAULT_INTRINSICS`): one closed table that
//!   the verifier, the front end and both interpreters resolve callee
//!   names against;
//! - the environment both interpreters embed (`Env`): the fuel budget
//!   shared across calls, cross-invocation state slots, callee lookup
//!   (intrinsics shadow module functions) and the per-function cache;
//! - the one check a function passes before either interpreter runs it
//!   (`Env::prepare`): every block has a terminator whose targets exist,
//!   the frame covers every register, and every read register is
//!   definitely assigned. Definite assignment is a forward analysis on
//!   [`crate::analysis::dataflow`].
//!
//! A block ends at its first terminator ([`crate::ir::Block::terminator`]):
//! both interpreters prepare each block up to it, and the dataflow
//! framework follows the same edges.

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use crate::analysis::dataflow::{self, ForwardAnalysis, Lattice};
use crate::ir::{self, BinOp, Block, Function, Inst, Module, Ty};

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// Floating point (width is a property of casts, not storage).
    Float(f64),
}

impl Value {
    /// Integer payload, if integral.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(v),
            Value::Float(_) => None,
        }
    }

    /// Numeric payload, widening integers.
    pub fn as_float(self) -> f64 {
        match self {
            Value::Int(v) => v as f64,
            Value::Float(v) => v,
        }
    }

    #[inline(always)]
    pub(crate) fn truthy(self) -> bool {
        match self {
            Value::Int(v) => v != 0,
            Value::Float(v) => v != 0.0,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

/// An execution error.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Call to a function the module does not define.
    UnknownFunction(String),
    /// An unsubstituted tradeoff placeholder was reached — the back-end
    /// must instantiate the module before execution.
    UnresolvedTradeoff(String),
    /// Wrong number of call arguments.
    ArityMismatch {
        /// Callee name.
        function: String,
        /// Expected parameter count.
        expected: usize,
        /// Provided argument count.
        got: usize,
    },
    /// The step budget was exhausted (runaway loop or recursion).
    OutOfFuel,
    /// Division or remainder by zero.
    DivisionByZero,
    /// A register is read on some path before any instruction assigns it.
    /// Detected statically by the definite-assignment check when the
    /// function is prepared, so execution never observes an uninitialized
    /// frame slot.
    UnassignedRegister {
        /// Function containing the offending read.
        function: String,
        /// The register number.
        reg: u32,
    },
    /// A block has no terminator, or its terminator targets a block the
    /// function does not have (or the function has no blocks at all).
    /// Detected statically, like [`ExecError::UnassignedRegister`].
    MalformedBlock {
        /// Function containing the block.
        function: String,
        /// The block's index.
        block: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            ExecError::UnresolvedTradeoff(n) => {
                write!(
                    f,
                    "unresolved tradeoff placeholder `{n}` (run the back-end first)"
                )
            }
            ExecError::ArityMismatch {
                function,
                expected,
                got,
            } => write!(f, "`{function}` takes {expected} arguments, got {got}"),
            ExecError::OutOfFuel => write!(f, "execution exceeded the step budget"),
            ExecError::DivisionByZero => write!(f, "division by zero"),
            ExecError::UnassignedRegister { function, reg } => {
                write!(f, "`{function}` reads register %{reg} before assignment")
            }
            ExecError::MalformedBlock { function, block } => write!(
                f,
                "`{function}`: block {block} has no terminator or jumps out of range"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// The signature every host intrinsic implements.
type IntrinsicFn = fn(&[Value]) -> Value;

/// The host intrinsics: the only names callable without a module
/// definition. The table is closed, so its names are reserved:
/// [`crate::verify::verify`] rejects a module function an intrinsic
/// shadows.
pub(crate) const DEFAULT_INTRINSICS: &[(&str, IntrinsicFn)] = &[
    ("sqrt", |args| {
        Value::Float(args.first().map(|v| v.as_float()).unwrap_or(0.0).sqrt())
    }),
    ("abs", |args| match args.first() {
        Some(Value::Int(v)) => Value::Int(v.wrapping_abs()),
        Some(Value::Float(v)) => Value::Float(v.abs()),
        None => Value::Int(0),
    }),
    ("min", |args| {
        let a = args.first().map(|v| v.as_float()).unwrap_or(0.0);
        let b = args.get(1).map(|v| v.as_float()).unwrap_or(0.0);
        Value::Float(a.min(b))
    }),
    ("max", |args| {
        let a = args.first().map(|v| v.as_float()).unwrap_or(0.0);
        let b = args.get(1).map(|v| v.as_float()).unwrap_or(0.0);
        Value::Float(a.max(b))
    }),
    ("exp", |args| {
        Value::Float(args.first().map(|v| v.as_float()).unwrap_or(0.0).exp())
    }),
    ("ln", |args| {
        Value::Float(
            args.first()
                .map(|v| v.as_float())
                .unwrap_or(0.0)
                .max(f64::MIN_POSITIVE)
                .ln(),
        )
    }),
    ("pow", |args| {
        let a = args.first().map(|v| v.as_float()).unwrap_or(0.0);
        let b = args.get(1).map(|v| v.as_float()).unwrap_or(0.0);
        Value::Float(a.powf(b))
    }),
    ("floor", |args| {
        Value::Int(args.first().map(|v| v.as_float()).unwrap_or(0.0).floor() as i64)
    }),
];

/// The row of [`DEFAULT_INTRINSICS`] named `name`, if any.
pub(crate) fn intrinsic(name: &str) -> Option<usize> {
    DEFAULT_INTRINSICS.iter().position(|&(n, _)| n == name)
}

/// What a callee name resolves to.
pub(crate) enum Callee {
    /// A host intrinsic, by row of [`DEFAULT_INTRINSICS`].
    Intrinsic(usize),
    /// A module function, by index into `module.functions()`.
    Function(usize),
}

/// The environment an interpreter runs in, generic over the form `P` it
/// prepares each function into.
///
/// Cross-invocation state variables (`state NAME = ..;` declarations) live
/// here, seeded from the module's state table, and persist across calls:
/// one interpreter models one sequential stream of invocations, matching
/// the paper's `State` that `computeOutput` carries from invocation to
/// invocation.
pub(crate) struct Env<'m, P> {
    pub(crate) module: &'m Module,
    /// Steps left, shared across calls.
    pub(crate) fuel: u64,
    /// Cross-invocation state values, indexed by state slot. Only grows
    /// (`state_slot` pushes), so a slot the bytecode tier resolved when it
    /// compiled a function stays in range.
    pub(crate) state: Vec<Value>,
    /// State variable name → slot.
    state_index: HashMap<String, usize>,
    /// Prepared functions, indexed like `module.functions()`. Private:
    /// only `prepare` fills it, after the check passed.
    prepared: Vec<Option<Rc<P>>>,
}

impl<'m, P> Env<'m, P> {
    /// The module's declared state and a 1M-step fuel budget.
    pub(crate) fn new(module: &'m Module) -> Self {
        let mut env = Env {
            module,
            fuel: 1_000_000,
            state: Vec::new(),
            state_index: HashMap::new(),
            prepared: vec![None; module.functions().len()],
        };
        for v in &module.metadata.state_vars {
            let init = match v.init {
                crate::metadata::StateInit::Int(i) => Value::Int(i),
                crate::metadata::StateInit::Float(f) => Value::Float(f),
            };
            env.set_state(&v.name, init);
        }
        env
    }

    /// The current value of a state variable.
    pub(crate) fn state_value(&self, name: &str) -> Option<Value> {
        self.state_index.get(name).map(|&i| self.state[i])
    }

    /// Overwrite a state variable.
    pub(crate) fn set_state(&mut self, name: &str, value: Value) {
        let slot = self.state_slot(name);
        self.state[slot] = value;
    }

    /// The state slot for `name`, allocating one (default `Int(0)`) if the
    /// variable was never declared — undeclared state reads default to zero.
    pub(crate) fn state_slot(&mut self, name: &str) -> usize {
        if let Some(&i) = self.state_index.get(name) {
            return i;
        }
        let i = self.state.len();
        self.state.push(Value::Int(0));
        self.state_index.insert(name.to_string(), i);
        i
    }

    /// Resolve a callee name: host intrinsics shadow module functions.
    pub(crate) fn callee(&self, name: &str) -> Option<Callee> {
        match intrinsic(name) {
            Some(i) => Some(Callee::Intrinsic(i)),
            None => self.module.function_index(name).map(Callee::Function),
        }
    }

    /// The index of the module function an entry-point call names.
    pub(crate) fn function(&self, name: &str) -> Result<usize, ExecError> {
        self.module
            .function_index(name)
            .ok_or_else(|| ExecError::UnknownFunction(name.to_string()))
    }

    /// How many functions are prepared.
    pub(crate) fn prepared_count(&self) -> usize {
        self.prepared.iter().filter(|p| p.is_some()).count()
    }

    /// Function `idx` in prepared form: from the cache, or checked and then
    /// built by `build` from the function and its frame size. A function
    /// that fails the check is never built, so no prepared form has a block
    /// without a terminator, a target out of range, a register outside its
    /// frame, or a read of a register not definitely assigned.
    pub(crate) fn prepare(
        &mut self,
        idx: usize,
        build: impl FnOnce(&mut Self, &'m Function, usize) -> P,
    ) -> Result<Rc<P>, ExecError> {
        if let Some(p) = &self.prepared[idx] {
            return Ok(Rc::clone(p));
        }
        let module: &'m Module = self.module;
        let f = &module.functions()[idx];
        let nregs = check(f)?;
        let prepared = Rc::new(build(self, f, nregs));
        self.prepared[idx] = Some(Rc::clone(&prepared));
        Ok(prepared)
    }
}

/// `ArityMismatch` unless a call to `function` passes as many arguments as
/// it takes.
pub(crate) fn check_arity(function: &str, expected: usize, got: usize) -> Result<(), ExecError> {
    if expected == got {
        return Ok(());
    }
    Err(ExecError::ArityMismatch {
        function: function.to_string(),
        expected,
        got,
    })
}

/// The prepare check: block structure ([`ir::validate`]), then definite
/// assignment. Returns the frame size.
fn check(f: &Function) -> Result<usize, ExecError> {
    ir::validate(f).map_err(|e| ExecError::MalformedBlock {
        function: e.function,
        block: e.block,
    })?;
    let nregs = frame_size(f);
    let analysis = DefiniteAssignment { nregs };
    let entry = dataflow::run(f, &analysis);
    for (block, fact) in f.blocks.iter().zip(entry) {
        let Some(mut assigned) = fact else { continue };
        for inst in block.live() {
            if let Some(reg) = inst.reads().find(|r| !assigned.0[r.0 as usize]) {
                return Err(ExecError::UnassignedRegister {
                    function: f.name.clone(),
                    reg: reg.0,
                });
            }
            analysis.transfer(f, inst, &mut assigned, false);
        }
    }
    Ok(nregs)
}

/// Frame size for `f`: covers `next_reg` plus any register a hand-built
/// function names beyond it.
fn frame_size(f: &Function) -> usize {
    let live = f.blocks.iter().flat_map(Block::live);
    let named = live.flat_map(|inst| inst.def().into_iter().chain(inst.reads()));
    f.params
        .iter()
        .copied()
        .chain(named)
        .map(|r| r.0 as usize + 1)
        .fold(f.next_reg as usize, usize::max)
}

/// The registers assigned on every path to a point, one flag per register.
#[derive(Clone)]
struct Assigned(Vec<bool>);

impl Lattice for Assigned {
    /// Where paths meet, a register is assigned only if both assign it.
    fn join(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (mine, theirs) in self.0.iter_mut().zip(&other.0) {
            if *mine && !*theirs {
                *mine = false;
                changed = true;
            }
        }
        changed
    }
}

/// Definite assignment: a register may be read only if it is assigned on
/// *every* path from entry, so execution can use a flat frame with no
/// per-read presence checks.
struct DefiniteAssignment {
    nregs: usize,
}

impl ForwardAnalysis for DefiniteAssignment {
    type Fact = Assigned;

    fn boundary(&self, f: &Function) -> Assigned {
        let mut assigned = Assigned(vec![false; self.nregs]);
        for p in &f.params {
            assigned.0[p.0 as usize] = true;
        }
        assigned
    }

    fn transfer(&self, _f: &Function, inst: &Inst, fact: &mut Assigned, _widen: bool) {
        if let Some(d) = inst.def() {
            fact.0[d.0 as usize] = true;
        }
    }
}

#[inline(always)]
pub(crate) fn cast(v: Value, ty: Ty) -> Value {
    match ty {
        Ty::I64 => Value::Int(match v {
            Value::Int(i) => i,
            Value::Float(f) => f as i64,
        }),
        Ty::F32 => Value::Float(v.as_float() as f32 as f64),
        Ty::F64 => Value::Float(v.as_float()),
    }
}

#[inline(always)]
pub(crate) fn binop(op: BinOp, a: Value, b: Value) -> Result<Value, ExecError> {
    use BinOp::*;
    // Integer op if both sides are integers; float otherwise.
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        let v = match op {
            Add => x.wrapping_add(y),
            Sub => x.wrapping_sub(y),
            Mul => x.wrapping_mul(y),
            Div => {
                if y == 0 {
                    return Err(ExecError::DivisionByZero);
                }
                x.wrapping_div(y)
            }
            Rem => {
                if y == 0 {
                    return Err(ExecError::DivisionByZero);
                }
                x.wrapping_rem(y)
            }
            Lt => (x < y) as i64,
            Le => (x <= y) as i64,
            Gt => (x > y) as i64,
            Ge => (x >= y) as i64,
            Eq => (x == y) as i64,
            Ne => (x != y) as i64,
        };
        return Ok(Value::Int(v));
    }
    let x = a.as_float();
    let y = b.as_float();
    Ok(match op {
        Add => Value::Float(x + y),
        Sub => Value::Float(x - y),
        Mul => Value::Float(x * y),
        Div => Value::Float(x / y),
        Rem => Value::Float(x % y),
        Lt => Value::Int((x < y) as i64),
        Le => Value::Int((x <= y) as i64),
        Gt => Value::Int((x > y) as i64),
        Ge => Value::Int((x >= y) as i64),
        Eq => Value::Int((x == y) as i64),
        Ne => Value::Int((x != y) as i64),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::BytecodeInterp;
    use crate::interp::Interp;
    use crate::ir::{BlockId, Operand};

    /// Both interpreters' verdict on `f`, called with no arguments.
    fn both(f: Function) -> [Result<Option<Value>, ExecError>; 2] {
        let mut m = Module::new();
        let name = f.name.clone();
        m.add_function(f);
        [
            Interp::new(&m).call(&name, &[]),
            BytecodeInterp::new(&m).call(&name, &[]),
        ]
    }

    /// A block with no terminator, and a jump to a block the function does
    /// not have, are typed errors from both interpreters — never a panic.
    #[test]
    fn malformed_blocks_are_the_same_error_on_both_interpreters() {
        let mut open = Function::new("open", 0);
        let r = open.fresh_reg();
        open.push(
            BlockId(0),
            Inst::Const {
                dst: r,
                value: Operand::ImmInt(1),
            },
        );
        let mut wild = Function::new("wild", 0);
        wild.push(BlockId(0), Inst::Jmp { target: BlockId(7) });
        for (f, name) in [(open, "open"), (wild, "wild")] {
            let expected = Err(ExecError::MalformedBlock {
                function: name.into(),
                block: 0,
            });
            assert_eq!(both(f), [expected.clone(), expected], "{name}");
        }
    }

    /// Definite assignment follows a block's *first* terminator: a
    /// definition after it is dead and assigns nothing, so a read in the
    /// successor is `UnassignedRegister`, not a silent 0.
    #[test]
    fn a_definition_after_the_terminator_assigns_nothing() {
        let mut f = Function::new("dead_def", 0);
        let r1 = f.fresh_reg();
        let b1 = f.new_block();
        f.push(BlockId(0), Inst::Jmp { target: b1 });
        f.push(
            BlockId(0),
            Inst::Const {
                dst: r1,
                value: Operand::ImmInt(1),
            },
        );
        f.push(BlockId(0), Inst::Jmp { target: b1 });
        f.push(
            b1,
            Inst::Ret {
                value: Some(Operand::Reg(r1)),
            },
        );
        let expected = Err(ExecError::UnassignedRegister {
            function: "dead_def".into(),
            reg: r1.0,
        });
        assert_eq!(both(f), [expected.clone(), expected]);
    }
}

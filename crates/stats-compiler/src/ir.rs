//! The STATS intermediate representation.
//!
//! A compact, block-based register IR. Two properties matter for the STATS
//! pipeline and are explicit in the instruction set:
//!
//! - **tradeoff references are first-class instructions**
//!   ([`Inst::TradeoffRef`], [`Inst::CallTradeoff`], and the
//!   [`TyRef::Tradeoff`] type placeholder), so compiler passes can find,
//!   clone, and substitute them mechanically;
//! - **metadata rides with the module** ([`crate::metadata`]), mirroring the
//!   paper's CIL-inspired design: state dependences and tradeoffs are rows
//!   in module-level tables that link to IR functions.

use std::collections::HashMap;
use std::fmt;

/// A scalar IR type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 64-bit integer.
    I64,
    /// 32-bit float.
    F32,
    /// 64-bit float.
    F64,
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::I64 => write!(f, "i64"),
            Ty::F32 => write!(f, "f32"),
            Ty::F64 => write!(f, "f64"),
        }
    }
}

/// A type reference: concrete, or a placeholder resolved by a type tradeoff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TyRef {
    /// A concrete type.
    Concrete(Ty),
    /// The type selected by the named tradeoff (back-end substitutes).
    Tradeoff(String),
}

/// A virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// An instruction operand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// A register.
    Reg(Reg),
    /// An integer immediate.
    ImmInt(i64),
    /// A float immediate.
    ImmFloat(f64),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

/// A binary ALU/compare operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer division on `i64` values).
    Div,
    /// Remainder.
    Rem,
    /// Less-than (produces 0/1).
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
}

/// A basic-block id within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockId(pub usize);

/// An IR instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `dst = imm`
    Const {
        /// Destination register.
        dst: Reg,
        /// The immediate.
        value: Operand,
    },
    /// `dst = op lhs, rhs`
    Bin {
        /// The operation.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = cast src to ty` — for a [`TyRef::Tradeoff`], the back-end
    /// substitutes the configured type before execution; quantization to
    /// `f32` models the precision loss of a narrower variable type.
    Cast {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
        /// Target type (possibly a tradeoff placeholder).
        to: TyRef,
    },
    /// `dst = call callee(args)` — direct call.
    Call {
        /// Destination register (None for calls used for effect).
        dst: Option<Reg>,
        /// Callee function name.
        callee: String,
        /// Arguments.
        args: Vec<Operand>,
    },
    /// `dst = call <tradeoff>(args)` — the callee is chosen by a function
    /// tradeoff; the back-end replaces this with a direct [`Inst::Call`].
    CallTradeoff {
        /// Destination register.
        dst: Option<Reg>,
        /// The function tradeoff's name.
        tradeoff: String,
        /// Arguments.
        args: Vec<Operand>,
    },
    /// `dst = tradeoff <name>` — a constant-tradeoff placeholder (the
    /// `T_42(42)` call of paper Figure 11); the back-end replaces it with
    /// [`Inst::Const`].
    TradeoffRef {
        /// Destination register.
        dst: Reg,
        /// The tradeoff's name.
        tradeoff: String,
    },
    /// `dst = load_state <name>` — read a declared cross-invocation state
    /// variable (the paper's `State` that `computeOutput` carries between
    /// invocations). State variables live in the module-level state table
    /// and persist across interpreter calls.
    LoadState {
        /// Destination register.
        dst: Reg,
        /// The state variable's name.
        state: String,
    },
    /// `store_state <name>, src` — write a cross-invocation state variable.
    StoreState {
        /// The state variable's name.
        state: String,
        /// The value written.
        src: Operand,
    },
    /// Unconditional jump.
    Jmp {
        /// Target block.
        target: BlockId,
    },
    /// Conditional branch (`cond != 0` takes `then_b`).
    Br {
        /// Condition operand.
        cond: Operand,
        /// Block on true.
        then_b: BlockId,
        /// Block on false.
        else_b: BlockId,
    },
    /// Return.
    Ret {
        /// Returned operand, if any.
        value: Option<Operand>,
    },
}

impl Inst {
    /// Is this a `Jmp`, `Br` or `Ret`?
    pub fn is_terminator(&self) -> bool {
        matches!(self, Inst::Jmp { .. } | Inst::Br { .. } | Inst::Ret { .. })
    }

    /// The register this instruction assigns, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Cast { dst, .. }
            | Inst::TradeoffRef { dst, .. }
            | Inst::LoadState { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } | Inst::CallTradeoff { dst, .. } => *dst,
            Inst::StoreState { .. } | Inst::Jmp { .. } | Inst::Br { .. } | Inst::Ret { .. } => None,
        }
    }

    /// The registers this instruction reads, in evaluation order.
    pub fn reads(&self) -> impl Iterator<Item = Reg> + '_ {
        let (one, two, many): (Option<&Operand>, Option<&Operand>, &[Operand]) = match self {
            Inst::Const { value: op, .. }
            | Inst::Cast { src: op, .. }
            | Inst::StoreState { src: op, .. }
            | Inst::Br { cond: op, .. } => (Some(op), None, &[]),
            Inst::Bin { lhs, rhs, .. } => (Some(lhs), Some(rhs), &[]),
            Inst::Call { args, .. } | Inst::CallTradeoff { args, .. } => (None, None, args),
            Inst::Ret { value } => (value.as_ref(), None, &[]),
            Inst::TradeoffRef { .. } | Inst::LoadState { .. } | Inst::Jmp { .. } => {
                (None, None, &[])
            }
        };
        one.into_iter()
            .chain(two)
            .chain(many)
            .filter_map(|op| match op {
                Operand::Reg(r) => Some(*r),
                Operand::ImmInt(_) | Operand::ImmFloat(_) => None,
            })
    }

    /// The operands [`Inst::reads`] walks, mutably, for passes that
    /// rewrite them.
    pub fn operands_mut(&mut self) -> impl Iterator<Item = &mut Operand> {
        let (one, two, many): (Option<&mut Operand>, Option<&mut Operand>, &mut [Operand]) =
            match self {
                Inst::Const { value: op, .. }
                | Inst::Cast { src: op, .. }
                | Inst::StoreState { src: op, .. }
                | Inst::Br { cond: op, .. } => (Some(op), None, &mut []),
                Inst::Bin { lhs, rhs, .. } => (Some(lhs), Some(rhs), &mut []),
                Inst::Call { args, .. } | Inst::CallTradeoff { args, .. } => (None, None, args),
                Inst::Ret { value } => (value.as_mut(), None, &mut []),
                Inst::TradeoffRef { .. } | Inst::LoadState { .. } | Inst::Jmp { .. } => {
                    (None, None, &mut [])
                }
            };
        one.into_iter().chain(two).chain(many)
    }
}

/// A basic block: straight-line instructions ending in a terminator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Block {
    /// Instructions. The first `Jmp`/`Br`/`Ret` ends the block; lowering
    /// and the verifier require one, and lowering may leave dead code after
    /// it.
    pub insts: Vec<Inst>,
}

impl Block {
    /// The instructions that can execute: everything up to and including
    /// the block's [terminator](Block::terminator). Lowering may leave code
    /// after a `return`; it never runs, and every pass that follows control
    /// flow skips it.
    pub fn live(&self) -> &[Inst] {
        &self.insts[..self.live_len()]
    }

    /// [`Block::live`], mutably.
    pub fn live_mut(&mut self) -> &mut [Inst] {
        let end = self.live_len();
        &mut self.insts[..end]
    }

    fn live_len(&self) -> usize {
        self.insts
            .iter()
            .position(Inst::is_terminator)
            .map_or(self.insts.len(), |i| i + 1)
    }

    /// The block's terminator: its *first* `Jmp`/`Br`/`Ret`, which is the
    /// one execution reaches. `None` for a malformed block with none.
    pub fn terminator(&self) -> Option<&Inst> {
        self.live().last().filter(|i| i.is_terminator())
    }

    /// The blocks control may pass to from this one, read from its
    /// terminator.
    pub fn successors(&self) -> impl Iterator<Item = BlockId> {
        match self.terminator() {
            Some(Inst::Jmp { target }) => [Some(*target), None],
            Some(Inst::Br { then_b, else_b, .. }) => [Some(*then_b), Some(*else_b)],
            _ => [None, None],
        }
        .into_iter()
        .flatten()
    }
}

/// An IR function.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name (module-unique).
    pub name: String,
    /// Parameter registers, in call order.
    pub params: Vec<Reg>,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Next unallocated register number (for cloning/rewriting passes).
    pub next_reg: u32,
}

impl Function {
    /// Create an empty function with `params` parameters.
    pub fn new(name: impl Into<String>, params: usize) -> Self {
        Function {
            name: name.into(),
            params: (0..params as u32).map(Reg).collect(),
            blocks: vec![Block::default()],
            next_reg: params as u32,
        }
    }

    /// Allocate a fresh register.
    pub fn fresh_reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Append a new empty block, returning its id.
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block::default());
        BlockId(self.blocks.len() - 1)
    }

    /// Append an instruction to a block.
    pub fn push(&mut self, block: BlockId, inst: Inst) {
        self.blocks[block.0].insts.push(inst);
    }

    /// Count of the instructions that can execute (each block's
    /// [live](Block::live) part).
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.live().len()).sum()
    }

    /// Iterate over the instructions that can execute, block by block, each
    /// block up to its terminator. Code after a terminator never runs, so
    /// no analysis or rewrite sees it.
    pub fn insts(&self) -> impl Iterator<Item = &Inst> {
        self.blocks.iter().flat_map(Block::live)
    }

    /// [`Function::insts`], mutably.
    pub fn insts_mut(&mut self) -> impl Iterator<Item = &mut Inst> {
        self.blocks.iter_mut().flat_map(Block::live_mut)
    }

    /// Names of directly called functions (both direct calls and the
    /// candidates of function tradeoffs are *not* included here — only
    /// static callees, which is what the call-graph analysis needs).
    pub fn callees(&self) -> Vec<String> {
        let mut out = Vec::new();
        for inst in self.insts() {
            if let Inst::Call { callee, .. } = inst {
                if !out.contains(callee) {
                    out.push(callee.clone());
                }
            }
        }
        out
    }

    /// Names of tradeoffs referenced by this function (constant refs,
    /// function-tradeoff calls, and type-tradeoff casts).
    pub fn tradeoff_refs(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut add = |name: &String| {
            if !out.contains(name) {
                out.push(name.clone());
            }
        };
        for inst in self.insts() {
            match inst {
                Inst::TradeoffRef { tradeoff, .. } => add(tradeoff),
                Inst::CallTradeoff { tradeoff, .. } => add(tradeoff),
                Inst::Cast {
                    to: TyRef::Tradeoff(t),
                    ..
                } => add(t),
                _ => {}
            }
        }
        out
    }

    /// Names of state variables this function reads and writes *directly*
    /// (not through callees): `(reads, writes)`, each deduplicated in first
    /// occurrence order. Transitive access sets are the call-graph
    /// analysis's job ([`crate::analysis`]).
    pub fn state_accesses(&self) -> (Vec<String>, Vec<String>) {
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for inst in self.insts() {
            match inst {
                Inst::LoadState { state, .. } if !reads.contains(state) => {
                    reads.push(state.clone());
                }
                Inst::StoreState { state, .. } if !writes.contains(state) => {
                    writes.push(state.clone());
                }
                _ => {}
            }
        }
        (reads, writes)
    }
}

/// A function whose block structure execution cannot follow: it has no
/// blocks, a block has no terminator, or a terminator targets a block the
/// function does not have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MalformedBlock {
    /// The function's name.
    pub function: String,
    /// The offending block's index (0 for a function with no blocks).
    pub block: usize,
}

impl fmt::Display for MalformedBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "`{}`: block {} has no terminator or jumps out of range",
            self.function, self.block
        )
    }
}

impl std::error::Error for MalformedBlock {}

/// The block structure every pass and both interpreters rely on: `f` has
/// at least one block, and every block has a [terminator](Block::terminator)
/// whose successors exist. Code after a terminator is not checked; it
/// never runs. [`crate::verify::verify`], which the front end runs, and
/// the interpreters' prepare check call this.
pub fn validate(f: &Function) -> Result<(), MalformedBlock> {
    let malformed = |block| MalformedBlock {
        function: f.name.clone(),
        block,
    };
    if f.blocks.is_empty() {
        return Err(malformed(0));
    }
    for (b, block) in f.blocks.iter().enumerate() {
        if block.terminator().is_none() || block.successors().any(|s| s.0 >= f.blocks.len()) {
            return Err(malformed(b));
        }
    }
    Ok(())
}

/// A module: functions plus the metadata tables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    functions: Vec<Function>,
    by_name: HashMap<String, usize>,
    /// State-dependence and tradeoff tables (the paper's CIL-style metadata).
    pub metadata: crate::metadata::Metadata,
}

impl Module {
    /// An empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a function. Replaces any function with the same name.
    pub fn add_function(&mut self, f: Function) {
        if let Some(&i) = self.by_name.get(&f.name) {
            self.functions[i] = f;
        } else {
            self.by_name.insert(f.name.clone(), self.functions.len());
            self.functions.push(f);
        }
    }

    /// Look up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.by_name.get(name).map(|&i| &self.functions[i])
    }

    /// Index of a function by name, valid into [`Module::functions`].
    ///
    /// Indices are stable (functions are never removed), which lets
    /// execution engines resolve call targets to plain indices once
    /// instead of hashing names per call.
    pub fn function_index(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }

    /// Look up a function mutably.
    pub fn function_mut(&mut self, name: &str) -> Option<&mut Function> {
        let i = *self.by_name.get(name)?;
        Some(&mut self.functions[i])
    }

    /// All functions, in insertion order.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// All functions, mutably.
    pub fn functions_mut(&mut self) -> impl Iterator<Item = &mut Function> {
        self.functions.iter_mut()
    }

    /// Total instruction count across functions (the "binary size" proxy of
    /// Table 1).
    pub fn inst_count(&self) -> usize {
        self.functions.iter().map(Function::inst_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_fn() -> Function {
        // f(x) = 2*x + tradeoff k
        let mut f = Function::new("f", 1);
        let x = f.params[0];
        let two_x = f.fresh_reg();
        let k = f.fresh_reg();
        let sum = f.fresh_reg();
        let entry = BlockId(0);
        f.push(
            entry,
            Inst::Bin {
                op: BinOp::Mul,
                dst: two_x,
                lhs: x.into(),
                rhs: Operand::ImmInt(2),
            },
        );
        f.push(
            entry,
            Inst::TradeoffRef {
                dst: k,
                tradeoff: "k".into(),
            },
        );
        f.push(
            entry,
            Inst::Bin {
                op: BinOp::Add,
                dst: sum,
                lhs: two_x.into(),
                rhs: k.into(),
            },
        );
        f.push(
            entry,
            Inst::Ret {
                value: Some(sum.into()),
            },
        );
        f
    }

    #[test]
    fn function_accounting() {
        let f = linear_fn();
        assert_eq!(f.inst_count(), 4);
        assert_eq!(f.tradeoff_refs(), vec!["k".to_string()]);
        assert!(f.callees().is_empty());
    }

    #[test]
    fn module_add_and_lookup() {
        let mut m = Module::new();
        m.add_function(linear_fn());
        assert!(m.function("f").is_some());
        assert!(m.function("g").is_none());
        assert_eq!(m.inst_count(), 4);
    }

    #[test]
    fn module_replace_same_name() {
        let mut m = Module::new();
        m.add_function(linear_fn());
        m.add_function(Function::new("f", 0));
        assert_eq!(m.functions().len(), 1);
        assert_eq!(m.function("f").unwrap().params.len(), 0);
    }

    #[test]
    fn callees_deduplicated() {
        let mut f = Function::new("g", 0);
        let e = BlockId(0);
        for _ in 0..3 {
            f.push(
                e,
                Inst::Call {
                    dst: None,
                    callee: "h".into(),
                    args: vec![],
                },
            );
        }
        f.push(e, Inst::Ret { value: None });
        assert_eq!(f.callees(), vec!["h".to_string()]);
    }

    #[test]
    fn a_block_ends_at_its_first_terminator() {
        let mut f = Function::new("g", 1);
        let x = f.params[0];
        let r = f.fresh_reg();
        let exit = f.new_block();
        let e = BlockId(0);
        f.push(
            e,
            Inst::Br {
                cond: x.into(),
                then_b: exit,
                else_b: e,
            },
        );
        f.push(
            e,
            Inst::Bin {
                op: BinOp::Add,
                dst: r,
                lhs: x.into(),
                rhs: x.into(),
            },
        );
        f.push(e, Inst::Jmp { target: BlockId(9) });
        let block = &f.blocks[0];
        assert_eq!(block.live().len(), 1);
        assert_eq!(block.terminator(), Some(&block.insts[0]));
        assert_eq!(block.successors().collect::<Vec<_>>(), vec![exit, e]);
        assert!(f.blocks[exit.0].terminator().is_none());
        assert_eq!(block.insts[1].reads().collect::<Vec<_>>(), vec![x, x]);
        assert_eq!(block.insts[1].def(), Some(r));
        assert_eq!(block.insts[0].def(), None);
    }
}

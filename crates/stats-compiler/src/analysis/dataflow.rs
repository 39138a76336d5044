//! A reusable forward-dataflow framework over the block IR.
//!
//! The IR's registers are mutable slots (not SSA), so classic iterative
//! dataflow applies directly: facts flow block to block along `Jmp`/`Br`
//! edges, joining at merge points, until a fixed point. A block ends at its
//! first terminator ([`crate::ir::Block::terminator`]), as in both
//! interpreters: instructions after it are dead and never transferred.
//! Analyses implement [`ForwardAnalysis`] (a transfer function over
//! instructions) on a fact type implementing [`Lattice`] (a join); [`run`]
//! drives the worklist and returns the fact holding at each block's entry.
//!
//! The framework is deliberately small: the speculation-safety checks in
//! this module tree ([`super::interval`] in particular) need exactly
//! forward flow with widening, the interpreters' definite-assignment check
//! ([`crate::value`]) forward flow with an intersecting join, and nothing
//! here is specific to any one of them.

use crate::ir::{Function, Inst};

/// A join-semilattice of dataflow facts.
pub trait Lattice: Clone {
    /// Join `other` into `self`; return whether `self` changed. Joins must
    /// be monotone (repeated joining reaches a fixed point).
    fn join(&mut self, other: &Self) -> bool;
}

/// A forward dataflow analysis: a boundary fact for the entry block and a
/// transfer function applied instruction by instruction.
pub trait ForwardAnalysis {
    /// The fact domain.
    type Fact: Lattice;

    /// The fact holding on entry to the function (block 0).
    fn boundary(&self, f: &Function) -> Self::Fact;

    /// Apply one instruction's effect to the fact. `widen` is true when the
    /// containing block has been visited enough times that the analysis
    /// should accelerate convergence (loop heads).
    fn transfer(&self, f: &Function, inst: &Inst, fact: &mut Self::Fact, widen: bool);
}

/// How many times a block may be re-visited before `transfer` is asked to
/// widen. Small: interval bounds only need a couple of refinement rounds
/// before acceleration.
const WIDEN_AFTER: usize = 3;

/// Run `analysis` over `f` to a fixed point. Returns the fact holding at
/// each block's *entry*; `None` for blocks never reached from the entry
/// block. To inspect state mid-block, re-apply `transfer` from the entry
/// fact (see [`super::interval`] for an example).
pub fn run<A: ForwardAnalysis>(f: &Function, analysis: &A) -> Vec<Option<A::Fact>> {
    let n = f.blocks.len();
    let mut entry_facts: Vec<Option<A::Fact>> = vec![None; n];
    let mut visits = vec![0usize; n];
    if n == 0 {
        return entry_facts;
    }
    entry_facts[0] = Some(analysis.boundary(f));
    let mut worklist = vec![0usize];
    while let Some(b) = worklist.pop() {
        visits[b] += 1;
        let widen = visits[b] > WIDEN_AFTER;
        let mut fact = entry_facts[b].clone().expect("reached block has a fact");
        for inst in f.blocks[b].live() {
            analysis.transfer(f, inst, &mut fact, widen);
        }
        for succ in f.blocks[b].successors().map(|s| s.0) {
            if succ >= n {
                continue; // malformed target; verify reports it elsewhere
            }
            let changed = match &mut entry_facts[succ] {
                Some(existing) => existing.join(&fact),
                slot @ None => {
                    *slot = Some(fact.clone());
                    true
                }
            };
            if changed && !worklist.contains(&succ) {
                worklist.push(succ);
            }
        }
    }
    entry_facts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_fn;
    use crate::parser::parse;

    /// Toy analysis: may a register hold a value derived from a parameter?
    /// (Taint-style bit set, one bool per register.)
    #[derive(Clone, PartialEq)]
    struct Taint(Vec<bool>);

    impl Lattice for Taint {
        fn join(&mut self, other: &Self) -> bool {
            let mut changed = false;
            for (a, b) in self.0.iter_mut().zip(&other.0) {
                if *b && !*a {
                    *a = true;
                    changed = true;
                }
            }
            changed
        }
    }

    struct TaintAnalysis;

    impl ForwardAnalysis for TaintAnalysis {
        type Fact = Taint;

        fn boundary(&self, f: &Function) -> Taint {
            let mut bits = vec![false; f.next_reg as usize];
            for p in &f.params {
                bits[p.0 as usize] = true;
            }
            Taint(bits)
        }

        fn transfer(&self, _f: &Function, inst: &Inst, fact: &mut Taint, _widen: bool) {
            use crate::ir::Operand;
            let tainted = |fact: &Taint, op: &Operand| match op {
                Operand::Reg(r) => fact.0[r.0 as usize],
                _ => false,
            };
            match inst {
                Inst::Const { dst, value } => fact.0[dst.0 as usize] = tainted(fact, value),
                Inst::Bin { dst, lhs, rhs, .. } => {
                    fact.0[dst.0 as usize] = tainted(fact, lhs) || tainted(fact, rhs)
                }
                Inst::Cast { dst, src, .. } => fact.0[dst.0 as usize] = tainted(fact, src),
                _ => {}
            }
        }
    }

    fn lowered(src: &str) -> Function {
        lower_fn(&parse(src).unwrap().functions[0]).unwrap()
    }

    #[test]
    fn taint_flows_through_loop() {
        let f = lowered(
            "fn f(a) { let s = 0; let i = 0; while (i < 10) { s = s + a; i = i + 1; } return s; }",
        );
        let facts = run(&f, &TaintAnalysis);
        // Every block is reachable and has a fact.
        assert!(facts.iter().all(Option::is_some));
        // In the exit block, `s` (joined over the loop) is tainted by `a`.
        // Find the Ret and check its operand's taint at block entry,
        // re-applying transfer through the block.
        let exit = facts.len() - 1;
        let mut fact = facts[exit].clone().unwrap();
        for inst in &f.blocks[exit].insts {
            if let Inst::Ret {
                value: Some(crate::ir::Operand::Reg(r)),
            } = inst
            {
                assert!(fact.0[r.0 as usize], "return value should be tainted");
            }
            TaintAnalysis.transfer(&f, inst, &mut fact, false);
        }
    }

    #[test]
    fn untainted_constant_stays_clean() {
        let f = lowered("fn f(a) { let s = 7; return s; }");
        let facts = run(&f, &TaintAnalysis);
        let fact = facts[0].clone().unwrap();
        // Initially only the parameter is tainted.
        assert!(fact.0[f.params[0].0 as usize]);
        assert_eq!(fact.0.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn unreachable_blocks_have_no_fact() {
        // `if (1) return; else return;` lowers to a diamond whose join block
        // is unreachable only if branches end in Ret — construct directly.
        use crate::ir::{BlockId, Inst, Operand};
        let mut f = Function::new("g", 0);
        f.push(
            BlockId(0),
            Inst::Ret {
                value: Some(Operand::ImmInt(1)),
            },
        );
        let dead = f.new_block();
        f.push(dead, Inst::Ret { value: None });
        let facts = run(&f, &TaintAnalysis);
        assert!(facts[0].is_some());
        assert!(facts[dead.0].is_none());
    }
}

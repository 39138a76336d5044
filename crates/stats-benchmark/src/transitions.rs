//! The benchmark's own state dependence (`light`, `heavy`, `misspec` and the
//! `serve_open` tenants all run it) and two adapters every workload uses:
//! [`Shared`], which lets one transition value serve many runs, and
//! [`BitEq`], the bit-exact output comparison behind `failed`.

use std::sync::Arc;

use stats_core::{InvocationCtx, SpecState, StateTransition};

use crate::openloop::SplitMix;

/// Tolerant short-memory state: a speculative value within 0.3 of an
/// original final state validates.
#[derive(Clone, Debug)]
pub struct Level(pub f64);

impl SpecState for Level {
    fn matches_any(&self, originals: &[Self]) -> bool {
        originals.iter().any(|o| (o.0 - self.0).abs() < 0.3)
    }
}

/// Inputs carrying this bit are the ones `misspec` lets reach back into the
/// previous state.
pub const CARRY_FLAG: u64 = 1 << 63;

/// `rounds` LCG steps per input plus one PRVG draw; the new state is a
/// function of the input alone (so auxiliary code with window 1 reproduces
/// it and speculation always validates) — except, when `carry` is set, on
/// inputs carrying [`CARRY_FLAG`], whose state also depends on the previous
/// one, which auxiliary code starting from the initial state cannot know.
pub struct Lcg {
    /// LCG steps per input: 8 is about 30 ns, 20 000 about 25 µs.
    pub rounds: u32,
    /// Honour [`CARRY_FLAG`].
    pub carry: bool,
}

impl StateTransition for Lcg {
    type Input = u64;
    type State = Level;
    type Output = f64;

    fn compute_output(&self, input: &u64, state: &mut Level, ctx: &mut InvocationCtx) -> f64 {
        let mut acc = *input;
        for _ in 0..self.rounds {
            acc = acc
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(*input | 1);
        }
        ctx.charge(f64::from(self.rounds));
        let base = (acc >> 54) as f64;
        let carried = if self.carry && input & CARRY_FLAG != 0 {
            // The previous state is an integer level plus noise in ±0.1, so
            // the fraction of ten times it is spread over [0, 1) and this
            // term over [0, 2): most flagged group boundaries land beyond
            // the 0.3 tolerance of whatever the auxiliary code guessed, and
            // a re-execution of the previous inputs (fresh noise) draws the
            // term again — some mismatches heal, the rest abort.
            2.0 * (10.0 * state.0).rem_euclid(1.0)
        } else {
            0.0
        };
        state.0 = base + carried + ctx.uniform(-0.1, 0.1);
        state.0
    }
}

/// `n` seeded inputs, `carry_share` of them flagged.
pub fn lcg_inputs(rng: &mut SplitMix, n: usize, carry_share: f64) -> Vec<u64> {
    (0..n)
        .map(|_| {
            let value = rng.next_u64() & !CARRY_FLAG;
            if rng.next_f64() < carry_share {
                value | CARRY_FLAG
            } else {
                value
            }
        })
        .collect()
}

/// One transition value behind every run of a workload: the entry points
/// consume their transition, the benchmark repeats them, and a workload's
/// transition (bodytrack's carries its observations) is built once.
pub struct Shared<T>(pub Arc<T>);

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

impl<T: StateTransition> StateTransition for Shared<T> {
    type Input = T::Input;
    type State = T::State;
    type Output = T::Output;

    fn compute_output(
        &self,
        input: &T::Input,
        state: &mut T::State,
        ctx: &mut InvocationCtx,
    ) -> T::Output {
        self.0.compute_output(input, state, ctx)
    }

    fn merge_states(&self, parents: &[T::State]) -> T::State {
        self.0.merge_states(parents)
    }
}

/// Bit-exact equality: the determinism contract is bit-identity to the
/// sequential reference, so `0.0 == -0.0` and `NaN != NaN` are both wrong
/// answers here.
pub trait BitEq {
    /// Whether `self` and `other` have the same bits.
    fn bit_eq(&self, other: &Self) -> bool;
}

impl BitEq for f64 {
    fn bit_eq(&self, other: &Self) -> bool {
        self.to_bits() == other.to_bits()
    }
}

impl<T: BitEq> BitEq for [T] {
    fn bit_eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(a, b)| a.bit_eq(b))
    }
}

impl<T: BitEq> BitEq for Vec<T> {
    fn bit_eq(&self, other: &Self) -> bool {
        self.as_slice().bit_eq(other.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats_core::{run_protocol_with_options, RunOptions, SpecConfig};

    fn run(carry: bool, share: f64) -> stats_core::SpecReport {
        let inputs = lcg_inputs(&mut SplitMix(11), 4096, share);
        let options = RunOptions::default()
            .config(SpecConfig {
                group_size: 8,
                window: 1,
                max_reexec: 2,
                ..SpecConfig::default()
            })
            .seed(5)
            .segment(64);
        run_protocol_with_options(&Lcg { rounds: 8, carry }, &inputs, &Level(0.0), &options).report
    }

    #[test]
    fn without_carry_every_speculative_group_commits() {
        let report = run(false, 0.03);
        assert_eq!(report.reexecutions, 0);
        assert!(!report.aborted);
        // One non-speculative group per 64-input segment, the rest commit.
        assert_eq!(report.committed_speculative_groups(), 4096 / 8 - 4096 / 64);
    }

    #[test]
    fn carried_inputs_exercise_reexecution_and_abort() {
        let report = run(true, 0.2);
        assert!(report.reexecutions > 0, "{report:?}");
        assert!(report.aborted);
        assert!(report.squashed_work > 0.0);
        assert!(report.committed_speculative_groups() > 100);
    }

    #[test]
    fn bit_equality_is_stricter_than_float_equality() {
        assert!(!0.0f64.bit_eq(&-0.0));
        assert!(f64::NAN.bit_eq(&f64::NAN));
        assert!(vec![1.0, 2.0].bit_eq(&vec![1.0, 2.0]));
        assert!(!vec![1.0].bit_eq(&vec![1.0, 2.0]));
    }
}

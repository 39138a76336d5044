//! `light`, `heavy`, `misspec`, `bodytrack`: four linear state dependences
//! through the same [`Ladder`], chosen so that a change to a runtime layer
//! moves one and must leave another alone.

use std::sync::Arc;

use stats_core::{
    RunOptions, SpecConfig, SpillCodec, StateTransition, ThreadPool, TradeoffBindings,
};
use stats_workloads::bodytrack::{BodyTrack, BodyTrackTransition};
use stats_workloads::{Workload, WorkloadSpec};

use super::{Prepared, Sizes};
use crate::harness::{part, Block, Budget, Tally};
use crate::ladder::Ladder;
use crate::metrics::Values;
use crate::openloop::SplitMix;
use crate::span::Trace;
use crate::transitions::{lcg_inputs, BitEq, Lcg, Level};

/// Tail percentile asked of the job latency on these workloads. The traced
/// run times 40 to 120 jobs for it in ten seconds, so the tail lands on p90
/// where ten lie beyond it (`heavy`) and on p75 elsewhere.
const TAIL_PCT: u32 = 90;

/// A ladder, plus — on `misspec` — the same inputs with the carry ignored,
/// to price the mismatch path against the commit path.
pub struct Linear<T: StateTransition> {
    ladder: Ladder<T>,
    commit_path: Option<Ladder<T>>,
}

impl<T> Prepared for Linear<T>
where
    T: StateTransition,
    T::Input: SpillCodec,
    T::Output: BitEq,
{
    fn warm(&mut self, reps: usize, tally: &mut Tally) {
        self.ladder.warm(reps, tally);
    }

    fn run(&mut self, budget: Budget, tally: &mut Tally) -> Block {
        self.ladder.run(budget, tally)
    }

    fn run_traced(&mut self, budget: Budget, trace: &Trace, tally: &mut Tally) -> Values {
        let Some(commit_path) = &self.commit_path else {
            return self.ladder.run_traced(budget, trace, tally);
        };
        let mut values = self.ladder.run_traced(part(budget, 0.9), trace, tally);
        values.set(
            "resolver.mismatch_delta_ns_per_input",
            self.ladder
                .mismatch_delta(commit_path, part(budget, 0.1), tally),
        );
        values
    }
}

/// Run seed and input generator, both from `--seed`.
fn seeds(seed: u64) -> (u64, SplitMix) {
    let mut rng = SplitMix(seed);
    (rng.next_u64(), rng)
}

fn lcg_options(run_seed: u64, group_size: usize) -> RunOptions {
    RunOptions::default()
        .config(SpecConfig {
            group_size,
            window: 1,
            max_reexec: 2,
            ..SpecConfig::default()
        })
        .seed(run_seed)
}

/// Coordination-bound: ~30 ns of work per input, groups of 8, every group
/// commits — nearly all the time is spent in the layers above `sdi`.
pub fn light(seed: u64, sizes: &Sizes, pool: Arc<ThreadPool>) -> Linear<Lcg> {
    let (run_seed, mut rng) = seeds(seed);
    Linear {
        ladder: Ladder::new(
            Lcg {
                rounds: 8,
                carry: false,
            },
            lcg_inputs(&mut rng, sizes.light_inputs, sizes.carry_share),
            Level(0.0),
            lcg_options(run_seed, 8),
            pool,
            TAIL_PCT,
        ),
        commit_path: None,
    }
}

/// Compute-bound: ~25 µs per input, groups of 32 — the runtime layers are a
/// few percent of the time, and the prediction for every coordination
/// optimisation is *no change*.
pub fn heavy(seed: u64, sizes: &Sizes, pool: Arc<ThreadPool>) -> Linear<Lcg> {
    let (run_seed, mut rng) = seeds(seed);
    Linear {
        ladder: Ladder::new(
            Lcg {
                rounds: sizes.heavy_rounds,
                carry: false,
            },
            lcg_inputs(&mut rng, sizes.heavy_inputs, sizes.carry_share),
            Level(0.0),
            lcg_options(run_seed, 32),
            pool,
            TAIL_PCT,
        ),
        commit_path: None,
    }
}

/// `light`'s transition, but 3 % of the inputs make the new state depend on
/// the old one: the validate / re-execute / squash path instead of the
/// commit path, in 64-input segments so an abort costs one segment.
pub fn misspec(seed: u64, sizes: &Sizes, pool: Arc<ThreadPool>) -> Linear<Lcg> {
    let (run_seed, mut rng) = seeds(seed);
    let inputs = lcg_inputs(&mut rng, sizes.light_inputs, sizes.carry_share);
    let options = lcg_options(run_seed, 8).segment(64);
    let ladder = |carry| {
        Ladder::new(
            Lcg { rounds: 8, carry },
            inputs.clone(),
            Level(0.0),
            options.clone(),
            Arc::clone(&pool),
            TAIL_PCT,
        )
    };
    Linear {
        ladder: ladder(true),
        commit_path: Some(ladder(false)),
    }
}

/// The paper's flagship (Figure 12): a heap-allocated particle-set state,
/// so state clone and compare cost something, and some groups really abort.
/// Segments of two groups bound what one abort costs to a few percent of a
/// run: with longer segments a seed with one abort ran 30 % slower than a
/// seed with none, and most seeds have none.
pub fn bodytrack(seed: u64, sizes: &Sizes, pool: Arc<ThreadPool>) -> Linear<BodyTrackTransition> {
    let (run_seed, _) = seeds(seed);
    let workload = BodyTrack;
    let instance = workload.instance(&WorkloadSpec {
        inputs: sizes.bodytrack_frames,
        seed,
        ..WorkloadSpec::default()
    });
    let defaults = TradeoffBindings::defaults(&workload.tradeoffs());
    let options = RunOptions::default()
        .config(SpecConfig {
            group_size: 8,
            window: 2,
            max_reexec: 3,
            rollback: 2,
            orig_bindings: defaults.clone(),
            aux_bindings: defaults,
            ..SpecConfig::default()
        })
        .seed(run_seed)
        .segment(16);
    Linear {
        ladder: Ladder::new(
            instance.transition,
            instance.inputs,
            instance.initial,
            options,
            pool,
            TAIL_PCT,
        ),
        commit_path: None,
    }
}

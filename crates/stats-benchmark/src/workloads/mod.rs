//! The eight named workloads. Each is set up from `--seed`, warmed, and
//! then run either untraced (end-to-end metrics) or traced (per-layer
//! metrics); `README.md` says why each exists and what `op` and `job` mean
//! on it.

use std::sync::Arc;

use stats_core::ThreadPool;

use crate::env::pool_workers;
use crate::harness::{Block, Budget, Tally, BLOCKS, CYCLES, MIN_REPS, SLICE_REPS, WARMUP_REPS};
use crate::metrics::Values;
use crate::span::Trace;

mod dag;
mod linear;
mod serve;
mod tune;

/// Workload names, in the order `run` executes them.
pub const NAMES: [&str; 8] = [
    "light",
    "heavy",
    "misspec",
    "bodytrack",
    "dag_small",
    "dag_large",
    "serve_open",
    "tune",
];

/// Input sizes, fixed rates and repetition floors. Sizes were chosen on the 2-CPU reference
/// box so that a job of the outermost rung takes 2–65 ms and a 10-second
/// run holds a hundred of them or more; when time is short, cut
/// repetitions (a shorter `--seconds`), not these.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Inputs of `light` and `misspec`.
    pub light_inputs: usize,
    /// Share of `misspec` inputs whose state reaches back into the previous
    /// one.
    pub carry_share: f64,
    /// Inputs of `heavy`.
    pub heavy_inputs: usize,
    /// LCG rounds per `heavy` input (about 25 µs).
    pub heavy_rounds: u32,
    /// Frames of `bodytrack`.
    pub bodytrack_frames: usize,
    /// Scale of the three plan families on `dag_small`.
    pub dag_small_scale: usize,
    /// Scale on `dag_large`.
    pub dag_large_scale: usize,
    /// Distinct tenants `serve_open` cycles through.
    pub serve_population: usize,
    /// Inputs an ordinary tenant bursts at arrival.
    pub serve_burst: usize,
    /// Inputs a long tenant bursts: enough to put spill segments on disk.
    pub serve_long_burst: usize,
    /// Every how many tenants one is long.
    pub serve_long_every: usize,
    /// The frozen reference arrival rate, tenants/s: about half of what the
    /// generator sustains on the reference box.
    pub serve_rate: f64,
    /// Twice the reference rate: the traced run's backlog check.
    pub serve_high_rate: f64,
    /// Tenants per latency window of the traced run's tails (250, so p95
    /// has ten beyond it).
    pub serve_window: usize,
    /// Tenants per window of the untraced run, one `job_ms` and one
    /// `cpu_ms_per_job` sample each: a sixth of a second at the reference
    /// rate, so every slice of a run holds a few.
    pub serve_job_window: usize,
    /// Trials of one `tune` search.
    pub tune_budget: usize,
    /// Trials of the search inside one whole-pipeline pass.
    pub pipeline_budget: usize,
    /// Training inputs of the tuned swaptions instance.
    pub tune_inputs: usize,
    /// Set-up-and-measure blocks of an untraced run.
    pub blocks: usize,
    /// Rounds a block of an untraced run makes over its rungs.
    pub cycles: usize,
    /// Floor of timed repetitions per loop of an untraced run.
    pub slice_reps: usize,
    /// Floor of timed repetitions per rung of the traced run.
    pub min_reps: usize,
    /// Warm-up repetitions per rung and set-up.
    pub warmup_reps: usize,
}

impl Sizes {
    /// The sizes behind every reported number.
    pub fn full() -> Self {
        Sizes {
            light_inputs: 20_000,
            carry_share: 0.03,
            heavy_inputs: 1_024,
            heavy_rounds: 20_000,
            bodytrack_frames: 256,
            dag_small_scale: 8,
            dag_large_scale: 128,
            serve_population: 1_024,
            serve_burst: 16,
            serve_long_burst: 48,
            serve_long_every: 8,
            serve_rate: 300.0,
            serve_high_rate: 600.0,
            serve_window: 250,
            serve_job_window: 50,
            tune_budget: 600,
            pipeline_budget: 200,
            tune_inputs: 12,
            blocks: BLOCKS,
            cycles: CYCLES,
            slice_reps: SLICE_REPS,
            min_reps: MIN_REPS,
            warmup_reps: WARMUP_REPS,
        }
    }

    /// Sizes for the crate's own tests: the same code paths in well under
    /// a second each, even unoptimised.
    pub fn smoke() -> Self {
        Sizes {
            light_inputs: 512,
            carry_share: 0.25,
            heavy_inputs: 64,
            heavy_rounds: 200,
            bodytrack_frames: 24,
            dag_small_scale: 1,
            dag_large_scale: 2,
            serve_population: 16,
            serve_burst: 12,
            serve_long_burst: 40,
            serve_long_every: 4,
            serve_rate: 2_000.0,
            serve_high_rate: 4_000.0,
            serve_window: 20,
            serve_job_window: 10,
            tune_budget: 16,
            pipeline_budget: 8,
            tune_inputs: 4,
            blocks: 2,
            cycles: 2,
            slice_reps: 1,
            min_reps: 2,
            warmup_reps: 1,
        }
    }
}

/// A workload after set-up.
pub trait Prepared {
    /// `reps` warm-up repetitions of every end-to-end rung; timed as part
    /// of set-up.
    fn warm(&mut self, reps: usize, tally: &mut Tally);
    /// One untraced block: the three end-to-end rungs.
    fn run(&mut self, budget: Budget, tally: &mut Tally) -> Block;
    /// The traced run: per-layer metrics.
    fn run_traced(&mut self, budget: Budget, trace: &Trace, tally: &mut Tally) -> Values;
}

/// Set `name` up from `seed`: generate inputs, build the pool (and server,
/// and compile the `.stats` source), compute the sequential references.
pub fn setup(name: &str, seed: u64, sizes: &Sizes) -> Option<Box<dyn Prepared>> {
    let pool = Arc::new(ThreadPool::new(pool_workers()));
    Some(match name {
        "light" => Box::new(linear::light(seed, sizes, pool)),
        "heavy" => Box::new(linear::heavy(seed, sizes, pool)),
        "misspec" => Box::new(linear::misspec(seed, sizes, pool)),
        "bodytrack" => Box::new(linear::bodytrack(seed, sizes, pool)),
        "dag_small" => Box::new(dag::Dag::new(seed, sizes.dag_small_scale, 99, pool)),
        "dag_large" => Box::new(dag::Dag::new(seed, sizes.dag_large_scale, 90, pool)),
        "serve_open" => Box::new(serve::Serve::new(seed, sizes, pool)),
        "tune" => Box::new(tune::Tune::new(seed, sizes)),
        _ => return None,
    })
}

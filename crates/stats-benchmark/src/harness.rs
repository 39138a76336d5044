//! The timing loop and the failure count shared by every workload.
//!
//! Method: a run is [`BLOCKS`] independent blocks, each a fresh set-up
//! (new pool, new threads: where the scheduler happens to put them differs
//! from one set-up to the next, and one run should see several placements,
//! not one) followed by its share of `--seconds`. A block goes round its
//! rungs [`CYCLES`] times and times a slice of each per round (see
//! [`rounds`]), so every rung is sampled in `BLOCKS × CYCLES` stretches
//! spread over the whole run: how fast the host runs changes from second to
//! second, and a rung timed in few long stretches reads whatever those
//! stretches happened to be. A slice is a loop of its own (interleaving
//! single repetitions made the cheapest rung bimodal). Warm-up repetitions
//! run during set-up and are discarded; timed repetitions continue until
//! the slice is spent, at least [`SLICE_REPS`] whatever that costs. Samples
//! of all slices and blocks are pooled. An end-to-end timing is the mean of
//! all but their slowest tenth ([`Summary::steady`]), a per-layer value
//! their median; neither is the best.

use std::time::{Duration, Instant};

use crate::env::cpu_seconds;
use crate::metrics::Values;
use crate::span::Trace;
use crate::summary::{median_and_tail, Summary};

/// Set-up-and-measure blocks in an untraced run; `setup_s` is the median of
/// their set-up times.
pub const BLOCKS: usize = 5;
/// Rounds a block makes over its rungs: each is timed in
/// `BLOCKS × CYCLES` slices spread over the whole run.
pub const CYCLES: usize = 4;
/// Timed repetitions a loop of an untraced run gets even when one alone
/// overruns its budget.
pub const SLICE_REPS: usize = 2;
/// Timed repetitions a rung of the traced run gets whatever that costs.
pub const MIN_REPS: usize = 5;
/// Warm-up repetitions per rung, run (and timed) as part of set-up.
pub const WARMUP_REPS: usize = 3;

/// How long a loop may measure, and the repetitions it takes regardless.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Time to spend.
    pub time: Duration,
    /// Repetitions taken even when `time` is already spent.
    pub min_reps: usize,
    /// Rounds an untraced block makes over its rungs (see [`rounds`]).
    pub cycles: usize,
}

impl std::ops::Div<u32> for Budget {
    type Output = Budget;
    fn div(self, by: u32) -> Budget {
        Budget {
            time: self.time / by,
            ..self
        }
    }
}

/// Operations attempted and failed. An operation is one checked result:
/// a repetition whose outputs are compared with the sequential reference,
/// a served tenant, a replay. A mismatch, an error return, a refusal and a
/// caught panic each count one failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Checked operations.
    pub attempted: u64,
    /// Of those, the ones that did not produce the reference result.
    pub failed: u64,
    /// One line per failure (first few), for the report.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// What a rung's loop measured.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Wall seconds of each timed repetition.
    pub walls: Vec<f64>,
    /// Process CPU seconds (user + system, every thread) over each timed
    /// repetition.
    pub cpus: Vec<f64>,
}

impl Timed {
    /// Pool `other`'s samples into these.
    pub fn merge(&mut self, other: Timed) {
        self.walls.extend(other.walls);
        self.cpus.extend(other.cpus);
    }

    /// Median and quartiles of the repetition walls.
    pub fn wall(&self) -> Summary {
        Summary::of(&self.walls)
    }

    /// `ops` per second, per repetition.
    pub fn rate(&self, ops: usize) -> Summary {
        self.wall().map(|s| ops as f64 / s)
    }

    /// Nanoseconds per op, per repetition.
    pub fn ns_per(&self, ops: usize) -> Summary {
        self.wall().map(|s| s * 1e9 / ops as f64)
    }

    /// `ops` per second at the trimmed mean of the repetition walls: the
    /// end-to-end form of [`Timed::rate`].
    pub fn steady_rate(&self, ops: usize) -> Summary {
        Summary::steady(&self.walls).map(|s| ops as f64 / s)
    }
}

/// Latencies of the workload's outermost rung, where `job_ms` and
/// `cpu_ms_per_job` come from. A sample is one job on a closed loop and one
/// latency window on the open loop.
#[derive(Debug, Clone, Default)]
pub struct Jobs {
    /// Wall milliseconds of a job: its own on a closed loop, the window's
    /// median on the open loop.
    pub ms: Vec<f64>,
    /// Process CPU milliseconds per job: the job's own on a closed loop,
    /// the window's CPU time over its jobs on the open loop.
    pub cpu_ms: Vec<f64>,
}

impl Jobs {
    /// One job per repetition of a closed loop.
    pub fn closed(timed: &Timed) -> Self {
        Jobs {
            ms: timed.walls.iter().map(|s| s * 1e3).collect(),
            cpu_ms: timed.cpus.iter().map(|s| s * 1e3).collect(),
        }
    }
}

/// What one block measured: the three end-to-end rungs.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// The single-threaded reference rung, `seq_ops` operations per rep.
    pub seq: Timed,
    /// Operations per `seq` repetition.
    pub seq_ops: usize,
    /// The pooled rung.
    pub par: Timed,
    /// Operations per `par` repetition.
    pub par_ops: usize,
    /// The outermost rung.
    pub jobs: Jobs,
}

impl Block {
    /// Pool `other`'s samples into this block's.
    pub fn merge(&mut self, other: Block) {
        self.seq.merge(other.seq);
        self.par.merge(other.par);
        (self.seq_ops, self.par_ops) = (other.seq_ops, other.par_ops);
        self.jobs.ms.extend(other.jobs.ms);
        self.jobs.cpu_ms.extend(other.jobs.cpu_ms);
    }

    /// The end-to-end metrics of the pooled samples: every timing as the
    /// mean of all but its slowest tenth (see [`Summary::steady`]).
    pub fn metrics(&self) -> Values {
        let mut values = Values::default();
        values.set("seq_ops_per_s", self.seq.steady_rate(self.seq_ops));
        values.set("par_ops_per_s", self.par.steady_rate(self.par_ops));
        values.set("job_ms", Summary::steady(&self.jobs.ms));
        values.set("cpu_ms_per_job", Summary::steady(&self.jobs.cpu_ms));
        values
    }
}

/// The per-layer `job.p50_ms` and `job.tail_ms`: the plain median of job
/// latencies and their tail at `tail_pct` (or the highest lower step with
/// ten samples beyond it). They say how long a job took on the host as it
/// was, disturbances included, which is why they carry no bound.
pub fn job_spread(values: &mut Values, ms: &[f64], tail_pct: u32) {
    let (p50, tail, _) = median_and_tail(ms, tail_pct);
    let n = ms.len();
    values.set(
        "job.p50_ms",
        Summary {
            n,
            ..Summary::exact(p50)
        },
    );
    values.set(
        "job.tail_ms",
        Summary {
            n,
            ..Summary::exact(tail)
        },
    );
}

/// Repeat `rep` until `budget` is spent and the floor of repetitions is in. `rep`
/// times the section it is measuring itself and returns that duration, so
/// preparation (cloning inputs) and checking stay outside the measurement.
pub fn repeat(
    trace: &Trace,
    rung: &'static str,
    budget: Budget,
    mut rep: impl FnMut() -> Duration,
) -> Timed {
    let started = Instant::now();
    let mut timed = Timed::default();
    while timed.walls.len() < budget.min_reps || started.elapsed() < budget.time {
        trace.context(rung, timed.walls.len() as u32);
        let cpu = cpu_seconds();
        let wall = rep();
        timed.cpus.push(cpu_seconds() - cpu);
        trace.note_wall(rung, wall);
        timed.walls.push(wall.as_secs_f64());
    }
    timed
}

/// An untraced block's rungs: `budget.cycles` rounds, and in each a slice
/// of every rung (`round` is handed the round's budget, shares it out among
/// its rungs and merges what it timed into the block's samples).
pub fn rounds(budget: Budget, mut round: impl FnMut(Budget)) {
    let slice = Budget {
        time: budget.time / budget.cycles.max(1) as u32,
        ..budget
    };
    for _ in 0..budget.cycles.max(1) {
        round(slice);
    }
}

/// Time one call.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// `share` of `budget`'s time, same floor.
pub fn part(budget: Budget, share: f64) -> Budget {
    Budget {
        time: budget.time.mul_f64(share),
        ..budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_pool_their_samples() {
        let block = |wall: f64| {
            let timed = Timed {
                walls: vec![wall; 10],
                cpus: vec![wall * 2.0; 10],
            };
            Block {
                seq: timed.clone(),
                seq_ops: 100,
                par: timed.clone(),
                par_ops: 100,
                jobs: Jobs::closed(&timed),
            }
        };
        let mut all = Block::default();
        all.merge(block(0.003));
        all.merge(block(0.001));
        all.merge(block(0.002));
        all.merge(block(0.003));
        let values = all.metrics();
        // 40 samples: the slowest four (of the twenty at 3 ms) are left
        // out of the mean; the quartiles are those of all forty.
        let job = values.get("job_ms").unwrap();
        let mean = (10.0 * 1.0 + 10.0 * 2.0 + 16.0 * 3.0) / 36.0;
        assert!((job.value - mean).abs() < 1e-12, "{}", job.value);
        assert_eq!((job.q1, job.q3, job.n), (1.25, 3.0, 40));
        let rate = values.get("seq_ops_per_s").unwrap().value;
        assert!((rate - 100.0 / (mean / 1e3)).abs() < 1e-6, "{rate}");
        assert_eq!(values.get("par_ops_per_s").unwrap().value, rate);
        let cpu = values.get("cpu_ms_per_job").unwrap().value;
        assert!((cpu - 2.0 * mean).abs() < 1e-12, "{cpu}");

        // The per-layer spread of the same jobs: median, and the p75 that
        // has ten samples beyond it where the p90 asked for has not.
        let mut layer = Values::default();
        job_spread(&mut layer, &all.jobs.ms, 90);
        assert_eq!(layer.get("job.p50_ms").unwrap().value, 2.0);
        assert_eq!(layer.get("job.tail_ms").unwrap().value, 3.0);
    }

    #[test]
    fn repeat_honours_the_floor_and_the_budget() {
        let budget = |ms| Budget {
            time: Duration::from_millis(ms),
            min_reps: MIN_REPS,
            cycles: 3,
        };
        let timed = repeat(&Trace::off(), "t", budget(0), || Duration::from_millis(2));
        assert_eq!(timed.walls.len(), MIN_REPS);
        assert_eq!(timed.wall().value, 0.002);
        assert_eq!(timed.rate(10).value, 5000.0);
        assert_eq!(timed.steady_rate(10).value, 5000.0);
        assert_eq!(timed.cpus.len(), MIN_REPS);

        let started = Instant::now();
        let timed = repeat(&Trace::off(), "t", budget(30), || {
            std::thread::sleep(Duration::from_millis(1));
            Duration::from_millis(1)
        });
        assert!(started.elapsed() >= Duration::from_millis(30));
        assert!(timed.walls.len() >= MIN_REPS);
        assert_eq!(part(budget(30) / 3, 0.5).time, Duration::from_millis(5));
        let mut slices = Vec::new();
        rounds(budget(30), |slice| slices.push(slice.time));
        assert_eq!(slices, [Duration::from_millis(10); 3]);
    }

    #[test]
    fn tally_counts_and_keeps_the_first_notes() {
        let mut tally = Tally::default();
        tally.check(true, || unreachable!());
        for i in 0..20 {
            tally.check(false, || format!("miss {i}"));
        }
        assert_eq!((tally.attempted, tally.failed), (21, 20));
        assert_eq!(tally.notes.len(), 8);
    }
}

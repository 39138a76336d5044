//! Online re-tuning: the paper's tuner driving a live stream.
//!
//! The paper's autotuner explores offline, against the profiler; this
//! module closes the loop *online*. [`OnlineTuner`] implements
//! `stats-core`'s [`Retuner`] hook with the same [`Tuner`]: between stream
//! segments it folds the engine's live commit/abort telemetry into an
//! objective, tells it to the tuner as the measurement of the operating
//! point that ran, and asks the tuner for the next one — group
//! cardinality, auxiliary window, re-execution budget — for the rest of
//! the stream.
//!
//! The exploration is warm-started from, and folded back into, the
//! [`ResultsDatabase`] (the paper's stored-exploration reuse, §3.2): the
//! first decision replays the best configuration the database already
//! knows for this objective; every later decision comes from the tuner's
//! portfolio and its measurement is inserted back, so successive runs keep
//! getting smarter. Re-tuning decisions applied by the engine are recorded
//! in the session's event stream, so a tuned run replays deterministically
//! *without* the database (`docs/replay.md`).
//!
//! The database stores [`Measurement`]s; online trials map onto them as
//! `time_s` = the wasted-work objective and `energy_j` = the abort
//! fraction, documented in `docs/tuning.md` — re-ranking under either
//! works the same way as for offline profiles.

use stats_core::{Retuner, SegmentStats, TuneDecision};

use crate::history::{History, Measurement, ResultsDatabase};
use crate::param::{Configuration, IntegerParameter, SearchSpace};
use crate::technique::{GreedyMutation, RandomSearch};
use crate::tuner::{Objective, Tuner};

/// How much one aborted segment adds to the objective, on top of the
/// wasted-work fraction it already causes. Aborts also squash committed
/// throughput, so they are penalized beyond their accounting cost.
const ABORT_PENALTY: f64 = 2.0;

/// A [`Retuner`] that re-picks the speculation operating point online with
/// the [`Tuner`] the offline search uses.
///
/// ```
/// use stats_autotune::OnlineTuner;
/// use stats_core::{Retuner, SegmentStats, TuneDecision};
///
/// let mut tuner = OnlineTuner::new(42).every(2);
/// let stats = SegmentStats {
///     segment: 0,
///     inputs: 64,
///     aborted: false,
///     reexecutions: 1,
///     validations: 8,
///     committed_original_work: 60.0,
///     committed_aux_work: 6.0,
///     squashed_work: 0.0,
///     group_size: 8,
///     window: 2,
///     max_reexec: 3,
/// };
/// assert!(tuner.decide(&stats).is_none()); // period not yet elapsed
/// let decision: TuneDecision = tuner.decide(&SegmentStats { segment: 1, ..stats }).unwrap();
/// assert!(decision.group_size >= 1);
/// ```
pub struct OnlineTuner {
    tuner: Tuner,
    group_sizes: Vec<usize>,
    windows: Vec<usize>,
    budgets: Vec<usize>,
    every: u64,
    period: Period,
    // The configuration currently being measured; None before the first
    // decision (the stream runs the caller's configured operating point).
    current: Option<Configuration>,
}

/// Telemetry accumulated since the last decision.
#[derive(Default)]
struct Period {
    segments: u64,
    aborted: u64,
    committed_original: f64,
    committed_aux: f64,
    squashed: f64,
}

impl OnlineTuner {
    /// A tuner over the default candidate grids (group size 2–32, window
    /// 0–8, re-execution budget 1–4), deciding every 4 segments. The seed
    /// fixes the tuner's proposal stream, so a given telemetry sequence
    /// always produces the same decisions.
    pub fn new(seed: u64) -> Self {
        Self::with_candidates(
            vec![2, 4, 8, 16, 32],
            vec![0, 1, 2, 4, 8],
            vec![1, 2, 3, 4],
            seed,
        )
    }

    /// A tuner over explicit candidate grids. Each dimension becomes an
    /// enumerable [`IntegerParameter`] indexing into its grid — the same
    /// shape the offline tuner gives OpenTuner.
    ///
    /// # Panics
    ///
    /// Panics if any grid is empty.
    pub fn with_candidates(
        group_sizes: Vec<usize>,
        windows: Vec<usize>,
        budgets: Vec<usize>,
        seed: u64,
    ) -> Self {
        assert!(
            !group_sizes.is_empty() && !windows.is_empty() && !budgets.is_empty(),
            "candidate grids must be non-empty"
        );
        let grid = |name: &str, len: usize| IntegerParameter::new(name, 0, len as i64 - 1);
        let space = SearchSpace::new()
            .with(grid("group_size", group_sizes.len()))
            .with(grid("window", windows.len()))
            .with(grid("max_reexec", budgets.len()));
        OnlineTuner {
            tuner: Tuner::with_portfolio(
                space,
                Objective::Time,
                seed,
                vec![Box::new(RandomSearch), Box::new(GreedyMutation::default())],
            ),
            group_sizes,
            windows,
            budgets,
            every: 4,
            period: Period::default(),
            current: None,
        }
    }

    /// Re-decide every `segments` segments (clamped to >= 1).
    pub fn every(mut self, segments: u64) -> Self {
        self.every = segments.max(1);
        self
    }

    /// Warm-start from a previously saved exploration: the first decision
    /// replays the database's best in-space configuration under the online
    /// objective (`time_s`; ties go to the first in sorted order) instead
    /// of sampling blind; its measurements keep accumulating into the same
    /// database.
    pub fn warm_start(mut self, db: ResultsDatabase) -> Self {
        let best = db
            .entries()
            .into_iter()
            .filter(|(cfg, _)| self.tuner.space().contains(cfg))
            .min_by(|a, b| a.1.time_s.total_cmp(&b.1.time_s))
            .map(|(cfg, _)| cfg.clone());
        self.tuner = self
            .tuner
            .with_seed_configs(best.into_iter().collect())
            .with_database(db);
        self
    }

    /// The exploration accumulated so far (warm-start entries included) —
    /// persist it with [`ResultsDatabase::save`] to seed the next run.
    pub fn database(&self) -> &ResultsDatabase {
        &self.tuner.database
    }

    /// Online trials in decision order (objective and abort fraction per
    /// measured operating point).
    pub fn history(&self) -> &History {
        &self.tuner.history
    }
}

impl Period {
    /// The measurement of the operating point that ran this period:
    /// `time_s` is the wasted-work objective (lower is better) —
    /// speculative overhead, auxiliary and squashed work, as a fraction of
    /// committed original work, plus [`ABORT_PENALTY`] per aborted-segment
    /// fraction — and `energy_j` the abort fraction.
    fn measurement(&self) -> Measurement {
        let wasted = (self.committed_aux + self.squashed) / self.committed_original.max(1e-9);
        let abort_fraction = self.aborted as f64 / self.segments.max(1) as f64;
        Measurement {
            time_s: wasted + ABORT_PENALTY * abort_fraction,
            energy_j: abort_fraction,
        }
    }
}

impl Retuner for OnlineTuner {
    fn decide(&mut self, done: &SegmentStats) -> Option<TuneDecision> {
        let period = &mut self.period;
        period.segments += 1;
        period.aborted += u64::from(done.aborted);
        period.committed_original += done.committed_original_work;
        period.committed_aux += done.committed_aux_work;
        period.squashed += done.squashed_work;
        if period.segments < self.every {
            return None;
        }
        // Close out the configuration the elapsed period measured, then
        // ask for the next operating point.
        let m = std::mem::take(period).measurement();
        if let Some(cfg) = self.current.take() {
            self.tuner.tell(cfg, m);
        }
        let cfg = self.tuner.ask(1).pop().expect("ask(1) proposes one");
        let decision = TuneDecision {
            group_size: self.group_sizes[cfg[0] as usize],
            window: self.windows[cfg[1] as usize],
            max_reexec: self.budgets[cfg[2] as usize],
        };
        self.current = Some(cfg);
        Some(decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(segment: u64, aborted: bool) -> SegmentStats {
        SegmentStats {
            segment,
            inputs: 64,
            aborted,
            reexecutions: 0,
            validations: 8,
            committed_original_work: 60.0,
            committed_aux_work: if aborted { 0.0 } else { 6.0 },
            squashed_work: if aborted { 30.0 } else { 0.0 },
            group_size: 8,
            window: 2,
            max_reexec: 3,
        }
    }

    fn drive(tuner: &mut OnlineTuner, rounds: u64) -> Vec<TuneDecision> {
        let mut decisions = Vec::new();
        for seg in 0..rounds {
            if let Some(d) = tuner.decide(&stats(seg, seg % 3 == 2)) {
                decisions.push(d);
            }
        }
        decisions
    }

    #[test]
    fn fires_every_period_and_is_deterministic() {
        let mut a = OnlineTuner::new(7).every(2);
        let mut b = OnlineTuner::new(7).every(2);
        let da = drive(&mut a, 12);
        let db = drive(&mut b, 12);
        assert_eq!(da.len(), 6);
        assert_eq!(da, db);
        assert_eq!(a.history().len(), 5); // first decision has no predecessor
        assert_eq!(a.database().save(), b.database().save());
    }

    #[test]
    fn decisions_come_from_the_candidate_grids() {
        let mut tuner = OnlineTuner::with_candidates(vec![4, 8], vec![1, 2], vec![2], 3).every(1);
        for d in drive(&mut tuner, 20) {
            assert!([4, 8].contains(&d.group_size));
            assert!([1, 2].contains(&d.window));
            assert_eq!(d.max_reexec, 2);
        }
    }

    #[test]
    fn warm_start_replays_the_stored_best_first() {
        let mut db = ResultsDatabase::new();
        // Index configuration [2, 3, 3] => group 8, window 4, budget 4.
        db.insert(
            vec![2, 3, 3],
            Measurement {
                time_s: 0.01,
                energy_j: 0.0,
            },
        );
        db.insert(
            vec![4, 4, 0],
            Measurement {
                time_s: 9.0,
                energy_j: 1.0,
            },
        );
        // An entry outside the space must be ignored, not crash indexing.
        db.insert(
            vec![99, 0, 0],
            Measurement {
                time_s: 0.0,
                energy_j: 0.0,
            },
        );
        let mut tuner = OnlineTuner::new(1).every(1).warm_start(db);
        let first = tuner.decide(&stats(0, false)).unwrap();
        assert_eq!(
            first,
            TuneDecision {
                group_size: 8,
                window: 4,
                max_reexec: 4
            }
        );
        // The measurement of the warm-start period folds back in.
        tuner.decide(&stats(1, false)).unwrap();
        assert!(tuner.database().get(&vec![2, 3, 3]).is_some());
        assert_eq!(tuner.history().len(), 1);
    }

    #[test]
    fn warm_start_ranks_by_the_search_objective() {
        // `time_s` already carries the abort penalty, so [0, 0, 0] (1.0) is
        // better than [1, 1, 1] (1.5) whatever the abort fraction says.
        let mut db = ResultsDatabase::new();
        db.insert(
            vec![0, 0, 0],
            Measurement {
                time_s: 1.0,
                energy_j: 0.4,
            },
        );
        db.insert(
            vec![1, 1, 1],
            Measurement {
                time_s: 1.5,
                energy_j: 0.0,
            },
        );
        let mut tuner = OnlineTuner::new(1).every(1).warm_start(db);
        assert_eq!(
            tuner.decide(&stats(0, false)),
            Some(TuneDecision {
                group_size: 2,
                window: 0,
                max_reexec: 1
            })
        );
    }

    /// Decisions of `OnlineTuner::new(7).every(2)` over a fixed telemetry
    /// sequence, as (finished segment, group size, window, budget). Any
    /// change to the proposal stream, the objective or the ask/tell order
    /// shows here.
    #[test]
    fn decisions_match_the_recorded_sequence() {
        let telemetry = |segment: u64| {
            let aborted = segment % 5 == 3;
            SegmentStats {
                reexecutions: (segment % 3) as usize,
                committed_original_work: 40.0 + (segment % 7) as f64 * 4.0,
                committed_aux_work: if aborted {
                    0.0
                } else {
                    (segment % 4) as f64 * 1.5
                },
                squashed_work: if aborted { 24.0 } else { 0.0 },
                ..stats(segment, aborted)
            }
        };
        let mut tuner = OnlineTuner::new(7).every(2);
        let decisions: Vec<_> = (0..24)
            .filter_map(|seg| {
                let d = tuner.decide(&telemetry(seg))?;
                Some((seg, d.group_size, d.window, d.max_reexec))
            })
            .collect();
        assert_eq!(
            decisions,
            [
                (1, 2, 0, 3),
                (3, 2, 2, 3),
                (5, 16, 1, 4),
                (7, 4, 2, 3),
                (9, 2, 2, 3),
                (11, 8, 0, 1),
                (13, 4, 2, 3),
                (15, 16, 4, 2),
                (17, 2, 2, 2),
                (19, 32, 0, 1),
                (21, 2, 2, 3),
                (23, 4, 8, 1),
            ]
        );
        assert_eq!(tuner.history().len(), 11);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_grid_rejected() {
        OnlineTuner::with_candidates(vec![], vec![1], vec![1], 0);
    }
}

//! The state space (paper §3.3) and the autotuning loop over it.
//!
//! "The state space is defined by all tradeoffs, by how often a state
//! dependence is satisfied with auxiliary code, by the number of previous
//! inputs an auxiliary code will consider, by the maximum number of times
//! the STATS runtime can execute an original producer of a given state
//! dependence, and by the number of threads to dedicate to the TLP already
//! available in the original program."

use stats_autotune::{
    Configuration, IntegerParameter, Measurement, Objective, ResultsDatabase, SearchSpace, Tuner,
    TuningOutcome,
};
use stats_core::{SpecConfig, TradeoffBindings};
use stats_workloads::{Instance, Workload, WorkloadSpec};

use crate::measure::{measure_instance, FullMeasurement, RunSettings};

/// Group-cardinality choices exposed to the tuner.
pub const GROUP_SIZES: [usize; 6] = [2, 4, 6, 8, 12, 16];

/// Build the state space for `workload` on a `threads`-thread platform.
///
/// Dimension order: `speculate`, `group`, `window`, `reexec`, `rollback`,
/// `t_orig`, then one dimension per tradeoff. `tradeoff_prefix` limits how
/// many tradeoffs are tunable (the Figure 18 sweep); the rest stay at their
/// defaults.
pub fn search_space<W: Workload>(
    workload: &W,
    threads: usize,
    tradeoff_prefix: usize,
) -> SearchSpace {
    let mut space = SearchSpace::new()
        .with(IntegerParameter::new("speculate", 0, 1))
        .with(IntegerParameter::new(
            "group",
            0,
            GROUP_SIZES.len() as i64 - 1,
        ))
        .with(IntegerParameter::new("window", 1, 6))
        .with(IntegerParameter::new("reexec", 0, 3))
        .with(IntegerParameter::new("rollback", 1, 4))
        .with(IntegerParameter::new("t_orig", 1, threads.max(1) as i64))
        // Hardware threads actually allocated: the dimension that lets the
        // energy objective "avoid using extra cores if the additional
        // performance obtained by them is not significant" (§4.3).
        .with(IntegerParameter::new("alloc", 1, threads.max(1) as i64));
    for (i, t) in workload.tradeoffs().iter().enumerate() {
        if i < tradeoff_prefix {
            space.push(IntegerParameter::new(t.name(), 0, t.max_index() - 1));
        } else {
            let d = t.default_index();
            space.push(IntegerParameter::new(t.name(), d, d));
        }
    }
    space
}

/// A decoded state-space point.
#[derive(Debug, Clone)]
pub struct DecodedConfig {
    /// The speculation configuration (bindings resolved).
    pub spec_config: SpecConfig,
    /// Threads devoted to the original TLP.
    pub t_orig: usize,
    /// Hardware threads allocated in total.
    pub alloc: usize,
}

/// Decode an autotuner configuration into runnable settings.
pub fn decode<W: Workload>(workload: &W, cfg: &Configuration) -> DecodedConfig {
    let opts = workload.tradeoffs();
    let defaults = TradeoffBindings::defaults(&opts);
    let tradeoff_indices: Vec<i64> = cfg[7..].to_vec();
    DecodedConfig {
        spec_config: SpecConfig {
            speculate: cfg[0] != 0,
            group_size: GROUP_SIZES[cfg[1] as usize],
            window: cfg[2] as usize,
            max_reexec: cfg[3] as usize,
            rollback: cfg[4] as usize,
            orig_bindings: defaults,
            aux_bindings: TradeoffBindings::from_indices(&opts, &tradeoff_indices),
            ..SpecConfig::default()
        },
        t_orig: cfg[5] as usize,
        alloc: cfg[6] as usize,
    }
}

/// The outcome of a tuning run: the best configuration with its full
/// measurement, plus the search history and reusable database.
pub struct TuneResult {
    /// The autotuner's outcome (best configuration + history).
    pub outcome: TuningOutcome,
    /// The best configuration, decoded.
    pub best: DecodedConfig,
    /// Full measurement of the best configuration.
    pub best_measurement: FullMeasurement,
    /// The results database, reusable under a different objective.
    pub database: ResultsDatabase,
}

/// One search's profiling context: the workload, its instance
/// materialized once, and the base settings every configuration overrides.
struct Search<'a, W: Workload> {
    workload: &'a W,
    instance: Instance<W::T>,
    spec: &'a WorkloadSpec,
    threads: usize,
    base: RunSettings,
}

impl<'a, W: Workload> Search<'a, W> {
    fn new(workload: &'a W, spec: &'a WorkloadSpec, threads: usize) -> Self {
        Search {
            workload,
            instance: workload.instance(spec),
            spec,
            threads,
            base: RunSettings::for_mode(workload, crate::Mode::ParStats, threads),
        }
    }

    /// Profile one decoded configuration in full.
    fn measure(&self, decoded: DecodedConfig) -> FullMeasurement {
        let settings = RunSettings {
            threads: decoded.alloc.clamp(1, self.threads),
            t_orig: decoded.t_orig,
            spec_config: decoded.spec_config,
            ..self.base.clone()
        };
        measure_instance(self.workload, &self.instance, self.spec, &settings)
    }

    /// Profile one configuration: the tuner's measurement.
    fn profile(&self, cfg: &Configuration) -> Measurement {
        let m = self.measure(decode(self.workload, cfg));
        Measurement {
            time_s: m.time_s,
            energy_j: m.energy_j,
        }
    }

    /// Decode the search's winner and measure it in full.
    fn finish(&self, (outcome, database): (TuningOutcome, ResultsDatabase)) -> TuneResult {
        let best = decode(self.workload, &outcome.best);
        TuneResult {
            best_measurement: self.measure(best.clone()),
            outcome,
            best,
            database,
        }
    }
}

/// Autotune `workload` on the given training `spec` with `threads` hardware
/// threads, evaluating `budget` configurations.
pub fn tune<W: Workload>(
    workload: &W,
    spec: &WorkloadSpec,
    threads: usize,
    objective: Objective,
    budget: usize,
    search_seed: u64,
) -> TuneResult {
    tune_with_prefix(
        workload,
        spec,
        threads,
        objective,
        budget,
        search_seed,
        usize::MAX,
    )
}

/// Re-target a finished exploration at a different objective (paper §3.2:
/// the autotuner "stores the results of its exploration … which allows them
/// to be reused should the specific optimization objective change"): the
/// previous database answers repeat profiles for free, and the previous
/// best configuration seeds the new search, so the result can never be
/// worse under the new objective than anything already explored.
pub fn retune<W: Workload>(
    workload: &W,
    spec: &WorkloadSpec,
    threads: usize,
    objective: Objective,
    budget: usize,
    search_seed: u64,
    prior: &TuneResult,
) -> TuneResult {
    let space = search_space(workload, threads, usize::MAX);
    let tuner = Tuner::new(space, objective, search_seed)
        .with_database(prior.database.clone())
        .with_seed_configs(
            prior
                .outcome
                .history
                .trials()
                .map(|(c, _, _)| c.clone())
                .collect(),
        );
    let search = Search::new(workload, spec, threads);
    let budget = budget.max(prior.outcome.history.len());
    search.finish(tuner.run(budget, |cfg| search.profile(cfg)))
}

/// [`tune`] with the profile runs fanned out over `workers` threads.
///
/// Proposals come in deterministic fixed-size generations
/// ([`Tuner::GENERATION`]), so the search history, best configuration, and
/// convergence curve are bit-identical to [`tune`] with the same
/// `search_seed`, for any worker count. The shared workload instance is
/// materialized once and profiled concurrently (it is read-only).
#[allow(clippy::too_many_arguments)]
pub fn tune_parallel<W: Workload + Sync>(
    workload: &W,
    spec: &WorkloadSpec,
    threads: usize,
    objective: Objective,
    budget: usize,
    search_seed: u64,
    workers: usize,
) -> TuneResult {
    let tuner = seeded_tuner(workload, threads, objective, search_seed, usize::MAX);
    let search = Search::new(workload, spec, threads);
    search.finish(tuner.run_parallel(budget, workers, |cfg| search.profile(cfg)))
}

/// A tuner seeded with the four baseline configurations — the shared setup
/// of [`tune_with_prefix`] and [`tune_parallel`].
fn seeded_tuner<W: Workload>(
    workload: &W,
    threads: usize,
    objective: Objective,
    search_seed: u64,
    tradeoff_prefix: usize,
) -> Tuner {
    let space = search_space(workload, threads, tradeoff_prefix);
    let t = threads.max(1) as i64;
    let n_tradeoffs = workload.tradeoffs().len();
    let defaults: Vec<i64> = workload
        .tradeoffs()
        .iter()
        .map(|tr| tr.default_index())
        .collect();
    // Seed the search with the two obvious baselines: the original program
    // (speculation off, every thread on the original TLP) and an untuned
    // Par. STATS point — the tuner can then only improve on them.
    let mut original_seed = vec![0, 2, 2, 2, 2, t, t];
    original_seed.extend(defaults.iter().copied());
    let mut par_seed = vec![1, 1, 4, 3, 2, (t / 4).max(1), t];
    par_seed.extend(defaults.iter().copied());
    let mut spec_seed = vec![1, 0, 4, 3, 2, 1, t];
    spec_seed.extend(defaults.iter().copied());
    // A half-allocation original point anchors the energy objective (fewer
    // cores, nearly the same time for sub-linear workloads).
    let mut original_half = vec![0, 2, 2, 2, 2, (t / 2).max(1), (t / 2).max(1)];
    original_half.extend(defaults);
    debug_assert_eq!(original_seed.len(), 7 + n_tradeoffs);
    Tuner::new(space, objective, search_seed).with_seed_configs(vec![
        original_seed,
        par_seed,
        spec_seed,
        original_half,
    ])
}

/// [`tune`] with only the first `tradeoff_prefix` tradeoffs tunable.
#[allow(clippy::too_many_arguments)]
pub fn tune_with_prefix<W: Workload>(
    workload: &W,
    spec: &WorkloadSpec,
    threads: usize,
    objective: Objective,
    budget: usize,
    search_seed: u64,
    tradeoff_prefix: usize,
) -> TuneResult {
    let tuner = seeded_tuner(workload, threads, objective, search_seed, tradeoff_prefix);
    let search = Search::new(workload, spec, threads);
    search.finish(tuner.run(budget, |cfg| search.profile(cfg)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{measure, Mode};
    use stats_workloads::bodytrack::BodyTrack;
    use stats_workloads::fluidanimate::FluidAnimate;
    use stats_workloads::swaptions::Swaptions;

    fn spec(n: usize) -> WorkloadSpec {
        WorkloadSpec {
            inputs: n,
            ..WorkloadSpec::default()
        }
    }

    #[test]
    fn space_has_expected_dimensions() {
        let s = search_space(&BodyTrack, 28, usize::MAX);
        // 7 protocol dims + 3 bodytrack tradeoffs.
        assert_eq!(s.dims(), 10);
        assert!(s.cardinality() > 10_000);
    }

    #[test]
    fn prefix_pins_trailing_tradeoffs() {
        let s = search_space(&BodyTrack, 28, 1);
        let params = s.params();
        assert_eq!(params[7].hi - params[7].lo, 9); // layers tunable
        assert_eq!(params[8].lo, params[8].hi); // precision pinned
        assert_eq!(params[9].lo, params[9].hi); // particles pinned
    }

    #[test]
    fn decode_roundtrip() {
        let cfg = vec![1, 3, 2, 1, 2, 7, 20, 4, 1, 2];
        let d = decode(&BodyTrack, &cfg);
        assert!(d.spec_config.speculate);
        assert_eq!(d.spec_config.group_size, 8);
        assert_eq!(d.spec_config.window, 2);
        assert_eq!(d.spec_config.max_reexec, 1);
        assert_eq!(d.spec_config.rollback, 2);
        assert_eq!(d.t_orig, 7);
        assert_eq!(d.alloc, 20);
        assert_eq!(
            d.spec_config
                .aux_bindings
                .get("numAnnealingLayers")
                .unwrap()
                .as_int(),
            Some(5)
        );
    }

    #[test]
    fn tuned_beats_original_for_bodytrack() {
        let w = BodyTrack;
        let s = spec(32);
        let threads = 16;
        let result = tune(&w, &s, threads, Objective::Time, 40, 1);
        let original = measure(&w, &s, &RunSettings::for_mode(&w, Mode::Original, threads));
        assert!(
            result.best_measurement.time_s < original.time_s,
            "tuned {} vs original {}",
            result.best_measurement.time_s,
            original.time_s
        );
    }

    #[test]
    fn tuner_disables_speculation_for_fluidanimate() {
        let w = FluidAnimate;
        let s = spec(12);
        let result = tune(&w, &s, 8, Objective::Time, 30, 2);
        // The best configuration either turns speculation off or keeps it
        // on to no benefit; it must never beat-and-break: quality stays.
        let orig = measure(&w, &s, &RunSettings::for_mode(&w, Mode::Original, 8));
        assert!(result.best_measurement.time_s <= orig.time_s * 1.05);
    }

    #[test]
    fn energy_objective_can_pick_fewer_threads() {
        let w = Swaptions;
        let s = spec(24);
        let time_best = tune(&w, &s, 28, Objective::Time, 40, 3);
        let energy_best = retune(&w, &s, 28, Objective::Energy, 40, 3, &time_best);
        assert!(energy_best.best_measurement.energy_j <= time_best.best_measurement.energy_j);
    }

    #[test]
    fn parallel_tuning_reproduces_serial_search() {
        let w = Swaptions;
        let s = spec(12);
        let serial = tune(&w, &s, 8, Objective::Time, 24, 7);
        for workers in [2, 4] {
            let par = tune_parallel(&w, &s, 8, Objective::Time, 24, 7, workers);
            assert_eq!(par.outcome.best, serial.outcome.best, "{workers} workers");
            assert_eq!(
                par.outcome.history.best_so_far_curve(),
                serial.outcome.history.best_so_far_curve(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn retune_reuses_the_database() {
        let w = Swaptions;
        let s = spec(16);
        let first = tune(&w, &s, 16, Objective::Time, 20, 4);
        let explored = first.database.len();
        let second = retune(&w, &s, 16, Objective::Energy, 20, 4, &first);
        // The re-targeted search started from everything already explored.
        assert!(second.database.len() >= explored);
        // And cannot be worse on energy than the time-mode winner.
        assert!(second.best_measurement.energy_j <= first.best_measurement.energy_j * 1.0001);
    }
}

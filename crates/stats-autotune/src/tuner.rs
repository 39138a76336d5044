//! The tuning loop.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::bandit::AucBandit;
use crate::history::{History, Measurement, ResultsDatabase};
use crate::param::{Configuration, SearchSpace};
use crate::technique::{
    DifferentialEvolution, GeneticAlgorithm, GreedyMutation, PatternSearch, RandomSearch, Technique,
};

/// What the tuner minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimize execution time (the paper's default mode).
    Time,
    /// Minimize system-wide energy (the paper's energy mode, Figure 15).
    Energy,
}

impl Objective {
    /// Extract the objective value from a measurement.
    pub fn of(self, m: &Measurement) -> f64 {
        match self {
            Objective::Time => m.time_s,
            Objective::Energy => m.energy_j,
        }
    }
}

/// A snapshot of one ask/tell generation, handed to the observer installed
/// with [`Tuner::with_telemetry`] right after the generation's results are
/// reported. The fields mirror what OpenTuner logs per "desired result"
/// batch and are what `stats-report`/`figures` surface for tuning runs.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationTelemetry {
    /// Zero-based generation index.
    pub generation: usize,
    /// Trials charged against the budget this generation.
    pub trials: usize,
    /// Configurations actually profiled (not answered by the database).
    pub evaluated: usize,
    /// Trials answered from the results database without re-profiling.
    pub cached: usize,
    /// Best objective value seen so far (lower is better).
    pub best_objective: f64,
}

/// A boxed per-generation observer (see [`Tuner::with_telemetry`]).
pub type TelemetryObserver = Box<dyn FnMut(&GenerationTelemetry) + Send>;

/// The result of a tuning run.
#[derive(Debug, Clone)]
pub struct TuningOutcome {
    /// The best configuration found.
    pub best: Configuration,
    /// Its measurement.
    pub best_measurement: Measurement,
    /// The full trial history (convergence analysis, Figure 20).
    pub history: History,
}

/// Drives the search: asks the technique portfolio for configurations,
/// measures them (through a user-supplied profiler function), and keeps the
/// results database and the trial history. The online re-tuner
/// (`OnlineTuner`) drives the same ask/tell loop, one configuration per
/// decision.
pub struct Tuner {
    space: SearchSpace,
    objective: Objective,
    bandit: AucBandit,
    rng: SmallRng,
    /// Every measurement told so far, warm-start entries included.
    pub(crate) database: ResultsDatabase,
    /// Every trial told so far, in proposal order.
    pub(crate) history: History,
    seed_configs: std::vec::IntoIter<Configuration>,
    telemetry: Option<TelemetryObserver>,
}

impl Tuner {
    /// Create a tuner over `space` with the default OpenTuner-style
    /// portfolio, seeded deterministically.
    ///
    /// The paper notes the autotuner itself "uses nondeterminism for better
    /// exploration; different searches for the same program may find
    /// different best configurations" — different `seed`s reproduce that.
    pub fn new(space: SearchSpace, objective: Objective, seed: u64) -> Self {
        Self::with_portfolio(
            space,
            objective,
            seed,
            vec![
                Box::new(RandomSearch),
                Box::new(GreedyMutation::default()),
                Box::new(GeneticAlgorithm::default()),
                Box::new(DifferentialEvolution::default()),
                Box::new(PatternSearch::default()),
            ],
        )
    }

    /// A tuner whose bandit drives `techniques` instead of the default
    /// portfolio.
    pub(crate) fn with_portfolio(
        space: SearchSpace,
        objective: Objective,
        seed: u64,
        techniques: Vec<Box<dyn Technique>>,
    ) -> Self {
        Tuner {
            space,
            objective,
            bandit: AucBandit::new(techniques),
            rng: SmallRng::seed_from_u64(seed),
            database: ResultsDatabase::new(),
            history: History::new(),
            seed_configs: Vec::new().into_iter(),
            telemetry: None,
        }
    }

    /// Evaluate these configurations first (repaired into the space), the
    /// way OpenTuner seeds a search with the program's default
    /// configuration. Guarantees the result is never worse than the best
    /// seed.
    pub fn with_seed_configs(mut self, seeds: Vec<Configuration>) -> Self {
        self.seed_configs = seeds.into_iter();
        self
    }

    /// Seed the database with already-measured configurations (reuse of a
    /// previous exploration under a different objective).
    pub fn with_database(mut self, database: ResultsDatabase) -> Self {
        self.database = database;
        self
    }

    /// Install an observer called once per ask/tell generation (after the
    /// generation's results are reported) with a [`GenerationTelemetry`]
    /// snapshot. Purely observational: the search trajectory is identical
    /// with or without an observer, under both runners.
    pub fn with_telemetry(
        mut self,
        observer: impl FnMut(&GenerationTelemetry) + Send + 'static,
    ) -> Self {
        self.telemetry = Some(Box::new(observer));
        self
    }

    /// The search space.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// Ask: the next `n` configurations to measure — seed configurations
    /// first, then one batch from the technique portfolio, each repaired
    /// into the space. Nothing is reported in between.
    pub(crate) fn ask(&mut self, n: usize) -> Vec<Configuration> {
        let seeds: Vec<_> = self.seed_configs.by_ref().take(n).collect();
        let batch = self
            .bandit
            .propose_batch(&self.space, &mut self.rng, n - seeds.len());
        seeds
            .iter()
            .chain(&batch)
            .map(|cfg| self.space.repair(cfg))
            .collect()
    }

    /// Tell: the measurement `m` of an asked configuration goes to the
    /// database, the portfolio and the history. Results must be told in
    /// proposal order.
    pub(crate) fn tell(&mut self, cfg: Configuration, m: Measurement) {
        let o = self.objective.of(&m);
        self.bandit.report(&cfg, o);
        // A trial the database answered is stored already.
        if self.database.get(&cfg) != Some(&m) {
            self.database.insert(cfg.clone(), m.clone());
        }
        self.history.record(cfg, m, o);
    }

    /// Size of one ask/tell generation: how many configurations are
    /// proposed before any of their results is reported back.
    ///
    /// The serial and parallel runners both step in generations of exactly
    /// this size (independent of worker count), which is what makes
    /// [`Tuner::run`] and [`Tuner::run_parallel`] produce bit-identical
    /// histories for the same seed.
    pub const GENERATION: usize = 8;

    /// Run `budget` trials, measuring each proposed configuration with
    /// `profile`. Cached configurations are *not* re-profiled (the database
    /// answers), but still count as trials — matching how OpenTuner reuses
    /// its results database.
    ///
    /// Proposals are made in fixed-size generations ([`Tuner::GENERATION`])
    /// through the batched ask/tell interface; within a generation a
    /// duplicate of an already-profiled configuration is profiled once.
    ///
    /// Returns the outcome and the (grown) database for reuse.
    pub fn run(
        self,
        budget: usize,
        mut profile: impl FnMut(&Configuration) -> Measurement,
    ) -> (TuningOutcome, ResultsDatabase) {
        self.run_generations(budget, |todo| todo.iter().map(|c| profile(c)).collect())
    }

    /// [`Tuner::run`] with each generation's profile runs spread over
    /// `workers` scoped threads.
    ///
    /// Results are merged back in proposal order, so for a pure `profile`
    /// function the outcome — best configuration, convergence curve, full
    /// trial history, database — is bit-identical to the serial
    /// [`Tuner::run`] with the same seed, for any worker count.
    pub fn run_parallel(
        self,
        budget: usize,
        workers: usize,
        profile: impl Fn(&Configuration) -> Measurement + Sync,
    ) -> (TuningOutcome, ResultsDatabase) {
        let workers = workers.max(1);
        self.run_generations(budget, |todo| {
            if workers == 1 || todo.len() <= 1 {
                todo.iter().map(|c| profile(c)).collect()
            } else {
                profile_concurrently(todo, workers, &profile)
            }
        })
    }

    /// The generational loop shared by the serial and parallel runners:
    /// ask for a generation, measure it, tell it. `evaluate` receives the
    /// deduplicated, not-yet-measured configurations of one generation (in
    /// first-proposal order) and must return one measurement per
    /// configuration, in the same order.
    fn run_generations(
        mut self,
        budget: usize,
        mut evaluate: impl FnMut(&[&Configuration]) -> Vec<Measurement>,
    ) -> (TuningOutcome, ResultsDatabase) {
        assert!(budget > 0, "budget must be at least one trial");
        let mut telemetry = self.telemetry.take();
        for generation in 0..budget.div_ceil(Self::GENERATION) {
            let gen_size = (budget - generation * Self::GENERATION).min(Self::GENERATION);
            let cfgs = self.ask(gen_size);

            // Evaluate: only configurations the database cannot answer,
            // each at most once per generation.
            let mut seen = std::collections::HashSet::with_capacity(cfgs.len());
            let todo: Vec<&Configuration> = cfgs
                .iter()
                .filter(|cfg| self.database.get(cfg).is_none() && seen.insert(*cfg))
                .collect();
            let measurements = evaluate(&todo);
            assert_eq!(
                measurements.len(),
                todo.len(),
                "evaluate must return one measurement per configuration"
            );
            let evaluated = measurements.len();

            // Tell in proposal order, making the history independent of
            // evaluation order (and hence worker count). A configuration's
            // first miss takes its fresh measurement; the database answers
            // every other trial.
            let mut fresh = measurements.into_iter();
            for cfg in cfgs {
                let m = match self.database.get(&cfg) {
                    Some(m) => m.clone(),
                    None => fresh.next().expect("one measurement per miss"),
                };
                self.tell(cfg, m);
            }

            if let Some(observe) = telemetry.as_mut() {
                let (_, _, best_objective) =
                    self.history.best().expect("generation recorded trials");
                observe(&GenerationTelemetry {
                    generation,
                    trials: gen_size,
                    evaluated,
                    cached: gen_size - evaluated,
                    best_objective,
                });
            }
        }
        let (best, best_measurement) = match self.history.best() {
            Some((cfg, m, _)) => (cfg.clone(), m.clone()),
            None => unreachable!("budget must be at least one trial"),
        };
        let outcome = TuningOutcome {
            best,
            best_measurement,
            history: self.history,
        };
        (outcome, self.database)
    }
}

/// Profile `todo` with `workers` scoped threads pulling indices from a
/// shared cursor, then reassemble the measurements by index.
fn profile_concurrently(
    todo: &[&Configuration],
    workers: usize,
    profile: &(impl Fn(&Configuration) -> Measurement + Sync),
) -> Vec<Measurement> {
    // A mutexed cursor, not an atomic: CI's memory-ordering gate bans raw
    // atomics outside the `stats_core::sync` facade, and one uncontended
    // lock per configuration is nothing next to the profile run it hands out.
    let next = std::sync::Mutex::new(0usize);
    let mut out: Vec<Option<Measurement>> = vec![None; todo.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(todo.len()))
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = {
                            let mut cursor = next.lock().expect("cursor poisoned");
                            let i = *cursor;
                            *cursor += 1;
                            i
                        };
                        if i >= todo.len() {
                            break;
                        }
                        local.push((i, profile(todo[i])));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            for (i, m) in handle.join().expect("profile worker panicked") {
                out[i] = Some(m);
            }
        }
    });
    out.into_iter()
        .map(|m| m.expect("every index profiled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::IntegerParameter;

    fn space() -> SearchSpace {
        SearchSpace::new()
            .with(IntegerParameter::new("x", 0, 40))
            .with(IntegerParameter::new("y", 0, 40))
    }

    fn measure(cfg: &Configuration) -> Measurement {
        let t = 1.0 + ((cfg[0] - 13).pow(2) + (cfg[1] - 27).pow(2)) as f64;
        Measurement {
            time_s: t,
            energy_j: 100.0 - t.min(99.0), // anti-correlated on purpose
        }
    }

    #[test]
    fn finds_near_optimal_configuration() {
        let tuner = Tuner::new(space(), Objective::Time, 1);
        let (outcome, _) = tuner.run(400, measure);
        assert!(
            outcome.best_measurement.time_s <= 10.0,
            "best {:?} -> {}",
            outcome.best,
            outcome.best_measurement.time_s
        );
    }

    #[test]
    fn history_length_equals_budget() {
        let tuner = Tuner::new(space(), Objective::Time, 2);
        let (outcome, _) = tuner.run(50, measure);
        assert_eq!(outcome.history.len(), 50);
    }

    #[test]
    fn best_so_far_is_monotone() {
        let tuner = Tuner::new(space(), Objective::Time, 3);
        let (outcome, _) = tuner.run(100, measure);
        let curve = outcome.history.best_so_far_curve();
        assert!(curve.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn database_reuse_avoids_reprofiling() {
        let mut profiled = 0usize;
        let tuner = Tuner::new(space(), Objective::Time, 4);
        let (_, db) = tuner.run(200, |c| {
            profiled += 1;
            measure(c)
        });
        let measured_once = profiled;
        assert_eq!(db.len(), measured_once);

        // Re-tune under energy with the old database: only genuinely new
        // configurations get profiled.
        let mut new_profiles = 0usize;
        let tuner2 = Tuner::new(space(), Objective::Energy, 4).with_database(db);
        let (outcome2, _) = tuner2.run(200, |c| {
            new_profiles += 1;
            measure(c)
        });
        assert!(new_profiles < 200);
        // Energy mode must pick a *different* kind of winner than time mode
        // (the objectives are anti-correlated).
        assert!(outcome2.best_measurement.energy_j < 70.0);
    }

    #[test]
    fn different_seeds_may_find_different_paths() {
        let (o1, _) = Tuner::new(space(), Objective::Time, 10).run(30, measure);
        let (o2, _) = Tuner::new(space(), Objective::Time, 20).run(30, measure);
        // Histories differ (the search is seeded-nondeterministic)…
        let h1: Vec<_> = o1.history.trials().map(|(c, _, _)| c.clone()).collect();
        let h2: Vec<_> = o2.history.trials().map(|(c, _, _)| c.clone()).collect();
        assert_ne!(h1, h2);
    }

    #[test]
    fn seed_configs_evaluated_first() {
        let tuner = Tuner::new(space(), Objective::Time, 5)
            .with_seed_configs(vec![vec![13, 27], vec![0, 0]]);
        let (outcome, _) = tuner.run(10, measure);
        let trials: Vec<_> = outcome
            .history
            .trials()
            .map(|(c, _, _)| c.clone())
            .collect();
        assert_eq!(trials[0], vec![13, 27]);
        assert_eq!(trials[1], vec![0, 0]);
        // The optimum was seeded: the tuner can't do worse.
        assert_eq!(outcome.best_measurement.time_s, 1.0);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let (o1, _) = Tuner::new(space(), Objective::Time, 7).run(60, measure);
        let (o2, _) = Tuner::new(space(), Objective::Time, 7).run(60, measure);
        assert_eq!(o1.best, o2.best);
        assert_eq!(
            o1.history.best_so_far_curve(),
            o2.history.best_so_far_curve()
        );
    }

    proptest::proptest! {
        /// The determinism guarantee: for a pure profile function and equal
        /// seeds, the parallel runner reproduces the serial runner's best
        /// configuration, convergence curve, and full trial history — for
        /// any worker count.
        #[test]
        fn parallel_matches_serial_bit_for_bit(seed in 0u64..512, budget in 1usize..70) {
            let (serial, serial_db) = Tuner::new(space(), Objective::Time, seed).run(budget, measure);
            for workers in [1usize, 2, 8] {
                let (par, par_db) = Tuner::new(space(), Objective::Time, seed)
                    .run_parallel(budget, workers, measure);
                proptest::prop_assert_eq!(&par.best, &serial.best);
                proptest::prop_assert_eq!(
                    par.history.best_so_far_curve(),
                    serial.history.best_so_far_curve()
                );
                let st: Vec<_> = serial.history.trials().collect();
                let pt: Vec<_> = par.history.trials().collect();
                proptest::prop_assert_eq!(pt, st);
                proptest::prop_assert_eq!(par_db.len(), serial_db.len());
            }
        }
    }

    #[test]
    fn telemetry_reports_every_generation() {
        use std::sync::{Arc, Mutex};
        let seen: Arc<Mutex<Vec<GenerationTelemetry>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let tuner = Tuner::new(space(), Objective::Time, 7)
            .with_telemetry(move |t| sink.lock().unwrap().push(t.clone()));
        let (outcome, _) = tuner.run(50, measure);
        let seen = seen.lock().unwrap();

        // 50 trials in generations of 8: six full generations plus one of 2.
        assert_eq!(seen.len(), 50usize.div_ceil(Tuner::GENERATION));
        assert_eq!(seen.iter().map(|t| t.trials).sum::<usize>(), 50);
        for (i, t) in seen.iter().enumerate() {
            assert_eq!(t.generation, i);
            assert_eq!(t.evaluated + t.cached, t.trials);
        }
        // The running best is monotone and ends at the outcome's best.
        assert!(seen
            .windows(2)
            .all(|w| w[1].best_objective <= w[0].best_objective));
        let last = seen.last().unwrap();
        assert_eq!(
            last.best_objective,
            Objective::Time.of(&outcome.best_measurement)
        );

        // Observation is pure: the trajectory matches an unobserved run.
        let (plain, _) = Tuner::new(space(), Objective::Time, 7).run(50, measure);
        assert_eq!(plain.best, outcome.best);
        assert_eq!(
            plain.history.best_so_far_curve(),
            outcome.history.best_so_far_curve()
        );
    }

    #[test]
    fn telemetry_counts_database_hits_as_cached() {
        use std::sync::{Arc, Mutex};
        // Pre-measure everything, then re-tune on the warm database: every
        // trial answered by the database must show up as cached.
        let (_, db) = Tuner::new(space(), Objective::Time, 9).run(64, measure);
        let seen: Arc<Mutex<Vec<GenerationTelemetry>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let tuner = Tuner::new(space(), Objective::Time, 9)
            .with_database(db)
            .with_telemetry(move |t| sink.lock().unwrap().push(t.clone()));
        let (_, _) = tuner.run(64, measure);
        let seen = seen.lock().unwrap();
        let cached: usize = seen.iter().map(|t| t.cached).sum();
        assert_eq!(cached, 64, "warm database answers every repeated trial");
    }

    #[test]
    fn parallel_respects_seed_configs_and_database() {
        let seeds = vec![vec![13, 27], vec![0, 0]];
        let (serial, db) = Tuner::new(space(), Objective::Time, 5)
            .with_seed_configs(seeds.clone())
            .run(20, measure);
        let (par, _) = Tuner::new(space(), Objective::Time, 5)
            .with_seed_configs(seeds)
            .with_database(db)
            .run_parallel(20, 4, measure);
        // Same seed configs first, same best; the pre-filled database only
        // removes profile runs, never changes the history.
        assert_eq!(par.best, serial.best);
        let first: Vec<_> = par
            .history
            .trials()
            .take(2)
            .map(|(c, _, _)| c.clone())
            .collect();
        assert_eq!(first, vec![vec![13, 27], vec![0, 0]]);
    }

    #[test]
    fn parallel_profiles_each_unique_config_once() {
        use std::collections::HashMap;
        use std::sync::Mutex;
        let counts: Mutex<HashMap<Configuration, usize>> = Mutex::new(HashMap::new());
        let (_, db) = Tuner::new(space(), Objective::Time, 11).run_parallel(120, 8, |c| {
            *counts.lock().unwrap().entry(c.clone()).or_insert(0) += 1;
            measure(c)
        });
        let counts = counts.into_inner().unwrap();
        assert!(
            counts.values().all(|&n| n == 1),
            "a configuration was re-profiled"
        );
        assert_eq!(counts.len(), db.len());
    }
}

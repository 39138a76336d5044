//! Trial history and the reusable results database.

use std::collections::HashMap;

use stats_core::SpillCodec;

use crate::param::Configuration;

/// One measured trial: a configuration and its profile.
///
/// The profiler measures both time and energy on every run; the tuner
/// optimizes one of them, and the other is stored so the exploration can be
/// reused when the optimization objective changes (paper §3.2: the autotuner
/// "stores the results of its exploration … which allows them to be reused
/// should the specific optimization objective change").
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Simulated execution time, seconds.
    pub time_s: f64,
    /// Simulated system energy, joules.
    pub energy_j: f64,
}

/// The record of a tuning run, in trial order.
#[derive(Debug, Clone, Default)]
pub struct History {
    trials: Vec<(Configuration, Measurement, f64)>,
}

impl History {
    /// Empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a trial with its objective value.
    pub fn record(&mut self, cfg: Configuration, m: Measurement, objective: f64) {
        self.trials.push((cfg, m, objective));
    }

    /// Number of trials recorded.
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    /// Whether no trials were recorded.
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }

    /// All trials in order.
    pub fn trials(&self) -> impl Iterator<Item = (&Configuration, &Measurement, f64)> {
        self.trials.iter().map(|(c, m, o)| (c, m, *o))
    }

    /// The trial with the smallest objective value so far.
    pub fn best(&self) -> Option<(&Configuration, &Measurement, f64)> {
        self.trials
            .iter()
            .min_by(|a, b| a.2.total_cmp(&b.2))
            .map(|(c, m, o)| (c, m, *o))
    }

    /// Best-so-far objective after each trial (the convergence curve of the
    /// paper's Figure 20).
    pub fn best_so_far_curve(&self) -> Vec<f64> {
        let mut best = f64::INFINITY;
        self.trials
            .iter()
            .map(|(_, _, o)| {
                best = best.min(*o);
                best
            })
            .collect()
    }

    /// Number of trials after which the final best value was first reached
    /// (within `tol` relative tolerance). `None` for an empty history.
    pub fn convergence_point(&self, tol: f64) -> Option<usize> {
        let (_, _, final_best) = self.best()?;
        let threshold = final_best * (1.0 + tol);
        self.best_so_far_curve()
            .iter()
            .position(|&b| b <= threshold)
            .map(|i| i + 1)
    }
}

/// Exploration results keyed by configuration, reusable across objectives.
#[derive(Debug, Clone, Default)]
pub struct ResultsDatabase {
    by_config: HashMap<Configuration, Measurement>,
}

impl ResultsDatabase {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or overwrite) the measurement for a configuration.
    pub fn insert(&mut self, cfg: Configuration, m: Measurement) {
        self.by_config.insert(cfg, m);
    }

    /// Look up a previously measured configuration — the cache consulted
    /// before paying for a profile run.
    pub fn get(&self, cfg: &Configuration) -> Option<&Measurement> {
        self.by_config.get(cfg)
    }

    /// Number of distinct configurations measured.
    pub fn len(&self) -> usize {
        self.by_config.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.by_config.is_empty()
    }

    /// Re-rank the stored configurations under a new objective without any
    /// new profile runs (the objective-change reuse of §3.2). Ties go to
    /// the first configuration in sorted order.
    pub fn best_under(
        &self,
        mut objective: impl FnMut(&Measurement) -> f64,
    ) -> Option<(&Configuration, &Measurement)> {
        self.entries()
            .into_iter()
            .min_by(|a, b| objective(a.1).total_cmp(&objective(b.1)))
    }

    /// All stored entries, sorted by configuration. The sort makes the
    /// iteration (and everything derived from it — warm starts,
    /// [`save`](Self::save)d bytes) deterministic despite the hash-map
    /// backing store.
    pub fn entries(&self) -> Vec<(&Configuration, &Measurement)> {
        let mut entries: Vec<_> = self.by_config.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries
    }

    /// Serialize to bytes via the same little-endian exact codec the spill
    /// queues use (floats as IEEE bit patterns). Entries are emitted in
    /// sorted-configuration order, so equal databases produce equal bytes.
    pub fn save(&self) -> Vec<u8> {
        let mut out = Vec::new();
        (self.by_config.len() as u64).encode(&mut out);
        for (cfg, m) in self.entries() {
            cfg.encode(&mut out);
            m.time_s.encode(&mut out);
            m.energy_j.encode(&mut out);
        }
        out
    }

    /// Reconstruct a database [`save`](Self::save)d earlier. `None` means
    /// the buffer is corrupt or truncated.
    pub fn load(mut bytes: &[u8]) -> Option<Self> {
        let bytes = &mut bytes;
        let len = u64::decode(bytes)?;
        let mut db = ResultsDatabase::new();
        for _ in 0..len {
            let cfg = Vec::<i64>::decode(bytes)?;
            let time_s = f64::decode(bytes)?;
            let energy_j = f64::decode(bytes)?;
            db.insert(cfg, Measurement { time_s, energy_j });
        }
        if !bytes.is_empty() {
            return None;
        }
        Some(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(t: f64, e: f64) -> Measurement {
        Measurement {
            time_s: t,
            energy_j: e,
        }
    }

    #[test]
    fn best_and_curve() {
        let mut h = History::new();
        h.record(vec![0], m(5.0, 50.0), 5.0);
        h.record(vec![1], m(3.0, 60.0), 3.0);
        h.record(vec![2], m(4.0, 40.0), 4.0);
        assert_eq!(h.best().unwrap().2, 3.0);
        assert_eq!(h.best_so_far_curve(), vec![5.0, 3.0, 3.0]);
        assert_eq!(h.convergence_point(0.0), Some(2));
    }

    #[test]
    fn empty_history() {
        let h = History::new();
        assert!(h.best().is_none());
        assert!(h.convergence_point(0.0).is_none());
        assert!(h.best_so_far_curve().is_empty());
    }

    #[test]
    fn database_reuse_across_objectives() {
        let mut db = ResultsDatabase::new();
        db.insert(vec![0], m(5.0, 10.0));
        db.insert(vec![1], m(1.0, 100.0));
        let (fast, _) = db.best_under(|m| m.time_s).unwrap();
        let (frugal, _) = db.best_under(|m| m.energy_j).unwrap();
        assert_eq!(fast, &vec![1]);
        assert_eq!(frugal, &vec![0]);
    }

    #[test]
    fn best_under_breaks_ties_in_sorted_order() {
        for _ in 0..64 {
            let mut db = ResultsDatabase::new();
            for cfg in [[3, 1], [0, 9], [2, 2], [0, 5], [7, 0], [1, 1]] {
                db.insert(cfg.to_vec(), m(1.0, 2.0));
            }
            assert_eq!(db.best_under(|m| m.time_s).unwrap().0, &vec![0, 5]);
        }
    }

    #[test]
    fn database_round_trips_and_saves_deterministically() {
        let mut db = ResultsDatabase::new();
        db.insert(vec![3, 1], m(5.0, 10.0));
        db.insert(vec![0, 2], m(f64::NAN, -0.0));
        let bytes = db.save();
        let back = ResultsDatabase::load(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        // NaN payload and signed-zero bits survive exactly.
        let reloaded = back.get(&vec![0, 2]).unwrap();
        assert_eq!(reloaded.time_s.to_bits(), f64::NAN.to_bits());
        assert_eq!(reloaded.energy_j.to_bits(), (-0.0f64).to_bits());
        // Equal databases serialize to equal bytes despite hash-map order.
        assert_eq!(back.save(), bytes);
        // Truncation and trailing garbage are detected, not panicked on.
        assert!(ResultsDatabase::load(&bytes[..bytes.len() - 1]).is_none());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(ResultsDatabase::load(&padded).is_none());
    }

    #[test]
    fn database_is_a_cache() {
        let mut db = ResultsDatabase::new();
        assert!(db.get(&vec![7]).is_none());
        db.insert(vec![7], m(1.0, 2.0));
        assert_eq!(db.get(&vec![7]).unwrap().time_s, 1.0);
        assert_eq!(db.len(), 1);
    }
}

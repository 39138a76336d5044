//! The AUC bandit meta-technique (OpenTuner's default ensemble driver).
//!
//! OpenTuner allocates trials among its techniques with a multi-armed bandit
//! whose exploitation term is the *area under the curve* of each technique's
//! recent successes: a technique earns credit when its proposal improves on
//! the best-so-far, with more recent successes weighted more heavily, over a
//! sliding history window. An exploration bonus `sqrt(2 ln t / n_i)` keeps
//! starved techniques alive.

use std::collections::VecDeque;

use rand::rngs::SmallRng;

use crate::param::{Configuration, SearchSpace};
use crate::technique::Technique;

/// Sliding-window AUC credit-assignment bandit over a technique portfolio.
pub struct AucBandit {
    techniques: Vec<Box<dyn Technique>>,
    /// Sliding window of (technique index, was-improvement) pairs.
    window: Vec<(usize, bool)>,
    window_len: usize,
    uses: Vec<u64>,
    total_uses: u64,
    exploration: f64,
    /// Technique indices of proposals whose results have not been reported
    /// yet, in proposal order. Batched asks enqueue several entries; each
    /// report pops the oldest, so credit lands on the right proposer even
    /// when a whole generation is in flight.
    pending: VecDeque<usize>,
    best: f64,
}

impl AucBandit {
    /// Build a bandit over `techniques` with OpenTuner's defaults
    /// (window of 100 trials, exploration weight `C = 0.05`).
    pub fn new(techniques: Vec<Box<dyn Technique>>) -> Self {
        assert!(
            !techniques.is_empty(),
            "bandit needs at least one technique"
        );
        let n = techniques.len();
        AucBandit {
            techniques,
            window: Vec::new(),
            window_len: 100,
            uses: vec![0; n],
            total_uses: 0,
            exploration: 0.05,
            pending: VecDeque::new(),
            best: f64::INFINITY,
        }
    }

    /// AUC score of technique `i`: recency-weighted fraction of window
    /// entries where the technique improved the best-so-far.
    fn auc(&self, i: usize) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for (age, &(t, improved)) in self.window.iter().rev().enumerate() {
            let weight = (self.window_len - age.min(self.window_len)) as f64;
            if t == i {
                den += weight;
                if improved {
                    num += weight;
                }
            }
        }
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }

    fn select(&self) -> usize {
        let t = (self.total_uses + 1) as f64;
        let mut best_i = 0;
        let mut best_score = f64::NEG_INFINITY;
        for i in 0..self.techniques.len() {
            let bonus = if self.uses[i] == 0 {
                f64::INFINITY // every technique gets tried at least once
            } else {
                self.exploration * (2.0 * t.ln() / self.uses[i] as f64).sqrt()
            };
            let score = self.auc(i) + bonus;
            if score > best_score {
                best_score = score;
                best_i = i;
            }
        }
        best_i
    }
}

impl Technique for AucBandit {
    fn name(&self) -> &str {
        "auc-bandit"
    }

    fn propose(&mut self, space: &SearchSpace, rng: &mut SmallRng) -> Configuration {
        let i = self.select();
        self.pending.push_back(i);
        self.uses[i] += 1;
        self.total_uses += 1;
        self.techniques[i].propose(space, rng)
    }

    fn report(&mut self, cfg: &Configuration, objective: f64) {
        let improved = objective < self.best;
        self.best = self.best.min(objective);
        if let Some(i) = self.pending.pop_front() {
            self.window.push((i, improved));
            if self.window.len() > self.window_len {
                self.window.remove(0);
            }
        }
        // Every technique learns from every result (OpenTuner shares the
        // results database among techniques).
        for t in &mut self.techniques {
            t.report(cfg, objective);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::IntegerParameter;
    use crate::technique::{GreedyMutation, RandomSearch};
    use rand::SeedableRng;

    fn space() -> SearchSpace {
        SearchSpace::new().with(IntegerParameter::new("x", 0, 100))
    }

    #[test]
    fn tries_every_technique_at_least_once() {
        let mut bandit = AucBandit::new(vec![
            Box::new(RandomSearch),
            Box::new(GreedyMutation::default()),
        ]);
        let s = space();
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..10 {
            let cfg = bandit.propose(&s, &mut rng);
            bandit.report(&cfg, cfg[0] as f64);
        }
        assert!(bandit.uses.iter().all(|&u| u > 0));
    }

    #[test]
    fn favors_the_productive_technique() {
        /// A technique that always proposes the optimum.
        struct Oracle;
        impl Technique for Oracle {
            fn name(&self) -> &str {
                "oracle"
            }
            fn propose(&mut self, _s: &SearchSpace, _r: &mut SmallRng) -> Configuration {
                vec![0]
            }
            fn report(&mut self, _c: &Configuration, _o: f64) {}
        }
        /// A technique that always proposes the worst point.
        struct Adversary;
        impl Technique for Adversary {
            fn name(&self) -> &str {
                "adversary"
            }
            fn propose(&mut self, _s: &SearchSpace, _r: &mut SmallRng) -> Configuration {
                vec![100]
            }
            fn report(&mut self, _c: &Configuration, _o: f64) {}
        }

        let mut bandit = AucBandit::new(vec![Box::new(Oracle), Box::new(Adversary)]);
        let s = space();
        let mut rng = SmallRng::seed_from_u64(0);
        for trial in 0..60 {
            let cfg = bandit.propose(&s, &mut rng);
            // Strictly decreasing objective for the oracle keeps "improved"
            // flowing; the adversary never improves.
            let o = cfg[0] as f64 - trial as f64 * 0.001;
            bandit.report(&cfg, o);
        }
        assert!(
            bandit.uses[0] > 2 * bandit.uses[1],
            "oracle {} vs adversary {}",
            bandit.uses[0],
            bandit.uses[1]
        );
    }

    #[test]
    #[should_panic(expected = "at least one technique")]
    fn empty_portfolio_rejected() {
        AucBandit::new(vec![]);
    }

    #[test]
    fn batched_proposals_attribute_in_fifo_order() {
        let mut bandit = AucBandit::new(vec![
            Box::new(RandomSearch),
            Box::new(GreedyMutation::default()),
        ]);
        let s = space();
        let mut rng = SmallRng::seed_from_u64(3);
        let batch = bandit.propose_batch(&s, &mut rng, 6);
        assert_eq!(batch.len(), 6);
        let order: Vec<usize> = bandit.pending.iter().copied().collect();
        assert_eq!(order.len(), 6);
        for cfg in &batch {
            bandit.report(cfg, cfg[0] as f64);
        }
        assert!(bandit.pending.is_empty());
        // Window entries carry the proposers in the same FIFO order.
        let attributed: Vec<usize> = bandit.window.iter().map(|&(t, _)| t).collect();
        assert_eq!(attributed, order);
    }

    #[test]
    fn proposals_are_legal() {
        let mut bandit = AucBandit::new(vec![
            Box::new(RandomSearch),
            Box::new(GreedyMutation::default()),
        ]);
        let s = space();
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..50 {
            let cfg = bandit.propose(&s, &mut rng);
            assert!(s.contains(&cfg));
            bandit.report(&cfg, cfg[0] as f64);
        }
    }
}

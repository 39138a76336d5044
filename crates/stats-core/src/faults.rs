//! Deterministic fault injection for the speculation runtime.
//!
//! A [`FaultPlan`] is a seeded description of *where* the runtime should
//! misbehave: which speculative groups lose their worker, which validations
//! are forced to mismatch, which groups run slow, and which queue intakes
//! stall. Every decision is a pure hash of `(plan seed, run seed, fault
//! kind, site, attempt)` — no clocks, no RNG state — so the same plan
//! replayed against the same run produces the *same* faults at the *same*
//! points. That determinism is what turns a chaos scenario into a
//! regression test: see `docs/robustness.md` for the full contract.
//!
//! Injection sites:
//!
//! - **Worker panic** ([`FaultPlan::worker_panic`]): the job of a
//!   speculative group dies before producing anything, on every linear
//!   driver. The job itself retries under
//!   [`RetryPolicy`](crate::RetryPolicy) and, once the budget is spent,
//!   runs the group anyway.
//! - **Forced validation mismatch** ([`FaultPlan::validation_mismatch`]):
//!   the resolver treats a speculative start state as mismatched even when
//!   it matched, driving re-execution and — with an unbounded rule — a
//!   full abort.
//! - **Slow group** ([`FaultPlan::slow_group`]): a speculative group's
//!   execution is delayed by [`FaultRule::delay`] before it starts.
//! - **Queue stall** ([`FaultPlan::queue_stall`]): the streaming
//!   coordinator sleeps before admitting a given input from the bounded
//!   queue.

use std::time::Duration;

/// The kind of fault injected at a site. Carried on
/// [`EventKind::FaultInjected`](crate::EventKind::FaultInjected) so traces
/// record exactly which faults fired where.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A speculative group's job dies before producing its group.
    WorkerPanic,
    /// A validation is forced to report a mismatch.
    ValidationMismatch,
    /// A speculative group's execution is delayed before it starts.
    SlowGroup,
    /// The streaming coordinator stalls before admitting an input.
    QueueStall,
}

impl FaultKind {
    /// Stable salt mixed into the site hash so the four kinds draw
    /// independent decisions from one plan seed.
    fn salt(self) -> u64 {
        match self {
            FaultKind::WorkerPanic => 0x9e37_79b9_7f4a_7c15,
            FaultKind::ValidationMismatch => 0xc2b2_ae3d_27d4_eb4f,
            FaultKind::SlowGroup => 0x1656_67b1_9e37_79f9,
            FaultKind::QueueStall => 0x2545_f491_4f6c_dd1d,
        }
    }

    /// Short stable label used in event rendering and smoke output.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::WorkerPanic => "worker-panic",
            FaultKind::ValidationMismatch => "validation-mismatch",
            FaultKind::SlowGroup => "slow-group",
            FaultKind::QueueStall => "queue-stall",
        }
    }
}

/// One injection rule: how often a site is targeted, and how persistently
/// the fault fires once it is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultRule {
    /// Probability in `[0, 1]` that an eligible site is targeted. The
    /// draw is a pure hash of the site coordinates, so the *same* sites
    /// are targeted on every replay.
    pub rate: f64,
    /// Number of successive attempts at a targeted site the fault fires
    /// on; attempts numbered `>= attempts` succeed. `u32::MAX` makes the
    /// fault permanent (e.g. a validation mismatch that survives every
    /// re-execution and forces an abort).
    pub attempts: u32,
    /// Injected delay, for the latency faults (slow group, queue stall).
    /// Ignored by the fail-stop kinds.
    pub delay: Duration,
}

impl Default for FaultRule {
    fn default() -> Self {
        FaultRule {
            rate: 0.0,
            attempts: 1,
            delay: Duration::ZERO,
        }
    }
}

impl FaultRule {
    /// A rule that never fires.
    pub fn off() -> Self {
        FaultRule::default()
    }

    /// A fail-stop rule targeting `rate` of sites, firing on the first
    /// attempt only (retries succeed).
    pub fn transient(rate: f64) -> Self {
        FaultRule {
            rate,
            attempts: 1,
            delay: Duration::ZERO,
        }
    }

    /// A fail-stop rule targeting `rate` of sites and firing on *every*
    /// attempt — retries and re-executions never clear it.
    pub fn permanent(rate: f64) -> Self {
        FaultRule {
            rate,
            attempts: u32::MAX,
            delay: Duration::ZERO,
        }
    }

    /// A latency rule delaying `rate` of sites by `delay`.
    pub fn slow(rate: f64, delay: Duration) -> Self {
        FaultRule {
            rate,
            attempts: u32::MAX,
            delay,
        }
    }
}

/// A seeded, deterministic plan of injected faults, threaded through
/// [`RunOptions::faults`](crate::RunOptions::faults).
///
/// The plan is inert by default ([`FaultPlan::new`] with all rules off);
/// enable individual kinds with the builder methods:
///
/// ```
/// use std::time::Duration;
/// use stats_core::prelude::*;
///
/// let plan = FaultPlan::new(7)
///     .validation_mismatch(FaultRule::transient(0.25))
///     .slow_group(FaultRule::slow(0.1, Duration::from_micros(50)));
/// let options = RunOptions::default().seed(42).faults(plan);
/// # let _ = options;
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed from which every injection decision is derived.
    pub seed: u64,
    /// Rule for killing the job of a speculative group (group 0 is never
    /// targeted), batch or streamed; recovered under
    /// [`RunOptions::retry`](crate::RunOptions::retry).
    pub worker_panic: FaultRule,
    /// Rule for forcing validation mismatches in the resolver.
    pub validation_mismatch: FaultRule,
    /// Rule for delaying group execution.
    pub slow_group: FaultRule,
    /// Rule for stalling the streaming coordinator's queue intake.
    pub queue_stall: FaultRule,
}

impl FaultPlan {
    /// An inert plan: all rules off. Enable kinds with the builders.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            worker_panic: FaultRule::off(),
            validation_mismatch: FaultRule::off(),
            slow_group: FaultRule::off(),
            queue_stall: FaultRule::off(),
        }
    }

    /// Set the worker-panic rule: while it fires for a speculative group's
    /// attempt, that attempt is lost and the group retried under
    /// [`RunOptions::retry`](crate::RunOptions::retry); past the budget
    /// the group runs regardless.
    pub fn worker_panic(mut self, rule: FaultRule) -> Self {
        self.worker_panic = rule;
        self
    }

    /// Set the forced-validation-mismatch rule.
    pub fn validation_mismatch(mut self, rule: FaultRule) -> Self {
        self.validation_mismatch = rule;
        self
    }

    /// Set the slow-group rule.
    pub fn slow_group(mut self, rule: FaultRule) -> Self {
        self.slow_group = rule;
        self
    }

    /// Set the queue-stall rule.
    pub fn queue_stall(mut self, rule: FaultRule) -> Self {
        self.queue_stall = rule;
        self
    }

    fn rule(&self, kind: FaultKind) -> &FaultRule {
        match kind {
            FaultKind::WorkerPanic => &self.worker_panic,
            FaultKind::ValidationMismatch => &self.validation_mismatch,
            FaultKind::SlowGroup => &self.slow_group,
            FaultKind::QueueStall => &self.queue_stall,
        }
    }

    /// Whether `kind` fires at `site` (a group or input index, depending
    /// on the kind) on the given `attempt`, under the run seeded by
    /// `run_seed`. Pure: same arguments ⇒ same answer, forever.
    pub fn fires(&self, kind: FaultKind, run_seed: u64, site: u64, attempt: u32) -> bool {
        let rule = self.rule(kind);
        if rule.rate <= 0.0 || attempt >= rule.attempts {
            return false;
        }
        hash01(self.seed ^ kind.salt(), run_seed, site) < rule.rate
    }

    /// The delay to inject for a latency `kind` at `site`, or `None` when
    /// the site is not targeted. Latency faults ignore attempts.
    pub fn delay(&self, kind: FaultKind, run_seed: u64, site: u64) -> Option<Duration> {
        let rule = self.rule(kind);
        if rule.rate <= 0.0 || rule.delay.is_zero() {
            return None;
        }
        (hash01(self.seed ^ kind.salt(), run_seed, site) < rule.rate).then_some(rule.delay)
    }
}

/// SplitMix64-style finalizer mapping `(seed, run_seed, site)` to a
/// uniform draw in `[0, 1)` — the same mixing discipline as
/// `InvocationCtx::derive_seed`, so fault decisions inherit the runtime's
/// determinism story.
fn hash01(seed: u64, run_seed: u64, site: u64) -> f64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(run_seed.wrapping_add(1)))
        .wrapping_add(0xbf58_476d_1ce4_e5b9_u64.wrapping_mul(site.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::new(1234)
            .worker_panic(FaultRule::transient(0.5))
            .validation_mismatch(FaultRule::permanent(0.5));
        for site in 0..256u64 {
            for attempt in 0..3 {
                let a = plan.fires(FaultKind::WorkerPanic, 9, site, attempt);
                let b = plan.fires(FaultKind::WorkerPanic, 9, site, attempt);
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn rate_bounds_are_respected() {
        let never = FaultPlan::new(7).worker_panic(FaultRule::transient(0.0));
        let always = FaultPlan::new(7).worker_panic(FaultRule::transient(1.0));
        for site in 0..512u64 {
            assert!(!never.fires(FaultKind::WorkerPanic, 3, site, 0));
            assert!(always.fires(FaultKind::WorkerPanic, 3, site, 0));
        }
    }

    #[test]
    fn observed_rate_tracks_requested_rate() {
        let plan = FaultPlan::new(99).validation_mismatch(FaultRule::permanent(0.3));
        let hits = (0..4096u64)
            .filter(|&s| plan.fires(FaultKind::ValidationMismatch, 11, s, 0))
            .count();
        let observed = hits as f64 / 4096.0;
        assert!(
            (observed - 0.3).abs() < 0.05,
            "observed rate {observed} far from requested 0.3"
        );
    }

    #[test]
    fn attempts_bound_transient_faults() {
        let plan = FaultPlan::new(5).worker_panic(FaultRule::transient(1.0));
        assert!(plan.fires(FaultKind::WorkerPanic, 0, 3, 0));
        assert!(!plan.fires(FaultKind::WorkerPanic, 0, 3, 1));
        let hard = FaultPlan::new(5).worker_panic(FaultRule::permanent(1.0));
        assert!(hard.fires(FaultKind::WorkerPanic, 0, 3, 1_000_000));
    }

    #[test]
    fn kinds_draw_independent_decisions() {
        let plan = FaultPlan::new(42)
            .worker_panic(FaultRule::transient(0.5))
            .validation_mismatch(FaultRule::transient(0.5));
        let differs = (0..256u64).any(|s| {
            plan.fires(FaultKind::WorkerPanic, 1, s, 0)
                != plan.fires(FaultKind::ValidationMismatch, 1, s, 0)
        });
        assert!(differs, "kind salts failed to decorrelate decisions");
    }

    #[test]
    fn run_seed_varies_targeting_across_segments() {
        let plan = FaultPlan::new(42).validation_mismatch(FaultRule::permanent(0.5));
        let differs = (0..64u64).any(|seg| {
            plan.fires(FaultKind::ValidationMismatch, seg, 1, 0)
                != plan.fires(FaultKind::ValidationMismatch, 0, 1, 0)
        });
        assert!(
            differs,
            "same group index must draw fresh decisions per run seed"
        );
    }

    #[test]
    fn delay_applies_only_to_targeted_sites() {
        let d = Duration::from_micros(100);
        let plan = FaultPlan::new(3).slow_group(FaultRule::slow(0.5, d));
        let mut hit = 0;
        for site in 0..256u64 {
            if let Some(got) = plan.delay(FaultKind::SlowGroup, 2, site) {
                assert_eq!(got, d);
                hit += 1;
            }
        }
        assert!(hit > 64 && hit < 192, "targeting wildly off: {hit}/256");
    }
}

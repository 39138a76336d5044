//! Adaptive degradation: retry budgets for lost work and a controller
//! that trades speculation depth against abort pressure.
//!
//! Two pieces live here:
//!
//! - [`RetryPolicy`]: how many times a group whose job lost its worker is
//!   retried, and with what backoff, before it runs regardless (the
//!   terminal fallback that always succeeds).
//! - [`AdaptiveController`]: a per-segment state machine driven by the
//!   abort/commit outcomes the [`EventSink`](crate::EventSink) stream also
//!   observes. Under abort storms it *shrinks* group cardinality (halving
//!   toward a floor), then falls back to *sequential* inline execution when
//!   speculation stops paying, then *re-probes* speculation at the minimum
//!   group size once a quiet period passes — recovering the full
//!   speculative configuration when probes commit cleanly.
//!
//! The controller's inputs are segment outcomes, which are themselves
//! deterministic functions of `(inputs, seed, fault plan)`, so the whole
//! degradation trajectory replays bit-identically. `docs/robustness.md`
//! draws the state machine.
//!
//! A third piece, the [`Retuner`] trait, is the hook for *online
//! re-tuning*: after each segment an installed retuner is handed the same
//! per-segment telemetry and may re-pick the execution-model operating
//! point (group cardinality, auxiliary window, re-execution budget) for
//! the rest of the run. `stats-autotune`'s `OnlineTuner` implements it
//! with the offline `Tuner`, warm-started from the cross-run
//! `ResultsDatabase`. `SegmentControl` composes the controller and the
//! retuner, once, for every linear run — batch or streamed
//! (`docs/tuning.md`).

use std::borrow::Cow;
use std::time::Duration;

use crate::obs::EventKind;
use crate::options::RunOptions;
use crate::protocol::{RunCtx, SpecConfig};
use crate::sdi::StateTransition;
use crate::sync::Mutex;

/// Retry-with-backoff budget for re-executing work lost to worker death.
///
/// After losing attempt `i` (zero-based), a group's job waits
/// `backoff * multiplier^i` before retrying. Once `max_retries` retries
/// have been consumed, it runs the group regardless.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries per lost group before it runs regardless.
    pub max_retries: u32,
    /// Base delay before the first retry.
    pub backoff: Duration,
    /// Exponential multiplier applied per successive retry.
    pub multiplier: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff: Duration::from_micros(200),
            multiplier: 2,
        }
    }
}

impl RetryPolicy {
    /// Delay before retry number `attempt` (zero-based):
    /// `backoff * multiplier^attempt`, saturating.
    pub fn delay_for(&self, attempt: u32) -> Duration {
        let factor = self
            .multiplier
            .max(1)
            .saturating_pow(attempt.min(16))
            .max(1);
        self.backoff.saturating_mul(factor)
    }
}

/// Where the adaptive controller currently sits on the degradation ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AdaptState {
    /// Full speculation at the configured group size.
    Speculative,
    /// Speculating with a reduced group size after abort pressure.
    Shrunk,
    /// Speculation disabled; segments run inline sequentially.
    Sequential,
    /// Probing: speculation re-enabled at the minimum group size after a
    /// quiet period, to test whether aborts have subsided.
    Probing,
}

impl AdaptState {
    /// Short stable label used in event rendering.
    pub fn label(self) -> &'static str {
        match self {
            AdaptState::Speculative => "speculative",
            AdaptState::Shrunk => "shrunk",
            AdaptState::Sequential => "sequential",
            AdaptState::Probing => "probing",
        }
    }
}

/// Tuning knobs for the [`AdaptiveController`] degradation ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptPolicy {
    /// Consecutive aborted segments before the group size is halved (or,
    /// already at the floor, before falling back to sequential).
    pub shrink_after: u32,
    /// Smallest group size the controller will speculate at.
    pub min_group_size: usize,
    /// Clean (commit-only) segments before the group size grows back
    /// toward the configured size.
    pub grow_after: u32,
    /// Sequential segments to wait before re-probing speculation.
    pub reprobe_after: u32,
}

impl Default for AdaptPolicy {
    fn default() -> Self {
        AdaptPolicy {
            shrink_after: 2,
            min_group_size: 2,
            grow_after: 2,
            reprobe_after: 2,
        }
    }
}

/// Per-segment degradation state machine: speculative → shrunk →
/// sequential → (re-probe) → speculative.
///
/// Drive it with one [`observe_segment`](AdaptiveController::observe_segment)
/// call per finished segment, and derive each segment's configuration with
/// [`apply`](AdaptiveController::apply). The controller is a plain value —
/// no clocks, no randomness — so identical outcome sequences produce
/// identical trajectories.
///
/// ```
/// use stats_core::prelude::*;
///
/// let base = SpecConfig { group_size: 8, ..SpecConfig::default() };
/// let mut ctl = AdaptiveController::new(AdaptPolicy::default(), &base);
/// assert_eq!(ctl.state(), AdaptState::Speculative);
/// // Two abort storms in a row: shrink.
/// ctl.observe_segment(true);
/// ctl.observe_segment(true);
/// assert_eq!(ctl.state(), AdaptState::Shrunk);
/// assert_eq!(ctl.apply(&base).group_size, 4);
/// ```
#[derive(Clone, Debug)]
pub struct AdaptiveController {
    policy: AdaptPolicy,
    state: AdaptState,
    /// Current speculative group size (meaningful outside `Sequential`).
    group_size: usize,
    /// Group size the controller grows back toward.
    base_group_size: usize,
    abort_streak: u32,
    clean_streak: u32,
    quiet: u32,
}

impl AdaptiveController {
    /// A controller starting fully speculative at `base.group_size`.
    pub fn new(policy: AdaptPolicy, base: &SpecConfig) -> Self {
        let base_gs = base.group_size.max(1);
        AdaptiveController {
            policy: AdaptPolicy {
                shrink_after: policy.shrink_after.max(1),
                min_group_size: policy.min_group_size.clamp(1, base_gs),
                grow_after: policy.grow_after.max(1),
                reprobe_after: policy.reprobe_after.max(1),
            },
            state: if base.speculate {
                AdaptState::Speculative
            } else {
                AdaptState::Sequential
            },
            group_size: base_gs,
            base_group_size: base_gs,
            abort_streak: 0,
            clean_streak: 0,
            quiet: 0,
        }
    }

    /// Current position on the degradation ladder.
    pub fn state(&self) -> AdaptState {
        self.state
    }

    /// The group size the controller would speculate with right now.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// The configuration to run the next segment with: `base` with
    /// speculation disabled in `Sequential`, or with the controller's
    /// current group size otherwise.
    pub fn apply(&self, base: &SpecConfig) -> SpecConfig {
        match self.state {
            AdaptState::Sequential => SpecConfig {
                speculate: false,
                ..base.clone()
            },
            _ => SpecConfig {
                group_size: self.group_size,
                ..base.clone()
            },
        }
    }

    /// Feed the outcome of one finished segment (`aborted` = speculation
    /// was squashed and the tail ran sequentially). Returns the new
    /// `(state, group_size)` when the observation caused a transition.
    pub fn observe_segment(&mut self, aborted: bool) -> Option<(AdaptState, usize)> {
        let before = (self.state, self.group_size);
        match self.state {
            AdaptState::Speculative | AdaptState::Shrunk => {
                if aborted {
                    self.clean_streak = 0;
                    self.abort_streak += 1;
                    if self.abort_streak >= self.policy.shrink_after {
                        self.abort_streak = 0;
                        if self.group_size > self.policy.min_group_size {
                            self.group_size = (self.group_size / 2).max(self.policy.min_group_size);
                            self.state = AdaptState::Shrunk;
                        } else {
                            self.state = AdaptState::Sequential;
                            self.quiet = 0;
                        }
                    }
                } else {
                    self.abort_streak = 0;
                    if self.state == AdaptState::Shrunk {
                        self.clean_streak += 1;
                        if self.clean_streak >= self.policy.grow_after {
                            self.clean_streak = 0;
                            self.group_size = (self.group_size * 2).min(self.base_group_size);
                            if self.group_size == self.base_group_size {
                                self.state = AdaptState::Speculative;
                            }
                        }
                    }
                }
            }
            AdaptState::Sequential => {
                // Sequential segments cannot abort; count them as quiet time.
                self.quiet += 1;
                if self.quiet >= self.policy.reprobe_after {
                    self.quiet = 0;
                    self.group_size = self.policy.min_group_size;
                    self.state = AdaptState::Probing;
                }
            }
            AdaptState::Probing => {
                if aborted {
                    self.state = AdaptState::Sequential;
                    self.quiet = 0;
                } else {
                    self.state = AdaptState::Shrunk;
                    self.clean_streak = 1;
                    self.abort_streak = 0;
                }
            }
        }
        let after = (self.state, self.group_size);
        (after != before).then_some(after)
    }
}

/// Telemetry for one finished segment of a linear run, batch or streamed:
/// the one argument of [`Retuner::decide`], called before the next segment
/// starts.
///
/// Every field is a deterministic function of `(inputs, seed, fault plan,
/// configuration)` — no clocks — so a retuner driven only by these values
/// re-tunes identically on a replay of the same run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SegmentStats {
    /// Zero-based index of the finished segment.
    pub segment: u64,
    /// Inputs the segment processed.
    pub inputs: usize,
    /// Whether the segment aborted speculation and ran its tail
    /// sequentially.
    pub aborted: bool,
    /// Re-executions of original producers the segment needed.
    pub reexecutions: usize,
    /// State comparisons the segment performed.
    pub validations: usize,
    /// Work units of committed original-code invocations.
    pub committed_original_work: f64,
    /// Work units of committed auxiliary code.
    pub committed_aux_work: f64,
    /// Work units squashed (aborted groups, failed re-executions).
    pub squashed_work: f64,
    /// Speculation group cardinality the segment ran with.
    pub group_size: usize,
    /// Auxiliary window the segment ran with.
    pub window: usize,
    /// Re-execution budget the segment ran with.
    pub max_reexec: usize,
}

/// A re-picked execution-model operating point, applied from the segment
/// after the one [`Retuner::decide`] was handed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TuneDecision {
    /// New speculation group cardinality (clamped to `>= 1` on apply).
    pub group_size: usize,
    /// New auxiliary window.
    pub window: usize,
    /// New re-execution budget.
    pub max_reexec: usize,
}

/// Online re-tuning hook, installed via
/// [`RunOptions::retune`](crate::RunOptions::retune).
///
/// Every linear run, batch or streamed, calls [`decide`](Retuner::decide)
/// once per finished segment; a `Some` decision rewrites the base
/// configuration's group cardinality, auxiliary window, and re-execution
/// budget from segment `done.segment + 1` on (the degradation ladder, when
/// also enabled, restarts from the new base — see `docs/tuning.md`). Each
/// applied decision is emitted as
/// [`EventKind::Retune`](crate::EventKind::Retune), which is what makes
/// tuned runs replayable without the tuner (`docs/replay.md`).
///
/// Implementations must be deterministic in their observations: decisions
/// may depend on prior [`SegmentStats`], internal seeds, and state captured
/// at construction (e.g. a warm-start database snapshot), but not on clocks
/// or ambient randomness.
pub trait Retuner: Send {
    /// Digest the telemetry of the finished segment `done`, and re-pick the
    /// operating point for the segments after it, or return `None` to keep
    /// the current one.
    fn decide(&mut self, done: &SegmentStats) -> Option<TuneDecision>;
}

/// The operating point of each segment of one linear run, and the one
/// place it moves: the [`AdaptiveController`] degrades the base
/// configuration on abort pressure, the [`Retuner`] re-bases it, and a
/// re-tune restarts the ladder from the new base. Both are clock-free, and
/// every move is emitted, so a replay repeats it without the tuner.
///
/// Control is segment-granular because the resolver assumes one group
/// cardinality per run. The segment length is fixed when the run starts,
/// so segment boundaries — and with them per-segment seeds and fault
/// sites — never depend on a decision.
pub(crate) struct SegmentControl<'a> {
    base: Cow<'a, SpecConfig>,
    /// The degradation ladder and the policy it restarts from.
    ladder: Option<(AdaptPolicy, AdaptiveController)>,
    retuner: Option<&'a Mutex<dyn Retuner>>,
    /// Inputs per segment; `usize::MAX` makes the whole run one segment.
    pub(crate) segment: usize,
}

impl<'a> SegmentControl<'a> {
    /// `config` for the whole run, as one segment.
    pub(crate) fn fixed(config: &'a SpecConfig) -> Self {
        SegmentControl {
            base: Cow::Borrowed(config),
            ladder: None,
            retuner: None,
            segment: usize::MAX,
        }
    }

    /// The segmenting and controllers `options` ask for.
    pub(crate) fn new(options: &'a RunOptions) -> Self {
        let base = &options.config;
        let controlled = options.adapt.is_some() || options.retune.is_some();
        SegmentControl {
            ladder: options
                .adapt
                .map(|policy| (policy, AdaptiveController::new(policy, base))),
            retuner: options.retune.as_deref(),
            segment: match options.segment {
                Some(segment) => segment.max(1),
                None if controlled => base.group_size.max(1).saturating_mul(4),
                None => usize::MAX,
            },
            ..Self::fixed(base)
        }
    }

    /// The configuration the next segment runs at: the base, on the
    /// ladder's current rung.
    pub(crate) fn config(&self) -> Cow<'a, SpecConfig> {
        match &self.ladder {
            Some((_, ladder)) => Cow::Owned(ladder.apply(&self.base)),
            None => self.base.clone(),
        }
    }

    /// Digest the telemetry `done` of a segment, which ran under `seg`.
    pub(crate) fn observe<T: StateTransition>(&mut self, seg: RunCtx<'_, T>, done: &SegmentStats) {
        if let Some((_, ladder)) = &mut self.ladder {
            if let Some((state, group_size)) = ladder.observe_segment(done.aborted) {
                seg.emit(EventKind::AdaptTransition { state, group_size });
            }
        }
        let Some(retuner) = self.retuner else { return };
        let Some(d) = retuner.lock().decide(done) else {
            return;
        };
        let base = SpecConfig {
            group_size: d.group_size.max(1),
            window: d.window,
            max_reexec: d.max_reexec,
            ..SpecConfig::clone(&self.base)
        };
        // The ladder's shrink/grow targets are relative to the base group
        // size, which just moved.
        if let Some((policy, ladder)) = &mut self.ladder {
            *ladder = AdaptiveController::new(*policy, &base);
        }
        seg.emit(EventKind::Retune {
            segment: done.segment + 1,
            group_size: base.group_size,
            window: base.window,
            max_reexec: base.max_reexec,
        });
        self.base = Cow::Owned(base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(gs: usize) -> SpecConfig {
        SpecConfig {
            group_size: gs,
            ..SpecConfig::default()
        }
    }

    fn policy() -> AdaptPolicy {
        AdaptPolicy {
            shrink_after: 2,
            min_group_size: 2,
            grow_after: 2,
            reprobe_after: 2,
        }
    }

    #[test]
    fn backoff_grows_exponentially_and_saturates() {
        let r = RetryPolicy {
            max_retries: 3,
            backoff: Duration::from_micros(100),
            multiplier: 2,
        };
        assert_eq!(r.delay_for(0), Duration::from_micros(100));
        assert_eq!(r.delay_for(1), Duration::from_micros(200));
        assert_eq!(r.delay_for(2), Duration::from_micros(400));
        // Saturates rather than overflowing at absurd attempts.
        let _ = r.delay_for(u32::MAX);
    }

    #[test]
    fn abort_storm_walks_the_full_ladder() {
        let mut ctl = AdaptiveController::new(policy(), &base(8));
        assert_eq!(ctl.state(), AdaptState::Speculative);
        // 8 -> 4
        ctl.observe_segment(true);
        let t = ctl.observe_segment(true);
        assert_eq!(t, Some((AdaptState::Shrunk, 4)));
        // 4 -> 2 (floor)
        ctl.observe_segment(true);
        ctl.observe_segment(true);
        assert_eq!((ctl.state(), ctl.group_size()), (AdaptState::Shrunk, 2));
        // at the floor, the next storm drops to sequential
        ctl.observe_segment(true);
        let t = ctl.observe_segment(true);
        assert_eq!(t, Some((AdaptState::Sequential, 2)));
        // quiet time re-probes at the floor
        ctl.observe_segment(false);
        let t = ctl.observe_segment(false);
        assert_eq!(t, Some((AdaptState::Probing, 2)));
        // a clean probe starts growing back
        ctl.observe_segment(false);
        assert_eq!(ctl.state(), AdaptState::Shrunk);
        // one more clean segment completes grow_after=2 and doubles
        ctl.observe_segment(false);
        assert_eq!((ctl.state(), ctl.group_size()), (AdaptState::Shrunk, 4));
        ctl.observe_segment(false);
        let t = ctl.observe_segment(false);
        assert_eq!(t, Some((AdaptState::Speculative, 8)));
    }

    #[test]
    fn isolated_aborts_do_not_shrink() {
        let mut ctl = AdaptiveController::new(policy(), &base(8));
        for _ in 0..16 {
            assert_eq!(ctl.observe_segment(true), None);
            assert_eq!(ctl.observe_segment(false), None);
        }
        assert_eq!(ctl.state(), AdaptState::Speculative);
        assert_eq!(ctl.group_size(), 8);
    }

    #[test]
    fn failed_probe_returns_to_sequential() {
        let mut ctl = AdaptiveController::new(policy(), &base(4));
        for _ in 0..4 {
            ctl.observe_segment(true);
        }
        assert_eq!(ctl.state(), AdaptState::Sequential);
        ctl.observe_segment(false);
        ctl.observe_segment(false);
        assert_eq!(ctl.state(), AdaptState::Probing);
        let t = ctl.observe_segment(true);
        assert_eq!(t, Some((AdaptState::Sequential, 2)));
    }

    #[test]
    fn apply_disables_speculation_only_in_sequential() {
        let b = base(8);
        let mut ctl = AdaptiveController::new(policy(), &b);
        assert!(ctl.apply(&b).speculate);
        assert_eq!(ctl.apply(&b).group_size, 8);
        // Six consecutive aborts: 8 -> 4 -> 2 (floor) -> sequential.
        for _ in 0..6 {
            ctl.observe_segment(true);
        }
        assert_eq!(ctl.state(), AdaptState::Sequential);
        assert!(!ctl.apply(&b).speculate);
    }

    #[test]
    fn min_group_size_is_clamped_to_base() {
        let ctl = AdaptiveController::new(
            AdaptPolicy {
                min_group_size: 64,
                ..policy()
            },
            &base(8),
        );
        // Floor can't exceed the base group size.
        let mut ctl2 = ctl.clone();
        ctl2.observe_segment(true);
        ctl2.observe_segment(true);
        assert_eq!(ctl2.state(), AdaptState::Sequential);
    }
}

//! The unified configuration surface for every protocol entry point.
//!
//! One [`RunOptions`] value — the shared [`ThreadPool`], the [`EventSink`],
//! the run seed, the tuned [`SpecConfig`], segmenting and its controllers —
//! drives the one-shot [`StateDependence`](crate::StateDependence), the
//! sequential reference
//! [`run_protocol_with_options`](crate::run_protocol_with_options), and the
//! streaming [`Session`](crate::Session) alike.

use std::sync::Arc;

use crate::adapt::{AdaptPolicy, RetryPolicy, Retuner};
use crate::faults::FaultPlan;
use crate::obs::{EventSink, NoopSink};
use crate::plan::SpecPlan;
use crate::pool::ThreadPool;
use crate::protocol::SpecConfig;
use crate::sync::Mutex;

/// Options shared by every way of executing the STATS protocol.
///
/// Built with chained setters:
///
/// ```
/// use stats_core::{RunOptions, SpecConfig};
///
/// let options = RunOptions::default()
///     .config(SpecConfig { group_size: 4, ..SpecConfig::default() })
///     .seed(42)
///     .segment(128);
/// assert_eq!(options.seed, 42);
/// ```
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`RunOptions::default()`] plus setters (new execution-model knobs are
/// added as new fields without breaking downstream builds — the stability
/// contract in `docs/streaming.md`).
#[derive(Clone)]
#[non_exhaustive]
pub struct RunOptions {
    /// Thread pool shared with other state dependences. `None` means the
    /// consumer creates a private pool sized to the machine's available
    /// parallelism (sequential entry points ignore the pool entirely).
    pub pool: Option<Arc<ThreadPool>>,
    /// Observability sink receiving every protocol milestone. Defaults to
    /// the zero-cost [`NoopSink`].
    pub sink: Arc<dyn EventSink>,
    /// Run seed from which every invocation's PRVG stream derives.
    pub seed: u64,
    /// The execution-model configuration (group size, window, budgets).
    pub config: SpecConfig,
    /// When set, process inputs in consecutive segments of this many inputs,
    /// carrying committed state across segments — an abort disables
    /// speculation only for the rest of its own segment. Unset, a run with
    /// [`adapt`](Self::adapt) or [`retune`](Self::retune) uses segments of
    /// four groups.
    pub segment: Option<usize>,
    /// When set, execute the inputs as a dependency DAG of segments (see
    /// [`SpecPlan`] and `docs/dag.md`). Takes precedence over [`segment`]
    /// (the plan's node boundaries *are* the segmentation), so [`adapt`]
    /// and [`retune`] do not apply. Batch-only: [`Session`](crate::Session)
    /// streams a linear input sequence and panics if a plan is set.
    ///
    /// [`segment`]: RunOptions::segment
    /// [`adapt`]: RunOptions::adapt
    /// [`retune`]: RunOptions::retune
    pub plan: Option<SpecPlan>,
    /// Bound of the [`Session`](crate::Session) input queue: a producer
    /// pushing into a full queue blocks until the engine drains it.
    pub queue_capacity: usize,
    /// How many speculation groups a [`Session`](crate::Session) may have
    /// in flight beyond the resolved prefix. `0` (the default) sizes the
    /// window to the pool's worker count plus two.
    pub max_inflight_groups: usize,
    /// Deterministic fault-injection plan. `None` (the default) injects
    /// nothing; see [`FaultPlan`] and `docs/robustness.md`.
    pub faults: Option<FaultPlan>,
    /// Adaptive-degradation policy for every linear run, batch or streamed:
    /// shrink group cardinality under abort storms, fall back to sequential
    /// execution, re-probe once aborts subside. `None` (the default) keeps
    /// the configured [`SpecConfig`] fixed for the whole run.
    pub adapt: Option<AdaptPolicy>,
    /// Online re-tuning hook for every linear run, batch or streamed:
    /// after each segment the run hands its [`SegmentStats`](crate::SegmentStats)
    /// to [`Retuner::decide`], which may re-pick group cardinality,
    /// auxiliary window, and re-execution budget for the rest of the run
    /// (`docs/tuning.md`). `None` (the default) keeps the configured
    /// operating point. Shared behind a mutex so the caller can keep a
    /// handle (e.g. to persist a results database after the run); only the
    /// run's coordinator locks it, once per segment.
    pub retune: Option<Arc<Mutex<dyn Retuner>>>,
    /// Retry-with-backoff budget for speculative groups whose job lost its
    /// worker ([`FaultKind::WorkerPanic`](crate::FaultKind::WorkerPanic)),
    /// on every linear run, batch or streamed: the group's job retries
    /// itself, then runs the group regardless once the budget is spent.
    pub retry: RetryPolicy,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            pool: None,
            sink: Arc::new(NoopSink),
            seed: 0,
            config: SpecConfig::default(),
            segment: None,
            plan: None,
            queue_capacity: 1024,
            max_inflight_groups: 0,
            faults: None,
            adapt: None,
            retune: None,
            retry: RetryPolicy::default(),
        }
    }
}

impl RunOptions {
    /// Share an existing thread pool instead of creating a private one.
    pub fn pool(mut self, pool: Arc<ThreadPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Install an observability sink.
    pub fn sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Set the run seed controlling every PRVG stream.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the execution-model configuration.
    pub fn config(mut self, config: SpecConfig) -> Self {
        self.config = config;
        self
    }

    /// Process inputs in segments of `segment` inputs (clamped to >= 1).
    pub fn segment(mut self, segment: usize) -> Self {
        self.segment = Some(segment.max(1));
        self
    }

    /// Execute the inputs as a dependency DAG of segments described by
    /// `plan` (`docs/dag.md`). The run's input count must equal
    /// [`SpecPlan::total_inputs`]; in plan mode the [`FaultPlan`] targets
    /// plan-node cut-set validations (site = node id) and node-internal
    /// runs are fault-free.
    pub fn plan(mut self, plan: SpecPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Bound the streaming input queue (clamped to >= 1).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Cap how many groups a stream keeps in flight past the resolved
    /// prefix (`0` = auto: pool workers + 2).
    pub fn max_inflight_groups(mut self, groups: usize) -> Self {
        self.max_inflight_groups = groups;
        self
    }

    /// Inject faults according to a seeded deterministic [`FaultPlan`].
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Enable the adaptive-degradation controller with the given policy.
    pub fn adapt(mut self, policy: AdaptPolicy) -> Self {
        self.adapt = Some(policy);
        self
    }

    /// Install an online [`Retuner`] re-picking the execution-model
    /// operating point between segments.
    pub fn retune(self, retuner: impl Retuner + 'static) -> Self {
        self.retune_shared(Arc::new(Mutex::new(retuner)))
    }

    /// Install a shared online [`Retuner`], keeping a handle on the
    /// caller's side (e.g. to persist its results database after the run).
    pub fn retune_shared(mut self, retuner: Arc<Mutex<dyn Retuner>>) -> Self {
        self.retune = Some(retuner);
        self
    }

    /// Set the retry budget for groups lost to worker death.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_legacy_entry_points() {
        let o = RunOptions::default();
        assert!(o.pool.is_none());
        assert_eq!(o.seed, 0);
        assert!(o.segment.is_none());
        assert!(o.plan.is_none());
        assert!(!o.sink.enabled());
        assert_eq!(o.config.group_size, SpecConfig::default().group_size);
        assert!(o.faults.is_none());
        assert!(o.adapt.is_none());
        assert!(o.retune.is_none());
        assert_eq!(o.retry, RetryPolicy::default());
    }

    #[test]
    fn setters_clamp_degenerate_values() {
        let o = RunOptions::default().segment(0).queue_capacity(0);
        assert_eq!(o.segment, Some(1));
        assert_eq!(o.queue_capacity, 1);
    }
}

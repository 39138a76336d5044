//! Runtime observability: typed events with wall-clock stamps.
//!
//! The execution model already records *what* ran as a [`SpecTrace`] (a task
//! graph with work costs and dependence edges); this module adds the
//! orthogonal runtime view — *when* things happened on real threads.
//! `stats_profiler::SimulatedRun` draws both: the trace as its simulated
//! schedule, the events as wall-clock rows.
//!
//! - [`EventKind`]/[`Event`]: typed protocol events (group start/commit/
//!   abort, validation, re-execution, sequential-tail entry) with wall-clock
//!   timestamps and thread tags;
//! - [`EventSink`]: where the protocol emits events. The default
//!   [`NoopSink`] compiles to a virtual `enabled()` check per site and
//!   nothing else, so instrumentation costs nothing unless a recording sink
//!   is installed (what recording then costs is `stats-benchmark`'s
//!   `obs.recording_delta_ns_per_input`);
//! - [`RecordingSink`]: an in-memory sink stamping events with microsecond
//!   wall-clock offsets and a per-thread tag — usable concurrently from
//!   pool workers;
//! - [`validate_backward_deps`]: the structural invariant every exported
//!   trace must satisfy (dependence edges point strictly backward).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use crate::sync::Mutex;

use crate::adapt::AdaptState;
use crate::faults::FaultKind;
use crate::protocol::SpecTrace;

/// What happened, with enough coordinates to reconstruct the run story.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A protocol run began (`run_protocol*` or the pooled runtime).
    RunStart {
        /// Number of inputs in the run.
        inputs: usize,
        /// Number of groups the inputs were split into.
        groups: usize,
    },
    /// The protocol run finished (outputs committed, accounting done).
    RunEnd,
    /// A group's execution (auxiliary code + chained invocations) began.
    GroupStart {
        /// Group index.
        group: usize,
        /// First absolute input index of the group.
        start: usize,
        /// One past the last absolute input index.
        end: usize,
        /// Whether the group starts from an auxiliary speculative state.
        speculative: bool,
    },
    /// A group's execution finished (validation happens later, in order).
    GroupEnd {
        /// Group index.
        group: usize,
    },
    /// One state comparison (`does_spec_state_match_any`).
    Validation {
        /// The speculative group being validated.
        group: usize,
        /// Comparison attempt (0 = against the first original state).
        attempt: usize,
        /// Whether the speculative state matched.
        matched: bool,
    },
    /// The previous group's tail is being re-executed after a mismatch.
    Reexecution {
        /// The group being re-executed (the *previous* group).
        group: usize,
        /// Re-execution attempt number (1-based).
        attempt: usize,
    },
    /// A speculative group's outputs were committed.
    GroupCommit {
        /// Group index.
        group: usize,
        /// Re-executions of the previous group that were needed.
        reexecutions: usize,
    },
    /// A speculative group aborted (re-execution budget exhausted).
    GroupAbort {
        /// Group index.
        group: usize,
    },
    /// The post-abort sequential tail began processing remaining inputs.
    SequentialTailStart {
        /// First absolute input index processed sequentially.
        index: usize,
    },
    /// The sequential tail finished.
    SequentialTailEnd,
    /// An injected fault from the run's [`FaultPlan`](crate::FaultPlan)
    /// fired. `site` is a group index (worker panic, forced mismatch, slow
    /// group) or an absolute input index (queue stall).
    FaultInjected {
        /// Which fault kind fired.
        kind: FaultKind,
        /// The targeted group or input index.
        site: usize,
        /// The attempt the fault fired on (dispatch or validation attempt).
        attempt: usize,
    },
    /// A group's job is retrying the group after losing its worker, under
    /// the run's [`RetryPolicy`](crate::RetryPolicy).
    GroupRetry {
        /// The group being retried.
        group: usize,
        /// Retry attempt number (1-based; `0` was the first attempt).
        attempt: usize,
    },
    /// A linear run's adaptive controller moved on the degradation ladder
    /// (see `docs/robustness.md`).
    AdaptTransition {
        /// The state entered.
        state: AdaptState,
        /// The speculative group size in effect after the transition.
        group_size: usize,
    },
    /// An online [`Retuner`](crate::Retuner) re-picked the execution-model
    /// operating point between two segments of a linear run (see
    /// `docs/tuning.md`). Recorded in session logs so tuned runs
    /// replay deterministically without the tuner (`docs/replay.md`).
    Retune {
        /// First segment the new operating point applies to.
        segment: u64,
        /// Re-picked speculation group cardinality.
        group_size: usize,
        /// Re-picked auxiliary window.
        window: usize,
        /// Re-picked re-execution budget.
        max_reexec: usize,
    },
    /// A [`SessionServer`](crate::serve::SessionServer) tenant's session
    /// pulled inputs from its spill queue (one event per refill that moved
    /// at least one input; a refill runs each time the session queue has
    /// drained to half; see `docs/serving.md`).
    TenantAdmission {
        /// Dense per-server tenant index.
        tenant: usize,
        /// Inputs moved into the tenant's session by this refill.
        admitted: usize,
    },
    /// A tenant's spill queue overflowed its in-memory bound and wrote a
    /// FIFO segment to disk.
    SpillWrite {
        /// Dense per-server tenant index.
        tenant: usize,
        /// Monotonic per-tenant segment number.
        segment: u64,
        /// Inputs serialized into the segment.
        inputs: usize,
    },
    /// A spilled segment was read back (in FIFO order) to refill a
    /// tenant's in-memory queue.
    SpillReplay {
        /// Dense per-server tenant index.
        tenant: usize,
        /// The segment number being replayed.
        segment: u64,
        /// Inputs deserialized from the segment.
        inputs: usize,
    },
    /// A plan node's cut-set validation ran: its speculative start state
    /// was compared against the merged committed finals of its parents
    /// (see `docs/dag.md`).
    NodeValidation {
        /// The plan node validated.
        node: usize,
        /// Whether the speculative start state matched the merge.
        matched: bool,
    },
    /// A plan node's cut-set validation matched: its eager speculative run
    /// committed as-is.
    NodeCommit {
        /// The committed plan node.
        node: usize,
    },
    /// A plan node's cut-set validation mismatched: its eager run is
    /// squashed, it re-executes from the real merged state, and its
    /// downstream cone is squashed by rule.
    NodeAbort {
        /// The aborted plan node.
        node: usize,
    },
    /// A plan node inside an aborted ancestor's downstream cone was
    /// squashed without validation (the cut-set rollback rule).
    ConeSquash {
        /// The squashed plan node.
        node: usize,
        /// The aborted ancestor whose cone swallowed it.
        root: usize,
    },
}

impl EventKind {
    /// Display label (also the Chrome trace event name).
    pub fn label(&self) -> String {
        match self {
            EventKind::RunStart { .. } | EventKind::RunEnd => "run".to_string(),
            EventKind::GroupStart { group, .. } | EventKind::GroupEnd { group } => {
                format!("group {group}")
            }
            EventKind::Validation {
                group,
                attempt,
                matched,
            } => format!(
                "validate g{group} a{attempt}: {}",
                if *matched { "match" } else { "mismatch" }
            ),
            EventKind::Reexecution { group, attempt } => format!("reexec g{group} a{attempt}"),
            EventKind::GroupCommit {
                group,
                reexecutions,
            } => format!("commit g{group} (+{reexecutions} reexec)"),
            EventKind::GroupAbort { group } => format!("abort g{group}"),
            EventKind::SequentialTailStart { .. } | EventKind::SequentialTailEnd => {
                "sequential tail".to_string()
            }
            EventKind::FaultInjected {
                kind,
                site,
                attempt,
            } => format!("fault {} @{site} a{attempt}", kind.label()),
            EventKind::GroupRetry { group, attempt } => format!("retry g{group} a{attempt}"),
            EventKind::AdaptTransition { state, group_size } => {
                format!("adapt {} g{group_size}", state.label())
            }
            EventKind::Retune {
                segment,
                group_size,
                window,
                max_reexec,
            } => format!("retune s{segment} g{group_size} w{window} r{max_reexec}"),
            EventKind::TenantAdmission { tenant, admitted } => {
                format!("admit t{tenant} +{admitted}")
            }
            EventKind::SpillWrite {
                tenant,
                segment,
                inputs,
            } => format!("spill t{tenant} seg{segment} ({inputs} inputs)"),
            EventKind::SpillReplay {
                tenant,
                segment,
                inputs,
            } => format!("replay t{tenant} seg{segment} ({inputs} inputs)"),
            EventKind::NodeValidation { node, matched } => format!(
                "plan-validate n{node}: {}",
                if *matched { "match" } else { "mismatch" }
            ),
            EventKind::NodeCommit { node } => format!("plan-commit n{node}"),
            EventKind::NodeAbort { node } => format!("plan-abort n{node}"),
            EventKind::ConeSquash { node, root } => {
                format!("cone-squash n{node} (root n{root})")
            }
        }
    }
}

/// One recorded event: kind, wall-clock offset from the sink's epoch, and a
/// stable tag for the emitting OS thread.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Wall-clock offset from the sink's creation.
    pub at: Duration,
    /// Hash of the emitting thread's id (stable within a process run).
    pub thread: u64,
}

/// Where the protocol emits events.
///
/// Implementations must be callable from multiple threads: the pooled
/// runtime emits group events from worker threads. The default methods make
/// any implementation a no-op until overridden.
pub trait EventSink: Send + Sync {
    /// Whether emission sites should bother constructing events. The
    /// protocol checks this before every emit, so a `false` sink costs one
    /// virtual call per *event site* (per group / validation, never per
    /// invocation).
    fn enabled(&self) -> bool {
        false
    }

    /// Record one event. Called only when [`EventSink::enabled`] is true.
    fn emit(&self, kind: EventKind) {
        let _ = kind;
    }
}

/// The zero-cost default sink: disabled, records nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl EventSink for NoopSink {}

/// A shared no-op instance for call sites that need a `&dyn EventSink`.
pub static NOOP: NoopSink = NoopSink;

/// An in-memory sink stamping each event with the wall-clock offset from
/// the sink's creation and the emitting thread's tag.
#[derive(Debug)]
pub struct RecordingSink {
    epoch: Instant,
    events: Mutex<Vec<Event>>,
}

impl RecordingSink {
    /// Create an empty sink; its epoch (timestamp zero) is now.
    pub fn new() -> Self {
        RecordingSink {
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Snapshot the events recorded so far, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().clone()
    }

    /// Drain the recorded events, leaving the sink empty (epoch unchanged).
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.lock())
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }
}

impl Default for RecordingSink {
    fn default() -> Self {
        Self::new()
    }
}

impl EventSink for RecordingSink {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&self, kind: EventKind) {
        let at = self.epoch.elapsed();
        let mut h = DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        let thread = h.finish();
        self.events.lock().push(Event { kind, at, thread });
    }
}

/// Check that every dependence edge points strictly backward (each node
/// depends only on earlier nodes) — the invariant that makes a trace
/// replayable and its exports well-formed.
pub fn validate_backward_deps(trace: &SpecTrace) -> Result<(), String> {
    for (i, node) in trace.nodes.iter().enumerate() {
        for &d in trace.deps(i) {
            if d >= i {
                return Err(format!(
                    "node {i} ({:?}) depends on non-earlier node {d}",
                    node.kind
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn noop_sink_is_disabled() {
        assert!(!NoopSink.enabled());
        NoopSink.emit(EventKind::RunEnd); // must be a no-op, not a panic
    }

    #[test]
    fn recording_sink_stamps_events() {
        let sink = RecordingSink::new();
        assert!(sink.is_empty());
        sink.emit(EventKind::RunStart {
            inputs: 8,
            groups: 2,
        });
        sink.emit(EventKind::RunEnd);
        let evs = sink.events();
        assert_eq!(evs.len(), 2);
        assert!(evs[0].at <= evs[1].at);
        assert_eq!(evs[0].thread, evs[1].thread);
        assert_eq!(sink.take().len(), 2);
        assert!(sink.is_empty());
    }

    #[test]
    fn recording_sink_is_thread_safe() {
        let sink = Arc::new(RecordingSink::new());
        let handles: Vec<_> = (0..4)
            .map(|g| {
                let s = Arc::clone(&sink);
                std::thread::spawn(move || {
                    for a in 0..25 {
                        s.emit(EventKind::Validation {
                            group: g,
                            attempt: a,
                            matched: false,
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let evs = sink.events();
        assert_eq!(evs.len(), 100);
        // Four distinct thread tags.
        let mut tags: Vec<u64> = evs.iter().map(|e| e.thread).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 4);
    }

    #[test]
    fn event_labels_are_informative() {
        assert_eq!(
            EventKind::GroupCommit {
                group: 3,
                reexecutions: 1
            }
            .label(),
            "commit g3 (+1 reexec)"
        );
        assert!(EventKind::Validation {
            group: 2,
            attempt: 0,
            matched: true
        }
        .label()
        .contains("match"));
    }
}

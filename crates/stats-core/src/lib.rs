//! STATS runtime core: state dependences, tradeoffs, and speculation.
//!
//! This crate implements the paper's primary contribution:
//!
//! - the **State Dependence Interface** (SDI, paper Figure 9): the
//!   [`StateTransition`] trait (the `computeOutput(Input, State) -> Output`
//!   pattern of Figure 4) plus [`SpecState`] (state cloning via `Clone` and
//!   the developer-provided `doesSpecStateMatchAny` comparison), and the
//!   [`StateDependence`] object with `start()`/`join()`;
//! - the **Tradeoff Interface** (TI, paper Figure 10): [`TradeoffOptions`]
//!   with `max_index`/`value`/`default_index`, and [`TradeoffBindings`]
//!   resolving tradeoff references inside (auxiliary) code;
//! - the **execution model** of §3.1: grouping inputs into blocks, running
//!   groups in parallel from auxiliary speculative states, validating the
//!   speculative state against a growing set of original nondeterministic
//!   final states, re-executing the previous group's tail on mismatch, and
//!   aborting (squashing outputs, falling back to sequential execution) when
//!   the re-execution budget is exhausted;
//! - a real thread-pool **runtime** executing that model with OS threads,
//!   and a **trace executor** recording the same execution as a task graph
//!   so that the `stats-sim` platform model can replay it on a simulated
//!   28-core machine.
//!
//! # Quickstart
//!
//! ```
//! use stats_core::{
//!     InvocationCtx, RunOptions, SpecConfig, SpecState, StateDependence, StateTransition,
//! };
//!
//! // A toy nondeterministic computation: a random walk whose state is the
//! // current position. Any position within a tolerance is "the same".
//! #[derive(Clone, Debug)]
//! struct Walk(f64);
//! impl SpecState for Walk {
//!     fn matches_any(&self, originals: &[Self]) -> bool {
//!         originals.iter().any(|o| (o.0 - self.0).abs() < 1e3)
//!     }
//! }
//!
//! struct Step;
//! impl StateTransition for Step {
//!     type Input = f64;
//!     type State = Walk;
//!     type Output = f64;
//!     fn compute_output(
//!         &self,
//!         input: &f64,
//!         state: &mut Walk,
//!         ctx: &mut InvocationCtx,
//!     ) -> f64 {
//!         let noise = ctx.normal(0.0, 1.0);
//!         state.0 += input + noise;
//!         ctx.charge(1.0);
//!         state.0
//!     }
//! }
//!
//! let inputs: Vec<f64> = (0..16).map(|i| i as f64).collect();
//! let dep = StateDependence::new(inputs, Walk(0.0), Step)
//!     .with_options(RunOptions::default()
//!         .config(SpecConfig { group_size: 4, ..SpecConfig::default() })
//!         .seed(42));
//! let outcome = dep.run();
//! assert_eq!(outcome.outputs.len(), 16);
//! ```
//!
//! For continuous input streams, [`Session`] runs the same execution model
//! incrementally — see `docs/streaming.md` in the repository root. When the
//! state dependences form a fan-out/fan-in graph rather than a line,
//! describe them with a [`SpecPlan`] and pass it via [`RunOptions::plan`] —
//! validation and rollback then scope to DAG cut-sets (`docs/dag.md`).

#![deny(missing_docs)]

mod adapt;
mod codec;
mod ctx;
mod dag;
mod faults;
pub mod obs;
mod options;
mod plan;
mod pool;
mod protocol;
pub mod replay;
mod resolver;
mod runtime;
mod sdi;
pub mod serve;
mod session;
pub mod sync;
mod tradeoff;

pub use adapt::{
    AdaptPolicy, AdaptState, AdaptiveController, RetryPolicy, Retuner, SegmentStats, TuneDecision,
};
pub use codec::SpillCodec;
pub use ctx::{InvocationCtx, WorkMeter};
pub use faults::{FaultKind, FaultPlan, FaultRule};
pub use obs::{Event, EventKind, EventSink, NoopSink, RecordingSink};
pub use options::RunOptions;
pub use plan::{PlanError, PlanNode, PlanNodeId, SpecPlan, SpecPlanBuilder};
pub use pool::{PoolMetrics, ThreadPool, Ticket};
pub use protocol::{
    run_protocol, run_protocol_with_options, GroupRecord, GroupResolution, LazyTrace,
    ProtocolResult, SpecConfig, SpecReport, SpecTrace, TraceNode, TraceNodeKind,
};
pub use replay::{replay, ReplayError, ReplayOutcome, SessionLog, SessionRecorder};
pub use runtime::{SpecOutcome, StateDependence};
pub use sdi::{ExactState, SpecState, StateTransition};
pub use serve::{
    ServeError, ServerMetrics, ServerOptions, SessionServer, TenantHandle, TenantMetrics,
};
pub use session::{PushError, Session, SessionError};
pub use tradeoff::{
    EnumeratedTradeoff, ScalarType, TradeoffBindings, TradeoffOptions, TradeoffValue,
};

/// One-import convenience surface: the types needed to define a state
/// dependence and run it through any of the entry points.
///
/// ```
/// use stats_core::prelude::*;
/// ```
pub mod prelude {
    pub use crate::obs::{Event, EventKind, EventSink, NoopSink, RecordingSink};
    pub use crate::{
        replay, run_protocol, run_protocol_with_options, AdaptPolicy, AdaptState,
        AdaptiveController, ExactState, FaultKind, FaultPlan, FaultRule, InvocationCtx, PlanError,
        PlanNode, PlanNodeId, ProtocolResult, PushError, ReplayError, ReplayOutcome, RetryPolicy,
        Retuner, RunOptions, SegmentStats, ServeError, ServerMetrics, ServerOptions, Session,
        SessionError, SessionLog, SessionRecorder, SessionServer, SpecConfig, SpecOutcome,
        SpecPlan, SpecPlanBuilder, SpecReport, SpecState, SpecTrace, SpillCodec, StateDependence,
        StateTransition, TenantHandle, TenantMetrics, ThreadPool, TradeoffBindings, TuneDecision,
        WorkMeter,
    };
}

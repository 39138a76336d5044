//! The multi-tenant session service: one shared [`ThreadPool`], many
//! tenant [`Session`]s behind per-tenant handles.
//!
//! A [`SessionServer`] is the front door the ROADMAP's "millions of users"
//! item asks for. Each tenant opens a handle with its own seed and config;
//! the server multiplexes their speculative groups onto the one pool's
//! FIFO queue while three mechanisms keep the tenants isolated from each
//! other:
//!
//! - **Admission windows** — every tenant's session keeps a small bounded
//!   queue (`session_queue_capacity`) and a capped number of inflight
//!   speculative groups, so no single stream can monopolize pool slots;
//! - **Backlog refill** — overflow beyond the admission window lands in a
//!   per-tenant [`SpillQueue`], and each tenant's own session pulls from
//!   that backlog whenever its queue has drained to half, so a bursty
//!   tenant waits on its own backlog, not on everyone's;
//! - **Bounded memory** — spill queues overflow to FIFO disk segments,
//!   keeping the in-memory footprint per tenant constant no matter how
//!   deep the backlog grows, with bit-identical replay (`docs/serving.md`).
//!
//! The determinism contract composes with [`Session`]'s: a tenant's
//! outcome under multiplexing — whatever the other tenants do, however
//! its inputs spilled — is bit-identical to a solo [`Session`] run with
//! the same seed, config, and input order (`tests/serve_properties.rs`).
//!
//! The producer edge is fallible by design: [`TenantHandle::try_push`]
//! returns [`ServeError`] instead of panicking when a tenant's transition
//! has killed its session, so one tenant's panic can never take down the
//! front door for the rest.

mod spill;

pub use crate::codec::SpillCodec;
pub use spill::{SpillEffect, SpillQueue, SpillStats};

use std::io;
use std::path::PathBuf;

#[cfg(not(loom))]
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, Condvar, Mutex, Weak};

use crate::obs::{EventKind, EventSink, NoopSink};
use crate::options::RunOptions;
use crate::pool::ThreadPool;
use crate::runtime::SpecOutcome;
use crate::sdi::StateTransition;
use crate::session::{PushError, RoomHook, Session, SessionError};

/// Distinguishes concurrently-created servers' default spill directories.
/// (Gated off under loom, whose atomics are not const-constructible in
/// statics; a loom model's server keeps its backlog in memory.)
#[cfg(not(loom))]
static SERVER_INSTANCE: AtomicU64 = AtomicU64::new(0);

fn next_server_instance() -> u64 {
    #[cfg(not(loom))]
    {
        SERVER_INSTANCE.fetch_add(1, Ordering::Relaxed)
    }
    #[cfg(loom)]
    {
        0
    }
}

/// Tuning knobs for a [`SessionServer`]; see `docs/serving.md` for how
/// they interact.
#[derive(Clone)]
pub struct ServerOptions {
    /// Where spill segments are written (one subdirectory per tenant).
    /// `None` picks a fresh directory under the system temp dir.
    pub spill_dir: Option<PathBuf>,
    /// In-memory bound of each tenant's spill queue head.
    pub spill_mem_capacity: usize,
    /// Inputs per on-disk spill segment.
    pub spill_segment: usize,
    /// Each tenant session's bounded-queue capacity (the admission
    /// window): inputs beyond it spill instead of blocking the producer.
    pub session_queue_capacity: usize,
    /// Per-tenant cap on speculative groups in flight past the resolved
    /// prefix (`0` = the session auto default, pool workers + 2 — usually
    /// too generous when hundreds of tenants share one pool).
    pub max_inflight_groups: usize,
    /// Server-level sink receiving [`EventKind::TenantAdmission`],
    /// [`EventKind::SpillWrite`], and [`EventKind::SpillReplay`].
    pub sink: Arc<dyn EventSink>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            spill_dir: None,
            spill_mem_capacity: 256,
            spill_segment: 128,
            session_queue_capacity: 64,
            max_inflight_groups: 2,
            sink: Arc::new(NoopSink),
        }
    }
}

impl ServerOptions {
    /// Write spill segments under `dir` instead of a temp directory.
    pub fn spill_dir(mut self, dir: PathBuf) -> Self {
        self.spill_dir = Some(dir);
        self
    }

    /// Bound each tenant's in-memory spill head (clamped >= 1).
    pub fn spill_mem_capacity(mut self, capacity: usize) -> Self {
        self.spill_mem_capacity = capacity.max(1);
        self
    }

    /// Set the inputs-per-segment spill granularity (clamped >= 1).
    pub fn spill_segment(mut self, inputs: usize) -> Self {
        self.spill_segment = inputs.max(1);
        self
    }

    /// Set every tenant session's admission window (clamped >= 1).
    pub fn session_queue_capacity(mut self, capacity: usize) -> Self {
        self.session_queue_capacity = capacity.max(1);
        self
    }

    /// Cap each tenant's inflight speculative groups (`0` = auto).
    pub fn max_inflight_groups(mut self, groups: usize) -> Self {
        self.max_inflight_groups = groups;
        self
    }

    /// Install a server-level observability sink.
    pub fn sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = sink;
        self
    }
}

/// Why a tenant-facing operation failed. Never a panic: the front door
/// reports tenant failures, it does not propagate them to its caller.
#[derive(Debug)]
pub enum ServeError {
    /// The tenant's session refused the input — its coordinator is gone
    /// (the carried [`PushError`] holds the pending panic message).
    Push(PushError),
    /// The tenant's session failed to finish (coordinator panic).
    Session(SessionError),
    /// Spilling to or replaying from disk failed; the tenant's stream is
    /// torn down since its input order can no longer be reconstructed.
    Spill(io::Error),
    /// The tenant handle was already finished, or is finishing elsewhere.
    TenantClosed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Push(e) => write!(f, "tenant push refused: {e}"),
            ServeError::Session(e) => write!(f, "tenant session failed: {e}"),
            ServeError::Spill(e) => write!(f, "tenant spill I/O failed: {e}"),
            ServeError::TenantClosed => f.write_str("tenant is closed"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Monotonic per-tenant front-door counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantMetrics {
    /// Inputs accepted by [`TenantHandle::try_push`].
    pub pushed: u64,
    /// Accepted inputs that went straight into the session queue (the
    /// spill queue was empty and the admission window had room).
    pub fast_path: u64,
    /// Inputs the tenant's session pulled from its spill queue.
    pub admitted: u64,
    /// Refills that admitted at least one input (a refill runs each time
    /// the session queue has drained to half).
    pub admission_rounds: u64,
    /// Spill activity (segments written/replayed).
    pub spill: SpillStats,
}

/// A point-in-time snapshot of [`SessionServer`] activity.
#[derive(Debug, Clone, Default)]
pub struct ServerMetrics {
    /// Per-tenant counters for tenants still open, keyed by tenant id.
    pub open: Vec<(usize, TenantMetrics)>,
    /// Per-tenant counters for tenants already finished, keyed by id.
    pub retired: Vec<(usize, TenantMetrics)>,
}

impl ServerMetrics {
    /// Counters for one tenant, open or retired.
    pub fn tenant(&self, id: usize) -> Option<&TenantMetrics> {
        self.open
            .iter()
            .chain(&self.retired)
            .find(|(t, _)| *t == id)
            .map(|(_, m)| m)
    }

    /// Total inputs spilled to disk across all tenants.
    pub fn spilled_inputs(&self) -> u64 {
        self.open
            .iter()
            .chain(&self.retired)
            .map(|(_, m)| m.spill.spilled_inputs)
            .sum()
    }

    /// Total segment files written across all tenants.
    pub fn spilled_segments(&self) -> u64 {
        self.open
            .iter()
            .chain(&self.retired)
            .map(|(_, m)| m.spill.spilled_segments)
            .sum()
    }
}

/// Why a tenant stopped taking inputs.
enum Failure {
    /// Its session refused an input: the coordinator is gone.
    Push(PushError),
    /// Its spill queue failed, so its input order is lost.
    Spill(io::Error),
}

impl Failure {
    /// The error to hand a caller, leaving the failure recorded
    /// (`io::Error` is not `Clone`).
    fn report(&self) -> ServeError {
        match self {
            Failure::Push(e) => ServeError::Push(e.clone()),
            Failure::Spill(e) => ServeError::Spill(io::Error::new(e.kind(), e.to_string())),
        }
    }
}

/// One tenant's server-side state.
struct TenantSlot<T: StateTransition> {
    session: Session<T>,
    spill: SpillQueue<T::Input>,
    metrics: TenantMetrics,
    /// New pushes rejected; the session's refills still drain the backlog.
    closing: bool,
    /// Sticky once set: every later `try_push` reports it without touching
    /// the session, refills stop, and `finish` stops waiting for them.
    failed: Option<Failure>,
}

struct ServerState<T: StateTransition> {
    tenants: Vec<Option<TenantSlot<T>>>,
    retired: Vec<(usize, TenantMetrics)>,
}

struct ServerShared<T: StateTransition> {
    state: Mutex<ServerState<T>>,
    /// Signaled after each refill, so a closing tenant's `finish` sees its
    /// backlog drain (or its session die).
    drained: Condvar,
    sink: Arc<dyn EventSink>,
    spill_dir: PathBuf,
    spill_mem_capacity: usize,
    spill_segment: usize,
}

impl<T: StateTransition> ServerShared<T>
where
    T::Input: SpillCodec,
{
    fn emit(&self, kind: EventKind) {
        if self.sink.enabled() {
            self.sink.emit(kind);
        }
    }

    /// Tenant `id`'s session has room: move its backlog in, oldest first,
    /// until the session refuses an input or the backlog is empty. Runs on
    /// the tenant's coordinator, outside the session's lock (lock order:
    /// server state, then session).
    fn refill(&self, id: usize) {
        let mut state = self.state.lock();
        let Some(slot) = state.tenants.get_mut(id).and_then(Option::as_mut) else {
            return;
        };
        let mut admitted = 0usize;
        while slot.failed.is_none() {
            let (input, replay) = match slot.spill.pop() {
                Ok(Some(popped)) => popped,
                Ok(None) => break,
                Err(e) => {
                    slot.failed = Some(Failure::Spill(e));
                    break;
                }
            };
            if let Some((segment, inputs)) = replay {
                self.emit(EventKind::SpillReplay {
                    tenant: id,
                    segment,
                    inputs,
                });
            }
            match slot.session.offer(input) {
                Ok(None) => admitted += 1,
                Ok(Some(input)) => {
                    // The queue is full again: the input was the front.
                    slot.spill.push_front_undo(input);
                    break;
                }
                Err(e) => slot.failed = Some(Failure::Push(e)),
            }
        }
        if admitted > 0 {
            slot.metrics.admitted += admitted as u64;
            slot.metrics.admission_rounds += 1;
            self.emit(EventKind::TenantAdmission {
                tenant: id,
                admitted,
            });
        }
        drop(state);
        self.drained.notify_all();
    }
}

/// Tenant `id`'s room hook: a refill while the server state lives. If the
/// server and every handle were dropped meanwhile, this call holds the
/// last reference and tears the server down on the tenant's own
/// coordinator, which must not join itself.
fn room_hook<T: StateTransition>(server: Weak<ServerShared<T>>, id: usize) -> RoomHook
where
    T::Input: SpillCodec,
{
    Box::new(move || {
        let Some(shared) = server.upgrade() else {
            return;
        };
        shared.refill(id);
        if let Some(shared) = Arc::into_inner(shared) {
            if let Some(slot) = shared.state.into_inner().tenants[id].take() {
                slot.session.detach();
            }
        }
    })
}

/// A sharded front door multiplexing many tenant [`Session`]s over one
/// shared [`ThreadPool`]. See the [module docs](self) and
/// `docs/serving.md`.
///
/// ```
/// use std::sync::Arc;
/// use stats_core::serve::{ServerOptions, SessionServer};
/// use stats_core::{ExactState, InvocationCtx, RunOptions, SpecConfig, StateTransition, ThreadPool};
///
/// struct Double;
/// impl StateTransition for Double {
///     type Input = u64;
///     type State = ExactState<u64>;
///     type Output = u64;
///     fn compute_output(
///         &self,
///         input: &u64,
///         state: &mut ExactState<u64>,
///         ctx: &mut InvocationCtx,
///     ) -> u64 {
///         ctx.charge(1.0);
///         state.0 = *input;
///         2 * *input
///     }
/// }
///
/// let server = SessionServer::new(Arc::new(ThreadPool::new(2)), ServerOptions::default());
/// let alice = server.open_tenant(ExactState(0), Double, RunOptions::default().seed(1));
/// let bob = server.open_tenant(ExactState(0), Double, RunOptions::default().seed(2));
/// for i in 0..32 {
///     alice.try_push(i).unwrap();
///     bob.try_push(i * 10).unwrap();
/// }
/// assert_eq!(alice.finish().unwrap().outputs[3], 6);
/// assert_eq!(bob.finish().unwrap().outputs[3], 60);
/// ```
pub struct SessionServer<T: StateTransition> {
    shared: Arc<ServerShared<T>>,
    pool: Arc<ThreadPool>,
    session_queue_capacity: usize,
    max_inflight_groups: usize,
}

/// A tenant's handle onto a [`SessionServer`]: the only way inputs enter
/// and the outcome leaves. Clonable so multiple producer threads can feed
/// one tenant; [`finish`](TenantHandle::finish) may be called from any
/// one clone. A handle may outlive its server.
pub struct TenantHandle<T: StateTransition> {
    shared: Arc<ServerShared<T>>,
    id: usize,
}

impl<T: StateTransition> Clone for TenantHandle<T> {
    fn clone(&self) -> Self {
        TenantHandle {
            shared: Arc::clone(&self.shared),
            id: self.id,
        }
    }
}

impl<T: StateTransition> SessionServer<T>
where
    T::Input: SpillCodec,
{
    /// Stand up a server multiplexing tenants over `pool`.
    pub fn new(pool: Arc<ThreadPool>, options: ServerOptions) -> Self {
        let spill_dir = options.spill_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!(
                "stats-spill-{}-{}",
                std::process::id(),
                next_server_instance()
            ))
        });
        SessionServer {
            shared: Arc::new(ServerShared {
                state: Mutex::new(ServerState {
                    tenants: Vec::new(),
                    retired: Vec::new(),
                }),
                drained: Condvar::new(),
                sink: Arc::clone(&options.sink),
                spill_dir,
                spill_mem_capacity: options.spill_mem_capacity.max(1),
                spill_segment: options.spill_segment.max(1),
            }),
            pool,
            session_queue_capacity: options.session_queue_capacity.max(1),
            max_inflight_groups: options.max_inflight_groups,
        }
    }

    /// Open a tenant. The tenant's `options` carry its seed, config,
    /// faults and adaptation; the server overrides the pool (every tenant
    /// shares the server's) and the queue/inflight admission window.
    pub fn open_tenant(
        &self,
        initial: T::State,
        transition: T,
        options: RunOptions,
    ) -> TenantHandle<T> {
        let options = options
            .pool(Arc::clone(&self.pool))
            .queue_capacity(self.session_queue_capacity)
            .max_inflight_groups(self.max_inflight_groups);
        // The id comes first: the session's room hook names it.
        let id = {
            let mut state = self.shared.state.lock();
            state.tenants.push(None);
            state.tenants.len() - 1
        };
        let room = room_hook(Arc::downgrade(&self.shared), id);
        let session = Session::with_room_hook(initial, transition, options, Some(room));
        let spill = SpillQueue::new(
            self.shared.spill_dir.join(format!("tenant-{id}")),
            self.shared.spill_mem_capacity,
            self.shared.spill_segment,
        );
        self.shared.state.lock().tenants[id] = Some(TenantSlot {
            session,
            spill,
            metrics: TenantMetrics::default(),
            closing: false,
            failed: None,
        });
        TenantHandle {
            shared: Arc::clone(&self.shared),
            id,
        }
    }

    /// Number of tenants currently open.
    pub fn open_tenants(&self) -> usize {
        self.shared
            .state
            .lock()
            .tenants
            .iter()
            .filter(|t| t.is_some())
            .count()
    }

    /// The shared pool every tenant's speculative groups dispatch onto.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// Snapshot the server's admission/spill counters.
    pub fn metrics(&self) -> ServerMetrics {
        let state = self.shared.state.lock();
        ServerMetrics {
            open: state
                .tenants
                .iter()
                .enumerate()
                .filter_map(|(id, slot)| {
                    slot.as_ref().map(|s| {
                        let mut m = s.metrics;
                        m.spill = s.spill.stats();
                        (id, m)
                    })
                })
                .collect(),
            retired: state.retired.clone(),
        }
    }
}

impl<T: StateTransition> TenantHandle<T>
where
    T::Input: SpillCodec,
{
    /// Tenant id within the server (dense, assigned at open).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Enqueue one input. Never blocks and never panics: the admission
    /// window absorbs steady traffic, the spill queue absorbs bursts
    /// (bounded memory, unbounded disk), and a dead tenant session
    /// surfaces as `Err` — with the pending panic message — instead of
    /// taking the producer down. Once a push has failed, every later one
    /// reports the same failure.
    pub fn try_push(&self, input: T::Input) -> Result<(), ServeError> {
        let mut state = self.shared.state.lock();
        let Some(slot) = state.tenants.get_mut(self.id).and_then(Option::as_mut) else {
            return Err(ServeError::TenantClosed);
        };
        if slot.closing {
            return Err(ServeError::TenantClosed);
        }
        if let Some(failure) = &slot.failed {
            return Err(failure.report());
        }
        // Fast path: with no backlog ahead of it, the input may enter the
        // session directly (FIFO order is preserved by construction).
        let input = if slot.spill.is_empty() {
            match slot.session.offer(input) {
                Ok(None) => {
                    slot.metrics.pushed += 1;
                    slot.metrics.fast_path += 1;
                    return Ok(());
                }
                Ok(Some(input)) => input,
                Err(e) => {
                    slot.failed = Some(Failure::Push(e.clone()));
                    return Err(ServeError::Push(e));
                }
            }
        } else {
            input
        };
        // The session's next refill takes it: a backlog only starts when
        // the session queue is full, and the coordinator refills each time
        // the queue drains to half.
        match slot.spill.push(input) {
            Ok(effect) => {
                slot.metrics.pushed += 1;
                if let SpillEffect::Spilled { segment, inputs } = effect {
                    self.shared.emit(EventKind::SpillWrite {
                        tenant: self.id,
                        segment,
                        inputs,
                    });
                }
                Ok(())
            }
            Err(e) => {
                let failure = Failure::Spill(e);
                let err = failure.report();
                slot.failed = Some(failure);
                Err(err)
            }
        }
    }

    /// Enqueue a batch of inputs; stops at the first failure, returning
    /// how many were accepted alongside the error.
    pub fn try_push_batch(
        &self,
        inputs: impl IntoIterator<Item = T::Input>,
    ) -> Result<usize, (usize, ServeError)> {
        let mut accepted = 0usize;
        for input in inputs {
            match self.try_push(input) {
                Ok(()) => accepted += 1,
                Err(e) => return Err((accepted, e)),
            }
        }
        Ok(accepted)
    }

    /// How many of this tenant's inputs are still waiting in the spill
    /// queue (not yet admitted into its session).
    pub fn backlog(&self) -> usize {
        let state = self.shared.state.lock();
        state
            .tenants
            .get(self.id)
            .and_then(Option::as_ref)
            .map_or(0, |s| s.spill.len())
    }

    /// Close this tenant's stream, wait for its session to pull the whole
    /// backlog and process every input, and return the outcome. Fails —
    /// never panics — if the tenant's transition panicked
    /// ([`ServeError::Session`] carries the payload's message) or spilling
    /// failed ([`ServeError::Spill`]). Only one clone of the handle can
    /// finish; the rest get [`ServeError::TenantClosed`].
    pub fn finish(self) -> Result<SpecOutcome<T>, ServeError> {
        let mut state = self.shared.state.lock();
        {
            let Some(slot) = state.tenants.get_mut(self.id).and_then(Option::as_mut) else {
                return Err(ServeError::TenantClosed);
            };
            if slot.closing {
                return Err(ServeError::TenantClosed);
            }
            slot.closing = true;
        }
        loop {
            let slot = state.tenants[self.id].as_ref().expect("closing tenant");
            if slot.failed.is_some() || slot.spill.is_empty() {
                break;
            }
            self.shared.drained.wait(&mut state);
        }
        let slot = state.tenants[self.id].take().expect("closing tenant");
        let mut metrics = slot.metrics;
        metrics.spill = slot.spill.stats();
        state.retired.push((self.id, metrics));
        drop(state);
        let TenantSlot {
            mut session,
            spill,
            failed,
            ..
        } = slot;
        drop(spill); // removes any leftover segment files
        let finished = session.try_finish();
        match failed {
            Some(Failure::Spill(e)) => Err(ServeError::Spill(e)),
            _ => finished.map_err(ServeError::Session),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Duration;

    use super::*;
    use crate::ctx::InvocationCtx;
    use crate::protocol::SpecConfig;
    use crate::sdi::{ExactState, SpecState};
    use crate::sync::atomic::{AtomicUsize, Ordering};
    use crate::sync::thread;

    #[derive(Clone, Debug)]
    struct Noisy(f64);
    impl SpecState for Noisy {
        fn matches_any(&self, originals: &[Self]) -> bool {
            originals.iter().any(|o| (o.0 - self.0).abs() < 0.5)
        }
    }

    struct NoisyLast;
    impl StateTransition for NoisyLast {
        type Input = u64;
        type State = Noisy;
        type Output = f64;
        fn compute_output(&self, input: &u64, state: &mut Noisy, ctx: &mut InvocationCtx) -> f64 {
            ctx.charge(2.0);
            state.0 = *input as f64 + ctx.uniform(-0.1, 0.1);
            state.0
        }
    }

    fn config() -> SpecConfig {
        SpecConfig {
            group_size: 4,
            window: 1,
            max_reexec: 2,
            ..SpecConfig::default()
        }
    }

    #[test]
    fn tenants_match_solo_sessions() {
        let pool = Arc::new(ThreadPool::new(2));
        let server = SessionServer::new(
            Arc::clone(&pool),
            ServerOptions::default()
                .session_queue_capacity(4)
                .spill_mem_capacity(4)
                .spill_segment(4),
        );
        let handles: Vec<_> = (0..6u64)
            .map(|t| {
                server.open_tenant(
                    Noisy(0.0),
                    NoisyLast,
                    RunOptions::default().config(config()).seed(t),
                )
            })
            .collect();
        for i in 0..64u64 {
            for (t, h) in handles.iter().enumerate() {
                h.try_push(i + t as u64).expect("push");
            }
        }
        let outcomes: Vec<_> = handles
            .into_iter()
            .map(|h| h.finish().expect("finish"))
            .collect();
        for (t, outcome) in outcomes.iter().enumerate() {
            let solo = Session::new(
                Noisy(0.0),
                NoisyLast,
                RunOptions::default().config(config()).seed(t as u64),
            );
            solo.push_batch((0..64u64).map(|i| i + t as u64));
            let solo = solo.finish();
            assert_eq!(outcome.outputs, solo.outputs, "tenant {t} diverged");
            assert_eq!(outcome.report, solo.report, "tenant {t} report diverged");
        }
        let metrics = server.metrics();
        assert!(
            metrics.spilled_inputs() > 0,
            "tiny admission window should have spilled: {metrics:?}"
        );
    }

    #[test]
    fn finish_is_single_shot_across_clones() {
        let server = SessionServer::new(Arc::new(ThreadPool::new(1)), ServerOptions::default());
        let handle = server.open_tenant(
            Noisy(0.0),
            NoisyLast,
            RunOptions::default().config(config()).seed(9),
        );
        let clone = handle.clone();
        handle.try_push(1).unwrap();
        let outcome = handle.finish().expect("first finish succeeds");
        assert_eq!(outcome.outputs.len(), 1);
        assert!(matches!(clone.try_push(2), Err(ServeError::TenantClosed)));
        assert!(matches!(clone.finish(), Err(ServeError::TenantClosed)));
    }

    struct Exploding;
    impl StateTransition for Exploding {
        type Input = u64;
        type State = ExactState<u64>;
        type Output = u64;
        fn compute_output(
            &self,
            input: &u64,
            _: &mut ExactState<u64>,
            ctx: &mut InvocationCtx,
        ) -> u64 {
            ctx.charge(1.0);
            if *input >= 3 {
                panic!("tenant transition exploded");
            }
            *input
        }
    }

    #[test]
    fn tenant_panic_stays_contained() {
        let pool = Arc::new(ThreadPool::new(2));
        let server = SessionServer::new(Arc::clone(&pool), ServerOptions::default());
        let bad = server.open_tenant(
            ExactState(0),
            Exploding,
            RunOptions::default().config(config()).seed(0),
        );
        for i in 0..16u64 {
            // Pushes either succeed (buffered) or fail cleanly once the
            // session is observed dead — never panic.
            let _ = bad.try_push(i);
        }
        match bad.finish() {
            Err(ServeError::Session(SessionError::Panicked { message, .. })) => {
                assert!(message.contains("tenant transition exploded"), "{message}");
            }
            Err(other) => panic!("expected contained panic, got {other:?}"),
            Ok(_) => panic!("expected contained panic, got success"),
        }
        // The server and pool stay healthy for other tenants.
        let good = server.open_tenant(
            ExactState(0),
            Exploding,
            RunOptions::default()
                .config(SpecConfig {
                    group_size: 0,
                    speculate: false,
                    ..SpecConfig::default()
                })
                .seed(1),
        );
        good.try_push(0).unwrap();
        good.try_push(1).unwrap();
        let outcome = good.finish().expect("small inputs never explode");
        assert_eq!(outcome.outputs, vec![0, 1]);
    }

    /// Holds every input on a latch until the test opens it, so the
    /// tenant's queue stays full and its backlog is still there when the
    /// test looks; explodes on `explode_on` once released.
    struct Latched {
        entered: Arc<AtomicUsize>,
        latch: Arc<(Mutex<bool>, Condvar)>,
        explode_on: Option<u64>,
    }
    impl StateTransition for Latched {
        type Input = u64;
        type State = ExactState<u64>;
        type Output = u64;
        fn compute_output(
            &self,
            input: &u64,
            state: &mut ExactState<u64>,
            ctx: &mut InvocationCtx,
        ) -> u64 {
            self.entered.fetch_add(1, Ordering::SeqCst);
            let (lock, cvar) = &*self.latch;
            let mut open = lock.lock();
            while !*open {
                cvar.wait(&mut open);
            }
            drop(open);
            assert_ne!(Some(*input), self.explode_on, "tenant transition exploded");
            ctx.charge(1.0);
            state.0 = state.0.wrapping_add(*input);
            state.0
        }
    }

    struct LatchedTenant {
        server: SessionServer<Latched>,
        tenant: TenantHandle<Latched>,
        entered: Arc<AtomicUsize>,
        latch: Arc<(Mutex<bool>, Condvar)>,
    }

    impl LatchedTenant {
        /// A one-input admission window and a sequential tenant whose
        /// coordinator is held inside input 0: input 1 fills the session
        /// queue and every later input goes to the spill queue.
        fn open(options: ServerOptions, explode_on: Option<u64>) -> Self {
            let server = SessionServer::new(
                Arc::new(ThreadPool::new(1)),
                options.session_queue_capacity(1),
            );
            let entered = Arc::new(AtomicUsize::new(0));
            let latch = Arc::new((Mutex::new(false), Condvar::new()));
            let tenant = server.open_tenant(
                ExactState(0),
                Latched {
                    entered: Arc::clone(&entered),
                    latch: Arc::clone(&latch),
                    explode_on,
                },
                RunOptions::default().config(SpecConfig::sequential()),
            );
            tenant.try_push(0).expect("input 0");
            await_entered(&entered, 1);
            LatchedTenant {
                server,
                tenant,
                entered,
                latch,
            }
        }
    }

    fn release(latch: &(Mutex<bool>, Condvar)) {
        *latch.0.lock() = true;
        latch.1.notify_all();
    }

    fn await_entered(entered: &AtomicUsize, n: usize) {
        while entered.load(Ordering::SeqCst) < n {
            thread::yield_now();
        }
    }

    /// `f()` on a thread of its own, failing the test if it has not
    /// returned within a minute: a backlog nobody refills hangs instead.
    fn within_a_minute<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(r) => r,
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("hung: the backlog was never drained"),
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("the watched call panicked"),
        }
    }

    fn prefix_sums(n: u64) -> Vec<u64> {
        (0..n).map(|i| i * (i + 1) / 2).collect()
    }

    #[test]
    fn spill_failure_is_sticky() {
        // A regular file where the spill directory should be: the first
        // segment write fails, stranding the in-memory backlog.
        let blocker =
            std::env::temp_dir().join(format!("stats-spill-blocker-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").expect("blocker file");
        let t = LatchedTenant::open(
            ServerOptions::default()
                .spill_dir(blocker.clone())
                .spill_mem_capacity(1)
                .spill_segment(1),
            None,
        );
        t.tenant.try_push(1).expect("the session queue");
        t.tenant.try_push(2).expect("the in-memory spill head");
        assert!(matches!(t.tenant.try_push(3), Err(ServeError::Spill(_))));
        // The session drains its queue and finds the backlog failed.
        release(&t.latch);
        await_entered(&t.entered, 2);
        let queued = |t: &LatchedTenant| {
            let state = t.server.shared.state.lock();
            state.tenants[t.tenant.id()]
                .as_ref()
                .expect("open")
                .session
                .queued()
        };
        while queued(&t) > 0 {
            thread::yield_now();
        }
        // A later push reports the failure and does not jump the stranded
        // backlog into the live session.
        assert!(matches!(t.tenant.try_push(4), Err(ServeError::Spill(_))));
        assert_eq!(
            queued(&t),
            0,
            "an input entered the session past the backlog"
        );
        assert!(matches!(t.tenant.finish(), Err(ServeError::Spill(_))));
        std::fs::remove_file(&blocker).expect("remove blocker");
    }

    #[test]
    fn handle_outliving_its_server_finishes_a_spilled_backlog() {
        let t = LatchedTenant::open(
            ServerOptions::default()
                .spill_mem_capacity(2)
                .spill_segment(2),
            None,
        );
        assert_eq!(t.tenant.try_push_batch(1..16).expect("burst"), 15);
        assert_eq!(t.tenant.backlog(), 14);
        let LatchedTenant {
            server,
            tenant,
            latch,
            ..
        } = t;
        drop(server);
        release(&latch);
        let outputs = within_a_minute(move || tenant.finish().map(|o| o.outputs));
        assert_eq!(outputs.expect("finish"), prefix_sums(16));
    }

    #[test]
    fn tenant_panic_with_a_spilled_backlog_fails_finish() {
        let t = LatchedTenant::open(
            ServerOptions::default()
                .spill_mem_capacity(2)
                .spill_segment(2),
            Some(0),
        );
        assert_eq!(t.tenant.try_push_batch(1..16).expect("burst"), 15);
        assert_eq!(t.tenant.backlog(), 14);
        // Input 0 explodes: the session's exit refill marks the tenant
        // failed, and `finish` stops waiting for the stranded backlog.
        release(&t.latch);
        let tenant = t.tenant;
        match within_a_minute(move || tenant.finish().map(|o| o.outputs)) {
            Err(ServeError::Session(SessionError::Panicked { message, .. })) => {
                assert!(message.contains("tenant transition exploded"), "{message}");
            }
            other => panic!("expected the contained panic, got {other:?}"),
        }
        assert_eq!(t.server.open_tenants(), 0);
    }

    /// Blocks its first `TenantAdmission` until released.
    #[derive(Default)]
    struct HeldSink {
        held: Mutex<Option<bool>>,
        changed: Condvar,
    }
    impl EventSink for HeldSink {
        fn enabled(&self) -> bool {
            true
        }
        fn emit(&self, kind: EventKind) {
            if let EventKind::TenantAdmission { .. } = kind {
                let mut held = self.held.lock();
                if held.is_none() {
                    *held = Some(true);
                    self.changed.notify_all();
                    while *held == Some(true) {
                        self.changed.wait(&mut held);
                    }
                }
            }
        }
    }

    #[test]
    fn abandoned_server_is_torn_down_by_its_last_refill() {
        let sink = Arc::new(HeldSink::default());
        let t = LatchedTenant::open(ServerOptions::default().sink(sink.clone()), None);
        assert_eq!(t.tenant.try_push_batch(1..4).expect("burst"), 3);
        // Input 0 finishes, the coordinator takes input 1 and refills:
        // input 2 enters the session, and the refill is held in its
        // admission event while the server and the handle go away.
        release(&t.latch);
        let mut held = sink.held.lock();
        while held.is_none() {
            sink.changed.wait(&mut held);
        }
        let LatchedTenant {
            server,
            tenant,
            entered,
            ..
        } = t;
        drop((server, tenant));
        *held = Some(false);
        sink.changed.notify_all();
        drop(held);
        // The refill held the last reference: the server is torn down on
        // the tenant's own coordinator, which closes its session instead
        // of joining itself and runs what it had admitted.
        within_a_minute({
            let entered = Arc::clone(&entered);
            move || {
                while Arc::strong_count(&entered) > 2 {
                    thread::yield_now();
                }
            }
        });
        assert_eq!(entered.load(Ordering::SeqCst), 3, "inputs 0, 1 and 2 ran");
    }
}

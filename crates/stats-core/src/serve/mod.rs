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
//! - **Spill intake** — overflow beyond the admission window lands in a
//!   per-tenant [`SpillQueue`] that the tenant's own session owns, behind
//!   its own lock, and moves into its queue whenever the queue has drained
//!   to half, so a bursty tenant waits on its own backlog, not on
//!   everyone's;
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

use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::io;
use std::path::PathBuf;

#[cfg(not(loom))]
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, Mutex};

use crate::obs::{EventKind, EventSink, NoopSink};
use crate::options::RunOptions;
use crate::pool::ThreadPool;
use crate::runtime::SpecOutcome;
use crate::sdi::StateTransition;
use crate::session::{PushError, Refusal, Session, SessionError, StreamShared};

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
    /// `None` picks a fresh directory under the system temp dir, removed
    /// again with the server.
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
    /// Inputs the tenant's session moved in from its spill queue.
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
    /// Per-tenant counters for tenants still open, keyed by tenant id (a
    /// tenant stays open until its `finish` has run its backlog).
    pub open: Vec<(usize, TenantMetrics)>,
    /// Per-tenant counters for tenants already finished, keyed by id.
    pub retired: Vec<(usize, TenantMetrics)>,
}

impl ServerMetrics {
    fn all(&self) -> impl Iterator<Item = &(usize, TenantMetrics)> {
        self.open.iter().chain(&self.retired)
    }

    /// Counters for one tenant, open or retired.
    pub fn tenant(&self, id: usize) -> Option<&TenantMetrics> {
        self.all().find(|(t, _)| *t == id).map(|(_, m)| m)
    }

    /// Total inputs spilled to disk across all tenants.
    pub fn spilled_inputs(&self) -> u64 {
        self.all().map(|(_, m)| m.spill.spilled_inputs).sum()
    }

    /// Total segment files written across all tenants.
    pub fn spilled_segments(&self) -> u64 {
        self.all().map(|(_, m)| m.spill.spilled_segments).sum()
    }
}

/// A server tenant's overflow, owned by its session's intake under the
/// session's own lock: the spill queue behind the bounded queue, the
/// tenant's counters, and the events they report.
pub(crate) struct Backlog<I> {
    spill: SpillQueue<I>,
    /// Why spilling or replaying failed.
    pub(crate) failed: Option<io::Error>,
    metrics: TenantMetrics,
    sink: Arc<dyn EventSink>,
    tenant: usize,
}

impl<I> Backlog<I> {
    fn emit(&self, kind: EventKind) {
        if self.sink.enabled() {
            self.sink.emit(kind);
        }
    }

    /// Take an input: straight into `queue` while it has room and nothing
    /// is spilled ahead of it (the fast path), else behind the backlog.
    pub(crate) fn push(
        &mut self,
        input: I,
        queue: &mut VecDeque<I>,
        capacity: usize,
    ) -> io::Result<()> {
        if self.spill.is_empty() && queue.len() < capacity {
            queue.push_back(input);
            self.metrics.fast_path += 1;
        } else if let SpillEffect::Spilled { segment, inputs } = self.spill.push(input)? {
            self.emit(EventKind::SpillWrite {
                tenant: self.tenant,
                segment,
                inputs,
            });
        }
        self.metrics.pushed += 1;
        Ok(())
    }

    /// Move the backlog into `queue`, oldest first, until the queue is full
    /// or the backlog is empty.
    pub(crate) fn refill(&mut self, queue: &mut VecDeque<I>, capacity: usize) -> io::Result<()> {
        let mut admitted = 0usize;
        let mut refilled = Ok(());
        while queue.len() < capacity && refilled.is_ok() {
            match self.spill.pop() {
                Ok(Some((input, replay))) => {
                    if let Some((segment, inputs)) = replay {
                        self.emit(EventKind::SpillReplay {
                            tenant: self.tenant,
                            segment,
                            inputs,
                        });
                    }
                    queue.push_back(input);
                    admitted += 1;
                }
                Ok(None) => break,
                Err(e) => refilled = Err(e),
            }
        }
        if admitted > 0 {
            self.metrics.admitted += admitted as u64;
            self.metrics.admission_rounds += 1;
            self.emit(EventKind::TenantAdmission {
                tenant: self.tenant,
                admitted,
            });
        }
        refilled
    }

    fn metrics(&self) -> TenantMetrics {
        TenantMetrics {
            spill: self.spill.stats(),
            ..self.metrics
        }
    }

    fn len(&self) -> usize {
        self.spill.len()
    }
}

/// An open tenant: its stream, readable until the tenant is retired, and
/// its session until a `finish` takes it.
struct Tenant<T: StateTransition> {
    stream: Arc<StreamShared<T>>,
    session: Option<Session<T>>,
}

struct ServerState<T: StateTransition> {
    /// The open tenants only, by id: a retired tenant leaves the map, so
    /// its size and every scan of it follow the open tenants, not the
    /// server's history.
    tenants: BTreeMap<usize, Tenant<T>>,
    /// The id the next tenant gets.
    next_id: usize,
    retired: Vec<(usize, TenantMetrics)>,
}

struct ServerShared<T: StateTransition> {
    /// The tenant map, for open, look-up, retire and metrics only: a
    /// tenant's pushes, spills and refills take only its session's lock.
    state: Mutex<ServerState<T>>,
    sink: Arc<dyn EventSink>,
    spill_dir: PathBuf,
    /// The server chose `spill_dir` itself, so it removes it.
    owns_spill_dir: bool,
    spill_mem_capacity: usize,
    spill_segment: usize,
}

/// Finish a tenant's session, which runs its backlog, and clear what a
/// failure left of that, segment files included: the outcome (a spill
/// failure outranks the session's own) and the tenant's final counters.
fn retire<T: StateTransition>(
    mut session: Session<T>,
) -> (Result<SpecOutcome<T>, ServeError>, TenantMetrics) {
    let finished = session.try_finish();
    let (metrics, failed) = (session.stream())
        .backlog(|backlog| {
            backlog.spill.clear();
            (backlog.metrics(), backlog.failed.take())
        })
        .unwrap_or_default();
    let outcome = match failed {
        Some(e) => Err(ServeError::Spill(e)),
        None => finished.map_err(ServeError::Session),
    };
    (outcome, metrics)
}

/// The last reference finishes every unfinished tenant, whole backlog
/// included, on its own thread, and never raises a tenant's panic there;
/// then it removes a spill directory the server chose itself.
impl<T: StateTransition> Drop for ServerShared<T> {
    fn drop(&mut self) {
        let tenants = std::mem::take(&mut self.state.lock().tenants);
        for session in tenants.into_values().filter_map(|t| t.session) {
            drop(retire(session));
        }
        if self.owns_spill_dir {
            let _ = fs::remove_dir(&self.spill_dir);
        }
    }
}

/// A sharded front door multiplexing many tenant [`Session`]s over one
/// shared [`ThreadPool`]. See the [module docs](self) and
/// `docs/serving.md`.
///
/// Its last reference, the server's or a [`TenantHandle`]'s, finishes every
/// unfinished tenant, whole backlog included, on the dropping thread.
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
    stream: Arc<StreamShared<T>>,
    id: usize,
}

impl<T: StateTransition> Clone for TenantHandle<T> {
    fn clone(&self) -> Self {
        TenantHandle {
            shared: Arc::clone(&self.shared),
            stream: Arc::clone(&self.stream),
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
                    tenants: BTreeMap::new(),
                    next_id: 0,
                    retired: Vec::new(),
                }),
                sink: Arc::clone(&options.sink),
                spill_dir,
                owns_spill_dir: options.spill_dir.is_none(),
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
        // The id comes first (the backlog names it); the coordinator is
        // spawned outside the server lock.
        let id = {
            let mut state = self.shared.state.lock();
            state.next_id += 1;
            state.next_id - 1
        };
        let backlog = Backlog {
            spill: SpillQueue::new(
                self.shared.spill_dir.join(format!("tenant-{id}")),
                self.shared.spill_mem_capacity,
                self.shared.spill_segment,
            ),
            failed: None,
            metrics: TenantMetrics::default(),
            sink: Arc::clone(&self.shared.sink),
            tenant: id,
        };
        let session = Session::with_backlog(initial, transition, options, Some(backlog));
        let stream = session.stream();
        let tenant = Tenant {
            stream: Arc::clone(&stream),
            session: Some(session),
        };
        self.shared.state.lock().tenants.insert(id, tenant);
        TenantHandle {
            shared: Arc::clone(&self.shared),
            stream,
            id,
        }
    }

    /// Number of tenants currently open.
    pub fn open_tenants(&self) -> usize {
        self.shared.state.lock().tenants.len()
    }

    /// The shared pool every tenant's speculative groups dispatch onto.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// Snapshot the server's admission/spill counters.
    pub fn metrics(&self) -> ServerMetrics {
        // An open tenant's counters are read under its own session's lock,
        // after the server lock is released.
        let (open, retired) = {
            let state = self.shared.state.lock();
            let open: Vec<_> = (state.tenants.iter())
                .map(|(&id, tenant)| (id, Arc::clone(&tenant.stream)))
                .collect();
            (open, state.retired.clone())
        };
        ServerMetrics {
            open: (open.into_iter())
                .filter_map(|(id, stream)| Some((id, stream.backlog(|b| b.metrics())?)))
                .collect(),
            retired,
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
    /// taking the producer down. Once a spill has failed, every later push
    /// reports it.
    pub fn try_push(&self, input: T::Input) -> Result<(), ServeError> {
        self.stream
            .spill_push(input)
            .map_err(|refused| match refused {
                Refusal::Closed => ServeError::TenantClosed,
                Refusal::Gone(e) => ServeError::Push(e),
                Refusal::Spill(e) => ServeError::Spill(e),
            })
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
        self.stream.backlog(|b| b.len()).unwrap_or(0)
    }

    /// Close this tenant's stream, wait for its session to take in the
    /// whole backlog and process every input, and return the outcome.
    /// Fails — never panics — if the tenant's transition panicked
    /// ([`ServeError::Session`] carries the payload's message) or spilling
    /// failed ([`ServeError::Spill`]). Only one clone of the handle can
    /// finish; the rest get [`ServeError::TenantClosed`]. The tenant counts
    /// as open until its backlog has run. Holding the server's last
    /// reference, it also finishes every unfinished tenant
    /// ([`SessionServer`]).
    pub fn finish(self) -> Result<SpecOutcome<T>, ServeError> {
        let session = (self.shared.state.lock().tenants.get_mut(&self.id))
            .and_then(|tenant| tenant.session.take());
        let (outcome, metrics) = retire(session.ok_or(ServeError::TenantClosed)?);
        let mut state = self.shared.state.lock();
        state.tenants.remove(&self.id);
        state.retired.push((self.id, metrics));
        outcome
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
    use crate::sync::{thread, Condvar};

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
    fn finished_tenants_leave_the_tenant_map() {
        let server = SessionServer::new(Arc::new(ThreadPool::new(1)), ServerOptions::default());
        for t in 0..2000u64 {
            let tenant = server.open_tenant(Noisy(0.0), NoisyLast, RunOptions::default().seed(t));
            tenant.try_push(t).expect("push");
            assert_eq!(tenant.finish().expect("finish").outputs.len(), 1);
        }
        assert!(server.shared.state.lock().tenants.is_empty());
        assert_eq!(server.open_tenants(), 0);
        let metrics = server.metrics();
        assert!(metrics.open.is_empty());
        assert_eq!(metrics.retired.len(), 2000);
        assert_eq!(metrics.retired.last().map(|(id, _)| *id), Some(1999));
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
            let tenant = state.tenants.get(&t.tenant.id()).expect("open");
            tenant.session.as_ref().expect("unfinished").queued()
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

    #[test]
    fn abandoned_server_admits_its_spilled_backlog() {
        let t = LatchedTenant::open(
            ServerOptions::default()
                .spill_mem_capacity(2)
                .spill_segment(2),
            None,
        );
        assert_eq!(t.tenant.try_push_batch(1..16).expect("burst"), 15);
        assert!(t.server.metrics().spilled_segments() > 0, "nothing on disk");
        let LatchedTenant {
            server,
            tenant,
            entered,
            latch,
        } = t;
        let dir = server
            .shared
            .spill_dir
            .join(format!("tenant-{}", tenant.id()));
        // The backlog is still on disk when the last server reference goes:
        // that drop finishes the tenant, which takes in every input.
        release(&latch);
        within_a_minute(move || drop((server, tenant)));
        assert_eq!(entered.load(Ordering::SeqCst), 16, "every input ran");
        assert_eq!(Arc::strong_count(&entered), 1, "the coordinator exited");
        assert!(!dir.exists(), "{} outlived its tenant", dir.display());
    }

    #[test]
    fn a_finishing_tenant_stays_open_until_it_is_retired() {
        let t = LatchedTenant::open(
            ServerOptions::default()
                .spill_mem_capacity(2)
                .spill_segment(2),
            None,
        );
        assert_eq!(t.tenant.try_push_batch(1..16).expect("burst"), 15);
        let id = t.tenant.id();
        let tenant = t.tenant.clone();
        let finishing = thread::spawn(move || tenant.finish().map(|o| o.outputs));
        // Once `finish` holds the session it waits on the latched
        // coordinator, with the backlog still on disk.
        let taken = |t: &LatchedTenant| {
            let state = t.server.shared.state.lock();
            (state.tenants.get(&id)).is_some_and(|tenant| tenant.session.is_none())
        };
        while !taken(&t) {
            thread::yield_now();
        }
        let before = t.server.metrics();
        assert_eq!(t.server.open_tenants(), 1, "a finishing tenant is open");
        assert!(before.open.iter().any(|(t, _)| *t == id), "{before:?}");
        assert!(before.spilled_segments() > 0, "nothing on disk");
        release(&t.latch);
        let outputs = within_a_minute(move || finishing.join().expect("finish panicked"));
        assert_eq!(outputs.expect("finish"), prefix_sums(16));
        let after = t.server.metrics();
        assert_eq!(t.server.open_tenants(), 0);
        assert!(after.retired.iter().any(|(t, _)| *t == id), "{after:?}");
        assert_eq!(after.spilled_segments(), before.spilled_segments());
    }

    #[test]
    fn corrupt_spill_segment_fails_the_tenant() {
        let root = std::env::temp_dir().join(format!("stats-spill-corrupt-{}", std::process::id()));
        let t = LatchedTenant::open(
            ServerOptions::default()
                .spill_dir(root.clone())
                .spill_mem_capacity(2)
                .spill_segment(2),
            None,
        );
        // Input 1 fills the queue, 2 and 3 the in-memory head, and 4..16
        // go to disk two at a time.
        assert_eq!(t.tenant.try_push_batch(1..16).expect("burst"), 15);
        let dir = root.join(format!("tenant-{}", t.tenant.id()));
        std::fs::write(dir.join("seg-00000000.spill"), [0u8; 3]).expect("truncate");
        release(&t.latch);
        // Inputs 0 to 3 run; the refill that follows input 3 reads the
        // truncated segment, and the intake admits nothing past it.
        await_entered(&t.entered, 4);
        assert!(matches!(t.tenant.try_push(16), Err(ServeError::Spill(_))));
        let tenant = t.tenant.clone();
        match within_a_minute(move || tenant.finish().map(|o| o.outputs)) {
            Err(ServeError::Spill(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
            other => panic!("expected the spill failure, got {other:?}"),
        }
        assert_eq!(
            t.entered.load(Ordering::SeqCst),
            4,
            "ran past the lost segment"
        );
        assert!(!dir.exists(), "segment files outlived the tenant");
        drop(t);
        let _ = std::fs::remove_dir(&root);
    }

    #[test]
    fn dropping_the_server_never_raises_a_tenant_panic() {
        let server = SessionServer::new(Arc::new(ThreadPool::new(1)), ServerOptions::default());
        let bad = server.open_tenant(
            ExactState(0),
            Exploding,
            RunOptions::default().config(SpecConfig::sequential()),
        );
        let _ = bad.try_push_batch(0..8);
        drop(bad);
        drop(server);
    }

    #[test]
    fn a_tenant_panic_never_reaches_another_tenants_finish() {
        let server = SessionServer::new(Arc::new(ThreadPool::new(1)), ServerOptions::default());
        let bad = server.open_tenant(
            ExactState(0),
            Exploding,
            RunOptions::default().config(SpecConfig::sequential()),
        );
        let good = server.open_tenant(
            ExactState(0),
            Exploding,
            RunOptions::default().config(SpecConfig::sequential()),
        );
        let _ = bad.try_push_batch(0..8);
        good.try_push_batch(0..3).expect("small inputs");
        drop((bad, server));
        // `good` holds the last server reference: its finish lets the
        // exploded tenant go.
        assert_eq!(good.finish().expect("finish").outputs, vec![0, 1, 2]);
    }

    #[test]
    fn default_spill_dir_goes_with_the_server() {
        let t = LatchedTenant::open(
            ServerOptions::default()
                .spill_mem_capacity(2)
                .spill_segment(2),
            None,
        );
        assert_eq!(t.tenant.try_push_batch(1..16).expect("burst"), 15);
        let root = t.server.shared.spill_dir.clone();
        assert!(root.exists(), "nothing spilled to {}", root.display());
        release(&t.latch);
        assert_eq!(t.tenant.finish().expect("finish").outputs, prefix_sums(16));
        drop(t.server);
        assert!(!root.exists(), "{} outlived its server", root.display());
    }
}

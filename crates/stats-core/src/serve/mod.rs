//! The multi-tenant session service: one shared [`ThreadPool`], many
//! tenant [`Session`]s behind per-tenant handles.
//!
//! A [`SessionServer`] is the front door the ROADMAP's "millions of users"
//! item asks for. Each tenant opens a handle with its own seed, config,
//! and [`Priority`](crate::Priority); the server multiplexes their
//! speculative groups onto the one pool while three mechanisms keep the
//! tenants isolated from each other:
//!
//! - **Admission windows** — every tenant's session keeps a small bounded
//!   queue (`session_queue_capacity`) and a capped number of inflight
//!   speculative groups, so no single stream can monopolize pool slots;
//! - **Fairness** — overflow beyond the admission window lands in a
//!   per-tenant [`SpillQueue`], and a dedicated `stats-serve` dispatcher
//!   thread refills session queues from those backlogs under a
//!   [`FairnessPolicy`] (deficit-weighted round-robin by default), so a
//!   bursty tenant waits on its own backlog, not on everyone's;
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

mod admission;
mod spill;

pub use crate::codec::SpillCodec;
pub use admission::FairnessPolicy;
pub use spill::{SpillEffect, SpillQueue, SpillStats};

use std::io;
use std::path::PathBuf;
use std::time::Duration;

#[cfg(not(loom))]
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{thread, Arc, Condvar, Mutex};

use crate::obs::{EventKind, EventSink, NoopSink};
use crate::options::RunOptions;
use crate::pool::ThreadPool;
use crate::runtime::SpecOutcome;
use crate::sdi::StateTransition;
use crate::session::{PushError, Session, SessionError};

use admission::DeficitState;

/// Distinguishes concurrently-created servers' default spill directories.
/// (Gated off under loom, whose atomics are not const-constructible in
/// statics; the loom models never construct a server.)
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
    /// How admission capacity is divided between backlogged tenants.
    pub fairness: FairnessPolicy,
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
            fairness: FairnessPolicy::default(),
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
    /// Choose the fairness policy.
    pub fn fairness(mut self, fairness: FairnessPolicy) -> Self {
        self.fairness = fairness;
        self
    }

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
    /// Inputs the dispatcher moved from the spill queue into the session
    /// under the fairness policy.
    pub admitted: u64,
    /// Dispatch rounds in which this tenant moved at least one input.
    pub admission_rounds: u64,
    /// Spill activity (segments written/replayed).
    pub spill: SpillStats,
    /// The tenant's fairness weight.
    pub weight: u32,
}

/// A point-in-time snapshot of [`SessionServer`] activity.
#[derive(Debug, Clone, Default)]
pub struct ServerMetrics {
    /// Dispatcher rounds that found at least one backlogged tenant.
    pub dispatch_rounds: u64,
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

/// One tenant's server-side state.
struct TenantSlot<T: StateTransition> {
    session: Session<T>,
    spill: SpillQueue<T::Input>,
    drr: DeficitState,
    weight: u32,
    metrics: TenantMetrics,
    /// New pushes rejected; the dispatcher still drains the backlog.
    closing: bool,
    /// The session can no longer accept inputs (coordinator gone) or the
    /// spill queue failed; the dispatcher skips it and `finish` reports.
    dead: bool,
    /// A spill I/O failure to surface at `finish`.
    spill_failed: Option<io::Error>,
}

struct ServerState<T: StateTransition> {
    tenants: Vec<Option<TenantSlot<T>>>,
    retired: Vec<(usize, TenantMetrics)>,
    cursor: usize,
    rounds: u64,
    shutdown: bool,
}

struct ServerShared<T: StateTransition> {
    state: Mutex<ServerState<T>>,
    /// Signaled when a backlog appears (spilled push), a tenant closes,
    /// or the server shuts down.
    work: Condvar,
    /// Signaled when a closing tenant's backlog drains (or its session
    /// dies), so `finish` can proceed.
    drained: Condvar,
    fairness: FairnessPolicy,
    sink: Arc<dyn EventSink>,
    spill_dir: PathBuf,
    spill_mem_capacity: usize,
    spill_segment: usize,
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
    dispatcher: Option<thread::JoinHandle<()>>,
}

/// A tenant's handle onto a [`SessionServer`]: the only way inputs enter
/// and the outcome leaves. Clonable so multiple producer threads can feed
/// one tenant; [`finish`](TenantHandle::finish) may be called from any
/// one clone.
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
    /// Stand up a server multiplexing tenants over `pool`, spawning the
    /// `stats-serve` dispatcher thread.
    pub fn new(pool: Arc<ThreadPool>, options: ServerOptions) -> Self {
        let spill_dir = options.spill_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!(
                "stats-serve-{}-{}",
                std::process::id(),
                next_server_instance()
            ))
        });
        let shared = Arc::new(ServerShared {
            state: Mutex::new(ServerState {
                tenants: Vec::new(),
                retired: Vec::new(),
                cursor: 0,
                rounds: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            drained: Condvar::new(),
            fairness: options.fairness,
            sink: Arc::clone(&options.sink),
            spill_dir,
            spill_mem_capacity: options.spill_mem_capacity.max(1),
            spill_segment: options.spill_segment.max(1),
        });
        let thread_shared = Arc::clone(&shared);
        let dispatcher = thread::Builder::new()
            .name("stats-serve".into())
            .spawn(move || dispatcher_main(&thread_shared))
            .expect("failed to spawn serve dispatcher");
        SessionServer {
            shared,
            pool,
            session_queue_capacity: options.session_queue_capacity.max(1),
            max_inflight_groups: options.max_inflight_groups,
            dispatcher: Some(dispatcher),
        }
    }

    /// Open a weight-1 tenant. The tenant's `options` carry its seed,
    /// config, faults, adaptation, and pool [`Priority`](crate::Priority);
    /// the server overrides the pool (every tenant shares the server's)
    /// and the queue/inflight admission window.
    pub fn open_tenant(
        &self,
        initial: T::State,
        transition: T,
        options: RunOptions,
    ) -> TenantHandle<T> {
        self.open_tenant_weighted(initial, transition, options, 1)
    }

    /// Open a tenant with a fairness `weight`: under
    /// [`FairnessPolicy::DeficitWeighted`], a weight-`w` tenant earns `w`
    /// times the admission credits of a weight-1 tenant per round.
    pub fn open_tenant_weighted(
        &self,
        initial: T::State,
        transition: T,
        options: RunOptions,
        weight: u32,
    ) -> TenantHandle<T> {
        let options = options
            .pool(Arc::clone(&self.pool))
            .queue_capacity(self.session_queue_capacity)
            .max_inflight_groups(self.max_inflight_groups);
        let session = Session::new(initial, transition, options);
        let mut state = self.shared.state.lock();
        let id = state.tenants.len();
        let spill = SpillQueue::new(
            self.shared.spill_dir.join(format!("tenant-{id}")),
            self.shared.spill_mem_capacity,
            self.shared.spill_segment,
        );
        state.tenants.push(Some(TenantSlot {
            session,
            spill,
            drr: DeficitState::default(),
            weight: weight.max(1),
            metrics: TenantMetrics {
                weight: weight.max(1),
                ..TenantMetrics::default()
            },
            closing: false,
            dead: false,
            spill_failed: None,
        }));
        drop(state);
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
            dispatch_rounds: state.rounds,
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

impl<T: StateTransition> Drop for SessionServer<T> {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
        // Unfinished tenant sessions drop here: each drains what was
        // admitted and joins its coordinator (spilled-but-never-admitted
        // inputs are abandoned — finishing tenants is the caller's job).
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
    /// taking the producer down.
    pub fn try_push(&self, input: T::Input) -> Result<(), ServeError> {
        let mut state = self.shared.state.lock();
        let state = &mut *state;
        let Some(slot) = state.tenants.get_mut(self.id).and_then(Option::as_mut) else {
            return Err(ServeError::TenantClosed);
        };
        if slot.closing {
            return Err(ServeError::TenantClosed);
        }
        if let Some(e) = slot.spill_failed.take() {
            return Err(ServeError::Spill(e));
        }
        // Fast path: with no backlog ahead of it, the input may enter the
        // session directly (FIFO order is preserved by construction).
        if slot.spill.is_empty() {
            match slot.session.offer(input) {
                Ok(None) => {
                    slot.metrics.pushed += 1;
                    slot.metrics.fast_path += 1;
                    return Ok(());
                }
                Ok(Some(input)) => {
                    return self.spill_push(slot, input);
                }
                Err(e) => {
                    slot.dead = true;
                    self.shared.drained.notify_all();
                    return Err(ServeError::Push(e));
                }
            }
        }
        if slot.dead {
            // The dispatcher saw the session die; reproduce its error.
            return match slot.session.offer(input) {
                Err(e) => Err(ServeError::Push(e)),
                Ok(_) => Err(ServeError::TenantClosed),
            };
        }
        self.spill_push(slot, input)
    }

    /// Spill-queue a burst input, emitting the segment-write event when
    /// the push tipped a segment onto disk.
    fn spill_push(&self, slot: &mut TenantSlot<T>, input: T::Input) -> Result<(), ServeError> {
        match slot.spill.push(input) {
            Ok(effect) => {
                slot.metrics.pushed += 1;
                if let SpillEffect::Spilled { segment, inputs } = effect {
                    if self.shared.sink.enabled() {
                        self.shared.sink.emit(EventKind::SpillWrite {
                            tenant: self.id,
                            segment,
                            inputs,
                        });
                    }
                }
                // A backlog now exists: the dispatcher owns draining it.
                self.shared.work.notify_all();
                Ok(())
            }
            Err(e) => {
                slot.dead = true;
                self.shared.drained.notify_all();
                Err(ServeError::Spill(e))
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

    /// Close this tenant's stream, wait for its backlog to drain through
    /// the fairness dispatcher and for every input to be processed, and
    /// return the outcome. Fails — never panics — if the tenant's
    /// transition panicked ([`ServeError::Session`] carries the payload's
    /// message) or spilling failed. Only one clone of the handle can
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
        self.shared.work.notify_all();
        // Wait for the dispatcher to drain the backlog (or for the
        // session to die trying).
        loop {
            let slot = state.tenants[self.id].as_ref().expect("closing tenant");
            if slot.dead || slot.spill.is_empty() {
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
            spill_failed,
            ..
        } = slot;
        drop(spill); // removes any leftover segment files
        if let Some(e) = spill_failed {
            return Err(ServeError::Spill(e));
        }
        match session.try_finish() {
            Ok(outcome) => Ok(outcome),
            Err(e) => Err(ServeError::Session(e)),
        }
    }
}

/// The `stats-serve` dispatcher: deficit-round-robin admission from spill
/// backlogs into session queues, until shutdown.
fn dispatcher_main<T: StateTransition>(shared: &Arc<ServerShared<T>>)
where
    T::Input: SpillCodec,
{
    let mut state = shared.state.lock();
    loop {
        if state.shutdown {
            return;
        }
        let n = state.tenants.len();
        let mut moved_total = 0usize;
        let mut backlog = false;
        let start = if n == 0 { 0 } else { state.cursor % n };
        state.cursor = state.cursor.wrapping_add(1);
        let mut events: Vec<EventKind> = Vec::new();
        let mut drained_someone = false;
        for off in 0..n {
            let id = (start + off) % n;
            let fairness = shared.fairness;
            let Some(slot) = state.tenants[id].as_mut() else {
                continue;
            };
            if slot.dead || slot.spill.is_empty() {
                continue;
            }
            backlog = true;
            let budget = slot.drr.earn(&fairness, slot.weight);
            let mut moved = 0usize;
            while moved < budget {
                match slot.spill.pop() {
                    Ok(Some((input, replay))) => {
                        if let Some((segment, inputs)) = replay {
                            events.push(EventKind::SpillReplay {
                                tenant: id,
                                segment,
                                inputs,
                            });
                        }
                        match slot.session.offer(input) {
                            Ok(None) => {
                                moved += 1;
                                slot.drr.spend();
                            }
                            Ok(Some(input)) => {
                                // Session full: give the input back and
                                // keep the unspent credit for next round.
                                slot.spill.push_front_undo(input);
                                break;
                            }
                            Err(_) => {
                                slot.dead = true;
                                drained_someone = true;
                                break;
                            }
                        }
                    }
                    Ok(None) => {
                        slot.drr.forfeit();
                        break;
                    }
                    Err(e) => {
                        slot.spill_failed = Some(e);
                        slot.dead = true;
                        drained_someone = true;
                        break;
                    }
                }
            }
            if moved > 0 {
                moved_total += moved;
                slot.metrics.admitted += moved as u64;
                slot.metrics.admission_rounds += 1;
                events.push(EventKind::TenantAdmission {
                    tenant: id,
                    admitted: moved,
                });
                if slot.closing && slot.spill.is_empty() {
                    drained_someone = true;
                }
            }
        }
        if backlog {
            state.rounds += 1;
        }
        if drained_someone {
            shared.drained.notify_all();
        }
        if !events.is_empty() && shared.sink.enabled() {
            for event in events {
                shared.sink.emit(event);
            }
        }
        if moved_total == 0 {
            if backlog {
                // Sessions are the bottleneck; they drain asynchronously
                // and do not signal the server, so poll briefly.
                shared.work.wait_for(&mut state, Duration::from_micros(500));
            } else {
                // Nothing queued anywhere: sleep until a push/close/
                // shutdown signals `work`.
                shared.work.wait(&mut state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::InvocationCtx;
    use crate::protocol::SpecConfig;
    use crate::sdi::{ExactState, SpecState};

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

    #[test]
    fn weighted_tenant_gets_more_admission_credit() {
        // Whether a `try_push` takes the fast path or spills races with the
        // tenant's session, so the backlog is built under the state lock,
        // which the dispatcher holds for a whole round: both tenants are
        // fully backlogged before the first round, and the session window
        // holds every input, so each round moves exactly the tenant's
        // credit — `quantum` for weight 1, `4 * quantum` for weight 4.
        const INPUTS: u64 = 128;
        const QUANTUM: u64 = 2;
        let pool = Arc::new(ThreadPool::new(1));
        let server = SessionServer::new(
            Arc::clone(&pool),
            ServerOptions::default()
                .session_queue_capacity(INPUTS as usize)
                .spill_mem_capacity(8)
                .spill_segment(8)
                .fairness(FairnessPolicy::DeficitWeighted {
                    quantum: QUANTUM as usize,
                }),
        );
        let light = server.open_tenant(
            Noisy(0.0),
            NoisyLast,
            RunOptions::default().config(config()).seed(1),
        );
        let heavy = server.open_tenant_weighted(
            Noisy(0.0),
            NoisyLast,
            RunOptions::default().config(config()).seed(2),
            4,
        );
        {
            let mut state = server.shared.state.lock();
            for handle in [&light, &heavy] {
                let slot = state.tenants[handle.id].as_mut().expect("open tenant");
                for i in 0..INPUTS {
                    handle.spill_push(slot, i).expect("spill");
                }
            }
        }
        let lo = light.finish().expect("light");
        let hi = heavy.finish().expect("heavy");
        assert_eq!(lo.outputs.len(), INPUTS as usize);
        assert_eq!(hi.outputs.len(), INPUTS as usize);
        let m = server.metrics();
        let light_m = m.tenant(0).expect("light metrics");
        let heavy_m = m.tenant(1).expect("heavy metrics");
        for t in [light_m, heavy_m] {
            assert_eq!((t.pushed, t.fast_path, t.admitted), (INPUTS, 0, INPUTS));
        }
        assert_eq!(light_m.admission_rounds, INPUTS / QUANTUM);
        assert_eq!(heavy_m.admission_rounds, INPUTS / (4 * QUANTUM));
        assert_eq!(m.dispatch_rounds, light_m.admission_rounds);
    }
}

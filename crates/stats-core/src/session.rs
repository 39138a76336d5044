//! The streaming speculation engine: a long-lived [`Session`] that accepts
//! inputs incrementally and runs the §3.1 execution model over them as they
//! arrive.
//!
//! A `Session` keeps one [`ThreadPool`](crate::ThreadPool), one
//! [`EventSink`], and one tuned [`SpecConfig`] alive across an entire input
//! stream instead of paying for them per call. Producers
//! `push`/`push_batch` into a bounded queue (backpressure: a full queue
//! blocks the producer until it has drained to half; a
//! [`SessionServer`](crate::serve::SessionServer) tenant's session spills
//! the overflow to its own backlog instead); a dedicated
//! `stats-stream` coordinator thread runs the linear engine every run
//! uses, with the queue as its input intake: it forms groups as inputs
//! arrive, runs group 0 itself, submits each later group to the pool once
//! its inputs are complete, and overlaps validation + commit of group `k`
//! with the execution of later groups already in flight. When the
//! coordinator would otherwise park and the group its resolver needs next
//! has not been started by any worker, it runs that group itself; once the
//! stream has shown that workers start groups later than the coordinator
//! finishes one, it runs every later group itself (the pooled executor's
//! cost gate).
//!
//! **What a stream retains.** A segment's coordinator holds the inputs it
//! took off the queue only until no group can read them again — the last
//! settled group's tail (a re-execution reads it) and the auxiliary window
//! of the next group — so what it holds is bounded by its admission
//! window, not by the stream's length. It keeps the segment's committed
//! outputs, and one record per group and one work meter per input in
//! blocks of at most 64 KiB that never reallocate, taken from a spare
//! store the whole process shares (`resolver.rs`). The result keeps those
//! records, not a trace: the trace is laid out from them only when a
//! caller reads it, and once it is laid out, or the result dropped, the
//! blocks go back to the store, up to a bound, for the next stream to
//! take. So the next stream grows its records in blocks the last one
//! used, not in memory the allocator gave back to the kernel:
//! `tests/stream_faults.rs` reads 0 minor faults per 20 000-input stream,
//! and `tests/stream_allocations.rs` pins that a stream whose trace is
//! never read allocates less than its trace would take.
//! States are held only for the last settled group (final state and
//! checkpoint) and for the groups in flight, at most
//! `max_inflight_groups` past the settled prefix: a
//! stream's live states are bounded by its admission window, not its
//! length.
//!
//! **Determinism contract**: for the same seed and the same input order,
//! `Session` is bit-identical — outputs, final state, [`SpecReport`], and
//! [`SpecTrace`](crate::SpecTrace) — to the batch
//! [`run_protocol`](crate::run_protocol) over the concatenated inputs,
//! regardless of how pushes were chunked. The property-based test suite
//! (`tests/streaming_properties.rs`) checks exactly this. See
//! `docs/streaming.md` for lifecycle and backpressure details.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::panic::AssertUnwindSafe;

use crate::sync::{thread, Arc, Condvar, Mutex};

use crate::adapt::SegmentControl;
use crate::faults::FaultKind;
use crate::obs::EventKind;
use crate::options::RunOptions;
use crate::protocol::{
    run_linear, run_segments, Arrived, GroupData, Groups, Intake, ProtocolResult, RunCtx, Window,
};
use crate::runtime::{resolve_pool, Pooled, Shared, SpecOutcome};
use crate::sdi::StateTransition;
use crate::serve::Backlog;

/// Everything shared between producers, the coordinator, and pool jobs.
pub(crate) struct StreamShared<T: StateTransition> {
    inner: Mutex<StreamInner<T>>,
    /// Signaled when queue space frees up (or the coordinator dies).
    producer: Condvar,
    /// Signaled when inputs, a finished group, or a close arrive.
    coordinator: Condvar,
    capacity: usize,
}

struct StreamInner<T: StateTransition> {
    queue: VecDeque<T::Input>,
    /// A server tenant's overflow: inputs that found the queue full wait
    /// here, behind it, and the coordinator moves them in, oldest first,
    /// whenever the queue has drained to half. So the queue is never empty
    /// while the backlog is not. A backlog that fails closes the stream.
    backlog: Option<Backlog<T::Input>>,
    /// No input arrives past the queue: the stream was finished, or its
    /// backlog failed.
    closed: bool,
    /// Set when the coordinator thread exits (normally or by panic), so
    /// blocked producers fail fast instead of waiting forever.
    coordinator_gone: bool,
    /// Human-readable message of the panic that killed the coordinator,
    /// recorded before `coordinator_gone` is raised so a failing
    /// [`Session::try_push`] can report *why* the front door is closed.
    gone_message: Option<String>,
}

impl<T: StateTransition> StreamInner<T> {
    /// Why a server tenant's push is refused now, if it is.
    fn refusal(&self) -> Option<Refusal> {
        if let Some(e) = self.backlog.as_ref().and_then(|b| b.failed.as_ref()) {
            // A copy: the failure stays recorded (`io::Error` is not `Clone`).
            Some(Refusal::Spill(io::Error::new(e.kind(), e.to_string())))
        } else if self.closed {
            Some(Refusal::Closed)
        } else if self.coordinator_gone {
            Some(Refusal::Gone(PushError::coordinator_gone(self)))
        } else {
            None
        }
    }

    /// Record what the backlog did: a failure is sticky, since the input
    /// order is lost, and ends the stream.
    fn spilled(&mut self, result: io::Result<()>) {
        if let (Err(e), Some(backlog)) = (result, &mut self.backlog) {
            backlog.failed = Some(e);
            self.closed = true;
        }
    }
}

/// Why a server tenant's stream refused an input.
pub(crate) enum Refusal {
    /// The tenant's `finish` has closed the stream.
    Closed,
    /// The coordinator has terminated.
    Gone(PushError),
    /// The backlog failed to spill or replay (sticky).
    Spill(io::Error),
}

impl<T: StateTransition> StreamShared<T> {
    /// Take one input for a server tenant without blocking: into the queue
    /// while it has room and nothing is spilled ahead of it, else behind
    /// the backlog.
    pub(crate) fn spill_push(&self, input: T::Input) -> Result<(), Refusal> {
        let mut guard = self.inner.lock();
        if let Some(refused) = guard.refusal() {
            return Err(refused);
        }
        let inner = &mut *guard;
        let queued = inner.queue.len();
        let backlog = (inner.backlog.as_mut()).expect("a server tenant's stream has a backlog");
        let spilled = backlog.push(input, &mut inner.queue, self.capacity);
        inner.spilled(spilled);
        // Nothing else can have changed under the lock: a refusal now is
        // this push's spill failure. A spilled input waits for the
        // coordinator's refill: only a queued one is news to it.
        let refused = inner.refusal();
        let arrived = inner.queue.len() > queued;
        drop(guard);
        if arrived {
            self.coordinator.notify_all();
        }
        refused.map_or(Ok(()), Err)
    }

    /// `f` of a server tenant's backlog, under the stream's lock.
    pub(crate) fn backlog<R>(&self, f: impl FnOnce(&mut Backlog<T::Input>) -> R) -> Option<R> {
        self.inner.lock().backlog.as_mut().map(f)
    }
}

/// A long-lived streaming run of the STATS execution model.
///
/// ```
/// use stats_core::{ExactState, InvocationCtx, RunOptions, Session, SpecConfig, StateTransition};
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
/// let session = Session::new(ExactState(0), Double, RunOptions::default()
///     .config(SpecConfig { group_size: 8, window: 1, ..SpecConfig::default() }));
/// for i in 0..32 {
///     session.push(i);
/// }
/// let outcome = session.finish();
/// assert_eq!(outcome.outputs[5], 10);
/// ```
pub struct Session<T: StateTransition> {
    shared: Arc<StreamShared<T>>,
    handle: Option<thread::JoinHandle<ProtocolResult<T>>>,
}

impl<T: StateTransition> Session<T> {
    /// Open a stream from `initial` under `options`, spawning the
    /// `stats-stream` coordinator thread. The options' pool is shared with
    /// other sessions and dependences; without one, a private pool sized to
    /// the machine is created and kept for the session's whole lifetime.
    pub fn new(initial: T::State, transition: T, options: RunOptions) -> Self {
        Session::with_backlog(initial, transition, options, None)
    }

    /// [`Session::new`] for a server tenant, whose full queue overflows to
    /// `backlog` instead of blocking the producer.
    pub(crate) fn with_backlog(
        initial: T::State,
        transition: T,
        options: RunOptions,
        backlog: Option<Backlog<T::Input>>,
    ) -> Self {
        assert!(
            options.plan.is_none(),
            "RunOptions::plan is batch-only: a Session streams a linear input \
             sequence (run DAG plans through StateDependence or \
             run_protocol_with_options; see docs/dag.md)"
        );
        let pool = resolve_pool(&options);
        let max_inflight = match options.max_inflight_groups {
            0 => pool.threads() + 2,
            n => n,
        };
        let shared = Arc::new(StreamShared {
            inner: Mutex::new(StreamInner {
                queue: VecDeque::new(),
                backlog,
                closed: false,
                coordinator_gone: false,
                gone_message: None,
            }),
            producer: Condvar::new(),
            coordinator: Condvar::new(),
            capacity: options.queue_capacity.max(1),
        });
        let engine = Arc::new(Shared {
            inputs: Vec::new(),
            initial,
            transition,
            options,
        });
        let thread_shared = Arc::clone(&shared);
        let handle = thread::Builder::new()
            .name("stats-stream".into())
            .spawn(move || {
                let _guard = CoordinatorGuard {
                    shared: Arc::clone(&thread_shared),
                };
                match std::panic::catch_unwind(AssertUnwindSafe(|| {
                    // The batch engine's segment loop and per-segment
                    // engine, with each segment read off the queue.
                    let exec = Pooled::new(&engine, &pool);
                    let control = SegmentControl::new(&engine.options);
                    run_segments(
                        engine.ctx(),
                        &engine.initial,
                        control,
                        |ctx, start, limit| {
                            QueueIntake::open(&thread_shared, ctx, limit, max_inflight)
                                .map(|mut intake| run_linear(ctx, &mut intake, start, &exec))
                        },
                    )
                })) {
                    Ok(result) => result,
                    Err(payload) => {
                        // Record the pending panic message *before* the
                        // guard raises `coordinator_gone`, so a producer
                        // failing its `try_push` can report the cause.
                        let mut inner = thread_shared.inner.lock();
                        if inner.gone_message.is_none() {
                            inner.gone_message = Some(panic_message(&*payload));
                        }
                        drop(inner);
                        std::panic::resume_unwind(payload);
                    }
                }
            })
            .expect("failed to spawn stream coordinator");
        Session {
            shared,
            handle: Some(handle),
        }
    }

    /// Enqueue one input. Blocks while the bounded queue is full
    /// (backpressure) until the engine drains it.
    ///
    /// This is a thin panicking wrapper over [`Session::try_push`] for
    /// callers that treat a dead stream as a programming error; a
    /// tenant-facing front door should call `try_push` instead.
    ///
    /// # Panics
    ///
    /// Panics if the coordinator thread has terminated (which only happens
    /// when a transition panicked; the payload is re-raised at `finish()`
    /// or drop).
    pub fn push(&self, input: T::Input) {
        if let Err(e) = self.try_push(input) {
            panic!("{e}; cannot accept inputs");
        }
    }

    /// Enqueue one input, blocking while the bounded queue is full
    /// (backpressure), and failing — never panicking — once the
    /// coordinator thread has terminated. A producer already blocked on a
    /// full queue when the coordinator dies is woken by the coordinator's
    /// exit guard and receives the error instead of hanging.
    ///
    /// The returned [`PushError`] carries the message of the pending panic
    /// that killed the coordinator (the payload itself stays with the
    /// session and is re-raised or reported at
    /// [`finish`](Session::finish)/[`try_finish`](Session::try_finish)).
    pub fn try_push(&self, input: T::Input) -> Result<(), PushError> {
        self.try_push_batch([input]).map(drop)
    }

    /// How many inputs are currently waiting in the bounded queue.
    pub fn queued(&self) -> usize {
        self.shared.inner.lock().queue.len()
    }

    /// Enqueue a batch of inputs, blocking as needed (panicking wrapper
    /// over [`Session::try_push_batch`], like [`push`](Session::push)).
    pub fn push_batch(&self, inputs: impl IntoIterator<Item = T::Input>) {
        if let Err(e) = self.try_push_batch(inputs) {
            panic!("{e}; cannot accept inputs");
        }
    }

    /// Enqueue a batch through the bounded queue in capacity-sized chunks:
    /// one lock acquisition and one coordinator notification per *chunk*
    /// instead of per input (`stats-benchmark`'s
    /// `session.chunk1_ns_per_input` is the same stream pushed one input at
    /// a time). Blocks whenever the queue is full mid-batch; returns how
    /// many inputs were enqueued, which is all of them unless the
    /// coordinator terminated partway (the error reports the pending panic
    /// like [`try_push`](Session::try_push)).
    pub fn try_push_batch(
        &self,
        inputs: impl IntoIterator<Item = T::Input>,
    ) -> Result<usize, PushError> {
        let mut inputs = inputs.into_iter().peekable();
        let mut pushed = 0usize;
        while inputs.peek().is_some() {
            let mut inner = self.shared.inner.lock();
            loop {
                if inner.coordinator_gone {
                    return Err(PushError::coordinator_gone(&inner));
                }
                if inner.queue.len() < self.shared.capacity {
                    break;
                }
                self.shared.producer.wait(&mut inner);
            }
            while inner.queue.len() < self.shared.capacity {
                let Some(input) = inputs.next() else { break };
                inner.queue.push_back(input);
                pushed += 1;
            }
            drop(inner);
            self.shared.coordinator.notify_all();
        }
        Ok(pushed)
    }

    /// Close the stream, wait for every pushed input to be correctly
    /// processed, and return the outcome.
    ///
    /// # Panics
    ///
    /// Re-raises any panic of the transition on the caller's thread. Use
    /// [`Session::try_finish`] to receive the failure as a
    /// [`SessionError`] instead.
    pub fn finish(mut self) -> SpecOutcome<T> {
        match self.try_finish() {
            Ok(outcome) => outcome,
            Err(SessionError::Panicked { payload, .. }) => std::panic::resume_unwind(payload),
            // `finish` consumes the session, so it can only be the first
            // finishing call.
            Err(SessionError::AlreadyFinished) => unreachable!("finish consumes the session"),
        }
    }

    /// Close the stream and return the outcome, reporting a coordinator
    /// panic as a [`SessionError`] instead of re-raising it.
    ///
    /// Idempotent: every call after the first — whether the first
    /// succeeded or failed — returns [`SessionError::AlreadyFinished`],
    /// and dropping an already-finished session is silent even after a
    /// panic (the payload was handed to the first caller).
    pub fn try_finish(&mut self) -> Result<SpecOutcome<T>, SessionError> {
        let Some(handle) = self.handle.take() else {
            return Err(SessionError::AlreadyFinished);
        };
        self.close();
        handle.join().map_err(|payload| SessionError::Panicked {
            message: panic_message(&*payload),
            payload,
        })
    }

    /// The stream's shared state, for a server tenant's handle.
    pub(crate) fn stream(&self) -> Arc<StreamShared<T>> {
        Arc::clone(&self.shared)
    }

    fn close(&self) {
        let mut inner = self.shared.inner.lock();
        inner.closed = true;
        drop(inner);
        self.shared.coordinator.notify_all();
    }
}

/// Why a [`Session::try_push`]/[`Session::try_push_batch`] could not
/// accept an input.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PushError {
    /// The `stats-stream` coordinator thread has terminated, so no input
    /// pushed from now on can ever be processed.
    CoordinatorGone {
        /// Message of the pending panic that killed the coordinator, when
        /// one was recorded (a transition panic); `None` when the
        /// coordinator exited without panicking.
        pending_panic: Option<String>,
    },
}

impl PushError {
    fn coordinator_gone<T: StateTransition>(inner: &StreamInner<T>) -> Self {
        PushError::CoordinatorGone {
            pending_panic: inner.gone_message.clone(),
        }
    }

    /// The pending panic message carried by the error, if any.
    pub fn pending_panic(&self) -> Option<&str> {
        match self {
            PushError::CoordinatorGone { pending_panic } => pending_panic.as_deref(),
        }
    }
}

impl fmt::Display for PushError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PushError::CoordinatorGone { pending_panic } => {
                write!(f, "Session coordinator has terminated")?;
                if let Some(message) = pending_panic {
                    write!(f, " (pending panic: {message})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PushError {}

/// Why a [`Session`] failed to finish.
pub enum SessionError {
    /// The coordinator thread panicked (a transition panicked on the
    /// coordinator or a pool worker). The original payload is preserved so
    /// callers can re-raise it with `std::panic::resume_unwind`.
    Panicked {
        /// Human-readable panic message extracted from the payload.
        message: String,
        /// The original panic payload.
        payload: Box<dyn Any + Send>,
    },
    /// The session was already finished by an earlier
    /// [`Session::finish`]/[`Session::try_finish`] call.
    AlreadyFinished,
}

impl fmt::Debug for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Panicked { message, .. } => f
                .debug_struct("Panicked")
                .field("message", message)
                .finish(),
            SessionError::AlreadyFinished => f.write_str("AlreadyFinished"),
        }
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Panicked { message, .. } => {
                write!(f, "stream coordinator panicked: {message}")
            }
            SessionError::AlreadyFinished => f.write_str("session was already finished"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Best-effort human-readable text from a panic payload.
///
/// `panic!("...")` payloads are `&str`/`String` and pass through verbatim.
/// `panic_any(value)` payloads are typed: `dyn Any` erases the concrete
/// type *name*, so this downcasts the payload shapes tenant transitions
/// actually throw (error trait objects and `Display`-able scalars), naming
/// each via `type_name` and rendering its value. Anything else falls back
/// to the payload's `TypeId` — opaque, but a stable correlator across a
/// server log, unlike the old blanket "non-string panic payload".
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_string();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    macro_rules! typed {
        ($($ty:ty),+ $(,)?) => {
            $(if let Some(v) = payload.downcast_ref::<$ty>() {
                return format!(
                    "typed panic payload {}: {v}",
                    std::any::type_name::<$ty>()
                );
            })+
        };
    }
    typed!(
        Box<dyn std::error::Error + Send + Sync>,
        Box<dyn std::error::Error + Send>,
        std::io::Error,
        std::borrow::Cow<'static, str>,
        i8,
        i16,
        i32,
        i64,
        i128,
        isize,
        u8,
        u16,
        u32,
        u64,
        u128,
        usize,
        f32,
        f64,
        bool,
        char,
    );
    format!("non-string panic payload ({:?})", payload.type_id())
}

/// Dropping a session mid-stream must drain and join cleanly — no leaked
/// `stats-stream` coordinator thread, mirroring `StateDependence`'s
/// Drop-join — and must not swallow transition panics: they re-raise here
/// unless the drop is itself part of a panic unwind.
impl<T: StateTransition> Drop for Session<T> {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.close();
            if let Err(payload) = handle.join() {
                if !thread::panicking() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

/// Marks the coordinator as gone on any exit path, so producers blocked on
/// a full queue wake up and fail instead of hanging.
struct CoordinatorGuard<T: StateTransition> {
    shared: Arc<StreamShared<T>>,
}

impl<T: StateTransition> Drop for CoordinatorGuard<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock();
        inner.coordinator_gone = true;
        drop(inner);
        self.shared.producer.notify_all();
    }
}

/// A stream segment's intake: the inputs taken off the bounded queue so
/// far, `limit` at most. The one place that admits inputs (never more than
/// `max_inflight` groups past the resolved prefix, so an unbounded stream
/// cannot pile up unresolved speculative groups), injects `QueueStall`,
/// refills the queue from a server tenant's backlog, wakes blocked
/// producers, and waits for inputs, the close and group results at once.
struct QueueIntake<'a, T: StateTransition> {
    shared: &'a Arc<StreamShared<T>>,
    ctx: RunCtx<'a, T>,
    limit: usize,
    max_inflight: usize,
    /// The inputs taken off the queue from input `base` on: those before
    /// it no group reads again ([`Intake::release`]).
    held: Vec<T::Input>,
    base: usize,
    closed: bool,
}

impl<'a, T: StateTransition> QueueIntake<'a, T> {
    /// Block until an input is queued (`Some`), or the stream is closed with
    /// nothing left (`None`): a segment is never empty.
    fn open(
        shared: &'a Arc<StreamShared<T>>,
        ctx: RunCtx<'a, T>,
        limit: usize,
        max_inflight: usize,
    ) -> Option<Self> {
        let mut inner = shared.inner.lock();
        while inner.queue.is_empty() {
            if inner.closed {
                return None;
            }
            shared.coordinator.wait(&mut inner);
        }
        Some(QueueIntake {
            shared,
            ctx,
            limit,
            max_inflight,
            held: Vec::new(),
            base: 0,
            closed: false,
        })
    }

    /// How many inputs the segment has taken off the queue.
    fn taken(&self) -> usize {
        self.base + self.held.len()
    }
}

impl<T: StateTransition> Intake<T> for QueueIntake<'_, T> {
    fn arrived(&self) -> (Arrived<'_, T::Input>, bool) {
        let arrived = Arrived {
            held: &self.held,
            base: self.base,
        };
        (arrived, self.closed)
    }

    fn limit(&self) -> usize {
        self.limit
    }

    /// A pool job gets a copy of only the inputs it reads.
    fn window(&self, lo: usize, hi: usize) -> Window<T::Input> {
        Window::Copied {
            inputs: self.held[lo - self.base..hi - self.base].to_vec(),
            base: lo,
        }
    }

    /// The released inputs are dropped once they are at least as many as
    /// the inputs held past them, so each input is moved at most once on
    /// average, and the segment holds at most about twice its admission
    /// window however long it runs.
    fn release(&mut self, from: usize) {
        let done = from.saturating_sub(self.base);
        if done > 0 && 2 * done >= self.held.len() {
            self.held.drain(..done);
            self.base = from;
        }
    }

    /// A stored result wakes the coordinator by taking `inner` — the lock
    /// it looks for results under — strictly after the store: it either
    /// sees the result or is already waiting.
    fn wake(&self) -> impl Fn() + Send + Sync + 'static {
        let shared = Arc::clone(self.shared);
        move || {
            drop(shared.inner.lock());
            shared.coordinator.notify_all();
        }
    }

    fn wait(
        &mut self,
        groups: &mut impl Groups<T>,
        next: &mut Option<GroupData<T>>,
        settled: usize,
        group_size: usize,
    ) {
        let shared = &**self.shared;
        let admit = (settled + self.max_inflight)
            .saturating_mul(group_size)
            .min(self.limit);
        let mut stalls = Vec::new();
        let mut inner = shared.inner.lock();
        let mut may_help = true;
        let room = loop {
            let mut actionable = false;
            while !self.closed && self.taken() < admit {
                let Some(item) = inner.queue.pop_front() else {
                    break;
                };
                let i = self.taken();
                let stall = self
                    .ctx
                    .faults
                    .and_then(|plan| plan.delay(FaultKind::QueueStall, self.ctx.seed, i as u64));
                stalls.extend(stall.map(|delay| (i, delay)));
                self.held.push(item);
                actionable = true;
            }
            // A producer blocked on the full queue is woken once the queue
            // has drained to half: it then refills many slots per wake-up,
            // where a wake-up per pop bought one slot each. The coordinator
            // never waits for a producer while inputs are queued, so the
            // queue always gets there. A visit that pops always ends below,
            // so the signal (after the unlock) comes before any park. A
            // server tenant's backlog moves in at the same point.
            let room = actionable && inner.queue.len() <= shared.capacity / 2;
            let held = &mut *inner;
            if let Some(backlog) = held.backlog.as_mut().filter(|b| room && b.failed.is_none()) {
                let refilled = backlog.refill(&mut held.queue, shared.capacity);
                held.spilled(refilled);
            }
            if !self.closed
                && (self.taken() == self.limit || (inner.closed && inner.queue.is_empty()))
            {
                self.closed = true;
                actionable = true;
            }
            // `next` is empty only once group 0 is ingested, so the
            // batch's next result is the one the resolver needs.
            if next.is_none() {
                *next = groups.try_next(self.arrived().0);
            }
            if actionable || next.is_some() {
                break room;
            }
            // About to park. If no worker has started the group the
            // resolver needs next, run it here (unlocked: its wake-up takes
            // `inner`) and look again. One attempt per visit: after it the
            // group is stored or in a worker's hands, and that worker will
            // wake us.
            if may_help {
                may_help = false;
                drop(inner);
                groups.claim_next();
                inner = shared.inner.lock();
                continue;
            }
            shared.coordinator.wait(&mut inner);
        };
        drop(inner);
        if room {
            shared.producer.notify_all();
        }
        // Injected queue stalls: the coordinator sleeps outside the lock
        // (producers keep filling the freed queue space meanwhile).
        for (site, delay) in stalls {
            self.ctx.emit(EventKind::FaultInjected {
                kind: FaultKind::QueueStall,
                site,
                attempt: 0,
            });
            thread::sleep(delay);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::ctx::InvocationCtx;
    use crate::pool::ThreadPool;
    use crate::protocol::{run_protocol, SpecConfig};
    use crate::sdi::{ExactState, SpecState};
    use crate::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Clone, Debug)]
    struct Noisy(f64);
    impl SpecState for Noisy {
        fn matches_any(&self, originals: &[Self]) -> bool {
            originals.iter().any(|o| (o.0 - self.0).abs() < 0.5)
        }
    }

    struct NoisyLast;
    impl StateTransition for NoisyLast {
        type Input = f64;
        type State = Noisy;
        type Output = f64;
        fn compute_output(&self, input: &f64, state: &mut Noisy, ctx: &mut InvocationCtx) -> f64 {
            ctx.charge(5.0);
            state.0 = *input + ctx.uniform(-0.1, 0.1);
            state.0
        }
    }

    fn config() -> SpecConfig {
        SpecConfig {
            group_size: 4,
            window: 1,
            max_reexec: 2,
            rollback: 1,
            ..SpecConfig::default()
        }
    }

    fn options(seed: u64) -> RunOptions {
        RunOptions::default()
            .pool(Arc::new(ThreadPool::new(2)))
            .config(config())
            .seed(seed)
    }

    #[test]
    fn streamed_matches_batch_reference() {
        let inputs: Vec<f64> = (0..26).map(f64::from).collect();
        for seed in [0u64, 3, 11] {
            let reference = run_protocol(&NoisyLast, &inputs, &Noisy(0.0), &config(), seed);
            let session = Session::new(Noisy(0.0), NoisyLast, options(seed));
            session.push_batch(inputs.clone());
            let outcome = session.finish();
            assert_eq!(outcome.outputs, reference.outputs, "seed {seed}");
            assert_eq!(outcome.report, reference.report, "seed {seed}");
            assert_eq!(outcome.trace, reference.trace, "seed {seed}");
        }
    }

    #[test]
    fn empty_session_returns_initial_state() {
        let session = Session::new(Noisy(7.5), NoisyLast, options(0));
        let outcome = session.finish();
        assert!(outcome.outputs.is_empty());
        assert!((outcome.final_state.0 - 7.5).abs() < f64::EPSILON);
        assert!(outcome.trace.nodes.is_empty());
    }

    /// A transition that blocks on a gate until released, so tests can pin
    /// the stream mid-group.
    struct Gated {
        entered: Arc<AtomicUsize>,
        gate: Arc<(Mutex<bool>, Condvar)>,
    }
    impl StateTransition for Gated {
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
            let (lock, cvar) = &*self.gate;
            let mut open = lock.lock();
            while !*open {
                cvar.wait(&mut open);
            }
            ctx.charge(1.0);
            state.0 = state.0.wrapping_add(*input);
            state.0
        }
    }

    #[test]
    fn full_queue_blocks_producer_instead_of_growing() {
        let capacity = 3usize;
        let entered = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let session = Session::new(
            ExactState(0u64),
            Gated {
                entered: Arc::clone(&entered),
                gate: Arc::clone(&gate),
            },
            RunOptions::default()
                .pool(Arc::new(ThreadPool::new(1)))
                .config(config())
                .queue_capacity(capacity),
        );
        // The coordinator consumes the first input and blocks inside the
        // gated transition; wait until it is provably inside.
        session.push(1);
        while entered.load(Ordering::SeqCst) == 0 {
            thread::yield_now();
        }
        // A producer can now enqueue at most `capacity` more inputs before
        // blocking. Count successful pushes from a helper thread.
        let pushed = Arc::new(AtomicUsize::new(0));
        let producer = {
            let pushed = Arc::clone(&pushed);
            let session = Arc::new(session);
            let handle_session = Arc::clone(&session);
            let handle = thread::spawn(move || {
                for i in 2..=20u64 {
                    handle_session.push(i);
                    pushed.fetch_add(1, Ordering::SeqCst);
                }
            });
            (handle, session)
        };
        let (handle, session) = producer;
        // Give the producer ample time to push as far as it can.
        thread::sleep(Duration::from_millis(200));
        let stalled_at = pushed.load(Ordering::SeqCst);
        assert!(
            stalled_at <= capacity + 1,
            "producer pushed {stalled_at} inputs past a full queue of {capacity}"
        );
        // Open the gate: the stream drains and every push goes through.
        *gate.0.lock() = true;
        gate.1.notify_all();
        handle.join().expect("producer");
        assert_eq!(pushed.load(Ordering::SeqCst), 19);
        let session = Arc::try_unwrap(session).unwrap_or_else(|_| panic!("session still shared"));
        let outcome = session.finish();
        assert_eq!(outcome.outputs.len(), 20);
    }

    /// Short-memory transition that opens its latch when it runs input 0.
    struct OpensOnFirst(Arc<(Mutex<bool>, Condvar)>);
    impl StateTransition for OpensOnFirst {
        type Input = u64;
        type State = ExactState<u64>;
        type Output = u64;
        fn compute_output(
            &self,
            input: &u64,
            state: &mut ExactState<u64>,
            ctx: &mut InvocationCtx,
        ) -> u64 {
            if *input == 0 {
                *self.0 .0.lock() = true;
                self.0 .1.notify_all();
            }
            ctx.charge(1.0);
            state.0 = *input;
            *input
        }
    }

    #[test]
    fn non_speculative_stream_runs_inputs_as_they_arrive() {
        // One group, by speculation off or by a group larger than the
        // stream: group 0 still runs input by input on the coordinator,
        // before the stream is closed — not when the group is complete.
        let one_group = SpecConfig {
            group_size: 64,
            ..config()
        };
        for config in [SpecConfig::sequential(), one_group] {
            let latch = Arc::new((Mutex::new(false), Condvar::new()));
            let session = Session::new(
                ExactState(0u64),
                OpensOnFirst(Arc::clone(&latch)),
                RunOptions::default()
                    .pool(Arc::new(ThreadPool::new(1)))
                    .config(config),
            );
            session.push(0);
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            let mut ran = latch.0.lock();
            while !*ran {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                assert!(!left.is_zero(), "input 0 did not run before finish");
                latch.1.wait_for(&mut ran, left);
            }
            drop(ran);
            assert_eq!(session.finish().outputs, vec![0]);
        }
    }

    /// A transition holding a sentinel `Arc`: once the coordinator thread
    /// (which owns the engine context) has terminated, the count drops.
    struct SentinelLast(#[allow(dead_code)] Arc<()>);
    impl StateTransition for SentinelLast {
        type Input = f64;
        type State = Noisy;
        type Output = f64;
        fn compute_output(&self, input: &f64, state: &mut Noisy, ctx: &mut InvocationCtx) -> f64 {
            ctx.charge(5.0);
            state.0 = *input + ctx.uniform(-0.1, 0.1);
            state.0
        }
    }

    #[test]
    fn dropping_session_mid_stream_drains_and_joins() {
        // The Session counterpart of the StateDependence Drop-join fix:
        // dropping with inputs still queued (mid-group) must drain the
        // stream and join the coordinator, leaking nothing.
        let sentinel = Arc::new(());
        {
            let session = Session::new(Noisy(0.0), SentinelLast(Arc::clone(&sentinel)), options(5));
            session.push_batch((0..13).map(f64::from));
            // Dropped here without finish().
        }
        assert_eq!(
            Arc::strong_count(&sentinel),
            1,
            "stream coordinator still holds the engine context"
        );
    }

    /// A transition that panics on a specific input index.
    struct Exploding;
    impl StateTransition for Exploding {
        type Input = f64;
        type State = Noisy;
        type Output = f64;
        fn compute_output(&self, input: &f64, _: &mut Noisy, ctx: &mut InvocationCtx) -> f64 {
            ctx.charge(1.0);
            if *input >= 6.0 {
                panic!("transition exploded");
            }
            *input
        }
    }

    #[test]
    #[should_panic(expected = "transition exploded")]
    fn finish_propagates_worker_panics() {
        // Input 6 lands in a pool-executed speculative group; the panic
        // must cross worker -> coordinator -> owner.
        let session = Session::new(Noisy(0.0), Exploding, options(1));
        session.push_batch((0..12).map(f64::from));
        session.finish();
    }

    #[test]
    fn worker_panic_does_not_poison_shared_pool() {
        // A worker panic mid-speculative-group must surface at finish()
        // while leaving the shared pool healthy for subsequent runs.
        let pool = Arc::new(ThreadPool::new(2));
        let opts = |seed| {
            RunOptions::default()
                .pool(Arc::clone(&pool))
                .config(config())
                .seed(seed)
        };
        let mut bad = Session::new(Noisy(0.0), Exploding, opts(1));
        bad.push_batch((0..12).map(f64::from));
        let err = match bad.try_finish() {
            Err(e) => e,
            Ok(_) => panic!("worker panic must surface"),
        };
        assert!(err.to_string().contains("transition exploded"), "{err}");
        drop(bad); // silent: the payload was already handed over
        for seed in [0u64, 7, 13] {
            let good = Session::new(Noisy(0.0), NoisyLast, opts(seed));
            good.push_batch((0..16).map(f64::from));
            let outcome = good.finish();
            assert_eq!(outcome.outputs.len(), 16, "seed {seed}");
        }
    }

    #[test]
    fn try_finish_is_idempotent() {
        let mut session = Session::new(Noisy(0.0), NoisyLast, options(2));
        session.push_batch((0..8).map(f64::from));
        let first = session.try_finish().expect("clean run finishes");
        assert_eq!(first.outputs.len(), 8);
        assert!(matches!(
            session.try_finish(),
            Err(SessionError::AlreadyFinished)
        ));
        assert!(matches!(
            session.try_finish(),
            Err(SessionError::AlreadyFinished)
        ));
    }

    #[test]
    fn panicked_session_errors_once_then_reports_already_finished() {
        // The second call path after a coordinator panic is a proper
        // error, not a re-raise.
        let mut session = Session::new(Noisy(0.0), Exploding, options(1));
        session.push_batch((0..12).map(f64::from));
        let err = match session.try_finish() {
            Err(e) => e,
            Ok(_) => panic!("panic must surface as an error"),
        };
        assert!(matches!(err, SessionError::Panicked { .. }));
        assert!(matches!(
            session.try_finish(),
            Err(SessionError::AlreadyFinished)
        ));
    }

    #[test]
    fn push_after_try_finish_fails_without_panicking() {
        // `try_finish` leaves the session usable: a later push is refused
        // with the coordinator's fate, clean or panicked.
        let mut clean = Session::new(Noisy(0.0), NoisyLast, options(2));
        clean.push_batch((0..8).map(f64::from));
        clean.try_finish().expect("clean run finishes");
        let gone = PushError::CoordinatorGone {
            pending_panic: None,
        };
        assert_eq!(clean.try_push(8.0), Err(gone.clone()));
        assert_eq!(clean.try_push_batch([8.0, 9.0]), Err(gone));
        let mut bad = Session::new(Noisy(0.0), Exploding, options(1));
        bad.push_batch((0..12).map(f64::from));
        assert!(bad.try_finish().is_err());
        let err = bad.try_push(12.0).expect_err("the coordinator is gone");
        assert!(
            (err.pending_panic()).is_some_and(|m| m.contains("transition exploded")),
            "{err}"
        );
    }

    /// `Tracked` inputs alive now, and the most alive at once.
    static LIVE_INPUTS: AtomicUsize = AtomicUsize::new(0);
    static PEAK_INPUTS: AtomicUsize = AtomicUsize::new(0);

    /// An input that counts its live instances.
    struct Tracked(f64);
    impl Tracked {
        fn new(value: f64) -> Self {
            let live = LIVE_INPUTS.fetch_add(1, Ordering::SeqCst) + 1;
            PEAK_INPUTS.fetch_max(live, Ordering::SeqCst);
            Tracked(value)
        }
    }
    impl Clone for Tracked {
        fn clone(&self) -> Self {
            Tracked::new(self.0)
        }
    }
    impl Drop for Tracked {
        fn drop(&mut self) {
            LIVE_INPUTS.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// [`NoisyLast`] over `Tracked` inputs.
    struct TrackedLast;
    impl StateTransition for TrackedLast {
        type Input = Tracked;
        type State = Noisy;
        type Output = f64;
        fn compute_output(
            &self,
            input: &Tracked,
            state: &mut Noisy,
            ctx: &mut InvocationCtx,
        ) -> f64 {
            NoisyLast.compute_output(&input.0, state, ctx)
        }
    }

    #[test]
    fn a_stream_holds_inputs_for_its_admission_window_not_its_length() {
        let (inputs, max_inflight, capacity) = (4_000, 4, 64);
        let g = config().group_size;
        let session = Session::new(
            Noisy(0.0),
            TrackedLast,
            options(5)
                .max_inflight_groups(max_inflight)
                .queue_capacity(capacity),
        );
        for i in 0..inputs {
            session.push(Tracked::new(f64::from(i)));
        }
        let outcome = session.finish();
        assert_eq!(
            outcome.report.committed_speculative_groups(),
            inputs as usize / g - 1
        );
        // The producer's input, the queue, the coordinator's admission
        // window — a group past every admitted one, for the last settled
        // group's tail — twice over for released inputs not yet dropped,
        // and a copy of each admitted group's inputs and auxiliary window
        // for the pool.
        let window = (max_inflight + 1) * g;
        let bound = 1 + capacity + 2 * window + window + max_inflight + 1;
        let peak = PEAK_INPUTS.load(Ordering::SeqCst);
        assert!(
            peak <= bound,
            "{peak} live inputs, at most {bound} expected"
        );
    }

    /// A running sum: no group's speculative start matches, so a stream
    /// aborts at group 1 into the sequential tail.
    struct Sum;
    impl StateTransition for Sum {
        type Input = u64;
        type State = ExactState<u64>;
        type Output = u64;
        fn compute_output(
            &self,
            input: &u64,
            state: &mut ExactState<u64>,
            ctx: &mut InvocationCtx,
        ) -> u64 {
            ctx.charge(1.0);
            state.0 = state.0.wrapping_add(*input);
            state.0
        }
    }

    #[test]
    fn a_stream_keeps_the_inputs_its_sequential_tail_has_yet_to_run() {
        let inputs: Vec<u64> = (1..=4_000).collect();
        let reference = run_protocol(&Sum, &inputs, &ExactState(0), &config(), 3);
        assert!(reference.report.aborted);
        // Admitting eight groups ahead lets the coordinator ingest the
        // doomed groups after the abort in the same pass as the abort, and
        // then release the inputs they cover.
        let session = Session::new(
            ExactState(0),
            Sum,
            options(3).max_inflight_groups(8).queue_capacity(16),
        );
        for chunk in inputs.chunks(64) {
            session.push_batch(chunk.iter().copied());
        }
        let outcome = session.finish();
        assert_eq!(outcome.outputs, reference.outputs);
        assert_eq!(outcome.report, reference.report);
    }

    #[test]
    fn streamed_sessions_reuse_one_pool() {
        let pool = Arc::new(ThreadPool::new(2));
        let opts = RunOptions::default()
            .pool(Arc::clone(&pool))
            .config(config())
            .seed(4);
        let inputs: Vec<f64> = (0..16).map(f64::from).collect();
        let a = Session::new(Noisy(0.0), NoisyLast, opts.clone());
        a.push_batch(inputs.clone());
        let oa = a.finish();
        let b = Session::new(Noisy(0.0), NoisyLast, opts);
        b.push_batch(inputs);
        let ob = b.finish();
        assert_eq!(oa.outputs, ob.outputs);
        assert_eq!(Arc::strong_count(&pool), 1, "sessions released the pool");
    }
}

//! Property-based tests of the streaming [`Session`] engine: streamed
//! execution is bit-identical to the batch protocol over the concatenated
//! inputs, for any push chunking, whichever thread runs a group (a pool
//! worker, or the coordinator taking the group back), and the bounded queue
//! really blocks producers (backpressure).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use stats::core::prelude::*;
use stats::core::replay::{replay, SessionLog, SessionRecorder};

/// Nondeterministic short-memory transition with a tolerant comparison —
/// exercises commits, re-executions, and aborts depending on config/seed.
#[derive(Clone, Debug)]
struct Fuzzy(f64);
impl SpecState for Fuzzy {
    fn matches_any(&self, originals: &[Self]) -> bool {
        originals.iter().any(|o| (o.0 - self.0).abs() < 0.3)
    }
}
struct NoisyLast;
impl StateTransition for NoisyLast {
    type Input = u64;
    type State = Fuzzy;
    type Output = f64;
    fn compute_output(&self, input: &u64, state: &mut Fuzzy, ctx: &mut InvocationCtx) -> f64 {
        ctx.charge(2.0);
        state.0 = *input as f64 + ctx.uniform(-0.1, 0.1);
        state.0
    }
}

fn arb_config() -> impl Strategy<Value = SpecConfig> {
    (
        0usize..12,    // group_size
        0usize..5,     // window
        0usize..3,     // max_reexec
        1usize..4,     // rollback
        any::<bool>(), // speculate
    )
        .prop_map(
            |(group_size, window, max_reexec, rollback, speculate)| SpecConfig {
                group_size,
                window,
                max_reexec,
                rollback,
                speculate,
                ..SpecConfig::default()
            },
        )
}

/// Push `inputs` through a fresh session in `chunk`-sized batches and
/// return the outcome. `chunk == 0` means all-at-once.
fn stream(
    inputs: &[u64],
    config: &SpecConfig,
    seed: u64,
    segment: Option<usize>,
    chunk: usize,
) -> SpecOutcome<NoisyLast> {
    let mut options = RunOptions::default().config(config.clone()).seed(seed);
    if let Some(s) = segment {
        options = options.segment(s);
    }
    let session = Session::new(Fuzzy(0.0), NoisyLast, options);
    if chunk == 0 {
        session.push_batch(inputs.iter().copied());
    } else {
        for batch in inputs.chunks(chunk) {
            session.push_batch(batch.iter().copied());
        }
    }
    session.finish()
}

fn assert_identical(
    streamed: &SpecOutcome<NoisyLast>,
    batch: &ProtocolResult<NoisyLast>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&streamed.outputs, &batch.outputs);
    prop_assert!((streamed.final_state.0 - batch.final_state.0).abs() == 0.0);
    prop_assert_eq!(&streamed.report, &batch.report);
    prop_assert_eq!(streamed.trace.nodes.len(), batch.trace.nodes.len());
    for (s, b) in streamed.trace.nodes.iter().zip(&batch.trace.nodes) {
        prop_assert_eq!(s, b);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// BIT-IDENTITY: a streamed run equals `run_protocol` on the
    /// concatenated inputs — outputs, final state, report, and trace —
    /// whatever the push chunking (one-by-one, k at a time, all at once).
    #[test]
    fn streamed_equals_batch_for_any_chunking(
        n in 0usize..48,
        config in arb_config(),
        seed in any::<u64>(),
        chunk in 0usize..9,
    ) {
        let inputs: Vec<u64> = (0..n as u64).collect();
        let batch = run_protocol(&NoisyLast, &inputs, &Fuzzy(0.0), &config, seed);
        let streamed = stream(&inputs, &config, seed, None, chunk);
        assert_identical(&streamed, &batch)?;
    }

    /// BIT-IDENTITY (segmented): a streamed segmented run equals the batch
    /// segmented entry point, so segment boundaries form identically
    /// whether inputs arrive up front or dribble in.
    #[test]
    fn streamed_segmented_equals_batch_segmented(
        n in 0usize..40,
        config in arb_config(),
        seed in any::<u64>(),
        segment in 1usize..12,
        chunk in 0usize..7,
    ) {
        let inputs: Vec<u64> = (0..n as u64).collect();
        let options = RunOptions::default()
            .config(config.clone())
            .seed(seed)
            .segment(segment);
        let batch = run_protocol_with_options(&NoisyLast, &inputs, &Fuzzy(0.0), &options);
        let streamed = stream(&inputs, &config, seed, Some(segment), chunk);
        assert_identical(&streamed, &batch)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// MULTIPLEXING: N sessions sharing one pool, their inputs interleaved
    /// push-by-push, each produce outcomes bit-identical to running that
    /// session solo with a private pool. Determinism is per-stream: seeds
    /// and input order fix the outcome regardless of neighbors.
    #[test]
    fn concurrent_sessions_match_solo_runs(
        sessions in 2usize..5,
        n in 1usize..32,
        config in arb_config(),
        base_seed in any::<u64>(),
    ) {
        let pool = Arc::new(ThreadPool::new(2));
        let shared: Vec<Session<NoisyLast>> = (0..sessions)
            .map(|s| {
                Session::new(
                    Fuzzy(s as f64),
                    NoisyLast,
                    RunOptions::default()
                        .config(config.clone())
                        .seed(base_seed.wrapping_add(s as u64))
                        .pool(Arc::clone(&pool)),
                )
            })
            .collect();
        for i in 0..n as u64 {
            for (s, session) in shared.iter().enumerate() {
                session.push(i.wrapping_mul(s as u64 + 1));
            }
        }
        for (s, session) in shared.into_iter().enumerate() {
            let multiplexed = session.finish();
            let solo = Session::new(
                Fuzzy(s as f64),
                NoisyLast,
                RunOptions::default()
                    .config(config.clone())
                    .seed(base_seed.wrapping_add(s as u64)),
            );
            solo.push_batch((0..n as u64).map(|i| i.wrapping_mul(s as u64 + 1)));
            let solo = solo.finish();
            prop_assert_eq!(&multiplexed.outputs, &solo.outputs);
            prop_assert_eq!(&multiplexed.report, &solo.report);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// BIT-IDENTITY UNDER TIGHT ADMISSION: however few groups the intake
    /// may open past the resolved ones (`max_inflight_groups` 1–3) and
    /// however small the queue (1–4 inputs), a streamed run equals
    /// `run_protocol` — outputs, final state, report and trace — at 1 or 2
    /// workers and any push chunking.
    #[test]
    fn tight_admission_windows_equal_batch(
        n in 0usize..48,
        config in arb_config(),
        seed in any::<u64>(),
        max_inflight in 1usize..=3,
        capacity in 1usize..=4,
        chunk in 1usize..9,
        workers in 1usize..=2,
    ) {
        let inputs: Vec<u64> = (0..n as u64).collect();
        let batch = run_protocol(&NoisyLast, &inputs, &Fuzzy(0.0), &config, seed);
        let options = RunOptions::default()
            .config(config)
            .seed(seed)
            .pool(Arc::new(ThreadPool::new(workers)))
            .max_inflight_groups(max_inflight)
            .queue_capacity(capacity);
        let session = Session::new(Fuzzy(0.0), NoisyLast, options);
        for batch in inputs.chunks(chunk) {
            session.push_batch(batch.iter().copied());
        }
        assert_identical(&session.finish(), &batch)?;
    }
}

/// A pool whose every worker sits inside a gate job until this guard is
/// dropped: nothing submitted to it meanwhile can run on a worker, so a
/// session over it has to take every dispatched group back and run it on
/// its coordinator.
struct WedgedPool {
    pool: Arc<ThreadPool>,
    gate: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
}

impl WedgedPool {
    fn new(workers: usize) -> Self {
        let pool = Arc::new(ThreadPool::new(workers));
        let gate = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let entered = Arc::new(AtomicUsize::new(0));
        for _ in 0..workers {
            let (gate, entered) = (Arc::clone(&gate), Arc::clone(&entered));
            pool.execute(move || {
                entered.fetch_add(1, Ordering::SeqCst);
                let (lock, cvar) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cvar.wait(open).unwrap();
                }
            });
        }
        // A worker inside a gate job takes no other: once all are in, the
        // pool is wedged.
        while entered.load(Ordering::SeqCst) < workers {
            std::thread::yield_now();
        }
        WedgedPool { pool, gate }
    }
}

impl Drop for WedgedPool {
    fn drop(&mut self) {
        *self.gate.0.lock().unwrap() = true;
        self.gate.1.notify_all();
    }
}

/// Record `inputs` through a session under `options`, pushed in
/// `chunk`-sized batches.
fn record(
    inputs: &[u64],
    options: RunOptions,
    chunk: usize,
) -> (SpecOutcome<NoisyLast>, SessionLog) {
    let recorder = SessionRecorder::new(Fuzzy(0.0), NoisyLast, options);
    for batch in inputs.chunks(chunk) {
        recorder.push_batch(batch.iter().copied());
    }
    recorder.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// WHO RUNS A GROUP IS INVISIBLE: a session whose pool is wedged (the
    /// coordinator takes every group back through its ticket and runs it
    /// inline) and a session over an idle pool (workers race the
    /// coordinator for each group) produce bit-identical outputs, final
    /// state, report, trace and canonical event stream, and each one's
    /// recording replays faithfully on the other's kind of pool — with and
    /// without injected worker panics, whose fault sites, retries and
    /// inline fallback must not depend on the thread either.
    #[test]
    fn helped_inline_equals_worker_run(
        n in 0usize..64,
        config in arb_config(),
        seed in any::<u64>(),
        chunk in 1usize..9,
        faulted in any::<bool>(),
        panic_rate in 0.1f64..0.7,
    ) {
        let inputs: Vec<u64> = (0..n as u64).collect();
        let mut options = RunOptions::default().config(config).seed(seed);
        if faulted {
            options = options
                .faults(FaultPlan::new(seed ^ 0xFA17).worker_panic(FaultRule::transient(panic_rate)));
        }
        let idle = Arc::new(ThreadPool::new(2));
        let wedged = WedgedPool::new(2);

        let (on_workers, worker_log) =
            record(&inputs, options.clone().pool(Arc::clone(&idle)), chunk);
        let (inline, inline_log) =
            record(&inputs, options.clone().pool(Arc::clone(&wedged.pool)), chunk);

        // Only the two gate jobs ever reached a worker, and they have not
        // finished: every finished job was run by its ticket's holder.
        let m = wedged.pool.metrics();
        prop_assert_eq!(m.helped_jobs, m.jobs_executed);
        prop_assert!(m.busy.iter().all(|b| b.is_zero()));

        prop_assert_eq!(&inline.outputs, &on_workers.outputs);
        prop_assert_eq!(inline.final_state.0.to_bits(), on_workers.final_state.0.to_bits());
        prop_assert_eq!(&inline.report, &on_workers.report);
        prop_assert_eq!(&inline.trace, &on_workers.trace);
        prop_assert_eq!(&inline_log.events, &worker_log.events);
        prop_assert_eq!(&inline_log.summary, &worker_log.summary);

        let replay_on = |log: &SessionLog, pool: &Arc<ThreadPool>| {
            replay(log, Fuzzy(0.0), NoisyLast, RunOptions::default().pool(Arc::clone(pool)))
                .expect("replay must start")
        };
        let crossed = [replay_on(&inline_log, &idle), replay_on(&worker_log, &wedged.pool)];
        for replayed in &crossed {
            prop_assert!(
                replayed.is_faithful(),
                "divergences={} trace_matched={} report_matched={}",
                replayed.divergences,
                replayed.trace_matched,
                replayed.report_matched
            );
            prop_assert_eq!(&replayed.outcome.outputs, &inline.outputs);
        }
    }
}

/// A transition that parks on a gate, letting the test hold the stream
/// mid-invocation while probing the producer-side queue bound.
struct Gated {
    entered: Arc<AtomicUsize>,
    gate: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
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
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cvar.wait(open).unwrap();
        }
        ctx.charge(1.0);
        state.0 = state.0.wrapping_add(*input);
        state.0
    }
}

/// BACKPRESSURE: with the engine wedged inside the first invocation, a
/// producer can enqueue at most `capacity` inputs before `push` blocks;
/// opening the gate drains the queue and unblocks it.
#[test]
fn full_bounded_queue_blocks_producers() {
    let capacity = 2usize;
    let entered = Arc::new(AtomicUsize::new(0));
    let gate = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
    let session = Arc::new(Session::new(
        ExactState(0u64),
        Gated {
            entered: Arc::clone(&entered),
            gate: Arc::clone(&gate),
        },
        RunOptions::default()
            .config(SpecConfig {
                group_size: 4,
                window: 1,
                ..SpecConfig::default()
            })
            .queue_capacity(capacity),
    ));
    session.push(1);
    while entered.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }
    let pushed = Arc::new(AtomicUsize::new(0));
    let producer = {
        let session = Arc::clone(&session);
        let pushed = Arc::clone(&pushed);
        std::thread::spawn(move || {
            for i in 2..=12u64 {
                session.push(i);
                pushed.fetch_add(1, Ordering::SeqCst);
            }
        })
    };
    std::thread::sleep(Duration::from_millis(200));
    let stalled_at = pushed.load(Ordering::SeqCst);
    assert!(
        stalled_at <= capacity + 1,
        "producer pushed {stalled_at} inputs past a queue bounded at {capacity}"
    );
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();
    producer.join().expect("producer thread");
    assert_eq!(pushed.load(Ordering::SeqCst), 11);
    let session = Arc::try_unwrap(session).unwrap_or_else(|_| panic!("session still shared"));
    let outcome = session.finish();
    assert_eq!(outcome.outputs.len(), 12);
    assert_eq!(*outcome.outputs.last().unwrap(), (1..=12u64).sum::<u64>());
}

/// A transition that parks on a gate inside its first invocation and
/// panics the moment the gate opens — the coordinator dies while
/// producers are wedged against the full bounded queue.
struct GatedBomb {
    entered: Arc<AtomicUsize>,
    gate: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
}
impl StateTransition for GatedBomb {
    type Input = u64;
    type State = ExactState<u64>;
    type Output = u64;
    fn compute_output(
        &self,
        _input: &u64,
        _state: &mut ExactState<u64>,
        ctx: &mut InvocationCtx,
    ) -> u64 {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let (lock, cvar) = &*self.gate;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cvar.wait(open).unwrap();
        }
        ctx.charge(1.0);
        panic!("gated bomb detonated");
    }
}

/// REGRESSION: a producer blocked on a full queue when the coordinator
/// dies must wake up and receive `Err` from `try_push` — not hang forever
/// and not panic. The error carries the transition's pending panic.
#[test]
fn blocked_producer_fails_cleanly_when_coordinator_dies() {
    let entered = Arc::new(AtomicUsize::new(0));
    let gate = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
    let session = Arc::new(Session::new(
        ExactState(0u64),
        GatedBomb {
            entered: Arc::clone(&entered),
            gate: Arc::clone(&gate),
        },
        RunOptions::default()
            .config(SpecConfig {
                group_size: 4,
                window: 1,
                ..SpecConfig::default()
            })
            .queue_capacity(2),
    ));
    session.try_push(1).expect("first push enters the engine");
    while entered.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }
    let (done_tx, done_rx) = std::sync::mpsc::channel::<PushError>();
    let producer = {
        let session = Arc::clone(&session);
        std::thread::spawn(move || {
            for i in 2..=64u64 {
                if let Err(e) = session.try_push(i) {
                    done_tx.send(e).expect("report error");
                    return;
                }
            }
            panic!("producer drained 63 inputs through a 2-slot queue with a wedged engine");
        })
    };
    // Let the producer wedge against the full queue, then detonate.
    std::thread::sleep(Duration::from_millis(100));
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();
    let err = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("blocked producer must wake with Err after coordinator death, not hang");
    producer.join().expect("producer exits cleanly");
    assert!(
        err.pending_panic()
            .is_some_and(|m| m.contains("gated bomb detonated")),
        "error should carry the pending panic message: {err}"
    );
    // Subsequent pushes keep failing without panicking.
    let mut session = Arc::try_unwrap(session).unwrap_or_else(|_| panic!("session still shared"));
    assert!(session.try_push(99).is_err());
    match session.try_finish() {
        Err(SessionError::Panicked { message, .. }) => {
            assert!(message.contains("gated bomb detonated"), "{message}");
        }
        Err(other) => panic!("unexpected session error: {other}"),
        Ok(_) => panic!("session should report the panic at finish"),
    }
}

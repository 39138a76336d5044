//! Loom model checks for the speculation runtime's concurrency core.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (run via `./ci.sh --loom`):
//! the `stats_core::sync` facade then routes every mutex, condvar, atomic
//! and thread operation through the model checker, and each test
//! below asserts its invariant under **every** explored interleaving of
//! the *actual* runtime code paths — not a reimplementation of them.
//!
//! The models deliberately stay tiny (1–2 workers, 1–4 inputs): every
//! synchronization op is a decision point, and state grows exponentially.
//! The preemption bound trades exhaustiveness for tractability exactly as
//! documented in `vendor/loom` and `docs/concurrency.md`; each test picks
//! the largest bound that keeps its runtime in seconds.
//!
//! Suite map (mirrored by the audit table in `docs/concurrency.md`):
//!
//! - `pool_scope_settle_publishes_metrics` — pins the `jobs`
//!   Release/Acquire pair (worker increment → scope settle loop/metrics).
//! - `pool_scope_routes_job_panics` — a job's panic travels in its result
//!   slot and surfaces from `scope` in every schedule.
//! - `pool_drop_completes_outstanding_work` — shutdown/drain handshake.
//! - `pool_queue_never_loses_jobs` — two workers, three queued jobs, a
//!   drop right behind the last submit: each job runs exactly once.
//! - `ticket_runs_exactly_once` — a worker, the ticket's holder and a pool
//!   drop race for one job: it runs once, is counted once, and a panic in
//!   it still surfaces from `scope` when the caller ran it.
//! - `pool_submit_never_strands_a_sleeper` — submit vs. park with the 1 ms
//!   backstop disabled: a parked worker is always woken for a new job.
//! - `pool_ordered_yields_each_result_once` — the `ordered` slot handshake
//!   the batch and plan engines, `scope` and `map` all wait through: two
//!   workers and the consumer race for three jobs; every result arrives
//!   once, in submission order, after its job's captures are gone, and the
//!   pool can be dropped right behind the last one.
//! - `session_push_finish_matches_batch` — producer/coordinator/worker
//!   handoff commits every input exactly once, in order.
//! - `session_group_completion_wakes_coordinator` — a stream's groups go
//!   through an open `ordered` batch whose stored results wake the parked
//!   coordinator, strictly after the store.
//! - `session_halfway_wakeup_never_strands_producer` — a producer blocked
//!   on a full bounded queue is always woken by the coordinator's
//!   half-capacity notify, at capacities 1, 2 and 3.
//! - `session_drop_mid_stream_joins` — Drop drains and joins; no leaked
//!   coordinator, in any interleaving.
//! - `session_panic_routing_try_finish` — a panic in a pool-executed
//!   group crosses worker → coordinator → owner, and a producer blocked
//!   on a stalled bounded queue cannot deadlock against it.
//! - `serve_spill_intake_never_strands_a_backlog` — a server tenant's
//!   spilled inputs reach its queue only through its own coordinator's
//!   refill: each arrives once, in order, and `finish` returns; a tenant
//!   whose coordinator dies with a backlog fails `finish` instead of
//!   hanging.

#![cfg(loom)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use loom::model::Builder;
use stats_core::serve::{ServeError, ServerOptions, SessionServer};
use stats_core::sync::atomic::{AtomicU64, Ordering};
use stats_core::sync::{thread, Arc, Condvar, Mutex};
use stats_core::{
    ExactState, InvocationCtx, RunOptions, Session, SessionError, SpecConfig, StateTransition,
    ThreadPool,
};

/// Run `f` under every schedule within `preemptions` involuntary switches.
fn model(preemptions: usize, f: impl Fn() + Send + Sync + 'static) {
    let mut b = Builder::new();
    b.preemption_bound = Some(preemptions);
    b.check(f);
}

/// Deterministic prefix-sum transition: state is the running sum, output
/// is the sum after absorbing the input. Speculation always validates.
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

/// A transition that panics on one specific input value.
struct ExplodeOn(u64);
impl StateTransition for ExplodeOn {
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
        assert!(*input != self.0, "transition exploded");
        state.0 = state.0.wrapping_add(*input);
        state.0
    }
}

/// `group_size` 2 so a 4-input stream forms two groups: group 0 inline on
/// the coordinator, group 1 dispatched to the pool — the smallest shape
/// that exercises the resolver/coordinator/worker handoff.
fn two_group_config() -> SpecConfig {
    SpecConfig {
        group_size: 2,
        window: 1,
        max_reexec: 1,
        rollback: 1,
        ..SpecConfig::default()
    }
}

/// Tentpole model 1: after `scope()` returns, the batch is fully visible
/// in `metrics()`. Pins the `jobs` Release (worker_loop) / Acquire (settle
/// loop, metrics) pair: if the worker's increment were Relaxed, an
/// execution would exist where `jobs_executed` under-counts.
#[test]
fn pool_scope_settle_publishes_metrics() {
    model(2, || {
        let pool = ThreadPool::new(2);
        let data = Arc::new(AtomicU64::new(0));
        let jobs: Vec<_> = (0..2)
            .map(|_| {
                let data = Arc::clone(&data);
                move |_i: usize| {
                    data.fetch_add(1, Ordering::Relaxed);
                }
            })
            .collect();
        pool.scope(jobs);
        let m = pool.metrics();
        assert_eq!(m.jobs_executed, 2, "settle loop exited early");
        // The Relaxed data counter is ordered by the same edge: reading it
        // stale here would mean the scope returned before its jobs' side
        // effects were published.
        assert_eq!(data.load(Ordering::Relaxed), 2, "job effects not visible");
    });
}

/// Tentpole model 2: a job panic must surface from `scope()` in every
/// interleaving. The payload travels in the job's result slot, under the
/// slot mutex, so whichever thread ran the job the scope counts it.
#[test]
fn pool_scope_routes_job_panics() {
    model(2, || {
        let pool = ThreadPool::new(1);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(vec![
                (|_i: usize| {}) as fn(usize),
                (|_i: usize| panic!("job exploded")) as fn(usize),
            ]);
        }))
        .expect_err("a panicking job must fail the scope");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("panicked in ThreadPool::scope"),
            "wrong panic: {msg}"
        );
    });
}

/// Tentpole model 3: dropping the pool completes already-submitted
/// fire-and-forget work before joining the workers (shutdown/drain
/// handshake on the `live` mutex + `wake` condvar).
#[test]
fn pool_drop_completes_outstanding_work() {
    model(2, || {
        let counter = Arc::new(AtomicU64::new(0));
        {
            let pool = ThreadPool::new(1);
            for _ in 0..2 {
                let c = Arc::clone(&counter);
                pool.execute(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Drop waits for the drain; the worker join is the edge that
            // publishes the Relaxed increments.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 2, "job lost at shutdown");
    });
}

/// Tentpole model 4: two workers racing for three queued jobs run every
/// submitted job exactly once (no loss, no duplication), and the drop that
/// follows the last submit still drains them all.
#[test]
fn pool_queue_never_loses_jobs() {
    model(2, || {
        let seen = Arc::new(Mutex::new([0u32; 3]));
        let pool = ThreadPool::new(2);
        for i in 0..3 {
            let seen = Arc::clone(&seen);
            // The ticket is dropped: only the workers can run the job.
            pool.submit(move || seen.lock()[i] += 1);
        }
        drop(pool);
        assert_eq!(*seen.lock(), [1, 1, 1], "job lost or duplicated");
    });
}

/// A submitted job is claimed by exactly one thread. The worker, the
/// ticket's holder (on a thread of its own) and the pool's drop all race:
/// the job must have run exactly once by the time both the drop and the
/// holder return, and the drop must not hang on a job the holder took.
/// Then the same claim inside `scope`: whoever ran the panicking job, the
/// panic surfaces from `scope` and the job is counted once.
#[test]
fn ticket_runs_exactly_once() {
    model(2, || {
        let runs = Arc::new(AtomicU64::new(0));
        let pool = ThreadPool::new(1);
        let ticket = {
            let runs = Arc::clone(&runs);
            pool.submit(move || {
                runs.fetch_add(1, Ordering::Relaxed);
            })
        };
        let holder = thread::spawn(move || ticket.run_if_unclaimed());
        // Drop drains: it returns only once the job has finished, on
        // whichever thread.
        drop(pool);
        holder.join().expect("ticket holder");
        // Joining the holder and the (joined) worker orders the increment.
        assert_eq!(runs.load(Ordering::Relaxed), 1, "job lost or run twice");
    });
    model(2, || {
        let pool = ThreadPool::new(1);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(vec![|_i: usize| panic!("job exploded")]);
        }))
        .expect_err("a panicking job must fail the scope");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("panicked in ThreadPool::scope"), "{msg}");
        let m = pool.metrics();
        assert_eq!(m.jobs_executed, 1, "a job counts once whoever ran it");
        assert!(m.helped_jobs <= 1);
    });
}

/// The park/submit handshake, with the backstop timeout out of the
/// picture (`Condvar::wait_backstop` never times out under the model): the
/// only thread that can run the job is the worker, because `execute` drops
/// the ticket, so a schedule where the worker parks past a published job —
/// the submit landing between its last look and its wait — is a deadlock
/// here instead of a silent millisecond. Two rounds, so the worker also
/// parks after having run something.
#[test]
fn pool_submit_never_strands_a_sleeper() {
    model(3, || {
        let pool = ThreadPool::new(1);
        for _ in 0..2 {
            let done = Arc::new((Mutex::new(false), Condvar::new()));
            let signal = Arc::clone(&done);
            pool.execute(move || {
                *signal.0.lock() = true;
                signal.1.notify_all();
            });
            let mut finished = done.0.lock();
            while !*finished {
                done.1.wait(&mut finished);
            }
        }
    });
}

/// The ordered-completion handshake (`ThreadPool::ordered`): two workers
/// and the consumer — which claims the job it is about to wait for — race
/// for three jobs. In every schedule each result is
/// handed out exactly once and in submission order, the job behind it ran
/// exactly once and has let go of what it captured (the sentinel) by the
/// time its result is visible, and dropping the pool right behind the last
/// result neither hangs nor loses a job. A result published before the slot
/// lock is taken, or a notify that precedes the store, shows up here as a
/// deadlock; a result published before the job's captures are released, as
/// the sentinel count.
#[test]
fn pool_ordered_yields_each_result_once() {
    model(2, || {
        let runs = Arc::new(Mutex::new([0u32; 3]));
        let sentinels: Vec<Arc<()>> = (0..3).map(|_| Arc::new(())).collect();
        let pool = ThreadPool::new(2);
        let jobs = (0..3)
            .map(|i| {
                let (runs, held) = (Arc::clone(&runs), Arc::clone(&sentinels[i]));
                let job = move || {
                    let _held = &held;
                    runs.lock()[i] += 1;
                    i
                };
                Box::new(job) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let mut results = pool.ordered_for_model(jobs);
        for (i, sentinel) in sentinels.iter().enumerate() {
            assert_eq!(results.next(), Some(i), "result lost or out of order");
            assert_eq!(Arc::strong_count(sentinel), 1, "job {i} still holds");
        }
        drop(pool);
        assert_eq!(results.next(), None);
        assert_eq!(*runs.lock(), [1, 1, 1], "job lost or duplicated");
    });
}

/// Tentpole model 5: the full streaming handoff — producer pushes, the
/// coordinator forms groups, a pool worker executes the speculative
/// group, the resolver commits in order. The outcome must equal the
/// sequential prefix sum for every interleaving.
#[test]
fn session_push_finish_matches_batch() {
    model(1, || {
        let session = Session::new(
            ExactState(0u64),
            Sum,
            RunOptions::default()
                .pool(Arc::new(ThreadPool::new(1)))
                .config(two_group_config()),
        );
        for i in 1..=4u64 {
            session.push(i);
        }
        let outcome = session.finish();
        assert_eq!(outcome.outputs, vec![1, 3, 6, 10], "stream diverged");
        assert_eq!(outcome.final_state.0, 10);
    });
}

/// The handshake a stream adds to `ordered`: a stored group result wakes
/// the coordinator through the stream's own condvar, strictly after the
/// store. Group 0 runs inline, group 1 is the only speculative group, and
/// the close may come before the coordinator has looked at anything — so
/// in some schedules it has sealed group 0 with nothing left to admit and
/// parks on group 1 while the worker finishes it. In every schedule it
/// ingests the group and `finish` returns; a wake-up that could precede
/// the store leaves it parked for good, a deadlock here.
#[test]
fn session_group_completion_wakes_coordinator() {
    model(2, || {
        let session = Session::new(
            ExactState(0u64),
            Sum,
            RunOptions::default()
                .pool(Arc::new(ThreadPool::new(1)))
                .config(two_group_config()),
        );
        session.push_batch(1..=4u64);
        let outcome = session.finish();
        assert_eq!(outcome.outputs, vec![1, 3, 6, 10], "group 1 lost");
    });
}

/// Tentpole model 6: a producer blocks on the full bounded queue and is
/// woken only when the coordinator has drained the queue to half its
/// capacity. At capacities 1, 2 and 3 (half = 0, 1, 1) that notify must
/// reach every blocked producer and the close/finish handshake must
/// complete — no schedule strands the producer (a deadlock) or loses an
/// input.
#[test]
fn session_halfway_wakeup_never_strands_producer() {
    for capacity in 1..=3usize {
        model(1, move || {
            let session = Session::new(
                ExactState(0u64),
                Sum,
                RunOptions::default()
                    .pool(Arc::new(ThreadPool::new(1)))
                    // group_size 1 keeps every group inline on the
                    // coordinator: this model isolates the producer <->
                    // coordinator queue.
                    .config(SpecConfig {
                        group_size: 1,
                        ..SpecConfig::default()
                    })
                    .queue_capacity(capacity),
            );
            let n = capacity as u64 + 2;
            for i in 1..=n {
                session.push(i); // blocks whenever the queue is full
            }
            let outcome = session.finish();
            let sums: Vec<u64> = (1..=n).map(|i| i * (i + 1) / 2).collect();
            assert_eq!(outcome.outputs, sums, "input lost past a full queue");
        });
    }
}

/// Tentpole model 7: dropping a session mid-stream (inputs still queued,
/// no `finish()`) drains, joins the coordinator, and releases the engine
/// context in every schedule — the Drop-join can never leak or deadlock.
#[test]
fn session_drop_mid_stream_joins() {
    model(1, || {
        let sentinel = Arc::new(());
        {
            let session = Session::new(
                ExactState(0u64),
                Sum,
                RunOptions::default()
                    .pool(Arc::new(ThreadPool::new(1)))
                    .config(SpecConfig {
                        group_size: 1,
                        ..SpecConfig::default()
                    }),
            );
            let _hold = Arc::clone(&sentinel);
            session.push(1);
            session.push(2);
            // Dropped here without finish().
            drop(session);
            drop(_hold);
        }
        assert_eq!(Arc::strong_count(&sentinel), 1, "coordinator leaked");
    });
}

/// Tentpole model 8 (satellite: drop-while-panicking vs. stalled queue):
/// a transition panic inside a pool-executed speculative group must cross
/// worker → coordinator → owner as `SessionError::Panicked`, while a
/// producer blocked on the full bounded queue is woken by the
/// `coordinator_gone` guard instead of deadlocking. The model terminating
/// at all proves the no-deadlock half; the assertions prove the routing.
#[test]
fn session_panic_routing_try_finish() {
    model(1, || {
        let mut session = Session::new(
            ExactState(0u64),
            ExplodeOn(4),
            RunOptions::default()
                .pool(Arc::new(ThreadPool::new(1)))
                .config(two_group_config())
                .queue_capacity(1),
        );
        // Input 4 lands in group 1, which runs on the pool worker. The
        // producer keeps pushing against capacity 1 after the poisoned
        // group is in flight; if the dying coordinator failed to mark
        // itself gone, this push could block forever.
        let pushed = catch_unwind(AssertUnwindSafe(|| {
            for i in 1..=6u64 {
                session.push(i);
            }
        }));
        match session.try_finish() {
            Err(SessionError::Panicked { message, .. }) => {
                assert!(message.contains("transition exploded"), "{message}");
            }
            Ok(_) => {
                // The coordinator re-raises the worker panic before any
                // output commits past the poisoned group; reaching finish
                // cleanly would mean the panic was swallowed.
                panic!("worker panic was swallowed");
            }
            Err(other) => panic!("unexpected session error: {other}"),
        }
        // If a push raced the coordinator's death it panicked with the
        // coordinator-gone message — both completing and failing fast are
        // legal; hanging is not (the model's deadlock detector enforces it).
        if let Err(payload) = pushed {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(
                msg.contains("coordinator has terminated"),
                "wrong producer failure: {msg}"
            );
        }
        // The worker survives for the next scope: the panic was contained.
        drop(session);
    });
}

/// One pool worker; each tenant's session queue holds `capacity` inputs
/// and its spill backlog keeps the rest in memory.
fn spill_server<T: StateTransition<Input = u64>>(capacity: usize) -> SessionServer<T> {
    SessionServer::new(
        Arc::new(ThreadPool::new(1)),
        ServerOptions::default()
            .session_queue_capacity(capacity)
            .spill_mem_capacity(4),
    )
}

/// The serve layer's spill intake, three tenants one after the other.
/// `steady`'s three-input burst leaves two inputs in its backlog, which
/// only its own coordinator moves into its one-input queue, when a pop
/// drains it, under the session's lock that the producer's pushes race
/// for: every output arrives once, in order, and `finish` returns.
/// `exploding`'s first input panics on its coordinator while the rest may
/// still be in its backlog: `finish` reports the panic instead of hanging.
/// A one-input queue is refilled in the same critical section as every
/// pop that makes room in it, so no push can ever find it with room while
/// a backlog waits; `trickle`'s three-input queue, taken one input per
/// segment, can: a pop leaves it above half, unrefilled, and the push
/// that follows must still go behind the backlog. `trickle` is explored
/// on its own: in one execution with the other two, the schedules
/// multiply past what a CI stage can wait for.
#[test]
fn serve_spill_intake_never_strands_a_backlog() {
    model(2, || {
        let server = spill_server(1);
        let steady = server.open_tenant(
            ExactState(0u64),
            ExplodeOn(u64::MAX),
            RunOptions::default().config(two_group_config()),
        );
        assert_eq!(steady.try_push_batch(1..=3u64).expect("burst"), 3);
        let outcome = steady.finish().expect("finish");
        assert_eq!(outcome.outputs, vec![1, 3, 6], "backlog lost or reordered");
        let exploding = server.open_tenant(
            ExactState(0u64),
            ExplodeOn(1),
            RunOptions::default().config(SpecConfig::sequential()),
        );
        // The first input explodes, so a later push may already find the
        // coordinator gone and fail; either way `finish` must report it.
        let _ = exploding.try_push_batch(1..=3u64);
        match exploding.finish() {
            Err(ServeError::Session(SessionError::Panicked { message, .. })) => {
                assert!(message.contains("transition exploded"), "{message}");
            }
            Err(other) => panic!("unexpected serve error: {other}"),
            Ok(_) => panic!("the transition panic was swallowed"),
        }
    });
    model(2, || {
        let trickle = spill_server(3).open_tenant(
            ExactState(0u64),
            ExplodeOn(u64::MAX),
            RunOptions::default()
                .config(SpecConfig::sequential())
                .segment(1),
        );
        assert_eq!(trickle.try_push_batch(1..=5u64).expect("burst"), 5);
        let outcome = trickle.finish().expect("finish");
        assert_eq!(
            outcome.outputs,
            vec![1, 3, 6, 10, 15],
            "a push overtook the backlog"
        );
    });
}

/// Audit regression: `thread::yield_now` in the settle loop is a real
/// scheduling point — a spin loop over the Acquire-loaded `jobs` counter
/// settles in every schedule rather than starving the worker (the model
/// runs yielded threads only when nothing else can run, so this also
/// proves the loop cannot spin forever while the worker is runnable).
#[test]
fn pool_metrics_settle_after_repeated_scopes() {
    model(1, || {
        let pool = ThreadPool::new(1);
        pool.scope(vec![|_: usize| {}]);
        pool.scope(vec![|_: usize| {}]);
        assert_eq!(pool.metrics().jobs_executed, 2, "cumulative count lost");
    });
}

//! Sanitizer-oriented stress tests for the pool and session concurrency.
//!
//! Where `tests/loom.rs` explores every interleaving of a tiny workload,
//! these tests hammer a big workload on real threads so dynamic race
//! detectors have something to bite on. They are what `ci.sh --tsan` runs
//! under ThreadSanitizer (`RUSTFLAGS="-Zsanitizer=thread"` on nightly);
//! without TSan they still serve as plain high-contention regression
//! tests, so they run in the default suite too.
//!
//! `STRESS_ITERS` scales the iteration counts (default 1, CI can raise
//! it); keep the default modest so `cargo test` stays fast.

use std::time::Duration;

use stats_core::sync::atomic::{AtomicUsize, Ordering};
use stats_core::sync::{Arc, Condvar, Mutex};
use stats_core::{
    ExactState, FaultPlan, FaultRule, InvocationCtx, RunOptions, Session, SpecConfig,
    StateTransition, ThreadPool,
};

fn stress_iters() -> usize {
    std::env::var("STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

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

fn config() -> SpecConfig {
    SpecConfig {
        group_size: 4,
        window: 1,
        max_reexec: 2,
        rollback: 1,
        ..SpecConfig::default()
    }
}

/// Many short scopes with skewed job costs through one shared pool: the
/// lanes' lock, the settle loop, and the wake condvar all stay hot. Every
/// job must run exactly once per scope.
#[test]
fn many_short_scopes_share_one_pool() {
    let pool = ThreadPool::new(8);
    let ran = Arc::new(AtomicUsize::new(0));
    let rounds = 40 * stress_iters();
    for round in 0..rounds {
        let jobs: Vec<_> = (0..16)
            .map(|i| {
                let ran = Arc::clone(&ran);
                move |_idx: usize| {
                    // Skew: some jobs spin a little so siblings run ahead.
                    let mut acc = (round + i) as u64;
                    for _ in 0..(i % 5) * 200 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                    std::hint::black_box(acc);
                    ran.fetch_add(1, Ordering::Relaxed);
                }
            })
            .collect();
        let before = ran.load(Ordering::Relaxed);
        pool.scope(jobs);
        assert_eq!(ran.load(Ordering::Relaxed), before + 16, "round {round}");
    }
    assert_eq!(ran.load(Ordering::Relaxed), rounds * 16);
}

/// A scope opened from inside a job of another scope on the same pool, with
/// no worker free to run either: once with the only worker wedged on a gate
/// job (the outer jobs run on the caller, through their tickets, and so do
/// the inner ones), once with it free (it may take an outer job and must
/// then run that job's inner scope itself). A scope that only waited for
/// workers would deadlock both ways.
#[test]
fn nested_scope_inside_a_helped_job_completes() {
    for wedged in [true, false] {
        let pool = Arc::new(ThreadPool::new(1));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        if wedged {
            let entered = Arc::new(AtomicUsize::new(0));
            let (job_gate, job_entered) = (Arc::clone(&gate), Arc::clone(&entered));
            pool.execute(move || {
                job_entered.fetch_add(1, Ordering::SeqCst);
                let (lock, cvar) = &*job_gate;
                let mut open = lock.lock();
                while !*open {
                    cvar.wait(&mut open);
                }
            });
            while entered.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
        }
        let ran = Arc::new(AtomicUsize::new(0));
        let rounds = 20 * stress_iters();
        for _ in 0..rounds {
            let outer: Vec<_> = (0..4)
                .map(|_| {
                    let (pool, ran) = (Arc::clone(&pool), Arc::clone(&ran));
                    move |_idx: usize| {
                        let inner: Vec<_> = (0..3)
                            .map(|_| {
                                let ran = Arc::clone(&ran);
                                move |_idx: usize| {
                                    ran.fetch_add(1, Ordering::Relaxed);
                                }
                            })
                            .collect();
                        pool.scope(inner);
                    }
                })
                .collect();
            pool.scope(outer);
        }
        assert_eq!(ran.load(Ordering::Relaxed), rounds * 12, "wedged: {wedged}");
        if wedged {
            // Every job ran on this thread, so every count has landed.
            let m = pool.metrics();
            assert_eq!(m.jobs_executed as usize, rounds * 16);
            assert_eq!(m.helped_jobs, m.jobs_executed, "a wedged worker ran a job");
        }
        *gate.0.lock() = true;
        gate.1.notify_all();
    }
}

/// Concurrent sessions over one pool, each a deterministic prefix sum:
/// outputs must be exact despite cross-session contention on the pool's
/// lanes, counters, and wake condvar.
#[test]
fn concurrent_sessions_stay_deterministic() {
    let pool = Arc::new(ThreadPool::new(4));
    let sessions = 4;
    let inputs_per = 64 * stress_iters();
    std::thread::scope(|s| {
        for _ in 0..sessions {
            let pool = Arc::clone(&pool);
            s.spawn(move || {
                let session = Session::new(
                    ExactState(0u64),
                    Sum,
                    RunOptions::default()
                        .pool(pool)
                        .config(config())
                        .queue_capacity(8),
                );
                for i in 1..=inputs_per as u64 {
                    session.push(i);
                }
                let outcome = session.finish();
                let mut expect = 0u64;
                for (i, out) in outcome.outputs.iter().enumerate() {
                    expect = expect.wrapping_add(i as u64 + 1);
                    assert_eq!(*out, expect, "output {i} diverged");
                }
            });
        }
    });
}

/// Seeded fault plans (worker panics + queue stalls) under contention:
/// the retry path, the lost-group channel, and the backpressure wakeups
/// all race, and the run must still commit every input in order.
#[test]
fn faulted_sessions_recover_under_contention() {
    let pool = Arc::new(ThreadPool::new(4));
    for round in 0..(3 * stress_iters()) {
        let plan = FaultPlan::new(round as u64)
            .worker_panic(FaultRule::transient(0.4))
            .queue_stall(FaultRule::slow(0.2, Duration::from_micros(50)));
        let session = Session::new(
            ExactState(0u64),
            Sum,
            RunOptions::default()
                .pool(Arc::clone(&pool))
                .config(config())
                .seed(round as u64)
                .faults(plan)
                .queue_capacity(4),
        );
        let n = 48u64;
        for i in 1..=n {
            session.push(i);
        }
        let outcome = session.finish();
        assert_eq!(outcome.outputs.len(), n as usize, "round {round}");
        assert_eq!(outcome.final_state.0, n * (n + 1) / 2, "round {round}");
    }
}

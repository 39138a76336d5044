//! The pooled runtime's cost gate (`runtime::Gate`), observed from outside
//! through the jobs a pool runs.
//!
//! The gate decides from wall-clock timings whether a speculative group
//! goes to a worker or stays on the coordinator, so these tests need the
//! cores to themselves. They live in their own test binary, which shares
//! no process with the unit tests, and `SERIAL` runs them one at a time.

use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use stats_core::{
    run_protocol_with_options, InvocationCtx, RunOptions, SpecConfig, SpecState, StateDependence,
    StateTransition, ThreadPool,
};

/// Held for the whole of each test.
static SERIAL: Mutex<()> = Mutex::new(());

/// Nondeterministic short-memory workload: state is the last input plus
/// bounded noise; matches tolerate the noise.
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

/// Cheap, short-memory work: the state is the last input.
struct Noop;
impl StateTransition for Noop {
    type Input = f64;
    type State = Noisy;
    type Output = f64;
    fn compute_output(&self, input: &f64, state: &mut Noisy, ctx: &mut InvocationCtx) -> f64 {
        ctx.charge(1.0);
        state.0 = *input;
        *input
    }
}

/// [`NoisyLast`] after spinning for the given time on every input.
struct Spin(Duration);
impl StateTransition for Spin {
    type Input = f64;
    type State = Noisy;
    type Output = f64;
    fn compute_output(&self, input: &f64, state: &mut Noisy, ctx: &mut InvocationCtx) -> f64 {
        let began = Instant::now();
        while began.elapsed() < self.0 {
            std::hint::spin_loop();
        }
        NoisyLast.compute_output(input, state, ctx)
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

/// Run `transition` over `inputs` on `pool` under `options`, require
/// the sequential reference's outputs, report and trace, and return the
/// jobs the pool ran for it once `expected` of them have counted (a job
/// counts just after its result is stored) or a second has passed.
fn gated_run<T>(
    transition: T,
    inputs: Vec<f64>,
    pool: &Arc<ThreadPool>,
    options: RunOptions,
    expected: u64,
) -> u64
where
    T: StateTransition<Input = f64, State = Noisy, Output = f64>,
{
    let reference = run_protocol_with_options(&transition, &inputs, &Noisy(0.0), &options);
    let before = pool.metrics().jobs_executed;
    let outcome = StateDependence::new(inputs, Noisy(0.0), transition)
        .with_options(options.pool(Arc::clone(pool)))
        .run();
    assert_eq!(outcome.outputs, reference.outputs);
    assert_eq!(outcome.report, reference.report);
    assert_eq!(outcome.trace, reference.trace);
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let jobs = pool.metrics().jobs_executed - before;
        if jobs >= expected || Instant::now() > deadline {
            return jobs;
        }
        thread::yield_now();
    }
}

#[test]
fn gate_keeps_coordination_bound_groups_on_the_coordinator() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // Group 0 of four no-op inputs takes far less than a parked worker
    // takes to start a group: only the probes, one per worker, reach
    // the pool.
    let pool = Arc::new(ThreadPool::new(2));
    thread::sleep(Duration::from_millis(20)); // both workers park
    let options = RunOptions::default().config(config()).seed(11);
    let inputs: Vec<f64> = (0..64).map(f64::from).collect();
    let jobs = gated_run(Noop, inputs, &pool, options, 2);
    assert!(jobs <= 2, "{jobs} of 15 speculative groups dispatched");
}

#[test]
fn gate_dispatches_every_group_of_compute_bound_work() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // Two inputs of 2 ms per group: a worker starts a probe long before
    // the coordinator could finish one, so every speculative group goes
    // to the pool, the ones past the probes included.
    let pool = Arc::new(ThreadPool::new(2));
    let options = RunOptions::default()
        .config(SpecConfig {
            group_size: 2,
            ..config()
        })
        .seed(3);
    let inputs: Vec<f64> = (0..10).map(f64::from).collect();
    let spin = Spin(Duration::from_millis(2));
    assert_eq!(gated_run(spin, inputs, &pool, options, 4), 4);
}

#[test]
fn gate_decision_holds_across_segments() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // Two groups per segment: each segment's one speculative group is
    // dispatched, the first as a probe and the rest on its decision.
    let pool = Arc::new(ThreadPool::new(2));
    let options = RunOptions::default()
        .config(SpecConfig {
            group_size: 2,
            ..config()
        })
        .seed(9)
        .segment(4);
    let inputs: Vec<f64> = (0..12).map(f64::from).collect();
    let spin = Spin(Duration::from_millis(2));
    assert_eq!(gated_run(spin, inputs, &pool, options, 3), 3);
}

//! What a `Session` allocates: a stream whose trace nobody reads lays no
//! trace out, and the first read lays out the batch run's trace.
//!
//! The stream's work is spread over threads — the producer, the
//! `stats-stream` coordinator and the pool's workers — so a counting global
//! allocator tallies the bytes every thread of the process asks for (a
//! reallocation counts its new size), and the tests take turns. Each runs a
//! `light`-shaped workload: 20 000 inputs of a few LCG steps and one PRVG
//! draw each, in groups of 8 that always commit, pushed in chunks of 256.
//!
//! It lives in its own test binary so no other test's allocations land in
//! its counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::{Arc, Mutex};

use stats_core::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use stats_core::{
    run_protocol_with_options, InvocationCtx, ProtocolResult, RunOptions, Session, SpecConfig,
    SpecOutcome, SpecState, SpecTrace, StateTransition, ThreadPool, TraceNode,
};

/// Bytes asked for by every thread so far.
static BYTES: AtomicUsize = AtomicUsize::new(0);

/// The tests share the count, so they run one at a time.
static TURN: Mutex<()> = Mutex::new(());

/// The system allocator, counting.
struct Counting;

// SAFETY: every method forwards its arguments to `System` unchanged, under
// the caller's contract, which is `System`'s. Counting is one relaxed
// atomic add, which neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A level plus noise in ±0.1; levels within 0.3 match.
#[derive(Clone, Debug)]
struct Level(f64);
impl SpecState for Level {
    fn matches_any(&self, originals: &[Self]) -> bool {
        originals.iter().any(|o| (o.0 - self.0).abs() < 0.3)
    }
}

/// Eight LCG steps per input; the state is the result's top bits plus
/// noise, so it depends on the last input only and every group commits.
struct Lcg;
impl StateTransition for Lcg {
    type Input = u64;
    type State = Level;
    type Output = f64;
    fn compute_output(&self, input: &u64, state: &mut Level, ctx: &mut InvocationCtx) -> f64 {
        let mut acc = *input;
        for _ in 0..8 {
            acc = acc
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(*input | 1);
        }
        ctx.charge(8.0);
        state.0 = (acc >> 54) as f64 + ctx.uniform(-0.1, 0.1);
        state.0
    }
}

const INPUTS: usize = 20_000;
/// Inputs per `push_batch`.
const CHUNK: usize = 256;

fn inputs() -> Vec<u64> {
    let mut z = 0x5EED_u64;
    (0..INPUTS)
        .map(|_| {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            (z ^ (z >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9)
        })
        .collect()
}

fn options() -> RunOptions {
    RunOptions::default()
        .config(SpecConfig {
            group_size: 8,
            window: 1,
            max_reexec: 2,
            ..SpecConfig::default()
        })
        .seed(20_180_324)
}

/// One whole stream over `inputs`: open, push in chunks, finish.
fn stream(inputs: &[u64], options: &RunOptions) -> SpecOutcome<Lcg> {
    let session = Session::new(Level(0.0), Lcg, options.clone());
    for chunk in inputs.chunks(CHUNK) {
        session.push_batch(chunk.iter().copied());
    }
    session.finish()
}

/// What `trace` holds: a node and the node's dependences for each node.
fn trace_bytes(trace: &SpecTrace) -> usize {
    let edges: usize = (0..trace.nodes.len()).map(|i| trace.deps(i).len()).sum();
    trace.nodes.len() * size_of::<TraceNode>() + edges * size_of::<usize>()
}

/// The batch run over the same inputs, with its trace laid out.
fn batch(inputs: &[u64]) -> ProtocolResult<Lcg> {
    let run = run_protocol_with_options(&Lcg, inputs, &Level(0.0), &options());
    let _: &SpecTrace = &run.trace;
    run
}

#[test]
fn a_stream_whose_trace_is_never_read_allocates_no_trace() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let inputs = inputs();
    let laid_out = trace_bytes(&batch(&inputs).trace);
    let options = options().pool(Arc::new(ThreadPool::new(2)));
    drop(stream(&inputs, &options));
    let before = BYTES.load(Relaxed);
    let outcome = stream(&inputs, &options);
    assert_eq!(outcome.outputs.len(), INPUTS);
    drop(outcome);
    let bytes = BYTES.load(Relaxed) - before;
    println!("unread stream trace: {bytes} bytes; its trace lays out {laid_out}");
    assert!(
        bytes < laid_out,
        "the stream allocated {bytes} bytes, not less than its trace's {laid_out}"
    );
}

#[test]
fn the_first_read_lays_out_the_batch_runs_trace_once() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let inputs = inputs();
    let options = options().pool(Arc::new(ThreadPool::new(2)));
    let outcome = stream(&inputs, &options);
    let before = BYTES.load(Relaxed);
    let nodes = outcome.trace.nodes.len();
    let first = BYTES.load(Relaxed) - before;
    println!("first read of a stream's trace: {first} bytes");
    assert!(
        first >= nodes * size_of::<TraceNode>(),
        "the first read lays out {nodes} nodes"
    );
    let before = BYTES.load(Relaxed);
    assert_eq!(outcome.trace.nodes.len(), nodes);
    assert_eq!(
        BYTES.load(Relaxed),
        before,
        "a second read allocates nothing"
    );
    assert_eq!(
        *outcome.trace,
        *batch(&inputs).trace,
        "the stream's trace is the batch run's"
    );
}

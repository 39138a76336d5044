//! What the sequential reference allocates: a bounded number of times per
//! run and per segment, never per input or per group.
//!
//! A counting global allocator tallies the allocations (and reallocations)
//! of the calling thread only — a thread-local `Cell`, so the test harness's
//! other threads do not count — around one run of a `light`-shaped
//! workload: 20 000 inputs of a few LCG steps and one PRVG draw each, in
//! groups of 8 that always commit, through `run_protocol_with_options`.
//! Every group's output and work-meter buffers are the last settled
//! group's, and every invocation re-arms its chain's context, so a run
//! allocates for its records, report and outputs, and nothing per group.
//!
//! The allocator also tallies the bytes asked for (a reallocation counts
//! its new size): a run's trace is laid out only when it is first read, so
//! a run whose trace nobody reads allocates no trace nodes at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use stats_core::{
    run_protocol_with_options, InvocationCtx, ProtocolResult, RunOptions, SpecConfig, SpecState,
    StateTransition, TraceNode,
};

thread_local! {
    /// Allocations made on this thread so far.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes those allocations asked for.
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting.
struct Counting;

fn count(bytes: usize) {
    // During thread teardown the counters may be gone: that allocation is
    // nobody's under test.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards its arguments to `System` unchanged, under
// the caller's contract, which is `System`'s. Counting touches only a
// const-initialized thread-local `Cell`, which neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// The allocations of one run under `options` after a warm-up run, and
/// the run.
fn allocations(options: &RunOptions) -> (usize, ProtocolResult<Lcg>) {
    let inputs = inputs();
    drop(run_protocol_with_options(
        &Lcg,
        &inputs,
        &Level(0.0),
        options,
    ));
    let before = ALLOCATIONS.with(Cell::get);
    let run = run_protocol_with_options(&Lcg, &inputs, &Level(0.0), options);
    (ALLOCATIONS.with(Cell::get) - before, run)
}

#[test]
fn an_unsegmented_run_allocates_per_run_not_per_group() {
    let (allocations, run) = allocations(&options());
    println!("unsegmented: {allocations} allocations");
    assert_eq!(run.outputs.len(), INPUTS);
    assert_eq!(
        run.report.committed_speculative_groups(),
        INPUTS / 8 - 1,
        "every group commits"
    );
    assert!(
        allocations <= 64,
        "{allocations} allocations for {} groups",
        INPUTS / 8
    );
}

#[test]
fn a_segmented_run_allocates_per_segment_not_per_group() {
    let (allocations, run) = allocations(&options().segment(64));
    let segments = INPUTS.div_ceil(64);
    println!("segments of 64: {allocations} allocations for {segments} segments");
    assert_eq!(run.outputs.len(), INPUTS);
    assert!(!run.report.aborted);
    assert!(
        allocations <= 16 * segments,
        "{allocations} allocations for {segments} segments"
    );
}

/// This thread's allocations and bytes so far.
fn tally() -> (usize, usize) {
    (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get))
}

/// The most bytes a 20 000-input run whose trace is never read may
/// allocate: 64 per input covers its outputs (8), one work meter per input
/// (16), the per-group records and report (about 13 per input in groups of
/// 8) and the reference's queue of submitted groups (about 10), with room
/// to spare; the run allocates 1 017 600. Laying the trace out adds a
/// 72-byte node and an edge per input and more: the same run allocated
/// 3 116 840 bytes while every run laid its trace out.
const UNREAD_TRACE_BYTES: usize = 64 * INPUTS;

#[test]
fn a_run_whose_trace_is_never_read_allocates_no_trace() {
    let inputs = inputs();
    drop(run_protocol_with_options(
        &Lcg,
        &inputs,
        &Level(0.0),
        &options(),
    ));
    let (allocations, bytes) = tally();
    let run = run_protocol_with_options(&Lcg, &inputs, &Level(0.0), &options());
    let (allocations, bytes) = (tally().0 - allocations, tally().1 - bytes);
    println!("unread trace: {allocations} allocations, {bytes} bytes");
    assert_eq!(run.outputs.len(), INPUTS);
    assert!(
        bytes <= UNREAD_TRACE_BYTES,
        "{bytes} bytes allocated, at most {UNREAD_TRACE_BYTES} expected"
    );
}

#[test]
fn the_first_read_lays_the_trace_out_once() {
    let run = run_protocol_with_options(&Lcg, &inputs(), &Level(0.0), &options());
    let before = tally();
    let (nodes, work) = (run.trace.nodes.len(), run.trace.total_work());
    let first = (tally().0 - before.0, tally().1 - before.1);
    println!("first read: {} allocations, {} bytes", first.0, first.1);
    assert!(
        nodes > INPUTS,
        "a node per input and per group's auxiliary run"
    );
    assert!(
        first.1 >= nodes * std::mem::size_of::<TraceNode>(),
        "the first read lays out {nodes} nodes"
    );
    let before = tally();
    assert_eq!(
        (run.trace.nodes.len(), run.trace.total_work()),
        (nodes, work)
    );
    assert_eq!(tally(), before, "a second read allocates nothing");
}

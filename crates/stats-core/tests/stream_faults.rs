//! A `Session` over a long stream leaves no memory behind for the next
//! stream to fault back in.
//!
//! A stream does not know its length, so whatever its coordinator keeps
//! per group until `finish` grows as it goes. Storage that grows by
//! doubling leaves freed buffers at the top of the coordinator's malloc
//! arena; once the result is dropped the allocator returns that space to
//! the kernel, and every later stream takes a minor page fault per page it
//! touches again. This test counts the process's minor faults (field 10 of
//! `/proc/self/stat`) across whole sessions of `light`-shaped work, after
//! a few warm-up sessions have sized every long-lived buffer.
//!
//! It lives in its own test binary so no other test's allocations land in
//! its counts.
#![cfg(target_os = "linux")]

use std::sync::Arc;

use stats_core::{
    InvocationCtx, RunOptions, Session, SpecConfig, SpecState, StateTransition, ThreadPool,
};

const INPUTS: usize = 20_000;
/// Inputs per `push_batch`.
const CHUNK: usize = 256;
const WARM_UP: usize = 3;
const MEASURED: usize = 20;
/// Average minor faults one session may take: a handful of pages for
/// buffers that move between arenas, far below the ~870 (3.5 MB) a stream
/// took when the resolver's per-group storage grew by doubling.
const MAX_FAULTS_PER_SESSION: u64 = 64;

/// Tolerant state: a speculative value within 0.3 of an original matches.
#[derive(Clone, Debug)]
struct Level(f64);

impl SpecState for Level {
    fn matches_any(&self, originals: &[Self]) -> bool {
        originals.iter().any(|o| (o.0 - self.0).abs() < 0.3)
    }
}

/// Eight LCG rounds per input plus one PRVG draw; the new state depends on
/// the input alone, so auxiliary code with window 1 always validates.
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

/// Minor faults the process has taken so far.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) is parenthesised and may hold spaces:
    // fields are counted from the last `)`, which ends it.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    rest.split_whitespace()
        .nth(7)
        .and_then(|field| field.parse().ok())
        .expect("field 10 of /proc/self/stat is minflt")
}

/// One whole session over `inputs`: open, push in chunks, finish, drop.
fn session(inputs: &[u64], options: &RunOptions) {
    let session = Session::new(Level(0.0), Lcg, options.clone());
    for chunk in inputs.chunks(CHUNK) {
        session.push_batch(chunk.iter().copied());
    }
    let outcome = session.finish();
    assert_eq!(outcome.outputs.len(), inputs.len());
    assert!(!outcome.report.aborted);
}

#[test]
fn a_stream_does_not_refault_its_resolver_storage() {
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let inputs: Vec<u64> = (0..INPUTS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let options = RunOptions::default()
        .config(SpecConfig {
            group_size: 8,
            window: 1,
            max_reexec: 2,
            ..SpecConfig::default()
        })
        .seed(5)
        .pool(Arc::new(ThreadPool::new(2)));
    for _ in 0..WARM_UP {
        session(&inputs, &options);
    }
    let before = minor_faults();
    for _ in 0..MEASURED {
        session(&inputs, &options);
    }
    let per_session = (minor_faults() - before) / MEASURED as u64;
    assert!(
        per_session <= MAX_FAULTS_PER_SESSION,
        "{per_session} minor faults per session, at most {MAX_FAULTS_PER_SESSION} expected"
    );
}

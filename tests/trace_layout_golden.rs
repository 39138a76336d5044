//! Golden layout of recorded runs: for a fixed transition and seed, each
//! case pins the trace digest, the report digest, the trace's node count
//! and a hash of the output bits to constants recorded once. Every driver
//! comparison elsewhere (the bit-identity proptests) checks drivers of one
//! build against each other; this test is what notices when the layout
//! itself drifts from one build to the next.
//!
//! The constants were recorded before the trace's edge arena and the
//! resolver's in-place outputs were introduced, and are never edited: a
//! change that moves one of them changes what a run records.

use std::sync::Arc;

use stats::core::prelude::*;
use stats::core::replay::{report_digest, trace_digest};
use stats::core::GroupResolution;

/// State: the last input plus noise; two states match within `tol`.
#[derive(Clone, Debug)]
struct Fuzzy(f64, f64);
impl SpecState for Fuzzy {
    fn matches_any(&self, originals: &[Self]) -> bool {
        originals.iter().any(|o| (o.0 - self.0).abs() < self.1)
    }
}

/// `state = input + uniform(-noise, noise)`, charged 2 work units, with
/// averaging as the fan-in merge.
struct Noisy {
    noise: f64,
}
impl StateTransition for Noisy {
    type Input = u64;
    type State = Fuzzy;
    type Output = f64;
    fn compute_output(&self, input: &u64, state: &mut Fuzzy, ctx: &mut InvocationCtx) -> f64 {
        ctx.charge(2.0);
        state.0 = *input as f64 + ctx.uniform(-self.noise, self.noise);
        state.0
    }
    fn merge_states(&self, parents: &[Fuzzy]) -> Fuzzy {
        let mean = parents.iter().map(|p| p.0).sum::<f64>() / parents.len() as f64;
        Fuzzy(mean, parents[0].1)
    }
}

const TOL: f64 = 0.3;
const SEED: u64 = 0x5EED_0031;

fn inputs(n: usize, modulus: u64) -> Vec<u64> {
    (0..n as u64).map(|i| i % modulus).collect()
}

fn output_hash(outputs: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for o in outputs {
        for b in o.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(trace digest, report digest, node count, output hash)` of a result.
fn layout(r: &ProtocolResult<Noisy>) -> (u64, u64, usize, u64) {
    (
        trace_digest(&r.trace),
        report_digest(&r.report),
        r.trace.nodes.len(),
        output_hash(&r.outputs),
    )
}

fn batch(noise: f64, inputs: &[u64], options: RunOptions) -> ProtocolResult<Noisy> {
    run_protocol_with_options(&Noisy { noise }, inputs, &Fuzzy(0.0, TOL), &options)
}

#[test]
fn unsegmented_run_where_every_group_commits() {
    let config = SpecConfig {
        group_size: 8,
        window: 2,
        ..SpecConfig::default()
    };
    let r = batch(
        0.1,
        &inputs(200, 7),
        RunOptions::default().config(config).seed(SEED),
    );
    assert!(!r.report.aborted && r.report.reexecutions == 0);
    assert_eq!(r.report.committed_speculative_groups(), 24);
    assert_eq!(
        layout(&r),
        (
            0x87dd_ccf3_65ae_2add,
            0x5f3e_e0c4_ab45_6f0c,
            248,
            0xc25d_4e29_7ab0_c0d7
        ),
        "layout of the all-commit run changed"
    );
}

#[test]
fn run_in_segments_of_64_inputs() {
    let config = SpecConfig {
        group_size: 8,
        window: 2,
        ..SpecConfig::default()
    };
    let options = RunOptions::default().config(config).seed(SEED).segment(64);
    let r = batch(0.4, &inputs(300, 7), options);
    let rematched = r.report.groups.iter().any(
        |g| matches!(g.resolution, GroupResolution::Committed { reexecutions } if reexecutions > 0),
    );
    assert!(
        r.report.aborted && rematched,
        "a re-execution matches, a segment aborts"
    );
    assert_eq!(
        layout(&r),
        (
            0xb2fa_5222_3916_2f79,
            0x6afe_6b52_4dbe_e115,
            507,
            0x6cfd_a134_2682_b011
        ),
        "layout of the segmented run changed"
    );
}

#[test]
fn window_zero_reexecutes_and_aborts() {
    let config = SpecConfig {
        group_size: 5,
        window: 0,
        max_reexec: 2,
        rollback: 2,
        ..SpecConfig::default()
    };
    let r = batch(
        0.4,
        &inputs(120, 2),
        RunOptions::default().config(config).seed(SEED),
    );
    assert!(r.report.aborted && r.report.reexecutions > 0);
    assert_eq!(
        layout(&r),
        (
            0x01ea_b8aa_4323_79b3,
            0x4439_5d52_de1f_c285,
            261,
            0x850b_ef51_38d5_4114
        ),
        "layout of the aborting run changed"
    );
}

#[test]
fn diamond_plan() {
    let mut b = SpecPlan::builder();
    let src = b.node(24);
    let left = b.node(24);
    let right = b.node(24);
    let join = b.node(24);
    b.edge(src, left)
        .edge(src, right)
        .edge(left, join)
        .edge(right, join);
    let plan = b.build().expect("a diamond is acyclic");
    let config = SpecConfig {
        group_size: 4,
        window: 1,
        ..SpecConfig::default()
    };
    let options = RunOptions::default().config(config).seed(SEED).plan(plan);
    let r = batch(0.4, &inputs(96, 5), options);
    assert_eq!(
        layout(&r),
        (
            0xc36e_dc85_c576_95c7,
            0x703a_f232_432b_d3c2,
            216,
            0x411b_eeac_121f_26d9
        ),
        "layout of the diamond plan changed"
    );
}

#[test]
fn session_fed_in_chunks_of_five_on_two_workers() {
    let config = SpecConfig {
        group_size: 8,
        window: 2,
        ..SpecConfig::default()
    };
    let options = RunOptions::default()
        .pool(Arc::new(ThreadPool::new(2)))
        .config(config)
        .seed(SEED);
    let session = Session::new(Fuzzy(0.0, TOL), Noisy { noise: 0.4 }, options);
    for chunk in inputs(203, 7).chunks(5) {
        session.push_batch(chunk.iter().copied());
    }
    let r = session.finish();
    assert_eq!(
        layout(&r),
        (
            0x47f4_0569_b087_84de,
            0x761b_4589_dc50_a516,
            423,
            0xfa0d_4506_2c68_90e3
        ),
        "layout of the session changed"
    );
}

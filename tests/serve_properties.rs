//! Property-based tests of the multi-tenant [`SessionServer`] front door:
//! spill queues replay bit-identically in FIFO order, every multiplexed
//! tenant's outcome equals a solo [`Session`] run, and a bursty tenant's
//! session drains its own backlog while a steady tenant keeps flowing.

use std::sync::Arc;

use proptest::prelude::*;
use stats::core::prelude::*;
use stats::core::serve::{SpillEffect, SpillQueue};

/// Nondeterministic short-memory transition with a tolerant comparison —
/// the same shape the streaming suite uses, so speculation genuinely
/// commits, re-executes, and aborts depending on config and seed.
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
    (1usize..8, 0usize..4, 0usize..3, any::<bool>()).prop_map(
        |(group_size, window, max_reexec, speculate)| SpecConfig {
            group_size,
            window,
            max_reexec,
            speculate,
            ..SpecConfig::default()
        },
    )
}

fn spill_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("stats-spill-props-{}-{tag}", std::process::id()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SPILL FIFO: any interleaving of pushes and pops against a spill
    /// queue with a tiny memory bound yields exactly the order a plain
    /// in-memory FIFO would — disk segments are an invisible extension.
    #[test]
    fn spill_queue_is_an_invisible_fifo(
        ops in proptest::collection::vec((any::<bool>(), any::<u64>(), any::<f64>()), 1..200),
        mem in 1usize..6,
        segment in 1usize..5,
    ) {
        let dir = tempdir_for_case("fifo", &ops);
        let mut queue: SpillQueue<(u64, f64)> = SpillQueue::new(dir, mem, segment);
        let mut reference = std::collections::VecDeque::new();
        let mut spilled = false;
        for (push, a, b) in ops {
            if push {
                if let SpillEffect::Spilled { .. } = queue.push((a, b)).expect("spill push") {
                    spilled = true;
                }
                reference.push_back((a, b));
            } else {
                let got = queue.pop().expect("spill pop").map(|(v, _)| v);
                let want = reference.pop_front();
                // Float equality must be bit-exact through the codec.
                prop_assert_eq!(
                    got.map(|(x, y)| (x, y.to_bits())),
                    want.map(|(x, y): (u64, f64)| (x, y.to_bits()))
                );
            }
        }
        while let Some((got, _)) = queue.pop().expect("drain") {
            let want = reference.pop_front().expect("reference drains in lockstep");
            prop_assert_eq!((got.0, got.1.to_bits()), (want.0, want.1.to_bits()));
        }
        prop_assert!(reference.is_empty());
        if spilled {
            prop_assert!(queue.stats().spilled_segments > 0);
            prop_assert_eq!(queue.stats().spilled_inputs, queue.stats().replayed_inputs);
        }
    }

    /// MULTIPLEXED == SOLO: tenants behind the server — tiny admission
    /// windows, spill engaged — each produce outcomes bit-identical to a
    /// solo session with the same seed, config, and input order.
    #[test]
    fn multiplexed_tenants_match_solo_sessions(
        tenants in 2usize..5,
        n in 1usize..48,
        config in arb_config(),
        base_seed in any::<u64>(),
    ) {
        let pool = Arc::new(ThreadPool::new(2));
        let server: SessionServer<NoisyLast> = SessionServer::new(
            Arc::clone(&pool),
            ServerOptions::default()
                .session_queue_capacity(2)
                .spill_mem_capacity(3)
                .spill_segment(3),
        );
        let handles: Vec<_> = (0..tenants)
            .map(|t| {
                server.open_tenant(
                    Fuzzy(t as f64),
                    NoisyLast,
                    RunOptions::default()
                        .config(config.clone())
                        .seed(base_seed.wrapping_add(t as u64)),
                )
            })
            .collect();
        for i in 0..n as u64 {
            for (t, h) in handles.iter().enumerate() {
                h.try_push(i.wrapping_mul(t as u64 + 1)).expect("push");
            }
        }
        for (t, h) in handles.into_iter().enumerate() {
            let served = h.finish().expect("tenant finishes");
            let solo = Session::new(
                Fuzzy(t as f64),
                NoisyLast,
                RunOptions::default()
                    .config(config.clone())
                    .seed(base_seed.wrapping_add(t as u64)),
            );
            solo.push_batch((0..n as u64).map(|i| i.wrapping_mul(t as u64 + 1)));
            let solo = solo.finish();
            prop_assert_eq!(&served.outputs, &solo.outputs, "tenant {} outputs diverged", t);
            prop_assert!(served.final_state.0.to_bits() == solo.final_state.0.to_bits());
            prop_assert_eq!(&served.report, &solo.report, "tenant {} report diverged", t);
        }
    }
}

/// Name a per-case temp directory off a hash of the case's operations so
/// shrink iterations do not collide with each other on disk.
fn tempdir_for_case(tag: &str, ops: &[(bool, u64, f64)]) -> std::path::PathBuf {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for (p, a, b) in ops {
        (p, a, b.to_bits()).hash(&mut h);
    }
    spill_dir(&format!("{tag}-{:016x}", h.finish()))
}

/// FAIRNESS: a bursty tenant that dumps its whole workload up front spills
/// to disk and drains through admission rounds, while a steady tenant
/// keeps its fast path — both finish, bit-identical to solo, and the
/// server's counters show the burst was absorbed without starving anyone.
#[test]
fn bursty_tenant_spills_without_starving_steady_tenant() {
    let pool = Arc::new(ThreadPool::new(2));
    let server: SessionServer<NoisyLast> = SessionServer::new(
        Arc::clone(&pool),
        ServerOptions::default()
            .session_queue_capacity(2)
            .spill_mem_capacity(4)
            .spill_segment(4),
    );
    let config = SpecConfig {
        group_size: 4,
        window: 1,
        max_reexec: 2,
        ..SpecConfig::default()
    };
    let bursty = server.open_tenant(
        Fuzzy(0.0),
        NoisyLast,
        RunOptions::default().config(config.clone()).seed(7),
    );
    let steady = server.open_tenant(
        Fuzzy(1.0),
        NoisyLast,
        RunOptions::default().config(config.clone()).seed(8),
    );
    // The burst: 256 inputs all at once, far past the admission window.
    assert_eq!(
        bursty.try_push_batch(0..256u64).expect("burst accepted"),
        256
    );
    // Note: no `backlog() > 0` assertion here — the tenant's session races this
    // thread and can legitimately drain the whole burst before we look.
    // That the burst exceeded the admission window is asserted
    // deterministically below via the spill counters (the spill happens
    // synchronously inside try_push_batch).
    // The steady tenant trickles while the burst drains.
    for i in 0..32u64 {
        steady.try_push(i).expect("steady push");
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    let bursty_out = bursty.finish().expect("bursty finishes");
    let steady_out = steady.finish().expect("steady finishes");
    assert_eq!(bursty_out.outputs.len(), 256);
    assert_eq!(steady_out.outputs.len(), 32);

    // Bit-identity for both, burst or no burst.
    for (seed, state, inputs, served) in [
        (7u64, 0.0, 256u64, &bursty_out),
        (8u64, 1.0, 32u64, &steady_out),
    ] {
        let solo = Session::new(
            Fuzzy(state),
            NoisyLast,
            RunOptions::default().config(config.clone()).seed(seed),
        );
        solo.push_batch(0..inputs);
        let solo = solo.finish();
        assert_eq!(served.outputs, solo.outputs);
        assert_eq!(served.report, solo.report);
    }

    let metrics = server.metrics();
    let bursty_m = metrics.tenant(0).expect("bursty metrics");
    let steady_m = metrics.tenant(1).expect("steady metrics");
    assert!(
        bursty_m.spill.spilled_segments > 0,
        "the burst must have hit disk: {bursty_m:?}"
    );
    assert_eq!(
        bursty_m.spill.spilled_inputs, bursty_m.spill.replayed_inputs,
        "everything spilled must be replayed"
    );
    assert_eq!(bursty_m.fast_path + bursty_m.admitted, 256);
    assert_eq!(
        steady_m.fast_path + steady_m.admitted,
        32,
        "steady tenant fully served: {steady_m:?}"
    );
    assert!(
        bursty_m.admission_rounds > 1,
        "round-robin must spread the burst across rounds: {bursty_m:?}"
    );
}

/// OBSERVABILITY: the server-level sink sees the spill write, the replay,
/// and the admission rounds, with matching tenant ids.
#[test]
fn server_sink_records_admission_and_spill_events() {
    let sink = Arc::new(RecordingSink::default());
    let pool = Arc::new(ThreadPool::new(1));
    let server: SessionServer<NoisyLast> = SessionServer::new(
        Arc::clone(&pool),
        ServerOptions::default()
            .session_queue_capacity(1)
            .spill_mem_capacity(2)
            .spill_segment(2)
            .sink(sink.clone()),
    );
    let config = SpecConfig {
        group_size: 2,
        window: 1,
        ..SpecConfig::default()
    };
    let tenant = server.open_tenant(
        Fuzzy(0.0),
        NoisyLast,
        RunOptions::default().config(config).seed(3),
    );
    tenant.try_push_batch(0..64u64).expect("burst");
    let outcome = tenant.finish().expect("finish");
    assert_eq!(outcome.outputs.len(), 64);
    let events = sink.take();
    let mut writes = 0usize;
    let mut replays = 0usize;
    let mut admitted = 0usize;
    for event in &events {
        match event.kind {
            EventKind::SpillWrite { tenant, inputs, .. } => {
                assert_eq!(tenant, 0);
                assert!(inputs > 0);
                writes += 1;
            }
            EventKind::SpillReplay { tenant, inputs, .. } => {
                assert_eq!(tenant, 0);
                assert!(inputs > 0);
                replays += 1;
            }
            EventKind::TenantAdmission {
                tenant,
                admitted: n,
            } => {
                assert_eq!(tenant, 0);
                admitted += n;
            }
            _ => {}
        }
    }
    assert!(
        writes > 0,
        "expected spill writes in {} events",
        events.len()
    );
    assert_eq!(
        writes, replays,
        "every written segment replays exactly once"
    );
    assert!(
        admitted > 0 && admitted <= 64,
        "admissions counted per input: {admitted}"
    );
}

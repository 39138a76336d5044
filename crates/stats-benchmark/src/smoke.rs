//! The crate's own tests at `--smoke` sizes: every workload runs both
//! passes end to end with nothing failing, prints every declared metric,
//! repeats its exact counts, and the declarations agree with
//! `BENCHMARK.json` and the README.

use std::time::Duration;

use crate::json::Json;
use crate::metrics::{Metric, END_TO_END, EXACT, PER_LAYER};
use crate::run::{contract_line, measure, Outcome};
use crate::workloads::{Sizes, NAMES};
use crate::{DEFAULT_SEED, HELD_OUT_SEED};

fn smoke(workload: &str, seed: u64, traced: bool) -> Outcome {
    let outcome = measure(
        workload,
        seed,
        Duration::from_millis(10),
        traced,
        &Sizes::smoke(),
    )
    .expect("a known workload");
    assert_eq!(
        outcome.tally.failed, 0,
        "{workload}: {:?}",
        outcome.tally.notes
    );
    assert!(outcome.tally.attempted > 0, "{workload} checked nothing");
    outcome
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|(m, _)| m.name == name)
        .unwrap_or_else(|| panic!("{name} was not printed"))
        .1
        .value
}

#[test]
fn every_workload_prints_every_end_to_end_metric_and_none_is_zero() {
    for workload in NAMES {
        let outcome = smoke(workload, DEFAULT_SEED, false);
        assert_eq!(outcome.metrics.len(), END_TO_END.len());
        for (metric, summary) in &outcome.metrics {
            assert!(
                summary.value.is_finite() && summary.value > 0.0,
                "{workload}: {} = {}",
                metric.name,
                summary.value
            );
        }
        let line = contract_line(&outcome);
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for (_, m) in metrics {
            let keys: Vec<&str> = m
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["value", "unit"]);
        }
    }
}

#[test]
fn traced_runs_measure_their_own_layers_and_zero_the_rest() {
    // (workload, metrics that must be positive there, metrics that must be 0)
    let expectations: [(&str, &[&str], &[&str]); 8] = [
        (
            "light",
            &[
                "sdi.compute_ns_per_input",
                "session.new_us",
                "replay.log_bytes_per_input",
                "pool.jobs_executed",
            ],
            &[
                "resolver.reexecutions",
                "serve.open_tenant_us",
                "dag.coord_ns_per_node",
                "frontend.compile_us",
            ],
        ),
        (
            "heavy",
            &["runtime.batch_vs_seq", "sim.predicted_speedup_2"],
            &["resolver.aborted_groups"],
        ),
        (
            "misspec",
            &[
                "resolver.reexecutions",
                "resolver.aborted_groups",
                "resolver.squashed_work_share",
            ],
            &["plan.build_us"],
        ),
        (
            "bodytrack",
            &["protocol.aux_work_share", "obs.events_per_input"],
            &["tuner.overhead_us_per_trial"],
        ),
        (
            "dag_small",
            &[
                "dag.gameloop.pooled_vs_seq",
                "dag.ensemble.seq_ns_per_input",
                "plan.build_us",
                "pool.jobs_executed",
            ],
            &["session.new_us", "serve.spill.segments"],
        ),
        (
            "dag_large",
            &[
                "dag.windowed_join.pooled_ns_per_input",
                "plan.critical_path_us",
            ],
            &["ctx.new_ns"],
        ),
        (
            "serve_open",
            &[
                "serve.open_tenant_us",
                "serve.spill.segments",
                "serve.closed_tenants_per_s",
                "serve.spill.pop_ns",
            ],
            &["sdi.compute_ns_per_input", "dag.node_aborts"],
        ),
        (
            "tune",
            &[
                "frontend.compile_us",
                "bytecode.get_value_ns",
                "interp.get_value_ns",
                "sim.simulate_ns_per_task",
            ],
            &["pool.jobs_executed", "session.new_us"],
        ),
    ];
    for (workload, positive, zero) in expectations {
        let outcome = smoke(workload, DEFAULT_SEED, true);
        assert_eq!(outcome.metrics.len(), PER_LAYER.len());
        for name in positive {
            assert!(
                value(&outcome, name) > 0.0,
                "{workload}: {name} should be measured"
            );
        }
        for name in zero {
            assert_eq!(
                value(&outcome, name),
                0.0,
                "{workload}: {name} is another layer's"
            );
        }
        // The job's plain median and tail are every workload's.
        let (p50, tail) = (
            value(&outcome, "job.p50_ms"),
            value(&outcome, "job.tail_ms"),
        );
        assert!(p50 > 0.0 && tail >= p50, "{workload}: job {p50} / {tail}");
        assert!(
            !outcome.trace.spans().is_empty(),
            "{workload} recorded no spans"
        );
    }
}

#[test]
fn exact_counts_repeat_for_a_seed_and_follow_the_seed() {
    for workload in ["light", "misspec", "bodytrack", "dag_small"] {
        let exact = |seed| -> Vec<u64> {
            let outcome = smoke(workload, seed, true);
            EXACT
                .iter()
                .map(|name| value(&outcome, name).to_bits())
                .collect()
        };
        assert_eq!(exact(DEFAULT_SEED), exact(DEFAULT_SEED), "{workload}");
        assert_eq!(exact(HELD_OUT_SEED), exact(HELD_OUT_SEED), "{workload}");
    }
    let reexecutions = |seed| value(&smoke("misspec", seed, true), "resolver.reexecutions");
    assert_ne!(
        (reexecutions(1), reexecutions(2), reexecutions(3)),
        (reexecutions(4), reexecutions(5), reexecutions(6)),
        "the seed drives the generator"
    );
}

#[test]
fn light_commits_everything_and_misspec_does_not() {
    let light = smoke("light", DEFAULT_SEED, true);
    assert_eq!(value(&light, "resolver.commit_ratio"), 1.0);
    assert_eq!(value(&light, "replay.divergences"), 0.0);
    let misspec = smoke("misspec", DEFAULT_SEED, true);
    assert!(value(&misspec, "resolver.commit_ratio") < 1.0);
    assert!(value(&misspec, "resolver.validations") > value(&light, "resolver.validations"));
}

fn declared(list: &[Metric], with_bound: bool) -> Json {
    Json::Arr(
        list.iter()
            .map(|m| {
                let mut pairs = vec![
                    ("name", Json::str(m.name)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.word())),
                ];
                if with_bound {
                    pairs.push(("bound", Json::Num(m.bound)));
                }
                Json::obj(pairs)
            })
            .collect(),
    )
}

#[test]
fn benchmark_json_declares_exactly_what_the_code_prints() {
    let doc = Json::parse(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(doc.get("end_to_end"), Some(&declared(END_TO_END, true)));
    assert_eq!(doc.get("per_layer"), Some(&declared(PER_LAYER, false)));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
            w.get("name").and_then(Json::as_str).unwrap()
        })
        .collect();
    assert_eq!(workloads, NAMES);
    assert_eq!(
        doc.get("paths"),
        Some(&Json::Arr(vec![Json::str("crates/stats-benchmark")]))
    );
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    let command = doc.get("command").and_then(Json::as_arr).unwrap();
    assert_eq!(command.last().and_then(Json::as_str), Some("--"));
}

#[test]
fn readme_glossary_names_every_metric_and_workload() {
    let readme = include_str!("../README.md");
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            readme.contains(&format!("`{}`", m.name)),
            "README lacks {}",
            m.name
        );
    }
    for workload in NAMES {
        assert!(
            readme.contains(&format!("`{workload}`")),
            "README lacks {workload}"
        );
    }
}

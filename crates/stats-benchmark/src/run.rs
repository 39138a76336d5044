//! Running workloads: one in this process (the form `BENCHMARK.json`
//! names), or the full set with one child process per workload and pass.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use crate::env::{env_block, peak_rss_mb};
use crate::harness::{Block, Budget, Tally};
use crate::json::Json;
use crate::metrics::{Metric, Values, END_TO_END, PER_LAYER};
use crate::span::{chrome_trace, Trace};
use crate::summary::Summary;
use crate::workloads::{setup, Sizes, NAMES};
use crate::{Args, DEFAULT_SEED};

/// Scratch space inside the working directory (spill segments, the result
/// files of child processes); removed when the value drops.
pub struct Scratch(PathBuf);

/// Distinguishes the scratch directories of one process.
static SCRATCH_NO: std::sync::Mutex<u32> = std::sync::Mutex::new(0);

impl Scratch {
    /// `./.stats-benchmark-tmp/<pid>-<n>`, created empty.
    pub fn new() -> std::io::Result<Self> {
        let no = {
            let mut next = SCRATCH_NO.lock().expect("scratch numbering");
            *next += 1;
            *next
        };
        let dir =
            PathBuf::from(".stats-benchmark-tmp").join(format!("{}-{no}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once the last process using it has left.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
        // Thousands of small files were created and unlinked: commit that to
        // the file system now, outside every timed section, instead of
        // leaving it to be written back under the next block's measurement.
        if let Ok(cwd) = std::fs::File::open(".") {
            let _ = cwd.sync_all();
        }
    }
}

/// What one workload measured in one process.
pub struct Outcome {
    /// The metrics of the pass that ran, complete and in declaration order.
    pub metrics: Vec<(&'static Metric, Summary)>,
    /// Operations checked and failed.
    pub tally: Tally,
    /// Spans of a traced run.
    pub trace: Trace,
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Set `workload` up, warm it and measure it — in `sizes.blocks`
/// independent blocks when untraced (`setup_s` is the median of their set-ups), once
/// when traced. A panic anywhere inside the program
/// is caught and counted as a failed operation.
pub fn measure(
    workload: &str,
    seed: u64,
    budget: Duration,
    traced: bool,
    sizes: &Sizes,
) -> Option<Outcome> {
    if !NAMES.contains(&workload) {
        return None;
    }
    let trace = if traced { Trace::on() } else { Trace::off() };
    let mut tally = Tally::default();
    let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let blocks = if traced { 1 } else { sizes.blocks };
        let share = Budget {
            time: budget / blocks as u32,
            min_reps: if traced {
                sizes.min_reps
            } else {
                sizes.slice_reps
            },
            cycles: sizes.cycles,
        };
        let mut setups = Vec::new();
        let mut pooled = Block::default();
        let mut values = Values::default();
        for _ in 0..blocks {
            let start = Instant::now();
            let mut prepared = setup(workload, seed, sizes).expect("name checked above");
            prepared.warm(sizes.warmup_reps, &mut tally);
            setups.push(start.elapsed().as_secs_f64());
            if traced {
                values = prepared.run_traced(share, &trace, &mut tally);
            } else {
                pooled.merge(prepared.run(share, &mut tally));
            }
            // `prepared` drops here: its pool and server wind down before
            // the next block sets up, so blocks never overlap.
        }
        if !traced {
            values = pooled.metrics();
        }
        values.set("setup_s", Summary::of(&setups));
        values
    }));
    let mut values = body.unwrap_or_else(|payload| {
        tally.check(false, || format!("panic: {}", panic_text(&*payload)));
        Values::default()
    });
    values.set("peak_rss_mb", Summary::exact(peak_rss_mb()));
    if traced {
        values.set("trace.harness_share", Summary::exact(trace.harness_share()));
    }
    Some(Outcome {
        metrics: values.complete(if traced { PER_LAYER } else { END_TO_END }),
        tally,
        trace,
    })
}

fn metric_json(metric: &Metric, s: &Summary) -> Json {
    Json::obj([
        ("value", Json::Num(s.value)),
        ("unit", Json::str(metric.unit)),
        ("better", Json::str(metric.better.word())),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("n", Json::Num(s.n as f64)),
    ])
}

fn print_metrics(workload: &str, metrics: &[(&'static Metric, Summary)]) {
    println!(
        "{:<10} {:<40} {:>6} {:>6} {:>16} {:>16} {:>16} {:>6}",
        "workload", "metric", "unit", "better", "value", "q1", "q3", "n"
    );
    for (m, s) in metrics {
        println!(
            "{:<10} {:<40} {:>6} {:>6} {:>16.6} {:>16.6} {:>16.6} {:>6}",
            workload,
            m.name,
            m.unit,
            m.better.word(),
            s.value,
            s.q1,
            s.q3,
            s.n
        );
    }
}

/// `--workload W --seed N --seconds S --trace 0|1`: the form the driver
/// runs. `Ok(false)` (exit code 1) when any operation failed.
pub fn one_workload(args: &Args) -> Result<bool, String> {
    let workload = args.get("workload").expect("dispatched on --workload");
    let seed = args.number("seed", DEFAULT_SEED)?;
    let seconds: f64 = args.number("seconds", 10.0)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let traced = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let sizes = if args.get("smoke").is_some() {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    let outcome = measure(
        workload,
        seed,
        Duration::from_secs_f64(seconds),
        traced,
        &sizes,
    )
    .ok_or_else(|| format!("unknown workload `{workload}`"))?;

    print_metrics(workload, &outcome.metrics);
    for note in &outcome.tally.notes {
        println!("FAILED {note}");
    }
    let correct = outcome.tally.failed == 0;
    if let Some(path) = args.get("out") {
        let detail = Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("traced", Json::Bool(traced)),
            ("attempted", Json::Num(outcome.tally.attempted as f64)),
            ("failed", Json::Num(outcome.tally.failed as f64)),
            (
                "notes",
                Json::Arr(outcome.tally.notes.iter().map(Json::str).collect()),
            ),
            (
                "metrics",
                Json::obj(
                    outcome
                        .metrics
                        .iter()
                        .map(|(m, s)| (m.name, metric_json(m, s))),
                ),
            ),
        ]);
        std::fs::write(path, detail.to_pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = args.get("trace-out") {
        let doc = chrome_trace(workload, &outcome.trace.spans());
        std::fs::write(path, doc.to_line()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", contract_line(&outcome).to_line());
    Ok(correct)
}

/// The last line of a run: exactly these keys, every value with all the
/// digits it was measured with.
pub fn contract_line(outcome: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.tally.failed == 0)),
        (
            "attempted",
            Json::Num(outcome.tally.attempted.max(1) as f64),
        ),
        ("failed", Json::Num(outcome.tally.failed as f64)),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|(m, s)| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(s.value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ])
}

/// One child process: `--workload W …` writing its detail to `out`.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: &Path,
    trace_out: Option<&Path>,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .stdout(std::process::Stdio::null());
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    if smoke {
        cmd.arg("--smoke");
    }
    // `status` waits for the child: no process outlives this call.
    let status = cmd.status().map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = std::fs::read_to_string(out)
        .map_err(|e| format!("{workload}: no result ({status}): {e}"))?;
    Json::parse(&text)
}

/// Fold the per-run values of each metric into one summary: with several
/// runs the quartiles are across runs (what `compare` wants); with one, the
/// run's own within-run quartiles are kept.
fn fold_runs(runs: &[Json]) -> Json {
    let Some(first) = runs
        .first()
        .and_then(|r| r.get("metrics"))
        .and_then(Json::as_obj)
    else {
        return Json::obj::<&str>([]);
    };
    if runs.len() == 1 {
        return Json::Obj(first.to_vec());
    }
    Json::Obj(
        first
            .iter()
            .map(|(name, one)| {
                let values: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
                    .collect();
                let s = Summary::of(&values);
                let mut folded = one.as_obj().map(<[_]>::to_vec).unwrap_or_default();
                for (key, value) in &mut folded {
                    match key.as_str() {
                        "value" => *value = Json::Num(s.value),
                        "q1" => *value = Json::Num(s.q1),
                        "q3" => *value = Json::Num(s.q3),
                        "n" => *value = Json::Num(s.n as f64),
                        _ => {}
                    }
                }
                folded.push((
                    "runs".to_string(),
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ));
                (name.clone(), Json::Obj(folded))
            })
            .collect(),
    )
}

/// `run`: every workload (or one), each pass in its own process.
pub fn full_set(args: &Args) -> Result<bool, String> {
    let seed: u64 = args.number("seed", DEFAULT_SEED)?;
    let seconds: f64 = args.number("seconds", 4.0)?;
    let runs: usize = args.number("runs", 1)?;
    let smoke = args.get("smoke").is_some();
    let names: Vec<&str> = match args.get("workload") {
        Some(w) if NAMES.contains(&w) => vec![w],
        Some(w) => return Err(format!("unknown workload `{w}`")),
        None => NAMES.to_vec(),
    };
    let scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
    let started = Instant::now();
    let mut workloads = Vec::new();
    let mut chrome = Vec::new();
    let (mut attempted, mut failed) = (0.0, 0.0);
    for name in names {
        let out = scratch.path().join(format!("{name}.json"));
        let untraced: Vec<Json> = (0..runs.max(1))
            .map(|_| child(name, seed, seconds, false, smoke, &out, None))
            .collect::<Result<_, _>>()?;
        let trace_out = args
            .get("trace")
            .map(|_| scratch.path().join(format!("{name}.trace.json")));
        let traced = child(name, seed, seconds, true, smoke, &out, trace_out.as_deref())?;
        if let Some(path) = trace_out {
            let doc = std::fs::read_to_string(&path).map_err(|e| format!("{name}: trace: {e}"))?;
            // One process row per workload in the merged trace: every child
            // counted its timestamps from its own start.
            let pid = Json::Num(workloads.len() as f64 + 1.0);
            if let Some(events) = Json::parse(&doc)?.get("traceEvents").and_then(Json::as_arr) {
                chrome.extend(events.iter().map(|event| {
                    let mut pairs = event.as_obj().map(<[_]>::to_vec).unwrap_or_default();
                    for (key, value) in &mut pairs {
                        if key == "pid" {
                            *value = pid.clone();
                        }
                    }
                    Json::Obj(pairs)
                }));
            }
        }
        let mut notes = Vec::new();
        for pass in untraced.iter().chain([&traced]) {
            attempted += pass.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            failed += pass.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            notes.extend(
                pass.get("notes")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .to_vec(),
            );
        }
        let end_to_end = fold_runs(&untraced);
        let per_layer = fold_runs(std::slice::from_ref(&traced));
        print_folded(name, &end_to_end);
        print_folded(name, &per_layer);
        workloads.push((
            name,
            Json::obj([
                ("end_to_end", end_to_end),
                ("per_layer", per_layer),
                ("notes", Json::Arr(notes)),
            ]),
        ));
    }
    let failed_share = if attempted > 0.0 {
        failed / attempted
    } else {
        1.0
    };
    println!(
        "attempted {attempted} failed {failed} failed_share {failed_share} wall {:.1}s",
        started.elapsed().as_secs_f64()
    );
    let result = Json::obj([
        ("env", env_block()),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("runs", Json::Num(runs as f64)),
        ("smoke", Json::Bool(smoke)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("failed_share", Json::Num(failed_share)),
        ("workloads", Json::obj(workloads)),
    ]);
    if let Some(path) = args.get("out") {
        std::fs::write(path, result.to_pretty()).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = args.get("trace") {
        let doc = Json::obj([
            ("displayTimeUnit", Json::str("ns")),
            ("traceEvents", Json::Arr(chrome)),
        ]);
        std::fs::write(path, doc.to_line()).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(failed == 0.0)
}

fn print_folded(workload: &str, metrics: &Json) {
    for (name, m) in metrics.as_obj().unwrap_or(&[]) {
        let num = |key: &str| m.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let text = |key: &str| m.get(key).and_then(Json::as_str).unwrap_or("");
        println!(
            "{workload:<10} {name:<40} {:>6} {:>6} {:>16.6} {:>16.6} {:>16.6} {:>6}",
            text("unit"),
            text("better"),
            num("value"),
            num("q1"),
            num("q3"),
            num("n")
        );
    }
}

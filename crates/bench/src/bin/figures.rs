//! Regenerate the tables and figures of the STATS evaluation (§4).
//!
//! ```text
//! cargo run --release -p bench --bin figures -- all
//! cargo run --release -p bench --bin figures -- fig12 fig13
//! cargo run --release -p bench --bin figures -- --quick table1
//! cargo run --release -p bench --bin figures -- --tiny fig3 fig12
//! cargo run --release -p bench --bin figures -- --tiny fig12 --trace traces/
//! ```
//!
//! Available targets: `fig2 fig3 table1 fig12 fig13 fig14 fig15 fig16
//! fig17 fig18 fig19 fig20 all`.
//!
//! Figures 12 and 14 fan their cells over one thread pool; Figures 3 and 13
//! are derived from Figure 12's curves, which are computed once whenever
//! any of the three is requested.

use std::io;
use std::path::{Path, PathBuf};

use bench::experiments::{self, Settings};
use bench::{render, tsv};
use stats_core::ThreadPool;
use stats_workloads::BenchmarkId;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let tiny = args.iter().any(|a| a == "--tiny");
    let dir_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(PathBuf::from)
    };
    // `--out DIR` additionally writes one TSV per figure into DIR.
    let out = dir_after("--out");
    // `--trace DIR` exports Chrome trace JSON for representative fig12/14
    // cells into DIR (loadable in chrome://tracing / Perfetto).
    let trace = dir_after("--trace");
    let mut targets: Vec<&str> = Vec::new();
    let mut skip_next = false;
    for a in &args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--out" || a == "--trace" {
            skip_next = true;
        } else if !a.starts_with("--") {
            targets.push(a.as_str());
        }
    }
    let targets: Vec<&str> = if targets.is_empty() || targets.contains(&"all") {
        vec![
            "fig2",
            "fig3",
            "table1",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
            "fig19",
            "fig20",
            "ablation",
            "multisocket",
            "summary",
        ]
    } else {
        targets
    };

    let settings = if tiny {
        Settings::tiny()
    } else if quick {
        Settings::quick()
    } else {
        Settings::full()
    };

    let wants = |t: &str| targets.contains(&t);

    // Print a figure, and with `--out` also write its TSV.
    let emit = |text: String, write: &dyn Fn(&Path) -> io::Result<()>| {
        print!("{text}");
        if let Some(dir) = &out {
            if let Err(e) = write(dir) {
                eprintln!("--out: {e}");
            }
        }
    };

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let pool = ThreadPool::new(workers);
    let curves = if wants("fig3") || wants("fig12") || wants("fig13") {
        experiments::fig12(&settings, &pool)
    } else {
        Vec::new()
    };
    if wants("fig2") {
        let rows = experiments::fig02(&settings);
        emit(render::fig02_text(&rows), &|dir| tsv::fig02(dir, &rows));
    }
    if wants("fig3") {
        let (rows, geo) = experiments::fig03(&curves);
        emit(render::fig03_text(&rows, geo), &|dir| {
            tsv::fig03(dir, &rows, geo)
        });
    }
    if wants("table1") {
        let rows = experiments::table1(&settings);
        emit(render::table1_text(&rows), &|dir| tsv::table1(dir, &rows));
    }
    if wants("fig12") {
        for c in &curves {
            emit(render::fig12_text(c), &|dir| tsv::fig12(dir, c));
        }
    }
    if wants("fig13") {
        let (threads, original, par) = experiments::fig13(&curves);
        emit(render::fig13_text(&threads, &original, &par), &|dir| {
            tsv::fig13(dir, &threads, &original, &par)
        });
    }
    if wants("fig14") {
        let rows = experiments::fig14(&settings, &pool);
        emit(render::fig14_text(&rows), &|dir| tsv::fig14(dir, &rows));
    }
    if wants("fig15") {
        let rows = experiments::fig15(&settings);
        emit(render::fig15_text(&rows), &|dir| tsv::fig15(dir, &rows));
    }
    if wants("fig16") {
        let rows = experiments::fig16(&settings);
        emit(render::fig16_text(&rows), &|dir| tsv::fig16(dir, &rows));
    }
    if wants("fig17") {
        let rows = experiments::fig17(&settings);
        emit(render::fig17_text(&rows), &|dir| tsv::fig17(dir, &rows));
    }
    if wants("fig18") {
        let curve = experiments::fig18(&settings);
        emit(render::fig18_text(&curve), &|dir| tsv::fig18(dir, &curve));
    }
    if wants("fig19") {
        let rows = experiments::fig19(&settings);
        emit(render::fig19_text(&rows), &|dir| tsv::fig19(dir, &rows));
    }
    if wants("ablation") {
        for bench in [BenchmarkId::BodyTrack, BenchmarkId::FluidAnimate] {
            let a = experiments::ablation(&settings, bench);
            emit(render::ablation_text(&a), &|dir| tsv::ablation(dir, &a));
        }
    }
    if wants("summary") {
        let sum = experiments::summary(&settings);
        emit(render::summary_text(&sum), &|dir| tsv::summary(dir, &sum));
    }
    if wants("multisocket") {
        let rows = experiments::multisocket(&settings);
        emit(render::multisocket_text(&rows), &|dir| {
            tsv::multisocket(dir, &rows)
        });
    }
    if wants("fig20") {
        let reps = if quick { 2 } else { 4 };
        let (curve, convergence) = experiments::fig20(&settings, reps);
        emit(render::fig20_text(&curve, convergence), &|dir| {
            tsv::fig20(dir, &curve, convergence)
        });
    }
    if let Some(dir) = &trace {
        match experiments::export_traces(&settings, dir) {
            Ok(paths) => {
                for p in paths {
                    eprintln!("trace: {}", p.display());
                }
            }
            Err(e) => eprintln!("--trace: {e}"),
        }
    }
}

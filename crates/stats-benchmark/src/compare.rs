//! `compare A.json B.json`: hold two result files against the bounds.
//!
//! For every pairing of end-to-end metric and workload, B's median may be
//! worse than A's by at most the metric's bound. Where the spread of either
//! file (distance between quartiles over its runs, as a share of the
//! median) is wider than the bound, the pair is *unresolved*, not
//! unchanged. Exact-count metrics must be identical.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, EXACT};

/// The verdict on one pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the spread is narrow enough to say so.
    Within,
    /// B is worse than A by more than the bound.
    Regression,
    /// The spread exceeds the bound: the runs cannot tell.
    Unresolved,
}

/// One file's reading of one metric.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    /// Median over the file's runs.
    pub value: f64,
    /// (q3 − q1) / median.
    pub spread: f64,
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when it
/// is better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Judge one pairing against `bound`.
pub fn judge(better: Better, bound: f64, a: Reading, b: Reading) -> Verdict {
    if a.spread.max(b.spread) > bound {
        Verdict::Unresolved
    } else if worsening(better, a.value, b.value) > bound {
        Verdict::Regression
    } else {
        Verdict::Within
    }
}

fn reading(file: &Json, workload: &str, section: &str, metric: &str) -> Option<Reading> {
    let m = file
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let q1 = m.get("q1").and_then(Json::as_f64).unwrap_or(value);
    let q3 = m.get("q3").and_then(Json::as_f64).unwrap_or(value);
    Some(Reading {
        value,
        spread: if value == 0.0 {
            0.0
        } else {
            (q3 - q1) / value.abs()
        },
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compare two result files; `Ok(false)` when any pair regressed or any
/// exact count differs.
pub fn compare_files(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    for key in ["nproc", "pool_workers", "rustc", "profile"] {
        let of = |f: &Json| f.get("env").and_then(|e| e.get(key)).cloned();
        if of(&a) != of(&b) {
            println!("note: env.{key} differs between the two files");
        }
    }
    let workloads: Vec<&str> = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{a_path}: no workloads"))?
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();

    println!(
        "change of B against A (+ is worse); ! beyond the bound, ? spread wider than the bound"
    );
    print!("{:<11}", "workload");
    for m in END_TO_END {
        print!(" {:>15}", m.name);
    }
    println!(" {:>7}", "exact");
    print!("{:<11}", "bound");
    for m in END_TO_END {
        print!(" {:>14.0}%", m.bound * 100.0);
    }
    println!();

    let (mut regressions, mut unresolved, mut differing) = (0, 0, 0);
    for workload in workloads {
        print!("{workload:<11}");
        for m in END_TO_END {
            let pair = reading(&a, workload, "end_to_end", m.name).zip(reading(
                &b,
                workload,
                "end_to_end",
                m.name,
            ));
            let Some((ra, rb)) = pair else {
                print!(" {:>15}", "missing");
                regressions += 1;
                continue;
            };
            let mark = match judge(m.better, m.bound, ra, rb) {
                Verdict::Within => ' ',
                Verdict::Regression => {
                    regressions += 1;
                    '!'
                }
                Verdict::Unresolved => {
                    unresolved += 1;
                    '?'
                }
            };
            print!(
                " {:>+13.1}%{mark}",
                worsening(m.better, ra.value, rb.value) * 100.0
            );
        }
        let mut same = true;
        for name in EXACT {
            let of = |f: &Json| reading(f, workload, "per_layer", name).map(|r| r.value.to_bits());
            if of(&a) != of(&b) {
                same = false;
                differing += 1;
                println!();
                print!("  {name} differs");
            }
        }
        println!(" {:>7}", if same { "same" } else { "DIFFERS" });
    }
    println!("{regressions} beyond their bound, {unresolved} unresolved, {differing} exact counts differ");
    Ok(regressions == 0 && differing == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(value: f64, spread: f64) -> Reading {
        Reading { value, spread }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worsening(Better::Lower, 10.0, 12.0) - 0.2).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 12.0) + 0.2).abs() < 1e-12);
        assert_eq!(worsening(Better::Lower, 0.0, 5.0), 0.0);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let bound = 0.15;
        assert_eq!(
            judge(Better::Higher, bound, r(100.0, 0.02), r(90.0, 0.03)),
            Verdict::Within
        );
        assert_eq!(
            judge(Better::Higher, bound, r(100.0, 0.02), r(80.0, 0.03)),
            Verdict::Regression
        );
        assert_eq!(
            judge(Better::Lower, bound, r(100.0, 0.02), r(120.0, 0.03)),
            Verdict::Regression
        );
        // An improvement is never a regression, however large.
        assert_eq!(
            judge(Better::Lower, bound, r(100.0, 0.02), r(50.0, 0.03)),
            Verdict::Within
        );
        // Noise wider than the bound cannot resolve anything.
        assert_eq!(
            judge(Better::Lower, bound, r(100.0, 0.2), r(130.0, 0.03)),
            Verdict::Unresolved
        );
    }
}

//! `stats-benchmark`: the repository's benchmark.
//!
//! ```text
//! stats-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one process
//! stats-benchmark run [--workload W] [--seed N] [--seconds S] [--runs R] [--out FILE] [--trace FILE]
//! stats-benchmark compare A.json B.json
//! ```
//!
//! The first form is what `BENCHMARK.json` names: it sets the workload up
//! from the seed, measures for the given seconds, checks every output
//! against the sequential reference, prints every metric by name and, as
//! its last line, one JSON object. `run` executes that form once per
//! workload in a child process each (so CPU time and peak memory are per
//! workload), untraced for the end-to-end metrics and traced for the
//! per-layer ones, and writes one result file. `compare` holds two result
//! files against the bounds. See `README.md` for every name.

mod compare;
mod env;
mod harness;
mod json;
mod ladder;
mod metrics;
mod openloop;
mod run;
#[cfg(test)]
mod smoke;
mod span;
mod summary;
mod transitions;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Default `--seed`; `HELD_OUT_SEED` is the one no change is developed
/// against, for checking that a claim is not fitted to the default.
pub const DEFAULT_SEED: u64 = 20_180_324;
/// The held-out seed.
pub const HELD_OUT_SEED: u64 = 7_919;

/// `--flag value` pairs and bare words, in order.
pub struct Args {
    flags: BTreeMap<String, String>,
    words: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut words = Vec::new();
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => {
                    flags.insert("smoke".to_string(), "1".to_string());
                }
                Some(flag) => {
                    let value = raw.next().ok_or(format!("--{flag} needs a value"))?;
                    flags.insert(flag.to_string(), value);
                }
                None => words.push(arg),
            }
        }
        Ok(Args { flags, words })
    }

    /// The value of `--flag`, if given.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// `--flag` parsed as a number, or `default`.
    pub fn number<N: std::str::FromStr>(&self, flag: &str, default: N) -> Result<N, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{flag}: `{v}` is not a number")),
        }
    }
}

const USAGE: &str = "usage:
  stats-benchmark --workload W --seed N --seconds S --trace 0|1 [--out FILE] [--trace-out FILE] [--smoke]
  stats-benchmark run [--workload W] [--seed N] [--seconds S] [--runs R] [--out FILE] [--trace FILE] [--smoke]
  stats-benchmark compare A.json B.json
workloads: light heavy misspec bodytrack dag_small dag_large serve_open tune";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.words.first().map(String::as_str) {
        None if args.get("workload").is_some() => run::one_workload(&args),
        Some("run") => run::full_set(&args),
        Some("compare") => match &args.words[1..] {
            [a, b] => compare::compare_files(a, b),
            _ => Err("compare takes two result files".to_string()),
        },
        _ => Err("no command".to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("stats-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

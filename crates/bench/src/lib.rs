//! The benchmark harness: one regeneration function per table/figure of the
//! STATS evaluation (§4). The `figures` binary prints the same rows/series
//! the paper reports.
//!
//! Absolute numbers differ from the paper's (our substrate is a simulated
//! 28-core Haswell, not the authors' testbed); the *shape* — who wins, by
//! roughly what factor, where crossovers fall — is the reproduction target.
//! EXPERIMENTS.md records paper-vs-measured for every experiment.

#![deny(missing_docs)]

pub mod experiments;
pub mod render;
pub mod tsv;

pub use experiments::Settings;

//! Deterministic discrete-event multicore simulator and energy model.
//!
//! The STATS paper evaluates on a dual-socket Dell PowerEdge R730 with two
//! 14-core Intel Xeon E5-2695 v3 (Haswell) processors, 2-way Hyper-Threading,
//! and measures system-wide AC energy with a Watts Up Pro meter. This crate is
//! the substitute for that platform: it schedules a task graph — produced by
//! actually running the STATS speculation protocol — onto a configurable
//! virtual machine with sockets, cores, SMT contexts, a NUMA cross-socket
//! penalty, and a static+dynamic power model.
//!
//! The simulator is deterministic: the same task graph and platform always
//! produce the same schedule, makespan, and energy. Task costs are abstract
//! *work units* accumulated by the real workload computations; the platform
//! converts them to seconds at a configurable rate.
//!
//! # Example
//!
//! ```
//! use stats_sim::{Platform, TaskGraph, simulate};
//!
//! let platform = Platform::haswell_r730();
//! let mut graph = TaskGraph::new();
//! let a = graph.add_task(100.0, 0.1, &[]);
//! let b = graph.add_task(50.0, 0.1, &[a]);
//! let c = graph.add_task(50.0, 0.1, &[a]);
//! let _ = (b, c);
//! let schedule = simulate(&graph, &platform, 2);
//! assert!(schedule.makespan_work() >= 150.0);
//! ```

#![deny(missing_docs)]

mod energy;
mod engine;
pub mod export;
mod platform;
mod task;

pub use energy::{EnergyModel, EnergyReport};
pub use engine::{simulate, Schedule, TaskPlacement};
pub use platform::{Placement, Platform};
pub use task::{Task, TaskGraph, TaskId};

//! Workload families whose state dependences form a DAG, not a line.
//!
//! The six paper benchmarks all thread one state through one linear input
//! stream; these families exercise the [`SpecPlan`](stats_core::SpecPlan)
//! engine (`docs/dag.md`), where dependences fan out and fan back in and
//! validation/rollback scope to DAG cut-sets:
//!
//! | Family | Shape | State dependence |
//! |---|---|---|
//! | [`windowed_join`] | fan-in of source streams into join stages | windowed aggregates merged at the join |
//! | [`gameloop`] | chained branch-and-merge diamonds | world posture split across AI branches per tick |
//! | [`ensemble`] | one calibration node fanning out to members, reduced at a sink | running Monte-Carlo estimates pooled at the reduce |
//!
//! Every family follows the same contract: `transition()` (a
//! [`StateTransition`](stats_core::StateTransition) with a real
//! `merge_states` fan-in), `plan(...)` (the family's
//! [`SpecPlan`](stats_core::SpecPlan)),
//! `inputs(...)` (a seeded deterministic generator sized to the plan), and
//! `config()` (a [`SpecConfig`](stats_core::SpecConfig) whose window makes
//! cross-node speculation actually match). The states are deliberately
//! short-memory — strongly decaying aggregates — so a plan-auxiliary
//! replay of each parent's input tail lands within the family's
//! `matches_any` tolerance, exactly the property the paper's auxiliary
//! code exploits on the linear stream.
//!
//! The families are driven by the `dag_small`/`dag_large` workloads of
//! `stats-benchmark` (`dag.<family>.pooled_vs_seq` in `BENCHMARK.json`) and
//! the DAG property suite; they are not part of the paper's
//! [`BenchmarkId`](crate::BenchmarkId) roster.

pub mod ensemble;
pub mod gameloop;
pub mod windowed_join;

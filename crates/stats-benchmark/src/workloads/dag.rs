//! `dag_small` and `dag_large`: the three shipped plan families
//! (`windowed_join`, `gameloop`, `ensemble`) run as plans, sequentially and
//! on the pool. At scale 8 a node's work is below what dispatching it
//! costs; at scale 512 it dominates — a cost model that inlines small nodes
//! must win on the first and leave the second alone.

use std::sync::Arc;
use std::time::Duration;

use stats_core::obs::{EventKind, EventSink, RecordingSink};
use stats_core::{
    run_protocol_with_options, ProtocolResult, RunOptions, SpecConfig, SpecPlan, StateDependence,
    StateTransition, ThreadPool,
};
use stats_workloads::dag::{ensemble, gameloop, windowed_join};

use super::Prepared;
use crate::harness::{job_spread, part, repeat, rounds, time, Block, Budget, Jobs, Tally, Timed};
use crate::ladder::{pool_counters, pool_micro};
use crate::metrics::Values;
use crate::openloop::SplitMix;
use crate::span::Trace;
use crate::summary::Summary;
use crate::transitions::{BitEq, Shared};

/// One plan family, set up: plan, inputs, and the sequential reference.
struct Family<T: StateTransition> {
    name: &'static str,
    make_plan: Box<dyn Fn() -> SpecPlan>,
    transition: Shared<T>,
    inputs: Vec<T::Input>,
    initial: T::State,
    options: RunOptions,
    reference: ProtocolResult<Shared<T>>,
}

/// What the workload needs from a family whatever its transition type.
trait FamilyRun {
    fn name(&self) -> &'static str;
    fn inputs(&self) -> usize;
    fn nodes(&self) -> usize;
    fn seq(&self, trace: &Trace, tally: &mut Tally) -> Duration;
    fn pooled(&self, trace: &Trace, tally: &mut Tally) -> Duration;
    fn build(&self, trace: &Trace) -> Duration;
    fn critical_path(&self, trace: &Trace) -> Duration;
    /// `(NodeAbort, ConeSquash)` events of one sequential run.
    fn aborts(&self) -> (usize, usize);
}

impl<T> Family<T>
where
    T: StateTransition,
    T::Output: BitEq,
{
    #[allow(clippy::too_many_arguments)] // one per part of a family's definition
    fn new(
        name: &'static str,
        make_plan: impl Fn() -> SpecPlan + 'static,
        transition: T,
        inputs: Vec<T::Input>,
        initial: T::State,
        config: SpecConfig,
        run_seed: u64,
        pool: &Arc<ThreadPool>,
    ) -> Self {
        let plan = make_plan();
        assert_eq!(
            inputs.len(),
            plan.total_inputs(),
            "{name}: inputs match the plan"
        );
        let transition = Shared(Arc::new(transition));
        let options = RunOptions::default()
            .config(config)
            .seed(run_seed)
            .plan(plan)
            .pool(Arc::clone(pool));
        let reference = run_protocol_with_options(&transition, &inputs, &initial, &options);
        Family {
            name,
            make_plan: Box::new(make_plan),
            transition,
            inputs,
            initial,
            options,
            reference,
        }
    }
}

impl<T> FamilyRun for Family<T>
where
    T: StateTransition,
    T::Output: BitEq,
{
    fn name(&self) -> &'static str {
        self.name
    }

    fn inputs(&self) -> usize {
        self.inputs.len()
    }

    fn nodes(&self) -> usize {
        self.options.plan.as_ref().map_or(0, SpecPlan::len)
    }

    fn seq(&self, trace: &Trace, tally: &mut Tally) -> Duration {
        let (result, wall) = time(|| {
            trace.span("run_protocol_with_options", || {
                run_protocol_with_options(
                    &self.transition,
                    &self.inputs,
                    &self.initial,
                    &self.options,
                )
            })
        });
        tally.check(result.outputs.bit_eq(&self.reference.outputs), || {
            format!("{} seq: outputs differ from the reference", self.name)
        });
        wall
    }

    fn pooled(&self, trace: &Trace, tally: &mut Tally) -> Duration {
        let dep = StateDependence::new(
            self.inputs.clone(),
            self.initial.clone(),
            self.transition.clone(),
        )
        .with_options(self.options.clone());
        let (outcome, wall) = time(|| trace.span("StateDependence::run", || dep.run()));
        tally.check(
            outcome.outputs.bit_eq(&self.reference.outputs)
                && outcome.report == self.reference.report
                && outcome.trace == self.reference.trace,
            || format!("{} pooled: outputs, report or trace differ", self.name),
        );
        wall
    }

    fn build(&self, trace: &Trace) -> Duration {
        time(|| {
            trace.span("SpecPlanBuilder::build", || {
                std::hint::black_box((self.make_plan)())
            })
        })
        .1
    }

    fn critical_path(&self, trace: &Trace) -> Duration {
        let plan = self.options.plan.as_ref().expect("a family runs a plan");
        time(|| {
            trace.span("SpecPlan::critical_path", || {
                std::hint::black_box(plan.critical_path())
            })
        })
        .1
    }

    fn aborts(&self) -> (usize, usize) {
        let sink = Arc::new(RecordingSink::new());
        let options = self
            .options
            .clone()
            .sink(Arc::clone(&sink) as Arc<dyn EventSink>);
        run_protocol_with_options(&self.transition, &self.inputs, &self.initial, &options);
        let count = |f: fn(&EventKind) -> bool| sink.events().iter().filter(|e| f(&e.kind)).count();
        (
            count(|k| matches!(k, EventKind::NodeAbort { .. })),
            count(|k| matches!(k, EventKind::ConeSquash { .. })),
        )
    }
}

/// The three families at one scale.
pub struct Dag {
    families: Vec<Box<dyn FamilyRun>>,
    pool: Arc<ThreadPool>,
    tail_pct: u32,
}

impl Dag {
    /// The `DagSettings::pipeline()` shapes multiplied by `scale`, inputs
    /// and run seeds from `seed`.
    pub fn new(seed: u64, scale: usize, tail_pct: u32, pool: Arc<ThreadPool>) -> Self {
        let mut rng = SplitMix(seed);
        let s = scale;
        let mut next = || rng.next_u64();
        let families: Vec<Box<dyn FamilyRun>> = vec![
            Box::new(Family::new(
                "windowed_join",
                move || windowed_join::plan(3, 48 * s, 24 * s),
                windowed_join::WindowedJoin,
                windowed_join::inputs(next(), 3, 48 * s, 24 * s),
                windowed_join::initial(),
                windowed_join::config(),
                next(),
                &pool,
            )),
            Box::new(Family::new(
                "gameloop",
                move || gameloop::plan(3, 24 * s),
                gameloop::GameLoop,
                gameloop::inputs(next(), 3, 24 * s),
                gameloop::initial(),
                gameloop::config(),
                next(),
                &pool,
            )),
            Box::new(Family::new(
                "ensemble",
                move || ensemble::plan(8, 4, 32 * s, 16 * s),
                ensemble::Ensemble,
                ensemble::inputs(next(), 8, 4, 32 * s, 16 * s),
                ensemble::initial(),
                ensemble::config(8),
                next(),
                &pool,
            )),
        ];
        Dag {
            families,
            pool,
            tail_pct,
        }
    }

    fn total_inputs(&self) -> usize {
        self.families.iter().map(|f| f.inputs()).sum()
    }

    /// One pass: every family once; the pass's wall is the sum of the
    /// families' walls, so the rate is Σ inputs / Σ walls.
    fn pass(&self, pooled: bool, trace: &Trace, tally: &mut Tally) -> Duration {
        self.families
            .iter()
            .map(|f| {
                if pooled {
                    f.pooled(trace, tally)
                } else {
                    f.seq(trace, tally)
                }
            })
            .sum()
    }
}

impl Prepared for Dag {
    fn warm(&mut self, reps: usize, tally: &mut Tally) {
        let off = Trace::off();
        for _ in 0..reps {
            self.pass(false, &off, tally);
            self.pass(true, &off, tally);
        }
    }

    fn run(&mut self, budget: Budget, tally: &mut Tally) -> Block {
        let off = Trace::off();
        let n = self.total_inputs();
        let (mut seq, mut par) = (Timed::default(), Timed::default());
        rounds(budget, |slice| {
            seq.merge(repeat(&off, "seq", part(slice, 0.35), || {
                self.pass(false, &off, tally)
            }));
            // One loop serves both pooled metrics: a job here *is* one
            // pooled pass over the three plans.
            par.merge(repeat(&off, "pooled", part(slice, 0.65), || {
                self.pass(true, &off, tally)
            }));
        });
        Block {
            seq,
            seq_ops: n,
            jobs: Jobs::closed(&par),
            par,
            par_ops: n,
        }
    }

    fn run_traced(&mut self, budget: Budget, trace: &Trace, tally: &mut Tally) -> Values {
        let mut values = Values::default();
        let slice = part(budget, 1.0 / (2.0 * self.families.len() as f64 + 4.0));
        pool_micro(&mut values, &self.pool, trace, slice);

        // The job as the untraced run sees it, before any span is recorded.
        let off = Trace::off();
        let jobs = repeat(&off, "job", slice, || self.pass(true, &off, tally));
        let job_ms: Vec<f64> = jobs.walls.iter().map(|s| s * 1e3).collect();
        job_spread(&mut values, &job_ms, self.tail_pct);

        let before = self.pool.metrics();
        let (mut seq_wall, mut pooled_wall, mut pooled_busy, mut nodes) = (0.0, 0.0, 0.0, 0usize);
        let (mut aborts, mut squashes) = (0usize, 0usize);
        let mut per_family = Vec::new();
        for family in &self.families {
            let seq = repeat(trace, "seq", slice, || family.seq(trace, tally));
            let pooled = repeat(trace, "pooled", slice, || family.pooled(trace, tally));
            let n = family.inputs();
            per_family.push((family.name(), seq.ns_per(n), pooled.ns_per(n)));
            seq_wall += seq.wall().value;
            pooled_wall += pooled.wall().value;
            pooled_busy += pooled.walls.iter().sum::<f64>();
            nodes += family.nodes();
            let (a, s) = family.aborts();
            aborts += a;
            squashes += s;
        }
        let after = self.pool.metrics();
        pool_counters(
            &mut values,
            &before,
            &after,
            pooled_busy,
            self.pool.threads(),
        );
        for (name, seq, pooled) in per_family {
            values.set(&format!("dag.{name}.seq_ns_per_input"), seq);
            values.set(&format!("dag.{name}.pooled_ns_per_input"), pooled);
            values.set(
                &format!("dag.{name}.pooled_vs_seq"),
                Summary::exact(seq.value / pooled.value),
            );
        }
        values.set(
            "dag.coord_ns_per_node",
            Summary::exact((pooled_wall - seq_wall) * 1e9 / nodes as f64),
        );
        values.set("dag.node_aborts", Summary::exact(aborts as f64));
        values.set("dag.cone_squashes", Summary::exact(squashes as f64));

        let sum_over_families = |f: &dyn Fn(&dyn FamilyRun) -> Duration| -> Timed {
            repeat(trace, "plan", slice / 2, || {
                self.families.iter().map(|family| f(family.as_ref())).sum()
            })
        };
        let build = sum_over_families(&|family| family.build(trace));
        let critical = sum_over_families(&|family| family.critical_path(trace));
        values.set("plan.build_us", build.wall().map(|s| s * 1e6));
        values.set("plan.critical_path_us", critical.wall().map(|s| s * 1e6));
        values
    }
}

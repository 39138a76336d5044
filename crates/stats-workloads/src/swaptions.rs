//! `swaptions`: Monte Carlo pricing of swaptions under an HJM-style model.
//!
//! The PARSEC benchmark prices a portfolio of swaptions by Monte Carlo
//! simulation of the Heath–Jarrow–Morton framework; "the simulation of a
//! swaption is performed sequentially. The state dependence is on updating
//! the price of a swaption during the simulation" (§4.2). This port
//! simulates short-rate paths (a Hull–White-style mean-reverting process, a
//! standard HJM special case), discounts the swap payoff along each path,
//! and accumulates the running price — the state is that accumulator.
//!
//! Because the accumulator update is `state = state + value` with an
//! associative operator, this is the one benchmark whose state dependence
//! prior work (ALTER-like) can also exploit (§4.4), and it needs no state
//! comparison function: any speculative partial sum "could have already been
//! generated by an execution of the original program".
//!
//! Tradeoffs (payoff order): the data type of two values used during the
//! Monte Carlo simulation (the per-step discounting accumulator and the
//! payoff variable).

use std::sync::Arc;

use stats_core::{
    EnumeratedTradeoff, InvocationCtx, ScalarType, SpecState, StateTransition, TradeoffOptions,
    TradeoffValue,
};

use crate::metrics::avg_relative_diff;
use crate::spec::{BenchmarkId, DependenceShape, Instance, OriginalTlp, Workload, WorkloadSpec};

/// Swaption and model parameters (one swaption per instance, as in the
/// paper's reduced input that exposes the bottleneck).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwaptionParams {
    /// Strike rate.
    pub strike: f64,
    /// Option maturity in years.
    pub maturity: f64,
    /// Underlying swap tenor in years.
    pub tenor: f64,
    /// Initial short rate.
    pub r0: f64,
    /// Mean-reversion speed.
    pub kappa: f64,
    /// Long-run rate.
    pub theta: f64,
    /// Rate volatility.
    pub sigma: f64,
    /// Simulation steps per year.
    pub steps_per_year: usize,
}

impl SwaptionParams {
    /// Representative market parameters.
    pub fn representative() -> Self {
        SwaptionParams {
            strike: 0.04,
            maturity: 1.0,
            tenor: 5.0,
            r0: 0.035,
            kappa: 0.25,
            theta: 0.045,
            sigma: 0.012,
            steps_per_year: 24,
        }
    }

    /// The §4.6 non-representative variant: "unrealistic swaption
    /// parameters like market strikes and maturity dates".
    pub fn unrealistic() -> Self {
        SwaptionParams {
            strike: 0.90,
            maturity: 0.05,
            tenor: 40.0,
            r0: 0.30,
            kappa: 3.0,
            theta: 0.0,
            sigma: 0.25,
            steps_per_year: 24,
        }
    }
}

/// Running price accumulator — the dependence's state. A reduction: sum of
/// per-trial discounted payoffs plus the trial count.
#[derive(Debug, Clone, Copy, Default)]
pub struct PriceAccumulator {
    /// Sum of discounted payoffs.
    pub sum: f64,
    /// Sum of squared payoffs (for the standard error the benchmark prints).
    pub sum_sq: f64,
    /// Trials accumulated.
    pub count: u64,
}

impl PriceAccumulator {
    /// The current price estimate.
    pub fn price(&self) -> f64 {
        if self.count > 0 {
            self.sum / self.count as f64
        } else {
            0.0
        }
    }
}

impl SpecState for PriceAccumulator {
    fn matches_any(&self, _originals: &[Self]) -> bool {
        // §4.2: by construction of the state dependence, the speculative
        // state could have been generated by the original nondeterministic
        // program — no comparison function is required.
        true
    }
}

/// Per-invocation input: a block of Monte Carlo trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialBlock {
    /// Number of trials in the block.
    pub trials: usize,
}

/// Per-block output: the block's own contribution plus the running price.
///
/// The block contribution is what makes the reduction-shaped dependence
/// safe to speculate on (§4.4): partial sums merge exactly by
/// associativity, so the final price aggregates *every* committed trial
/// regardless of which accumulator state a block chained from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockResult {
    /// Sum of this block's discounted payoffs.
    pub sum: f64,
    /// Trials in this block.
    pub count: u64,
    /// The running price after this block (the value the benchmark prints
    /// as the simulation converges).
    pub running_price: f64,
}

/// Merge block results into the final price (the reduction merge).
pub fn merged_price(outputs: &[BlockResult]) -> f64 {
    let sum: f64 = outputs.iter().map(|b| b.sum).sum();
    let count: u64 = outputs.iter().map(|b| b.count).sum();
    if count > 0 {
        sum / count as f64
    } else {
        0.0
    }
}

/// The Monte Carlo pricing transition.
pub struct SwaptionsTransition {
    params: Arc<SwaptionParams>,
}

impl SwaptionsTransition {
    /// Simulate one path and return the discounted swaption payoff.
    fn one_trial(
        &self,
        ctx: &mut InvocationCtx,
        discount_ty: ScalarType,
        payoff_ty: ScalarType,
    ) -> f64 {
        let p = *self.params;
        let dt = 1.0 / p.steps_per_year as f64;
        let steps_to_maturity = (p.maturity * p.steps_per_year as f64).ceil() as usize;
        let mut r = p.r0;
        // Discount factor to maturity, accumulated at the tradeoff's
        // precision (the first data-type tradeoff).
        let mut discount = 1.0_f64;
        for _ in 0..steps_to_maturity.max(1) {
            let dw = ctx.normal(0.0, dt.sqrt());
            r += p.kappa * (p.theta - r) * dt + p.sigma * dw;
            discount = discount_ty.quantize(discount * (-r * dt).exp());
        }
        // At maturity: value the swap at the realized rate. Annuity of the
        // fixed leg approximated on the simulated flat curve.
        let periods = (p.tenor * 2.0).ceil() as usize; // semi-annual
        let mut annuity = 0.0;
        let mut df = 1.0;
        for _ in 0..periods.max(1) {
            df *= (-r * 0.5).exp();
            annuity += 0.5 * df;
        }
        let swap_rate = if annuity > 0.0 {
            (1.0 - df) / annuity
        } else {
            r
        };
        // Payer swaption payoff (the second data-type tradeoff).
        let payoff = payoff_ty.quantize((swap_rate - p.strike).max(0.0) * annuity);
        ctx.charge(steps_to_maturity as f64 + periods as f64);
        discount * payoff
    }
}

impl StateTransition for SwaptionsTransition {
    type Input = TrialBlock;
    type State = PriceAccumulator;
    type Output = BlockResult;

    fn compute_output(
        &self,
        input: &TrialBlock,
        state: &mut PriceAccumulator,
        ctx: &mut InvocationCtx,
    ) -> BlockResult {
        let discount_ty = ctx.tradeoff_type("discountPrecision");
        let payoff_ty = ctx.tradeoff_type("payoffPrecision");
        let mut block_sum = 0.0;
        for _ in 0..input.trials {
            let v = self.one_trial(ctx, discount_ty, payoff_ty);
            block_sum += v;
            state.sum += v;
            state.sum_sq += v * v;
            state.count += 1;
        }
        ctx.charge_mem(input.trials as f64 * 0.5);
        BlockResult {
            sum: block_sum,
            count: input.trials as u64,
            running_price: state.price(),
        }
    }
}

/// The `swaptions` workload.
pub struct Swaptions;

impl Swaptions {
    fn params(spec: &WorkloadSpec) -> SwaptionParams {
        if spec.representative {
            SwaptionParams::representative()
        } else {
            SwaptionParams::unrealistic()
        }
    }

    /// A high-precision reference price for the instance's parameters.
    ///
    /// The oracle is deterministic given `(seed, representative, scale)` —
    /// the only spec fields it reads (it overrides `inputs` itself) — and
    /// costs a 2048-input sequential protocol run, so results are memoized
    /// process-wide. Without the cache the autotuner pays the full oracle
    /// on every `output_error` call, which is what regressed
    /// `tuner_serial` to 0.66x (see docs/performance.md).
    fn reference_price(&self, spec: &WorkloadSpec) -> f64 {
        use std::sync::{Mutex, OnceLock};
        type RefKey = (u64, bool, usize);
        static CACHE: OnceLock<Mutex<Vec<(RefKey, f64)>>> = OnceLock::new();
        let key: RefKey = (spec.seed, spec.representative, spec.scale);
        let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
        if let Some(&(_, price)) = cache
            .lock()
            .expect("reference-price cache poisoned")
            .iter()
            .find(|(k, _)| *k == key)
        {
            return price;
        }
        let price = self.reference_price_uncached(spec);
        cache
            .lock()
            .expect("reference-price cache poisoned")
            .push((key, price));
        price
    }

    /// The uncached oracle run behind [`Self::reference_price`].
    fn reference_price_uncached(&self, spec: &WorkloadSpec) -> f64 {
        use stats_core::{run_protocol, SpecConfig, TradeoffBindings};
        let opts = self.tradeoffs();
        // The oracle must be far more precise than anything it judges
        // (paper §4.2: the oracle output "is significantly more accurate
        // than the output of the (significantly faster) unmodified
        // benchmark versions").
        let reference_spec = WorkloadSpec {
            inputs: 2048,
            seed: spec.seed ^ 0xDEAD_BEEF,
            ..*spec
        };
        let inst = self.instance(&reference_spec);
        let cfg = SpecConfig {
            orig_bindings: TradeoffBindings::from_indices(&opts, &[1, 1]),
            ..SpecConfig::sequential()
        };
        let r = run_protocol(&inst.transition, &inst.inputs, &inst.initial, &cfg, 0x5EED);
        merged_price(&r.outputs)
    }
}

impl Workload for Swaptions {
    type T = SwaptionsTransition;

    fn id(&self) -> BenchmarkId {
        BenchmarkId::Swaptions
    }

    fn tradeoffs(&self) -> Vec<Arc<dyn TradeoffOptions>> {
        let types = vec![
            TradeoffValue::Type(ScalarType::F32),
            TradeoffValue::Type(ScalarType::F64),
        ];
        vec![
            Arc::new(EnumeratedTradeoff::new(
                "discountPrecision",
                types.clone(),
                1,
            )),
            Arc::new(EnumeratedTradeoff::new("payoffPrecision", types, 1)),
        ]
    }

    fn instance(&self, spec: &WorkloadSpec) -> Instance<SwaptionsTransition> {
        let trials = 16 * spec.scale.max(1);
        Instance {
            inputs: (0..spec.inputs).map(|_| TrialBlock { trials }).collect(),
            initial: PriceAccumulator::default(),
            transition: SwaptionsTransition {
                params: Arc::new(Self::params(spec)),
            },
        }
    }

    fn output_distance(&self, a: &[BlockResult], b: &[BlockResult]) -> f64 {
        // "Average relative difference between the prices generated": the
        // running price is what the benchmark reports as it converges.
        let pa: Vec<f64> = a.iter().map(|r| r.running_price).collect();
        let pb: Vec<f64> = b.iter().map(|r| r.running_price).collect();
        avg_relative_diff(&pa, &pb)
    }

    fn output_error(&self, spec: &WorkloadSpec, outputs: &[BlockResult]) -> f64 {
        let reference = self.reference_price(spec);
        if outputs.is_empty() {
            return 0.0;
        }
        (merged_price(outputs) - reference).abs() / reference.abs().max(1e-12)
    }

    fn refine_outputs(&self, runs: Vec<Vec<BlockResult>>) -> Vec<BlockResult> {
        // Pooling trials across runs is variance reduction — swaptions is
        // one of the paper's three quality-improvable benchmarks (Fig 16).
        let Some(first) = runs.first() else {
            return Vec::new();
        };
        let n = first.len();
        (0..n)
            .map(|i| {
                let sum: f64 = runs.iter().map(|run| run[i].sum).sum();
                let count: u64 = runs.iter().map(|run| run[i].count).sum();
                BlockResult {
                    sum,
                    count,
                    running_price: if count > 0 { sum / count as f64 } else { 0.0 },
                }
            })
            .collect()
    }

    fn original_tlp(&self) -> OriginalTlp {
        // Out of the box, swaptions parallelizes across swaptions/blocks
        // very well (near-linear within a socket; §4.3 reports 8.7x at 10
        // cores) but the paper's reduced input exposes the per-swaption
        // sequential bottleneck at higher core counts.
        OriginalTlp {
            parallel_fraction: 0.975,
            sync_overhead: 0.0015,
            max_threads: 34, // one per swaption in the reduced input
            mem_fraction: 0.15,
        }
    }

    fn dependence_shape(&self) -> DependenceShape {
        // `price += trial_value`: a reduction over a scalar register.
        DependenceShape::Reduction
    }

    fn needs_state_comparison(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats_core::{run_protocol, SpecConfig, TradeoffBindings};

    fn spec(n: usize) -> WorkloadSpec {
        WorkloadSpec {
            inputs: n,
            ..WorkloadSpec::default()
        }
    }

    fn run(
        n: usize,
        seed: u64,
        cfg: SpecConfig,
    ) -> stats_core::ProtocolResult<SwaptionsTransition> {
        let w = Swaptions;
        let inst = w.instance(&spec(n));
        run_protocol(&inst.transition, &inst.inputs, &inst.initial, &cfg, seed)
    }

    fn seq_cfg() -> SpecConfig {
        SpecConfig {
            orig_bindings: TradeoffBindings::defaults(&Swaptions.tradeoffs()),
            ..SpecConfig::sequential()
        }
    }

    #[test]
    fn price_is_positive_and_sane() {
        let r = run(32, 1, seq_cfg());
        let price = r.final_state.price();
        // An at/near-the-money 1y-into-5y payer swaption on these params is
        // worth a few dozen basis points.
        assert!(price > 0.0005 && price < 0.05, "price {price}");
    }

    #[test]
    fn price_converges_with_more_trials() {
        let w = Swaptions;
        let few = run(8, 1, seq_cfg()).final_state.price();
        let many = run(256, 1, seq_cfg()).final_state.price();
        let reference = w.reference_price(&spec(8));
        assert!(
            (many - reference).abs() <= (few - reference).abs() * 2.0,
            "few {few} many {many} ref {reference}"
        );
    }

    #[test]
    fn nondeterministic_prices() {
        let a = run(16, 1, seq_cfg()).outputs;
        let b = run(16, 2, seq_cfg()).outputs;
        assert_ne!(a, b);
        let d = Swaptions.output_distance(&a, &b);
        assert!(d > 0.0 && d < 2.0, "relative diff {d}");
    }

    #[test]
    fn merged_price_pools_all_blocks() {
        let r = run(32, 1, seq_cfg());
        let merged = merged_price(&r.outputs);
        // With a sequential run the merged price equals the accumulator's.
        assert!((merged - r.final_state.price()).abs() < 1e-12);
        // Speculative runs keep every block's trials in the merge even
        // though the chained accumulator lost the skipped prefix.
        let w = Swaptions;
        let opts = w.tradeoffs();
        let cfg = SpecConfig {
            group_size: 8,
            window: 1,
            orig_bindings: TradeoffBindings::defaults(&opts),
            aux_bindings: TradeoffBindings::defaults(&opts),
            ..SpecConfig::default()
        };
        let spec_run = run(32, 1, cfg);
        let total: u64 = spec_run.outputs.iter().map(|b| b.count).sum();
        assert_eq!(total, 32 * 16);
    }

    #[test]
    fn speculation_always_commits() {
        // Reduction state: every speculative group commits (matches_any is
        // vacuously true), so the abort machinery never triggers.
        let w = Swaptions;
        let opts = w.tradeoffs();
        let cfg = SpecConfig {
            group_size: 8,
            window: 2,
            orig_bindings: TradeoffBindings::defaults(&opts),
            aux_bindings: TradeoffBindings::from_indices(&opts, &[0, 0]),
            ..SpecConfig::default()
        };
        let r = run(64, 5, cfg);
        assert!(!r.report.aborted);
        assert_eq!(r.report.reexecutions, 0);
        assert_eq!(r.report.committed_speculative_groups(), 7);
    }

    #[test]
    fn f32_tradeoff_changes_price_slightly() {
        let w = Swaptions;
        let opts = w.tradeoffs();
        let f64_cfg = SpecConfig {
            orig_bindings: TradeoffBindings::from_indices(&opts, &[1, 1]),
            ..SpecConfig::sequential()
        };
        let f32_cfg = SpecConfig {
            orig_bindings: TradeoffBindings::from_indices(&opts, &[0, 0]),
            ..SpecConfig::sequential()
        };
        let a = run(32, 9, f64_cfg).final_state.price();
        let b = run(32, 9, f32_cfg).final_state.price();
        assert_ne!(a, b, "precision tradeoff had no effect");
        assert!((a - b).abs() / a < 0.01, "precision loss too large");
    }

    #[test]
    fn output_error_against_reference_is_small() {
        let w = Swaptions;
        let r = run(128, 3, seq_cfg());
        let err = w.output_error(&spec(128), &r.outputs);
        assert!(err < 0.2, "relative error {err}");
    }

    #[test]
    fn unrealistic_parameters_variant_runs() {
        let w = Swaptions;
        let s = WorkloadSpec {
            inputs: 8,
            representative: false,
            ..WorkloadSpec::default()
        };
        let inst = w.instance(&s);
        let r = run_protocol(&inst.transition, &inst.inputs, &inst.initial, &seq_cfg(), 2);
        assert_eq!(r.outputs.len(), 8);
        assert!(r.final_state.price().is_finite());
    }

    #[test]
    fn accumulator_price() {
        let acc = PriceAccumulator {
            sum: 10.0,
            sum_sq: 0.0,
            count: 4,
        };
        assert_eq!(acc.price(), 2.5);
        assert_eq!(PriceAccumulator::default().price(), 0.0);
    }
}

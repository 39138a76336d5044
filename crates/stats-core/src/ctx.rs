//! Invocation context: the PRVG, tradeoff lookups, and work accounting.
//!
//! Every invocation of `compute_output` receives an [`InvocationCtx`]. It
//! bundles the three things the STATS machinery must control:
//!
//! - the **pseudo-random value generator** (the benchmarks' source of
//!   nondeterminism; the paper restores PRVGs seeded randomly, and the
//!   runtime re-seeds them per re-execution attempt so a re-executed
//!   producer can reach a *different* final state);
//! - the **tradeoff bindings** in effect (default bindings in original
//!   code, tuned clones inside auxiliary code);
//! - a **work meter** accumulating abstract work units, which become task
//!   costs on the simulated platform and the "extra committed instructions"
//!   column of Table 1.
//!
//! The runtime builds one context per *chain* — a group's invocations, an
//! auxiliary window, a re-execution attempt, a sequential tail — and
//! re-arms it before each invocation: the PRVG is reseeded from the
//! invocation's coordinates and the meter starts at zero, so an invocation
//! sees exactly what a context of its own would show it, while the
//! bindings are cloned once per chain.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::tradeoff::{ScalarType, TradeoffBindings, TradeoffValue};

/// Accumulates the computational cost of an invocation, split into a
/// CPU-bound and a memory-bound component (the latter is subject to the
/// simulated NUMA penalty).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkMeter {
    /// Total work units charged.
    pub total: f64,
    /// Work units charged as memory-bound.
    pub memory: f64,
}

impl WorkMeter {
    /// Fraction of the work that is memory-bound (0 when no work charged).
    pub fn mem_fraction(&self) -> f64 {
        if self.total > 0.0 {
            (self.memory / self.total).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }
}

/// Per-invocation execution context handed to
/// [`StateTransition::compute_output`](crate::StateTransition::compute_output).
#[derive(Debug)]
pub struct InvocationCtx {
    rng: SmallRng,
    bindings: TradeoffBindings,
    meter: WorkMeter,
    auxiliary: bool,
}

impl InvocationCtx {
    /// Create a context with the given PRVG seed and tradeoff bindings.
    ///
    /// `auxiliary` is true inside auxiliary code; workloads may consult it,
    /// although in STATS the *only* intended difference between original and
    /// auxiliary code is the tradeoff bindings.
    pub fn new(seed: u64, bindings: TradeoffBindings, auxiliary: bool) -> Self {
        InvocationCtx {
            rng: SmallRng::seed_from_u64(seed),
            bindings,
            meter: WorkMeter::default(),
            auxiliary,
        }
    }

    /// Re-arm the context for the next invocation of its chain: the PRVG
    /// restarts from `seed`, as [`InvocationCtx::new`] seeds it, and the
    /// meter from zero. The bindings and the auxiliary flag stay.
    pub(crate) fn rearm(&mut self, seed: u64) {
        self.rng = SmallRng::seed_from_u64(seed);
        self.meter = WorkMeter::default();
    }

    /// Derive a per-invocation seed from a run seed and the invocation's
    /// coordinates (group, index within the run, re-execution attempt).
    ///
    /// This keeps every invocation's PRVG stream independent and makes whole
    /// executions reproducible from a single seed, while re-execution
    /// attempts (`attempt > 0`) draw fresh randomness — the mechanism §3.1
    /// relies on to obtain *different* original final states.
    pub fn derive_seed(run_seed: u64, group: u64, index: u64, attempt: u64) -> u64 {
        // SplitMix64-style mixing; cheap and well distributed.
        let mut z = run_seed
            .wrapping_add(0x9e3779b97f4a7c15_u64.wrapping_mul(group + 1))
            .wrapping_add(0xbf58476d1ce4e5b9_u64.wrapping_mul(index + 1))
            .wrapping_add(0x94d049bb133111eb_u64.wrapping_mul(attempt + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Whether this invocation is auxiliary code.
    pub fn is_auxiliary(&self) -> bool {
        self.auxiliary
    }

    /// Access the PRVG.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Draw from a normal distribution via Box–Muller (avoids a dependency
    /// on `rand_distr`, which is not in the sanctioned crate set).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1: f64 = self.rng.random::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = self.rng.random::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.rng.random::<f64>()
    }

    /// Uniform integer in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        self.rng.random_range(0..n.max(1))
    }

    /// Charge CPU-bound work units.
    pub fn charge(&mut self, units: f64) {
        debug_assert!(units >= 0.0);
        self.meter.total += units;
    }

    /// Charge memory-bound work units (also counted in the total).
    pub fn charge_mem(&mut self, units: f64) {
        debug_assert!(units >= 0.0);
        self.meter.total += units;
        self.meter.memory += units;
    }

    /// The work accumulated so far.
    pub fn meter(&self) -> WorkMeter {
        self.meter
    }

    /// Look up a tradeoff binding (panics with a clear message if unbound:
    /// an unbound tradeoff reference is a compiler bug, not a user error).
    pub fn tradeoff(&self, name: &str) -> &TradeoffValue {
        self.bindings
            .get(name)
            .unwrap_or_else(|| panic!("tradeoff `{name}` is not bound in this context"))
    }

    /// Integer tradeoff lookup.
    pub fn tradeoff_int(&self, name: &str) -> i64 {
        self.tradeoff(name)
            .as_int()
            .unwrap_or_else(|| panic!("tradeoff `{name}` is not an integer"))
    }

    /// Float tradeoff lookup (integers widen).
    pub fn tradeoff_float(&self, name: &str) -> f64 {
        self.tradeoff(name)
            .as_float()
            .unwrap_or_else(|| panic!("tradeoff `{name}` is not numeric"))
    }

    /// Type tradeoff lookup.
    pub fn tradeoff_type(&self, name: &str) -> ScalarType {
        self.tradeoff(name)
            .as_type()
            .unwrap_or_else(|| panic!("tradeoff `{name}` is not a type"))
    }

    /// Function tradeoff lookup.
    pub fn tradeoff_function(&self, name: &str) -> &str {
        self.tradeoff(name)
            .as_function()
            .unwrap_or_else(|| panic!("tradeoff `{name}` is not a function"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tradeoff::EnumeratedTradeoff;
    use crate::tradeoff::TradeoffOptions;
    use std::sync::Arc;

    fn ctx() -> InvocationCtx {
        let opts: Vec<Arc<dyn TradeoffOptions>> =
            vec![Arc::new(EnumeratedTradeoff::int_range("layers", 1, 10, 5))];
        InvocationCtx::new(7, TradeoffBindings::defaults(&opts), false)
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = ctx();
        let mut b = ctx();
        for _ in 0..100 {
            assert_eq!(a.rng().random::<u64>(), b.rng().random::<u64>());
        }
    }

    #[test]
    fn a_rearmed_context_is_a_fresh_one() {
        let mut rearmed = ctx();
        rearmed.rng().random::<u64>();
        rearmed.charge(3.0);
        rearmed.charge_mem(2.0);
        rearmed.rearm(41);
        assert_eq!(rearmed.meter(), WorkMeter::default());
        let mut fresh = InvocationCtx::new(41, rearmed.bindings.clone(), false);
        for _ in 0..100 {
            assert_eq!(rearmed.rng().random::<u64>(), fresh.rng().random::<u64>());
        }
        assert_eq!(
            rearmed.normal(0.0, 1.0).to_bits(),
            fresh.normal(0.0, 1.0).to_bits()
        );
        assert_eq!(rearmed.tradeoff_int("layers"), 5);
        assert!(!rearmed.is_auxiliary());
    }

    #[test]
    fn derive_seed_varies_with_attempt() {
        let s0 = InvocationCtx::derive_seed(1, 2, 3, 0);
        let s1 = InvocationCtx::derive_seed(1, 2, 3, 1);
        assert_ne!(s0, s1);
    }

    #[test]
    fn derive_seed_varies_with_coordinates() {
        let base = InvocationCtx::derive_seed(1, 0, 0, 0);
        assert_ne!(base, InvocationCtx::derive_seed(2, 0, 0, 0));
        assert_ne!(base, InvocationCtx::derive_seed(1, 1, 0, 0));
        assert_ne!(base, InvocationCtx::derive_seed(1, 0, 1, 0));
    }

    #[test]
    fn work_meter_accumulates() {
        let mut c = ctx();
        c.charge(10.0);
        c.charge_mem(5.0);
        assert_eq!(c.meter().total, 15.0);
        assert_eq!(c.meter().memory, 5.0);
        assert!((c.meter().mem_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_meter_fraction_zero() {
        assert_eq!(WorkMeter::default().mem_fraction(), 0.0);
    }

    #[test]
    fn tradeoff_lookup() {
        let c = ctx();
        assert_eq!(c.tradeoff_int("layers"), 5);
    }

    #[test]
    #[should_panic(expected = "not bound")]
    fn unbound_tradeoff_panics() {
        let c = ctx();
        c.tradeoff_int("missing");
    }

    #[test]
    fn normal_moments() {
        let mut c = ctx();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| c.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn uniform_bounds() {
        let mut c = ctx();
        for _ in 0..1000 {
            let x = c.uniform(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
    }
}

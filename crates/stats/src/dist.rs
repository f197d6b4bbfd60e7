//! Probability distributions, implemented from first principles.
//!
//! The server model (`rto-server`) composes these to produce response-time
//! distributions for the timing-unreliable component; workload generators
//! use them for execution times and jitter. All distributions sample
//! through the common [`Distribution`] trait and are parameterized at
//! construction time, with validation.
//!
//! Only `f64` distributions are provided; integer quantities are obtained
//! by rounding at the call site, where the rounding policy is a domain
//! decision.

use crate::rng::Rng;
use std::fmt;
use std::sync::OnceLock;

/// Error raised when distribution parameters are invalid.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamError {
    what: String,
}

impl ParamError {
    fn new(what: impl Into<String>) -> Self {
        ParamError { what: what.into() }
    }
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.what)
    }
}

impl std::error::Error for ParamError {}

/// A sampleable distribution over `f64`.
///
/// Implementors are immutable; all entropy comes from the [`Rng`] handed to
/// [`Distribution::sample`], which keeps simulation components trivially
/// reproducible. The `Debug` bound keeps composite models (servers,
/// workload generators) debuggable.
pub trait Distribution: std::fmt::Debug {
    /// Draws one sample.
    fn sample(&self, rng: &mut Rng) -> f64;

    /// The theoretical mean, when it exists and is finite.
    fn mean(&self) -> Option<f64> {
        None
    }

    /// Draws `n` samples into a fresh vector.
    fn sample_n(&self, rng: &mut Rng, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if the bounds are not finite or `lo > hi`.
    pub fn new(lo: f64, hi: f64) -> Result<Self, ParamError> {
        if !lo.is_finite() || !hi.is_finite() {
            return Err(ParamError::new("uniform bounds must be finite"));
        }
        if lo > hi {
            return Err(ParamError::new(format!("uniform: lo {lo} > hi {hi}")));
        }
        Ok(Uniform { lo, hi })
    }
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut Rng) -> f64 {
        rng.f64_range(self.lo, self.hi)
    }

    fn mean(&self) -> Option<f64> {
        Some(0.5 * (self.lo + self.hi))
    }
}

/// A distribution that always returns the same value.
///
/// Useful to model deterministic service stages inside an otherwise
/// stochastic pipeline, and in tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant(pub f64);

impl Distribution for Constant {
    fn sample(&self, _rng: &mut Rng) -> f64 {
        self.0
    }

    fn mean(&self) -> Option<f64> {
        Some(self.0)
    }
}

/// Normal (Gaussian) distribution.
///
/// Sampled as `mu + sigma·Z`, where `Z` is a standard normal drawn by the
/// 256-layer ziggurat of [`normal_ziggurat`]: one `u64`, one multiply and
/// one compare on 98.5 % of draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates a normal distribution with mean `mu` and standard deviation
    /// `sigma`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `sigma < 0` or parameters are not finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, ParamError> {
        if !mu.is_finite() || !sigma.is_finite() {
            return Err(ParamError::new("normal parameters must be finite"));
        }
        if sigma < 0.0 {
            return Err(ParamError::new(format!("normal: sigma {sigma} < 0")));
        }
        Ok(Normal { mu, sigma })
    }

    /// Samples a standard normal with the ziggurat of
    /// [`normal_ziggurat`]; bit 8 of the layer draw is the sign.
    #[inline]
    pub(crate) fn standard(rng: &mut Rng) -> f64 {
        let zig = normal_ziggurat();
        loop {
            let bits = rng.next_u64();
            let layer = (bits & 0xff) as usize;
            let (outer, inner) = edges(&zig.x, layer);
            let x = unit(bits) * outer;
            // Moving bit 8 to the sign bit negates without a branch: a
            // branch on a random bit mispredicts half the time.
            let signed = |z: f64| f64::from_bits(z.to_bits() ^ ((bits & 0x100) << 55));
            if x < inner {
                return signed(x);
            }
            if layer == 0 {
                // The tail beyond R (Marsaglia 1964): with exponentials
                // a and b, R + a/R has the tail's law given 2b > (a/R)².
                loop {
                    let a = Exponential::standard(rng) / zig.r;
                    let b = Exponential::standard(rng);
                    if b + b > a * a {
                        return signed(zig.r + a);
                    }
                }
            }
            if zig.under_curve(layer, x, rng, normal_density) {
                return signed(x);
            }
        }
    }
}

impl Distribution for Normal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.mu + self.sigma * Normal::standard(rng)
    }

    fn mean(&self) -> Option<f64> {
        Some(self.mu)
    }
}

/// Lognormal distribution: `exp(N(mu, sigma))`.
///
/// The workhorse for modelling response-time *tails* of the
/// timing-unreliable component: right-skewed, strictly positive, heavy
/// enough to occasionally blow past any estimated response time. A draw
/// is one ziggurat standard normal (see [`Normal`]) and one `exp`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a lognormal from the *underlying normal's* parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `sigma < 0` or parameters are not finite.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, ParamError> {
        if !mu.is_finite() || !sigma.is_finite() {
            return Err(ParamError::new("lognormal parameters must be finite"));
        }
        if sigma < 0.0 {
            return Err(ParamError::new(format!("lognormal: sigma {sigma} < 0")));
        }
        Ok(LogNormal { mu, sigma })
    }

    /// Creates a lognormal with the given *distribution* mean and
    /// coefficient of variation (`std / mean`).
    ///
    /// This parameterization is what server models naturally speak: "mean
    /// service time 7 ms, CV 0.4".
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `mean <= 0` or `cv < 0`.
    pub fn from_mean_cv(mean: f64, cv: f64) -> Result<Self, ParamError> {
        if mean <= 0.0 || mean.is_nan() {
            return Err(ParamError::new(format!("lognormal: mean {mean} <= 0")));
        }
        if cv < 0.0 || cv.is_nan() {
            return Err(ParamError::new(format!("lognormal: cv {cv} < 0")));
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - 0.5 * sigma2;
        LogNormal::new(mu, sigma2.sqrt())
    }

    /// Fits a lognormal to positive samples by the method of moments
    /// (match sample mean and coefficient of variation).
    ///
    /// This is how a response-time estimator can *extrapolate* beyond the
    /// largest observation — an empirical CDF says nothing past its
    /// maximum, a fitted tail does.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] when fewer than two samples are given or
    /// any sample is non-positive or non-finite.
    pub fn fit(samples: &[f64]) -> Result<Self, ParamError> {
        if samples.len() < 2 {
            return Err(ParamError::new("lognormal fit needs at least two samples"));
        }
        if samples.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
            return Err(ParamError::new(
                "lognormal fit needs positive finite samples",
            ));
        }
        let mut acc = crate::desc::OnlineStats::new();
        for &x in samples {
            acc.push(x);
        }
        let mean = acc.mean();
        let cv = acc.std_dev() / mean;
        LogNormal::from_mean_cv(mean, cv)
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut Rng) -> f64 {
        (self.mu + self.sigma * Normal::standard(rng)).exp()
    }

    fn mean(&self) -> Option<f64> {
        Some((self.mu + 0.5 * self.sigma * self.sigma).exp())
    }
}

/// Exponential distribution with rate `lambda`.
///
/// Sampled as `mean·E`, where `E` is a standard exponential drawn by the
/// 256-layer ziggurat of [`exponential_ziggurat`]: one `u64`, one
/// multiply and one compare on 97.8 % of draws, and no logarithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `lambda` (mean
    /// `1/lambda`).
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `lambda <= 0`, or if it is so small that
    /// its mean is not finite.
    pub fn new(lambda: f64) -> Result<Self, ParamError> {
        if lambda <= 0.0 || !lambda.is_finite() {
            return Err(ParamError::new(format!(
                "exponential: lambda {lambda} <= 0"
            )));
        }
        Exponential::from_mean(1.0 / lambda)
    }

    /// Creates an exponential distribution with the given mean.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `mean <= 0` or is not finite.
    pub fn from_mean(mean: f64) -> Result<Self, ParamError> {
        if mean <= 0.0 || !mean.is_finite() {
            return Err(ParamError::new(format!(
                "exponential: mean {mean} not positive and finite"
            )));
        }
        Ok(Exponential { mean })
    }

    /// Samples a standard (rate 1) exponential with the ziggurat of
    /// [`exponential_ziggurat`].
    #[inline]
    pub(crate) fn standard(rng: &mut Rng) -> f64 {
        let zig = exponential_ziggurat();
        // Each pass through the base strip's tail adds R: given X > R,
        // X − R is again a standard exponential.
        let mut offset = 0.0;
        loop {
            let bits = rng.next_u64();
            let layer = (bits & 0xff) as usize;
            let (outer, inner) = edges(&zig.x, layer);
            let x = unit(bits) * outer;
            if x < inner {
                return offset + x;
            }
            if layer == 0 {
                offset += zig.r;
            } else if zig.under_curve(layer, x, rng, exponential_density) {
                return offset + x;
            }
        }
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.mean * Exponential::standard(rng)
    }

    fn mean(&self) -> Option<f64> {
        Some(self.mean)
    }
}

/// Layers of a [`Ziggurat`]; the low 8 bits of a draw pick one.
pub const LAYERS: usize = 256;

/// A 256-layer ziggurat for a decreasing density `f` on `[0, ∞)`
/// (Marsaglia & Tsang 2000), with `f(0) = 1`.
///
/// The region under `f` is covered by 255 stacked rectangles and a base
/// strip, each of area `v`. Rectangle `i` (1 ≤ i ≤ 255) spans
/// `[0, x[i]] × [f(x[i]), f(x[i + 1])]`; the base strip is
/// `[0, r] × [0, f(r)]` plus the whole tail beyond `r`, which gives it the
/// virtual width `x[0] = v / f(r)`. A draw picks a layer `i` uniformly and
/// a point `u·x[i]` uniformly across it. The point is under the curve for
/// certain when it lies left of `x[i + 1]`, 98–99 % of draws. Else
/// it lies in the wedge between the curve and the rectangle's edge and is
/// kept when a uniform height under the rectangle falls under `f`, or, in
/// the base strip, it is replaced by a draw from the tail. Every point of
/// the region is reached with equal density, so the kept point has
/// exactly the law of `f`; only the tables' rounding separates the two.
#[derive(Debug)]
pub struct Ziggurat {
    /// Where the base strip's rectangle ends and the tail begins.
    pub r: f64,
    /// The common area of the layers.
    pub v: f64,
    /// Layer edges: `x[0] = v / f(r)`, `x[1] = r`, decreasing to
    /// `x[256] = 0`.
    pub x: [f64; LAYERS + 1],
    /// The density at each edge, `f(x[i])`, increasing to `f[256] = 1`.
    pub f: [f64; LAYERS + 1],
}

impl Ziggurat {
    /// Builds the layers from `r`, `v`, the density and its inverse:
    /// `x[i + 1] = f⁻¹(f(x[i]) + v / x[i])` makes layer `i`'s area `v`.
    fn build(r: f64, v: f64, density: fn(f64) -> f64, inverse: fn(f64) -> f64) -> Ziggurat {
        let mut x = [0.0; LAYERS + 1];
        let mut edge = r;
        for (i, slot) in x.iter_mut().enumerate() {
            *slot = match i {
                0 => v / density(r),
                1 => r,
                LAYERS => 0.0,
                _ => {
                    edge = inverse(density(edge) + v / edge);
                    edge
                }
            };
        }
        Ziggurat {
            r,
            v,
            x,
            f: x.map(density),
        }
    }

    /// Whether a point at `x` in the wedge of `layer` (1 ≤ layer ≤ 255)
    /// falls under the curve: a uniform height between the layer's lower
    /// and upper density, against `f(x)`.
    #[inline]
    fn under_curve(&self, layer: usize, x: f64, rng: &mut Rng, density: fn(f64) -> f64) -> bool {
        let (low, high) = edges(&self.f, layer);
        low + (high - low) * rng.f64() < density(x)
    }
}

/// `table[i]` and `table[i + 1]`, for a layer `i < 256`.
#[inline]
fn edges(table: &[f64; LAYERS + 1], i: usize) -> (f64, f64) {
    match table.get(i..i + 2) {
        Some(&[outer, inner]) => (outer, inner),
        // Unreachable: every layer index is masked to 8 bits.
        _ => (0.0, 0.0),
    }
}

/// The top 53 bits of `bits` as a uniform `f64` in `[0, 1)`; the low 9
/// bits pick the layer and the sign and stay independent of it.
#[inline]
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn exponential_density(x: f64) -> f64 {
    (-x).exp()
}

fn exponential_inverse(y: f64) -> f64 {
    -y.ln()
}

/// The half-normal density, unnormalised so that `f(0) = 1`.
fn normal_density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

fn normal_inverse(y: f64) -> f64 {
    (-2.0 * y.ln()).sqrt()
}

/// The ziggurat of the standard exponential, `f(x) = e^−x`, built on
/// first use. `r` is Marsaglia & Tsang's; `v = (r + 1)·e^−r`, the strip
/// `r·f(r)` plus the tail `e^−r`.
pub fn exponential_ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(|| {
        Ziggurat::build(
            7.697_117_470_131_05,
            3.949_659_822_581_556e-3,
            exponential_density,
            exponential_inverse,
        )
    })
}

/// The ziggurat of the half-normal, `f(x) = e^(−x²/2)`, built on first
/// use. `r` is Marsaglia & Tsang's; `v = r·f(r) + √(π/2)·erfc(r/√2)`, the
/// strip plus the tail, evaluated in double precision.
pub fn normal_ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(|| {
        Ziggurat::build(
            3.654_152_885_361_009,
            4.928_673_233_974_658e-3,
            normal_density,
            normal_inverse,
        )
    })
}

/// Gamma distribution (shape `k`, scale `theta`), sampled with the
/// Marsaglia–Tsang method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Creates a gamma distribution with shape `k > 0` and scale
    /// `theta > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if either parameter is non-positive.
    pub fn new(shape: f64, scale: f64) -> Result<Self, ParamError> {
        if shape <= 0.0 || !shape.is_finite() {
            return Err(ParamError::new(format!("gamma: shape {shape} <= 0")));
        }
        if scale <= 0.0 || !scale.is_finite() {
            return Err(ParamError::new(format!("gamma: scale {scale} <= 0")));
        }
        Ok(Gamma { shape, scale })
    }

    fn sample_shape_ge1(shape: f64, rng: &mut Rng) -> f64 {
        // Marsaglia & Tsang (2000), valid for shape >= 1.
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = Normal::standard(rng);
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u = rng.f64();
            if u < 1.0 - 0.0331 * x.powi(4) {
                return d * v3;
            }
            if u > 0.0 && u.ln() < 0.5 * x * x + d * (1.0 - v3 + v3.ln()) {
                return d * v3;
            }
        }
    }
}

impl Distribution for Gamma {
    fn sample(&self, rng: &mut Rng) -> f64 {
        if self.shape >= 1.0 {
            Gamma::sample_shape_ge1(self.shape, rng) * self.scale
        } else {
            // Boost trick: Gamma(k) = Gamma(k+1) * U^(1/k) for k < 1.
            let g = Gamma::sample_shape_ge1(self.shape + 1.0, rng);
            let u = (1.0 - rng.f64()).max(f64::MIN_POSITIVE);
            g * u.powf(1.0 / self.shape) * self.scale
        }
    }

    fn mean(&self) -> Option<f64> {
        Some(self.shape * self.scale)
    }
}

/// Weibull distribution (shape `k`, scale `lambda`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Creates a Weibull distribution with shape `k > 0` and scale
    /// `lambda > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if either parameter is non-positive.
    pub fn new(shape: f64, scale: f64) -> Result<Self, ParamError> {
        if shape <= 0.0 || !shape.is_finite() {
            return Err(ParamError::new(format!("weibull: shape {shape} <= 0")));
        }
        if scale <= 0.0 || !scale.is_finite() {
            return Err(ParamError::new(format!("weibull: scale {scale} <= 0")));
        }
        Ok(Weibull { shape, scale })
    }
}

impl Distribution for Weibull {
    fn sample(&self, rng: &mut Rng) -> f64 {
        let u = 1.0 - rng.f64();
        self.scale * (-u.ln()).powf(1.0 / self.shape)
    }
}

/// Pareto distribution (scale `x_m`, tail index `alpha`): a genuinely
/// heavy-tailed option for adversarial response-time experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    xm: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution with minimum `xm > 0` and tail index
    /// `alpha > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if either parameter is non-positive.
    pub fn new(xm: f64, alpha: f64) -> Result<Self, ParamError> {
        if xm <= 0.0 || !xm.is_finite() {
            return Err(ParamError::new(format!("pareto: xm {xm} <= 0")));
        }
        if alpha <= 0.0 || !alpha.is_finite() {
            return Err(ParamError::new(format!("pareto: alpha {alpha} <= 0")));
        }
        Ok(Pareto { xm, alpha })
    }
}

impl Distribution for Pareto {
    fn sample(&self, rng: &mut Rng) -> f64 {
        let u = 1.0 - rng.f64();
        self.xm / u.powf(1.0 / self.alpha)
    }

    fn mean(&self) -> Option<f64> {
        (self.alpha > 1.0).then(|| {
            let tail_excess = self.alpha - 1.0; // > 0 by the guard
            self.alpha * self.xm / tail_excess
        })
    }
}

/// A shifted distribution: `base + offset`.
///
/// Network latency is typically "propagation floor plus stochastic part";
/// this adapter expresses that composition.
#[derive(Debug, Clone)]
pub struct Shifted<D> {
    base: D,
    offset: f64,
}

impl<D: Distribution> Shifted<D> {
    /// Wraps `base`, adding `offset` to every sample.
    pub fn new(base: D, offset: f64) -> Self {
        Shifted { base, offset }
    }
}

impl<D: Distribution> Distribution for Shifted<D> {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.base.sample(rng) + self.offset
    }

    fn mean(&self) -> Option<f64> {
        self.base.mean().map(|m| m + self.offset)
    }
}

/// A discrete distribution over arbitrary `f64` support points with given
/// (unnormalized) weights, sampled by cumulative inversion.
#[derive(Debug, Clone, PartialEq)]
pub struct Discrete {
    values: Vec<f64>,
    cumulative: Vec<f64>,
}

impl Discrete {
    /// Creates a discrete distribution from `(value, weight)` pairs.
    ///
    /// Weights are normalized internally.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if the list is empty, any weight is negative
    /// or non-finite, or all weights are zero.
    pub fn new(pairs: &[(f64, f64)]) -> Result<Self, ParamError> {
        if pairs.is_empty() {
            return Err(ParamError::new("discrete: empty support"));
        }
        let mut total = 0.0;
        for &(v, w) in pairs {
            if !v.is_finite() || !w.is_finite() || w < 0.0 {
                return Err(ParamError::new(format!("discrete: bad pair ({v}, {w})")));
            }
            total += w;
        }
        if total <= 0.0 {
            return Err(ParamError::new("discrete: all weights zero"));
        }
        let mut cumulative = Vec::with_capacity(pairs.len());
        let mut acc = 0.0;
        for &(_, w) in pairs {
            acc += w / total;
            cumulative.push(acc);
        }
        // Force the last entry to exactly 1 to make inversion total.
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        Ok(Discrete {
            values: pairs.iter().map(|&(v, _)| v).collect(),
            cumulative,
        })
    }
}

impl Distribution for Discrete {
    fn sample(&self, rng: &mut Rng) -> f64 {
        let u = rng.f64();
        let idx = self
            .cumulative
            .partition_point(|&c| c <= u)
            .min(self.values.len() - 1);
        self.values[idx]
    }

    fn mean(&self) -> Option<f64> {
        let mut prev = 0.0;
        let mut m = 0.0;
        for (v, c) in self.values.iter().zip(&self.cumulative) {
            m += v * (c - prev);
            prev = *c;
        }
        Some(m)
    }
}

/// A boxed, dynamically-typed distribution, for heterogeneous pipelines.
pub type DynDistribution = Box<dyn Distribution + Send + Sync>;

impl Distribution for DynDistribution {
    fn sample(&self, rng: &mut Rng) -> f64 {
        self.as_ref().sample(rng)
    }

    fn mean(&self) -> Option<f64> {
        self.as_ref().mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::desc::OnlineStats;

    fn stats_of<D: Distribution>(d: &D, seed: u64, n: usize) -> OnlineStats {
        let mut rng = Rng::seed_from(seed);
        let mut acc = OnlineStats::new();
        for _ in 0..n {
            acc.push(d.sample(&mut rng));
        }
        acc
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Uniform::new(2.0, 6.0).unwrap();
        let mut rng = Rng::seed_from(1);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..6.0).contains(&x));
        }
        let s = stats_of(&d, 2, 50_000);
        assert!((s.mean() - 4.0).abs() < 0.05);
    }

    #[test]
    fn uniform_rejects_bad_params() {
        assert!(Uniform::new(3.0, 1.0).is_err());
        assert!(Uniform::new(f64::NAN, 1.0).is_err());
        assert!(Uniform::new(0.0, f64::INFINITY).is_err());
        assert!(Uniform::new(1.0, 1.0).is_ok());
    }

    #[test]
    fn constant_returns_value() {
        let d = Constant(3.5);
        let mut rng = Rng::seed_from(0);
        assert_eq!(d.sample(&mut rng), 3.5);
        assert_eq!(d.mean(), Some(3.5));
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(10.0, 2.0).unwrap();
        let s = stats_of(&d, 3, 100_000);
        assert!((s.mean() - 10.0).abs() < 0.05, "mean {}", s.mean());
        assert!((s.std_dev() - 2.0).abs() < 0.05, "std {}", s.std_dev());
    }

    #[test]
    fn normal_rejects_negative_sigma() {
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(0.0, 0.0).is_ok());
    }

    #[test]
    fn lognormal_positive_and_mean() {
        let d = LogNormal::from_mean_cv(7.0, 0.5).unwrap();
        let mut rng = Rng::seed_from(4);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
        let s = stats_of(&d, 5, 200_000);
        assert!((s.mean() - 7.0).abs() < 0.15, "mean {}", s.mean());
        assert!((d.mean().unwrap() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn lognormal_fit_recovers_parameters() {
        let truth = LogNormal::from_mean_cv(50.0, 0.4).unwrap();
        let mut rng = Rng::seed_from(77);
        let samples = truth.sample_n(&mut rng, 20_000);
        let fitted = LogNormal::fit(&samples).unwrap();
        let m = fitted.mean().unwrap();
        assert!((m - 50.0).abs() < 1.5, "fitted mean {m}");
        // The fitted distribution reproduces the tail roughly: sample it
        // and compare 95th percentiles.
        let refit = fitted.sample_n(&mut rng, 20_000);
        let p95_truth = crate::desc::quantile(&samples, 0.95);
        let p95_fit = crate::desc::quantile(&refit, 0.95);
        assert!(
            (p95_fit - p95_truth).abs() / p95_truth < 0.1,
            "p95 {p95_fit} vs {p95_truth}"
        );
    }

    #[test]
    fn lognormal_fit_rejects_bad_samples() {
        assert!(LogNormal::fit(&[]).is_err());
        assert!(LogNormal::fit(&[1.0]).is_err());
        assert!(LogNormal::fit(&[1.0, -2.0]).is_err());
        assert!(LogNormal::fit(&[1.0, 0.0]).is_err());
        assert!(LogNormal::fit(&[1.0, f64::NAN]).is_err());
        assert!(LogNormal::fit(&[1.0, 2.0]).is_ok());
    }

    #[test]
    fn lognormal_rejects_bad_params() {
        assert!(LogNormal::from_mean_cv(0.0, 0.5).is_err());
        assert!(LogNormal::from_mean_cv(1.0, -0.1).is_err());
        assert!(LogNormal::new(0.0, -1.0).is_err());
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::from_mean(4.0).unwrap();
        let s = stats_of(&d, 6, 100_000);
        assert!((s.mean() - 4.0).abs() < 0.1, "mean {}", s.mean());
        assert_eq!(d.mean(), Some(4.0));
    }

    #[test]
    fn exponential_rejects_bad_rate() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::from_mean(-2.0).is_err());
    }

    #[test]
    fn gamma_moments_large_shape() {
        let d = Gamma::new(4.0, 2.0).unwrap();
        let s = stats_of(&d, 7, 100_000);
        assert!((s.mean() - 8.0).abs() < 0.15, "mean {}", s.mean());
        // var = k * theta^2 = 16
        assert!((s.variance() - 16.0).abs() < 1.2, "var {}", s.variance());
    }

    #[test]
    fn gamma_small_shape_positive() {
        let d = Gamma::new(0.5, 1.0).unwrap();
        let mut rng = Rng::seed_from(8);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
        let s = stats_of(&d, 9, 100_000);
        assert!((s.mean() - 0.5).abs() < 0.05, "mean {}", s.mean());
    }

    #[test]
    fn weibull_shape1_is_exponential() {
        let d = Weibull::new(1.0, 3.0).unwrap();
        let s = stats_of(&d, 10, 100_000);
        assert!((s.mean() - 3.0).abs() < 0.1, "mean {}", s.mean());
    }

    #[test]
    fn pareto_respects_floor_and_mean() {
        let d = Pareto::new(2.0, 3.0).unwrap();
        let mut rng = Rng::seed_from(11);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 2.0);
        }
        // mean = alpha*xm/(alpha-1) = 3
        let s = stats_of(&d, 12, 200_000);
        assert!((s.mean() - 3.0).abs() < 0.1, "mean {}", s.mean());
        assert!(Pareto::new(1.0, 0.5).unwrap().mean().is_none());
    }

    #[test]
    fn shifted_adds_offset() {
        let d = Shifted::new(Constant(1.0), 2.5);
        let mut rng = Rng::seed_from(0);
        assert_eq!(d.sample(&mut rng), 3.5);
        assert_eq!(d.mean(), Some(3.5));
    }

    #[test]
    fn discrete_respects_weights() {
        let d = Discrete::new(&[(0.0, 1.0), (1.0, 3.0)]).unwrap();
        let s = stats_of(&d, 13, 100_000);
        assert!((s.mean() - 0.75).abs() < 0.01, "mean {}", s.mean());
        assert!((d.mean().unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn discrete_single_point() {
        let d = Discrete::new(&[(5.0, 2.0)]).unwrap();
        let mut rng = Rng::seed_from(14);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 5.0);
        }
    }

    #[test]
    fn discrete_rejects_bad_input() {
        assert!(Discrete::new(&[]).is_err());
        assert!(Discrete::new(&[(0.0, -1.0)]).is_err());
        assert!(Discrete::new(&[(0.0, 0.0)]).is_err());
        assert!(Discrete::new(&[(f64::NAN, 1.0)]).is_err());
    }

    #[test]
    fn dyn_distribution_works() {
        let d: DynDistribution = Box::new(Constant(9.0));
        let mut rng = Rng::seed_from(0);
        assert_eq!(d.sample(&mut rng), 9.0);
        assert_eq!(d.mean(), Some(9.0));
    }

    #[test]
    fn param_error_display() {
        let e = Uniform::new(3.0, 1.0).unwrap_err();
        assert!(e.to_string().contains("invalid distribution parameter"));
    }
}

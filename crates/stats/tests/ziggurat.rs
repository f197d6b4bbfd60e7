//! The ziggurat samplers against their exact laws.
//!
//! `Exponential` and `Normal` draw through 256-layer ziggurats
//! (`rto_stats::dist::exponential_ziggurat` and `normal_ziggurat`). These
//! tests check the layers themselves (equal areas, pinned bits) and the
//! draws against the exact CDFs: a Kolmogorov–Smirnov test at three
//! seeds, the mass the base strip sends to the tail, and the moments
//! the server model relies on.

use rto_stats::dist::{
    exponential_ziggurat, normal_ziggurat, Distribution, Exponential, LogNormal, Normal, Ziggurat,
    LAYERS,
};
use rto_stats::{OnlineStats, Rng};

const SEEDS: [u64; 3] = [2014, 2015, 2016];
const DRAWS: usize = 200_000;

/// `erf(z)` for `z ≥ 0` from the all-positive series
/// `erf z = 2/√π · e^(−z²) · Σ 2ⁿ z^(2n+1) / (1·3·…·(2n+1))`, accurate to
/// a few ulps of 1 wherever a draw can land.
fn erf(z: f64) -> f64 {
    let mut term = z;
    let mut sum = z;
    let mut n = 0.0;
    while term > 1e-17 * sum {
        n += 1.0;
        term *= 2.0 * z * z / (2.0 * n + 1.0);
        sum += term;
    }
    2.0 / std::f64::consts::PI.sqrt() * (-z * z).exp() * sum
}

/// The standard normal CDF.
fn phi(x: f64) -> f64 {
    let half = 0.5 * erf(x.abs() / std::f64::consts::SQRT_2);
    if x < 0.0 {
        0.5 - half
    } else {
        0.5 + half
    }
}

/// The Kolmogorov–Smirnov distance between `draws` and `cdf`.
fn ks_distance(mut draws: Vec<f64>, cdf: impl Fn(f64) -> f64) -> f64 {
    draws.sort_by(f64::total_cmp);
    let n = draws.len() as f64;
    draws
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let f = cdf(x);
            (f - i as f64 / n).max((i + 1) as f64 / n - f)
        })
        .fold(0.0, f64::max)
}

fn draws(d: &impl Distribution, seed: u64) -> Vec<f64> {
    d.sample_n(&mut Rng::seed_from(seed), DRAWS)
}

/// 1.95/√n is the KS critical value at significance ~0.001.
#[test]
fn exponential_draws_pass_ks_against_the_exact_cdf() {
    let d = Exponential::new(1.0).expect("valid rate");
    for seed in SEEDS {
        let dist = ks_distance(draws(&d, seed), |x| -(-x).exp_m1());
        assert!(
            dist < 1.95 / (DRAWS as f64).sqrt(),
            "seed {seed}: D = {dist}"
        );
    }
}

#[test]
fn normal_draws_pass_ks_against_the_exact_cdf() {
    let d = Normal::new(0.0, 1.0).expect("valid parameters");
    for seed in SEEDS {
        let dist = ks_distance(draws(&d, seed), phi);
        assert!(
            dist < 1.95 / (DRAWS as f64).sqrt(),
            "seed {seed}: D = {dist}"
        );
    }
}

/// The base strip sends draws beyond `r` to the tail sampler; the share
/// that lands there must be the law's mass beyond `r`.
#[test]
fn mass_beyond_the_base_strip_matches_the_law() {
    let n = (DRAWS * SEEDS.len()) as f64;
    let check = |name: &str, beyond: usize, p: f64| {
        let expected = n * p;
        let se = (n * p * (1.0 - p)).sqrt();
        let got = beyond as f64;
        assert!(
            (got - expected).abs() < 4.0 * se,
            "{name}: {got} draws beyond r, expected {expected:.1} ± {se:.1}"
        );
    };

    let r = exponential_ziggurat().r;
    let d = Exponential::new(1.0).expect("valid rate");
    let beyond = SEEDS
        .iter()
        .map(|&s| draws(&d, s).iter().filter(|&&x| x > r).count())
        .sum();
    check("exponential", beyond, (-r).exp());

    let r = normal_ziggurat().r;
    let d = Normal::new(0.0, 1.0).expect("valid parameters");
    let beyond = SEEDS
        .iter()
        .map(|&s| draws(&d, s).iter().filter(|&&x| x.abs() > r).count())
        .sum();
    check("normal", beyond, 2.0 * (1.0 - phi(r)));
}

/// Every layer is a rectangle of area `v`; the base strip is `r·f(r)`
/// plus the tail.
fn assert_equal_areas(zig: &Ziggurat, tail: f64) {
    assert_eq!(zig.x[1], zig.r);
    assert_eq!((zig.x[LAYERS], zig.f[LAYERS]), (0.0, 1.0));
    assert!(
        (zig.r * zig.f[1] + tail - zig.v).abs() < 1e-12,
        "base strip"
    );
    assert!((zig.x[0] * zig.f[1] - zig.v).abs() < 1e-12, "virtual width");
    for i in 1..LAYERS {
        assert!(
            zig.x[i + 1] < zig.x[i] && zig.f[i + 1] > zig.f[i],
            "layer {i}"
        );
        let area = zig.x[i] * (zig.f[i + 1] - zig.f[i]);
        assert!((area - zig.v).abs() < 1e-12, "layer {i}: area {area}");
    }
}

#[test]
fn every_layer_has_the_same_area() {
    let exp = exponential_ziggurat();
    assert_equal_areas(exp, (-exp.r).exp());
    let normal = normal_ziggurat();
    let tail = (2.0 * std::f64::consts::PI).sqrt() * (1.0 - phi(normal.r));
    assert_equal_areas(normal, tail);
}

fn fnv1a(zig: &Ziggurat) -> u64 {
    [zig.r, zig.v]
        .iter()
        .chain(&zig.x)
        .chain(&zig.f)
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The tables are built with libm's `exp`, `ln` and `sqrt`; a libm that
/// rounds one of them differently moves every seeded stream, and shows
/// here first.
#[test]
fn tables_are_pinned_bit_for_bit() {
    assert_eq!(fnv1a(exponential_ziggurat()), 0x6150_59b1_413b_d3b2);
    assert_eq!(fnv1a(normal_ziggurat()), 0xf790_cd8c_38c3_9ff9);
}

/// Mean and coefficient of variation, each within 4 standard errors
/// (the CV's from the law's kurtosis).
fn assert_mean_and_cv(d: &impl Distribution, mean: f64, cv: f64, kurtosis: f64) {
    for seed in SEEDS {
        let mut acc = OnlineStats::new();
        for x in draws(d, seed) {
            acc.push(x);
        }
        let n = DRAWS as f64;
        let sd = cv * mean;
        let mean_tol = 4.0 * sd / n.sqrt();
        assert!(
            (acc.mean() - mean).abs() < mean_tol,
            "seed {seed}: mean {}",
            acc.mean()
        );
        let cv_tol = 4.0 * cv * ((kurtosis - 1.0) / (4.0 * n)).sqrt() + mean_tol / mean;
        let got = acc.std_dev() / acc.mean();
        assert!((got - cv).abs() < cv_tol, "seed {seed}: cv {got}");
    }
}

#[test]
fn exponential_and_lognormal_mean_and_cv() {
    let exp = Exponential::from_mean(7.0).expect("valid mean");
    assert_mean_and_cv(&exp, 7.0, 1.0, 9.0);
    let cv: f64 = 0.4;
    let w = 1.0 + cv * cv;
    let kurtosis = w.powi(4) + 2.0 * w.powi(3) + 3.0 * w.powi(2) - 3.0;
    let lognormal = LogNormal::from_mean_cv(7.0, cv).expect("valid parameters");
    assert_mean_and_cv(&lognormal, 7.0, cv, kurtosis);
}

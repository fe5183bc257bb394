//! Accuracy of the streaming quantile estimator against exact
//! sorted-sample quantiles on uniform, exponential, and bimodal inputs.
//!
//! `QuantileSketch` is the one streaming quantile estimator in the
//! workspace. It replaced two others, each of which had its own accuracy
//! bars on these inputs:
//! * a P² estimator (five markers, parabolic interpolation);
//! * a log-binned histogram (interpolation inside a power-of-two bin).
//!
//! The tests keep those names, inputs and tolerances and hold the sketch to
//! them, so the replacement is shown to be no less accurate than what it
//! replaced. The sketch's own, tighter bound ([`RELATIVE_ERROR`]) is checked
//! in `sketch_prop.rs`.
//!
//! [`RELATIVE_ERROR`]: tg_des::sketch::RELATIVE_ERROR

use tg_des::sketch::QuantileSketch;
use tg_des::stats::{exact_quantile, OnlineStats};

/// Deterministic 64-bit LCG (MMIX constants); no external RNG needed.
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn uniform(n: usize, lo: f64, hi: f64, seed: u64) -> Vec<f64> {
    let mut rng = Lcg(seed);
    (0..n).map(|_| lo + (hi - lo) * rng.next_f64()).collect()
}

fn exponential(n: usize, mean: f64, seed: u64) -> Vec<f64> {
    let mut rng = Lcg(seed);
    (0..n)
        .map(|_| -mean * (1.0 - rng.next_f64()).ln())
        .collect()
}

/// Two well-separated uniform lobes: short jobs around ~1 minute, long
/// jobs around ~10 hours — the shape batch wait times actually have.
fn bimodal(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Lcg(seed);
    (0..n)
        .map(|_| {
            if rng.next_f64() < 0.7 {
                30.0 + 60.0 * rng.next_f64()
            } else {
                30_000.0 + 12_000.0 * rng.next_f64()
            }
        })
        .collect()
}

/// Relative error with a small absolute floor so near-zero quantiles don't
/// blow the ratio up.
fn rel_err(got: f64, want: f64) -> f64 {
    (got - want).abs() / want.abs().max(1.0)
}

fn sketch_of(samples: &[f64]) -> QuantileSketch {
    let mut sketch = QuantileSketch::new();
    for &x in samples {
        sketch.record(x);
    }
    sketch
}

fn check(samples: &[f64], q: f64, tol: f64, label: &str) {
    let sketch = sketch_of(samples);
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let exact = exact_quantile(&sorted, q).unwrap();
    let got = sketch.quantile(q);
    assert!(
        rel_err(got, exact) < tol,
        "{label} q={q}: sketch {got} vs exact {exact} (tol {tol})"
    );
}

#[test]
fn p2_tracks_exact_quantiles_on_uniform_input() {
    let samples = uniform(4000, 0.0, 3600.0, 0xA11CE);
    for q in [0.5, 0.95, 0.99] {
        check(&samples, q, 0.05, "uniform");
    }
}

#[test]
fn p2_tracks_exact_quantiles_on_exponential_input() {
    let samples = exponential(4000, 1800.0, 0xB0B);
    for q in [0.5, 0.95] {
        check(&samples, q, 0.10, "exponential");
    }
    check(&samples, 0.99, 0.15, "exponential");
}

#[test]
fn p2_locates_the_right_lobe_of_a_bimodal_input() {
    let samples = bimodal(4000, 0xD1CE);
    // With 70% short jobs the median must land in the short lobe and the
    // tail quantiles in the long lobe — lobe placement is the real test;
    // within-lobe precision is secondary.
    let sketch = sketch_of(&samples);
    let p50 = sketch.quantile(0.5);
    let p95 = sketch.quantile(0.95);
    assert!(
        (30.0..=90.0).contains(&p50),
        "bimodal p50 {p50} should be in the short lobe"
    );
    assert!(
        (30_000.0..=42_000.0).contains(&p95),
        "bimodal p95 {p95} should be in the long lobe"
    );
    check(&samples, 0.99, 0.15, "bimodal");
}

#[test]
fn log_histogram_quantiles_are_bin_accurate_on_uniform_input() {
    let samples = uniform(4000, 1.0, 3600.0, 0xFEED);
    for q in [0.5, 0.95, 0.99] {
        check(&samples, q, 0.15, "uniform");
    }
}

#[test]
fn log_histogram_quantiles_are_bin_accurate_on_exponential_input() {
    let samples = exponential(4000, 900.0, 0xC0FFEE);
    for q in [0.5, 0.95, 0.99] {
        check(&samples, q, 0.20, "exponential");
    }
}

#[test]
fn log_histogram_separates_bimodal_lobes() {
    let samples = bimodal(4000, 0x5EED);
    let sketch = sketch_of(&samples);
    let p50 = sketch.quantile(0.5);
    let p95 = sketch.quantile(0.95);
    assert!(
        (16.0..=128.0).contains(&p50),
        "bimodal p50 {p50} should fall in the short lobe's bins"
    );
    assert!(
        (16_384.0..=65_536.0).contains(&p95),
        "bimodal p95 {p95} should fall in the long lobe's bins"
    );
    // The sketch's mean comes from bin midpoints, so it is not exact; the
    // trace analyzer pairs each sketch with an `OnlineStats`, whose mean is.
    let mut stats = OnlineStats::new();
    for &x in &samples {
        stats.record(x);
    }
    let exact_mean = samples.iter().sum::<f64>() / samples.len() as f64;
    assert!((stats.mean() - exact_mean).abs() < 1e-9);
    assert!(
        rel_err(sketch.mean(), exact_mean) < tg_des::sketch::RELATIVE_ERROR,
        "sketch mean {} vs exact {exact_mean}",
        sketch.mean()
    );
}

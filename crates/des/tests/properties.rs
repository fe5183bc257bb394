//! Property-based tests for the DES substrate: engine ordering, RNG
//! determinism, distribution sanity, and statistics invariants.

use proptest::prelude::*;
use tg_des::dist::DistKind;
use tg_des::sketch::{QuantileSketch, LO_SECS, RELATIVE_ERROR};
use tg_des::stats::{exact_quantile, OnlineStats};
use tg_des::{Ctx, Engine, RngFactory, SimDuration, SimRng, SimTime, Simulation, StreamId};

// ---------------------------------------------------------------------
// Engine ordering
// ---------------------------------------------------------------------

struct Collector {
    seen: Vec<(SimTime, u32)>,
}

impl Simulation for Collector {
    type Event = u32;
    fn handle(&mut self, ctx: &mut Ctx<u32>, ev: u32) {
        self.seen.push((ctx.now(), ev));
    }
}

proptest! {
    /// Whatever order events are scheduled in, delivery is sorted by time,
    /// and ties preserve scheduling order.
    #[test]
    fn engine_delivers_in_time_then_fifo_order(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut engine = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            engine.schedule_at(SimTime::from_secs(t), i as u32);
        }
        let mut sim = Collector { seen: Vec::new() };
        engine.run(&mut sim);
        prop_assert_eq!(sim.seen.len(), times.len());
        for w in sim.seen.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                // Same instant: scheduling (= id) order.
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn cancellation_removes_exactly_the_cancelled(
        times in prop::collection::vec(0u64..100, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut engine = Engine::new();
        let keys: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| engine.schedule_at(SimTime::from_secs(t), i as u32))
            .collect();
        let mut expect: Vec<u32> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                prop_assert!(engine.cancel(*key));
            } else {
                expect.push(i as u32);
            }
        }
        let mut sim = Collector { seen: Vec::new() };
        engine.run(&mut sim);
        let mut got: Vec<u32> = sim.seen.iter().map(|&(_, e)| e).collect();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}

// ---------------------------------------------------------------------
// RNG streams
// ---------------------------------------------------------------------

proptest! {
    /// A stream's draws depend only on (master seed, stream id).
    #[test]
    fn streams_are_pure_functions_of_seed_and_id(seed in any::<u64>(), idx in 0u64..1000) {
        let draw = |seed: u64, idx: u64| -> Vec<u64> {
            let mut r = RngFactory::new(seed).stream(StreamId::new("p", idx));
            (0..8).map(|_| rand::RngCore::next_u64(&mut r)).collect()
        };
        prop_assert_eq!(draw(seed, idx), draw(seed, idx));
        // Perturbing either coordinate changes the stream (overwhelmingly).
        prop_assert_ne!(draw(seed, idx), draw(seed.wrapping_add(1), idx));
        prop_assert_ne!(draw(seed, idx), draw(seed, idx + 1));
    }

    /// `below(n)` is always in range; `pick_weighted` returns a positive-
    /// weight index.
    #[test]
    fn bounded_draws_stay_in_bounds(seed in any::<u64>(), n in 1u64..10_000) {
        let mut rng = SimRng::seeded(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(n) < n);
        }
        let weights = [0.0, 2.5, 0.0, 1.0];
        for _ in 0..100 {
            let i = rng.pick_weighted(&weights);
            prop_assert!(i == 1 || i == 3);
        }
    }
}

// ---------------------------------------------------------------------
// Distributions
// ---------------------------------------------------------------------

fn arb_distkind() -> impl Strategy<Value = DistKind> {
    prop_oneof![
        (0.1f64..1e6).prop_map(|v| DistKind::Constant { value: v }),
        (0.1f64..100.0, 1.0f64..100.0).prop_map(|(lo, w)| DistKind::Uniform { lo, hi: lo + w }),
        (0.1f64..1e5).prop_map(|mean| DistKind::Exponential { mean }),
        (1.0f64..1e5, 0.1f64..3.0).prop_map(|(mean, cv)| DistKind::LogNormal { mean, cv }),
        (0.2f64..5.0, 0.1f64..1e4).prop_map(|(k, lambda)| DistKind::Weibull { k, lambda }),
        (0.1f64..1e3, 1.1f64..4.0).prop_map(|(xm, alpha)| DistKind::Pareto { xm, alpha }),
        (0.2f64..5.0, 0.1f64..1e3).prop_map(|(k, theta)| DistKind::Gamma { k, theta }),
        (1.0f64..1e4, 1.0f64..6.0).prop_map(|(mean, scv)| DistKind::Hyperexp { mean, scv }),
    ]
}

proptest! {
    /// Every (non-normal) distribution draws non-negative, finite values,
    /// and its sampled mean tracks its closed-form mean where one exists.
    #[test]
    fn distributions_draw_finite_nonnegative(kind in arb_distkind(), seed in any::<u64>()) {
        let mut rng = SimRng::seeded(seed);
        let mut acc = 0.0;
        let n = 4000;
        for _ in 0..n {
            let x = kind.sample(&mut rng);
            prop_assert!(x.is_finite(), "{kind:?} drew {x}");
            prop_assert!(x >= 0.0, "{kind:?} drew {x}");
            acc += x;
        }
        if let Some(mean) = kind.build().mean() {
            let sampled = acc / n as f64;
            // Loose: heavy tails need slack. Pareto with alpha near 1 is
            // excluded by the strategy (alpha ≥ 1.1 still slow) — allow 12×.
            prop_assert!(
                sampled > mean / 12.0 && sampled < mean * 12.0,
                "{kind:?}: sampled {sampled} vs closed {mean}"
            );
        }
    }

    /// Serde round-trips every DistKind.
    #[test]
    fn distkind_serde_roundtrip(kind in arb_distkind()) {
        let json = serde_json::to_string(&kind).unwrap();
        let back: DistKind = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(kind, back);
    }
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

proptest! {
    /// Welford mean/variance agree with the naive two-pass computation.
    #[test]
    fn online_stats_match_two_pass(data in prop::collection::vec(-1e6f64..1e6, 2..500)) {
        let mut s = OnlineStats::new();
        for &x in &data {
            s.record(x);
        }
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() <= 1e-5 * (1.0 + var.abs()));
    }

    /// Merging partitions is equivalent to sequential accumulation, for any
    /// split point.
    #[test]
    fn online_stats_merge_any_split(
        data in prop::collection::vec(-1e3f64..1e3, 2..200),
        split_frac in 0.0f64..1.0,
    ) {
        let split = ((data.len() as f64) * split_frac) as usize;
        let mut whole = OnlineStats::new();
        for &x in &data {
            whole.record(x);
        }
        let (mut a, mut b) = (OnlineStats::new(), OnlineStats::new());
        for &x in &data[..split] {
            a.record(x);
        }
        for &x in &data[split..] {
            b.record(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-9 * (1.0 + whole.mean().abs()));
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-7 * (1.0 + whole.variance()));
    }

    /// The sketch's median stays within the sample's range and within the
    /// documented relative error of the exact nearest-rank median.
    #[test]
    fn sketch_quantile_is_bounded_by_sample_range(data in prop::collection::vec(0.0f64..1e4, 1..2000)) {
        let mut sketch = QuantileSketch::new();
        for &x in &data {
            sketch.record(x);
        }
        let est = sketch.quantile(0.5);
        let lo = data.iter().cloned().fold(f64::MAX, f64::min);
        let hi = data.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(est >= lo && est <= hi, "estimate {est} outside [{lo}, {hi}]");
        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let exact = exact_quantile(&sorted, 0.5).unwrap();
        // Values below the bottom bin edge report the observed minimum.
        prop_assert!(
            (est - exact).abs() <= exact * RELATIVE_ERROR + LO_SECS,
            "estimate {est} too far from exact median {exact}"
        );
    }

    /// Time arithmetic: (t + d) - t == d and ordering is preserved.
    #[test]
    fn time_arithmetic_roundtrips(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_micros(t);
        let d = SimDuration::from_micros(d);
        prop_assert_eq!((t + d) - t, d);
        prop_assert!(t + d >= t);
    }
}

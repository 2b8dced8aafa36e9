//! Oracle suite for `RipperConfig::fit`: the fit must produce exactly the
//! rule set (rules, thresholds and per-rule stats) of the straightforward
//! row-wise IREP* / optimize / grow / prune implementation kept in
//! `reference/` as a test-only reference.
//!
//! The generated datasets stress what a column-store fit could get
//! wrong: small integer value grids (heavy ties and duplicate rows),
//! 1 to 21 attributes, single-class data, signed zeros, tiny folds with
//! `grow_fraction` 0.98 and 0 to 3 optimization rounds. The realistic
//! fixed case, a jvm98 seed trace plus re-traced methods, lives in the
//! root `tests/ripper_fit_oracle.rs`, next to the trace pipeline.

mod reference;

use proptest::prelude::*;
use reference::assert_matches_reference;
use wts_ripper::{Dataset, RipperConfig};

/// How the labels of a generated dataset are drawn.
#[derive(Debug, Clone, Copy)]
enum Labels {
    /// Every instance positive.
    AllPositive,
    /// Every instance negative.
    AllNegative,
    /// A conjunction of two attribute thresholds, with label noise.
    Threshold,
    /// Independent coin flips with a biased rate.
    Coin,
}

/// A dataset over a small integer grid: `n` instances, `attrs`
/// attributes, values `k * step` for `k` in `0..grid`, with zeros drawn
/// as `-0.0` half the time, plus one constant attribute when there are
/// several. The tiny grid makes ties and duplicate rows the norm.
fn grid_dataset(n: usize, attrs: usize, grid: u64, labels: Labels, noise_pct: u64, seed: u64) -> Dataset {
    let names = (0..attrs).map(|a| format!("a{a}")).collect();
    let mut d = Dataset::new(names, "LS", "NS");
    let mut s = seed | 1;
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        s >> 11
    };
    let step = [1.0, 0.25, 0.1, 3.0][(seed % 4) as usize];
    for i in 0..n {
        let values: Vec<f64> = (0..attrs)
            .map(|a| {
                if attrs > 2 && a == attrs - 1 {
                    return 7.0;
                }
                let k = next() % grid;
                if k == 0 && next() % 2 == 0 {
                    -0.0
                } else {
                    k as f64 * step
                }
            })
            .collect();
        let positive = match labels {
            Labels::AllPositive => true,
            Labels::AllNegative => false,
            Labels::Threshold => {
                let cut = (grid / 2) as f64 * step;
                let signal = values[0] >= cut && values[values.len() / 2] <= cut;
                signal != (next() % 100 < noise_pct)
            }
            Labels::Coin => next() % 100 < 15 + noise_pct,
        };
        d.push(values, positive, u32::try_from(i % 3).expect("a residue mod 3 fits u32"));
    }
    d
}

fn arb_case() -> impl Strategy<Value = (Dataset, RipperConfig)> {
    (
        (0usize..140, 1usize..22, 1u64..7),
        prop::sample::select(vec![Labels::AllPositive, Labels::AllNegative, Labels::Threshold, Labels::Coin]),
        0u64..30,
        0u64..u64::MAX,
        prop::sample::select(vec![2.0 / 3.0, 0.5, 0.98, 0.2]),
        0usize..4,
    )
        .prop_map(|((n, attrs, grid), labels, noise, seed, grow_fraction, optimization_rounds)| {
            let data = grid_dataset(n, attrs, grid, labels, noise, seed);
            (data, RipperConfig { grow_fraction, optimization_rounds, seed: seed.rotate_left(17) })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fit_equals_the_row_wise_reference((data, cfg) in arb_case()) {
        assert_matches_reference(&data, &cfg);
    }

    #[test]
    fn tiny_folds_equal_the_reference(
        n in 1usize..24,
        attrs in 1usize..5,
        noise in 0u64..30,
        seed in 0u64..u64::MAX,
        rounds in 0usize..4,
    ) {
        let data = grid_dataset(n, attrs, 3, Labels::Threshold, noise, seed);
        let cfg = RipperConfig { grow_fraction: 0.98, optimization_rounds: rounds, seed };
        assert_matches_reference(&data, &cfg);
    }
}

#[test]
fn signed_zeros_keep_the_reference_sign() {
    // Zero appears as both signs in every attribute, in both classes, so
    // a threshold at zero is always a candidate. The two zeros compare
    // equal and share one run of the sorted walk, whose threshold is the
    // first of them in covered order; the fit must pick the same one.
    let mut d = Dataset::new(vec!["x".into(), "y".into()], "LS", "NS");
    for i in 0..60u32 {
        let z = if i % 2 == 0 { -0.0 } else { 0.0 };
        let x = if i % 3 == 0 { z } else { f64::from(i % 5) };
        d.push(vec![x, z], i % 3 == 0 || i % 7 == 0, i % 2);
    }
    let model = assert_matches_reference(&d, &RipperConfig::default());
    assert!(!model.is_empty(), "zero is informative here: {model}");
}

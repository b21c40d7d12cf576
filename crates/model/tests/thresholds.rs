//! The requantisation thresholds against their definition: for every
//! layer scale, `#{k : acc >= θ_k}` must be `requantize(acc, r, L)` —
//! exhaustively over the accumulators `[-2^20, 2^20]` for LeNet-5's
//! scales, and at both sides of every threshold (`θ_k - 1` below level
//! `k`, `θ_k` at or above it) for random scales and for the edge scales
//! the float form was pinned on (±0, subnormals, NaN, ±∞, `f32::MAX`).
//! The executor's level epilogue compares against exactly these.

use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::params::Parameters;
use snn_model::snn::{requant_thresholds, requantize, SnnLayer, MAX_THRESHOLD_STEPS};
use snn_model::zoo;
use snn_tensor::Tensor;

/// Asserts that `thresholds` are `(r, max_level)`'s: ascending, one per
/// level some accumulator reaches, and each the least accumulator reaching
/// its level.
fn assert_thresholds_at_every_edge(thresholds: &[i64], r: f32, max_level: i64) {
    let case = format!("requant {r:e}, max_level {max_level}");
    let top = requantize(i64::MAX, r, max_level);
    assert_eq!(thresholds.len() as i64, top, "{case}: reachable levels");
    assert!(thresholds.windows(2).all(|t| t[0] <= t[1]), "{case}");
    for (k, &theta) in (1..).zip(thresholds) {
        assert!(
            requantize(theta, r, max_level) >= k,
            "{case}: θ_{k} = {theta}"
        );
        assert!(requantize(theta - 1, r, max_level) < k, "{case}: θ_{k} - 1");
    }
}

/// Asserts the threshold count equals `requantize` on every accumulator
/// in `range`, ascending.
fn assert_exhaustive(
    thresholds: &[i64],
    r: f32,
    max_level: i64,
    range: std::ops::RangeInclusive<i64>,
) {
    let mut reached = thresholds.partition_point(|&t| t < *range.start());
    for acc in range {
        while reached < thresholds.len() && thresholds[reached] <= acc {
            reached += 1;
        }
        assert_eq!(
            reached as i64,
            requantize(acc, r, max_level),
            "acc {acc}, requant {r:e}, max_level {max_level}"
        );
    }
}

#[test]
fn lenet5_thresholds_reproduce_requantize_on_every_accumulator() {
    let net = zoo::lenet5();
    let shape = net.input_shape().to_vec();
    let volume: usize = shape.iter().product();
    let inputs: Vec<Tensor<f32>> = (0..3)
        .map(|i| {
            let values = (0..volume).map(|j| ((j * 13 + i * 29) % 97) as f32 / 96.0);
            Tensor::from_vec(shape.clone(), values.collect()).unwrap()
        })
        .collect();
    let params = Parameters::he_init(&net, 2022).unwrap();
    let stats = CalibrationStats::collect(&net, &params, inputs.iter()).unwrap();
    let mut checked = 0;
    for time_steps in [4, MAX_THRESHOLD_STEPS, MAX_THRESHOLD_STEPS + 1] {
        let config = ConversionConfig {
            weight_bits: 3,
            time_steps,
        };
        let model = convert(&net, &params, &stats, config).unwrap();
        for (index, layer) in model.layers().iter().enumerate() {
            let (SnnLayer::Conv { requant, .. } | SnnLayer::Linear { requant, .. }) = layer else {
                assert!(model.thresholds(index).is_none());
                continue;
            };
            let Some(r) = *requant else {
                assert!(model.thresholds(index).is_none(), "the classifier");
                continue;
            };
            if time_steps > MAX_THRESHOLD_STEPS {
                assert!(model.thresholds(index).is_none(), "longer trains hold none");
                continue;
            }
            let thresholds = model.thresholds(index).unwrap();
            assert_eq!(thresholds, requant_thresholds(r, model.max_level()));
            assert_thresholds_at_every_edge(thresholds, r, model.max_level());
            assert_exhaustive(thresholds, r, model.max_level(), -(1 << 20)..=1 << 20);
            checked += 1;
        }
    }
    assert_eq!(checked, 10, "five requantising layers at T = 4 and T = 8");
}

#[test]
fn random_scales_have_exact_thresholds_at_every_level() {
    let mut state = 0x853c_49e6_748f_ea9bu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for case in 0..10_000 {
        let r = match case % 3 {
            // Log-uniform over 2^-24 .. 2^8: layer scales and far beyond.
            0 | 1 => (2f64.powf((next() % 32_000) as f64 / 1000.0 - 24.0)) as f32,
            // Any finite positive bit pattern.
            _ => f32::from_bits((next() as u32) % 0x7f80_0000),
        };
        let max_level = match case % 5 {
            0 => 1,
            1 => 15,
            2 => 255,
            _ => 1 + (next() % 255) as i64,
        };
        let thresholds = requant_thresholds(r, max_level);
        assert_thresholds_at_every_edge(&thresholds, r, max_level);
    }
}

#[test]
fn edge_scales_have_exact_thresholds() {
    let scales = [
        0.0f32,
        -0.0,
        -0.25,
        f32::from_bits(1),
        f32::MIN_POSITIVE / 3.0,
        f32::MIN_POSITIVE,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
        1.0 / 1024.0,
        0.5,
    ];
    for &r in &scales {
        for max_level in [1i64, 15, 255, 4095] {
            let thresholds = requant_thresholds(r, max_level);
            assert_thresholds_at_every_edge(&thresholds, r, max_level);
            assert_exhaustive(&thresholds, r, max_level, -(1 << 12)..=1 << 12);
            assert_exhaustive(&thresholds, r, max_level, i64::MAX - 4096..=i64::MAX);
        }
    }
    // Scales that reach nothing hold no threshold; an infinite one reaches
    // every level at the first positive accumulator.
    assert!(requant_thresholds(f32::NAN, 15).is_empty());
    assert!(requant_thresholds(-0.0, 15).is_empty());
    assert_eq!(requant_thresholds(f32::INFINITY, 3), [1, 1, 1]);
}

//! Fixtures: the trained parameters and calibration statistics a user
//! already holds when set-up starts, the seed-generated input set, and the
//! functional oracle every output is checked against.
//!
//! The **model** is fixed (one constant seed per network) and `--seed`
//! makes the **inputs**, in a way that keeps the amount of work nearly the
//! same for every seed — the driver judges repeatability over runs with
//! different seeds, so a seed may not move a metric by more than a fraction
//! of its bound.  Measured: weights trained from different seeds differ by
//! 25 % in adder operations per inference; digits redrawn per seed (stroke
//! width and position are random) by 8 %; the same glyphs under seed-drawn
//! pixel noise, and objects of the same classes, by under 1 %.

use crate::stats::SplitMix64;
use snn_accel::config::AcceleratorConfig;
use snn_accel::timing;
use snn_bench::workloads::{trained_lenet5, Effort};
use snn_data::digits::SyntheticDigits;
use snn_data::objects::SyntheticObjects;
use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::params::Parameters;
use snn_model::snn::SnnModel;
use snn_model::{zoo, NetworkSpec};
use snn_tensor::Tensor;
use std::time::Instant;

/// Seed of the fixed model weights (both networks).
pub const MODEL_SEED: u64 = 2022;

/// Spike-train length and weight precision of every workload (the paper's
/// Table III operating point).
pub const TIME_STEPS: usize = 4;
pub const WEIGHT_BITS: u8 = 3;

/// Which network a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// LeNet-5 on 32×32 synthetic digits, `AcceleratorConfig::lenet_table3`.
    Lenet,
    /// VGG-11 on 32×32×3 synthetic objects, `AcceleratorConfig::vgg11_tiled`.
    Vgg,
}

/// Everything that exists before set-up starts.
pub struct Fixture {
    pub kind: ModelKind,
    pub net: NetworkSpec,
    pub params: Parameters,
    pub calibration: CalibrationStats,
    pub config: AcceleratorConfig,
    /// The input set.  LeNet: 16 digits, the first 8 at 5 % pixel noise and
    /// the last 8 at 40 % (two plane-density classes).  VGG: 2 objects.
    pub inputs: Vec<Tensor<f32>>,
    /// What each input must produce.
    pub oracle: Oracle,
    /// Wall time spent building this fixture, oracle included — the
    /// benchmark's cost, not the user's (reported as `model.fixture_s`).
    pub fixture_s: f64,
}

/// Inputs per noise class of the LeNet input set.
pub const LENET_CLASS_SIZE: usize = 8;

impl Fixture {
    pub fn build(kind: ModelKind, seed: u64) -> Fixture {
        let started = Instant::now();
        let mut sub = SplitMix64(seed);
        let (net, params, calibration, config, inputs) = match kind {
            ModelKind::Lenet => {
                let trained = trained_lenet5(Effort::Quick, MODEL_SEED);
                // Fixed glyphs (digits 0..8, noise-free), seed-drawn noise.
                let glyphs = SyntheticDigits::new(32)
                    .with_noise_percent(0)
                    .generate(LENET_CLASS_SIZE, MODEL_SEED);
                let inputs = [5u8, 40]
                    .into_iter()
                    .flat_map(|percent| {
                        glyphs
                            .iter()
                            .map(|(glyph, _)| with_pixel_noise(glyph, percent, &mut sub))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                (
                    trained.net,
                    trained.params,
                    trained.calibration,
                    AcceleratorConfig::lenet_table3(),
                    inputs,
                )
            }
            ModelKind::Vgg => {
                let net = zoo::vgg11_cifar10();
                let params = Parameters::he_init(&net, MODEL_SEED).expect("VGG-11 parameters");
                let objects = SyntheticObjects::new(32, 10);
                let calibration_set = objects.generate(2, MODEL_SEED);
                let calibration = CalibrationStats::collect(
                    &net,
                    &params,
                    calibration_set.iter().map(|(image, _)| image),
                )
                .expect("VGG-11 calibration");
                let inputs = objects
                    .generate(2, sub.next_u64())
                    .iter()
                    .map(|(image, _)| image.clone())
                    .collect();
                (
                    net,
                    params,
                    calibration,
                    AcceleratorConfig::vgg11_tiled(),
                    inputs,
                )
            }
        };
        let mut fixture = Fixture {
            kind,
            net,
            params,
            calibration,
            config,
            inputs,
            oracle: Oracle {
                outputs: Vec::new(),
                cycles: 0,
            },
            fixture_s: 0.0,
        };
        // The oracle needs a converted model; this one is dropped again, so
        // every timed set-up starts from parameters and calibration only.
        fixture.oracle = Oracle::compute(&fixture, &fixture.convert());
        fixture.fixture_s = started.elapsed().as_secs_f64();
        fixture
    }

    /// ANN → SNN conversion: the first step of every set-up.
    pub fn convert(&self) -> SnnModel {
        convert(
            &self.net,
            &self.params,
            &self.calibration,
            ConversionConfig {
                weight_bits: WEIGHT_BITS,
                time_steps: TIME_STEPS,
            },
        )
        .expect("ANN-to-SNN conversion of the fixture")
    }
}

/// Additive uniform pixel noise of `percent` % of full scale, clamped to
/// `[0, 1]` — what `SyntheticDigits::with_noise_percent` applies, drawn
/// from the benchmark's own generator.
fn with_pixel_noise(image: &Tensor<f32>, percent: u8, rng: &mut SplitMix64) -> Tensor<f32> {
    let amplitude = f32::from(percent) / 100.0;
    image.map(|&pixel| {
        // 24 random bits → uniform in [-1, 1].
        let unit = (rng.next_u64() >> 40) as f32 / (1u64 << 23) as f32 - 1.0;
        (pixel + unit * amplitude).clamp(0.0, 1.0)
    })
}

/// What the functional model says each input must produce.
pub struct Oracle {
    /// Per input: integer logits and predicted class from
    /// `SnnModel::forward`.
    pub outputs: Vec<(Vec<i64>, usize)>,
    /// Modelled cycles of one inference, from the analytical timing model
    /// (`timing::network_timing`); the schedule is static, so this is the
    /// same for every input.
    pub cycles: u64,
}

impl Oracle {
    fn compute(fixture: &Fixture, model: &SnnModel) -> Oracle {
        let outputs = fixture
            .inputs
            .iter()
            .map(|input| {
                let trace = model.forward(input).expect("oracle forward pass");
                (trace.logits().as_slice().to_vec(), trace.predicted_class())
            })
            .collect();
        let cycles = timing::network_timing(&fixture.config, model.spec(), model.time_steps())
            .expect("oracle timing model")
            .total_cycles();
        Oracle { outputs, cycles }
    }

    /// Bit-for-bit check of one result against the oracle for `input`.
    pub fn matches(&self, input: usize, logits: &[i64], prediction: usize, cycles: u64) -> bool {
        let (want_logits, want_prediction) = &self.outputs[input];
        logits == want_logits.as_slice() && prediction == *want_prediction && cycles == self.cycles
    }
}

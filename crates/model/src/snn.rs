//! The *functional* radix-encoded SNN.
//!
//! After ANN-to-SNN conversion ([`crate::convert`]), inference runs entirely
//! in the integer domain:
//!
//! * activations are stored as integer *levels* in `0..2^T - 1`, which is
//!   exactly the information carried by a radix-encoded spike train of
//!   length `T` (the level's binary expansion, most significant bit first);
//! * convolution / linear layers accumulate `weight_code × input_level`,
//!   which equals the sum over time steps of `weight_code × spike × 2^(T-1-t)`
//!   computed by the hardware's shift-and-accumulate output logic;
//! * after ReLU, the accumulator is *requantized* back to a `T`-bit level
//!   with a per-layer scale derived from activation calibration.
//!
//! The cycle-level accelerator simulator in `snn-accel` reproduces these
//! integer computations **bit-exactly**; the shared [`requantize`] function
//! guarantees both sides round identically.  It rounds half away from zero
//! by truncating and comparing the exact fraction, without a `round` call,
//! and an oracle test pins it to the `f64::round` expression on half-way
//! points, saturating products and non-finite scales.

use crate::layer::PoolKind;
use crate::packed::PackedWeights;
use crate::{LayerSpec, ModelError, NetworkSpec, Result};
use serde::{Deserialize, Serialize};
use snn_encoding::radix::RadixEncoder;
use snn_tensor::{ops, Tensor};

/// One layer of a converted SNN model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SnnLayer {
    /// Radix-domain convolution.
    Conv {
        /// Quantized kernel codes `[O, C, K, K]`.
        weight_codes: Tensor<i64>,
        /// Bias pre-scaled into accumulator units `[O]`.
        bias_acc: Tensor<i64>,
        /// Convolution stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
        /// Requantization scale applied to the post-ReLU accumulator, or
        /// `None` for a classifier output layer.
        requant: Option<f32>,
    },
    /// Pooling on integer levels.
    Pool {
        /// Pooling flavour.
        kind: PoolKind,
        /// Window (and stride) size.
        window: usize,
    },
    /// Feature-map flattening (2-D → 1-D buffer transfer in hardware).
    Flatten,
    /// Radix-domain fully-connected layer.
    Linear {
        /// Quantized weight codes `[O, N]`.
        weight_codes: Tensor<i64>,
        /// Bias pre-scaled into accumulator units `[O]`.
        bias_acc: Tensor<i64>,
        /// Requantization scale, or `None` for the classifier output layer.
        requant: Option<f32>,
    },
}

/// A converted, quantized, radix-encoded SNN ready for the accelerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnnModel {
    spec: NetworkSpec,
    layers: Vec<SnnLayer>,
    /// The channel-last copy of each conv/linear layer's `weight_codes`
    /// the accelerator engine reads (`None` for pool/flatten).  Always
    /// derived from `layers` in [`SnnModel::new`], never set on its own,
    /// so clones and comparisons see one consistent model (with the real
    /// serde, deserialisation has to go through `new` for the same reason).
    #[serde(skip)]
    packed: Vec<Option<PackedWeights>>,
    time_steps: usize,
    weight_bits: u8,
}

/// Integer activations recorded while running the functional SNN.
#[derive(Debug, Clone, PartialEq)]
pub struct SnnTrace {
    /// The radix levels of the encoded input.
    pub input_levels: Tensor<i64>,
    /// Output levels (or raw logits for the final layer) of every layer.
    pub activations: Vec<Tensor<i64>>,
}

impl SnnTrace {
    /// The raw integer logits of the classifier layer.
    pub fn logits(&self) -> &Tensor<i64> {
        self.activations.last().expect("trace is never empty")
    }

    /// Index of the largest logit.
    pub fn predicted_class(&self) -> usize {
        self.logits()
            .iter()
            .enumerate()
            .fold(
                (0usize, i64::MIN),
                |(bi, bv), (i, &v)| {
                    if v > bv {
                        (i, v)
                    } else {
                        (bi, bv)
                    }
                },
            )
            .0
    }
}

/// Requantizes a post-ReLU accumulator value back into a `T`-bit activation
/// level.
///
/// This function is the single source of truth for the rounding behaviour;
/// the accelerator simulator calls it too, which is what makes the
/// cycle-level model bit-exact against the functional model.
///
/// The result is `(acc as f64 * requant as f64).round() as i64` clamped to
/// `0..=max_level` (round half away from zero), computed as truncate and
/// compare: `x - trunc(x)` is exact in floating point and `as` saturates
/// exactly like `round() as` (NaN to 0, ±∞ to the `i64` bounds), so no
/// software `round` is called on a target without a rounding instruction.
///
/// # Panics
///
/// Panics if `acc > 0` and `max_level < 0` (the clamp's bounds cross).
#[inline]
pub fn requantize(acc: i64, requant: f32, max_level: i64) -> i64 {
    if acc <= 0 {
        return 0;
    }
    let scaled = acc as f64 * requant as f64;
    let whole = scaled as i64;
    // At or past the top level the half-way bit cannot matter, and
    // skipping the add keeps a saturated `i64::MAX` from overflowing.
    let rounded = if whole >= max_level {
        whole
    } else {
        whole + i64::from(scaled - whole as f64 >= 0.5)
    };
    rounded.clamp(0, max_level)
}

impl SnnModel {
    /// Assembles a converted model.  Normally called by
    /// [`crate::convert::convert`] rather than directly.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ParameterMismatch`] when the number of SNN
    /// layers does not match the network spec, or a weight code does not
    /// fit the engine's widest packed element, `i16` (see [`PackedWeights`]).
    pub fn new(
        spec: NetworkSpec,
        layers: Vec<SnnLayer>,
        time_steps: usize,
        weight_bits: u8,
    ) -> Result<Self> {
        if layers.len() != spec.layers().len() {
            return Err(ModelError::ParameterMismatch {
                context: format!(
                    "expected {} SNN layers, got {}",
                    spec.layers().len(),
                    layers.len()
                ),
            });
        }
        let packed = layers
            .iter()
            .map(|layer| match layer {
                SnnLayer::Conv { weight_codes, .. } => {
                    PackedWeights::from_conv(weight_codes).map(Some)
                }
                SnnLayer::Linear { weight_codes, .. } => {
                    PackedWeights::from_linear(weight_codes).map(Some)
                }
                SnnLayer::Pool { .. } | SnnLayer::Flatten => Ok(None),
            })
            .collect::<Result<_>>()?;
        Ok(SnnModel {
            spec,
            layers,
            packed,
            time_steps,
            weight_bits,
        })
    }

    /// The underlying network topology.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// The converted layers.
    pub fn layers(&self) -> &[SnnLayer] {
        &self.layers
    }

    /// The channel-last packed weights of layer `index` — what the
    /// accelerator engine executes from; `None` for a pooling or flatten
    /// layer (or an index past the last layer).
    pub fn packed(&self, index: usize) -> Option<&PackedWeights> {
        self.packed.get(index)?.as_ref()
    }

    /// Spike-train length `T`.
    pub fn time_steps(&self) -> usize {
        self.time_steps
    }

    /// Weight precision in bits (3 in the paper).
    pub fn weight_bits(&self) -> u8 {
        self.weight_bits
    }

    /// The largest activation level, `2^T - 1`.
    pub fn max_level(&self) -> i64 {
        (1i64 << self.time_steps) - 1
    }

    /// Encodes a `[0, 1]`-valued input feature map into radix levels.
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape does not match the network.
    pub fn encode_input(&self, input: &Tensor<f32>) -> Result<Tensor<i64>> {
        if input.shape().dims() != self.spec.input_shape() {
            return Err(ModelError::ShapeMismatch {
                layer: 0,
                context: format!(
                    "input shape {:?} does not match network input {:?}",
                    input.shape().dims(),
                    self.spec.input_shape()
                ),
            });
        }
        let encoder = RadixEncoder::new(self.time_steps)?;
        Ok(input.map(|&v| i64::from(encoder.level_of(v))))
    }

    /// Runs functional (integer-domain) SNN inference on a single input.
    ///
    /// # Errors
    ///
    /// Returns an error for mismatched input shapes or internal
    /// inconsistencies in the converted model.
    pub fn forward(&self, input: &Tensor<f32>) -> Result<SnnTrace> {
        let input_levels = self.encode_input(input)?;
        let activations = self.forward_levels(&input_levels)?;
        Ok(SnnTrace {
            input_levels,
            activations,
        })
    }

    /// Runs the integer-domain forward pass on pre-encoded input levels.
    ///
    /// # Errors
    ///
    /// Returns an error for internal inconsistencies in the converted model.
    pub fn forward_levels(&self, input_levels: &Tensor<i64>) -> Result<Vec<Tensor<i64>>> {
        let max_level = self.max_level();
        let mut current = input_levels.clone();
        let mut activations = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            current = match layer {
                SnnLayer::Conv {
                    weight_codes,
                    bias_acc,
                    stride,
                    padding,
                    requant,
                } => {
                    let acc =
                        ops::conv2d(&current, weight_codes, Some(bias_acc), *stride, *padding)?;
                    apply_requant(&acc, *requant, max_level)
                }
                SnnLayer::Pool { kind, window } => match kind {
                    PoolKind::Average => ops::avg_pool2d(&current, *window)?,
                    PoolKind::Max => ops::max_pool2d(&current, *window)?,
                },
                SnnLayer::Flatten => {
                    let volume = current.len();
                    current.reshape(vec![volume])?
                }
                SnnLayer::Linear {
                    weight_codes,
                    bias_acc,
                    requant,
                } => {
                    let acc = ops::linear(&current, weight_codes, Some(bias_acc))?;
                    apply_requant(&acc, *requant, max_level)
                }
            };
            activations.push(current.clone());
        }
        Ok(activations)
    }

    /// Predicts the class of a single input.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`SnnModel::forward`].
    pub fn predict(&self, input: &Tensor<f32>) -> Result<usize> {
        Ok(self.forward(input)?.predicted_class())
    }

    /// Classification accuracy over an iterator of labelled samples.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`SnnModel::forward`].
    pub fn evaluate<'a, I>(&self, samples: I) -> Result<f32>
    where
        I: IntoIterator<Item = (&'a Tensor<f32>, usize)>,
    {
        let mut correct = 0usize;
        let mut total = 0usize;
        for (input, label) in samples {
            if self.predict(input)? == label {
                correct += 1;
            }
            total += 1;
        }
        Ok(if total == 0 {
            0.0
        } else {
            correct as f32 / total as f32
        })
    }

    /// Total number of synaptic operations (multiply-free accumulations)
    /// per inference and per time step, used by the energy model.
    pub fn synaptic_ops_per_step(&self) -> u64 {
        let mut ops_count = 0u64;
        for (i, layer) in self.spec.layers().iter().enumerate() {
            let out_shape = self.spec.layer_output_shape(i);
            match layer {
                LayerSpec::Conv2d {
                    in_channels,
                    kernel,
                    ..
                } => {
                    let outputs: usize = out_shape.iter().product();
                    ops_count += (outputs * in_channels * kernel * kernel) as u64;
                }
                LayerSpec::Linear { in_features, .. } => {
                    let outputs: usize = out_shape.iter().product();
                    ops_count += (outputs * in_features) as u64;
                }
                _ => {}
            }
        }
        ops_count
    }
}

fn apply_requant(acc: &Tensor<i64>, requant: Option<f32>, max_level: i64) -> Tensor<i64> {
    match requant {
        Some(r) => acc.map(|&v| requantize(v, r, max_level)),
        None => acc.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::Codes;
    use crate::zoo;

    fn identity_linear_model(time_steps: usize) -> SnnModel {
        // One linear layer with an identity weight matrix of codes.
        let spec = NetworkSpec::new("identity", vec![3], vec![LayerSpec::linear(3, 3)]).unwrap();
        let weight_codes =
            Tensor::from_vec(vec![3, 3], vec![1i64, 0, 0, 0, 1, 0, 0, 0, 1]).unwrap();
        let bias_acc = Tensor::filled(vec![3], 0i64);
        SnnModel::new(
            spec,
            vec![SnnLayer::Linear {
                weight_codes,
                bias_acc,
                requant: None,
            }],
            time_steps,
            3,
        )
        .unwrap()
    }

    #[test]
    fn requantize_clamps_and_rounds() {
        assert_eq!(requantize(-5, 1.0, 7), 0);
        assert_eq!(requantize(0, 1.0, 7), 0);
        assert_eq!(requantize(3, 1.0, 7), 3);
        assert_eq!(requantize(100, 1.0, 7), 7);
        assert_eq!(requantize(10, 0.25, 7), 3); // 2.5 rounds to 3 (round half up)
        assert_eq!(requantize(9, 0.25, 7), 2);
    }

    /// The `f64::round` expression `requantize` computes without calling
    /// `round`: the oracle the truncate-and-compare form is pinned to.
    fn requantize_by_round(acc: i64, requant: f32, max_level: i64) -> i64 {
        if acc <= 0 {
            return 0;
        }
        ((acc as f64 * requant as f64).round() as i64).clamp(0, max_level)
    }

    /// Every level up to 4096, then at most 4096 more spread up to the top
    /// level (capped at 2^40), then the top two.
    fn levels_up_to(max_level: i64) -> impl Iterator<Item = i64> {
        let dense = max_level.min(4096);
        let far = max_level.min(1 << 40);
        let step = ((far - dense) / 4096).max(1) as usize;
        (0..=dense)
            .chain((dense..far).step_by(step))
            .chain([max_level - 1, max_level])
    }

    #[test]
    fn requantize_matches_the_round_expression() {
        let scales = [
            0.25f32,
            0.5,
            1.0,
            1.0 / 1024.0,
            0.0137,
            1.0 / 3.0,
            1.7,
            93.5,
            0.0,
            -0.0,
            -0.25,
            -3.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
            f32::MIN_POSITIVE / 3.0,
            f32::MAX,
        ];
        let max_levels = [1i64, 15, 255, (1 << 24) - 1, i64::MAX];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut random = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as i64
        };
        let mut half_way_hits = 0u64;
        for &max_level in &max_levels {
            for &r in &scales {
                let check = |acc: i64| {
                    assert_eq!(
                        requantize(acc, r, max_level),
                        requantize_by_round(acc, r, max_level),
                        "acc {acc}, requant {r:e}, max_level {max_level}"
                    );
                };
                for acc in [i64::MIN, -1 << 40, -7, -1, 0, 1, 2, i64::MAX - 1, i64::MAX] {
                    check(acc);
                }
                for _ in 0..2000 {
                    // Full-range values, and ones small enough to land
                    // below the top level.
                    let acc = random();
                    check(acc);
                    check(acc >> 40);
                }
                for k in levels_up_to(max_level) {
                    let half_way = ((k as f64 + 0.5) / r as f64).floor() as i64;
                    for d in -2..=2 {
                        let acc = half_way.saturating_add(d);
                        check(acc);
                        let scaled = acc as f64 * r as f64;
                        half_way_hits += u64::from(acc > 0 && scaled.fract() == 0.5);
                    }
                }
            }
        }
        // The power-of-two scales put exact half-way products among the
        // points: a `>` in place of `>=` would round them down.
        assert!(
            half_way_hits > 1000,
            "{half_way_hits} exact half-way products"
        );
    }

    #[test]
    #[should_panic]
    fn requantize_panics_on_a_negative_max_level() {
        requantize(1, 1.0, -1);
    }

    #[test]
    fn encode_input_uses_radix_levels() {
        let model = identity_linear_model(3);
        let input = Tensor::from_vec(vec![3], vec![0.0f32, 0.5, 1.0]).unwrap();
        let levels = model.encode_input(&input).unwrap();
        // max level for T=3 is 7; 0.5 * 7 = 3.5 rounds to 4.
        assert_eq!(levels.as_slice(), &[0, 4, 7]);
    }

    #[test]
    fn identity_model_passes_levels_through() {
        let model = identity_linear_model(4);
        let input = Tensor::from_vec(vec![3], vec![0.2f32, 0.6, 1.0]).unwrap();
        let trace = model.forward(&input).unwrap();
        assert_eq!(trace.logits().as_slice(), trace.input_levels.as_slice());
        assert_eq!(trace.predicted_class(), 2);
    }

    #[test]
    fn layer_count_mismatch_rejected() {
        let spec = zoo::tiny_cnn();
        assert!(matches!(
            SnnModel::new(spec, vec![], 3, 3),
            Err(ModelError::ParameterMismatch { .. })
        ));
    }

    #[test]
    fn weights_are_packed_once_and_oversized_codes_rejected() {
        let model = identity_linear_model(3);
        let packed = model.packed(0).expect("linear layers are packed");
        assert_eq!((packed.c_in(), packed.c_out()), (3, 3));
        assert_eq!(packed.row(1, 0, 0), Codes::I8(&[0, 1, 0, 0]));
        assert!(model.packed(1).is_none());

        let spec = NetworkSpec::new("wide", vec![1], vec![LayerSpec::linear(1, 1)]).unwrap();
        let layer = SnnLayer::Linear {
            weight_codes: Tensor::filled(vec![1, 1], 1i64 << 15),
            bias_acc: Tensor::filled(vec![1], 0i64),
            requant: None,
        };
        assert!(matches!(
            SnnModel::new(spec, vec![layer], 3, 3),
            Err(ModelError::ParameterMismatch { .. })
        ));
    }

    #[test]
    fn wrong_input_shape_rejected() {
        let model = identity_linear_model(3);
        let input = Tensor::filled(vec![4], 0.5f32);
        assert!(model.forward(&input).is_err());
    }

    #[test]
    fn max_level_matches_time_steps() {
        assert_eq!(identity_linear_model(3).max_level(), 7);
        assert_eq!(identity_linear_model(6).max_level(), 63);
    }

    #[test]
    fn synaptic_ops_counts_conv_and_linear() {
        let spec = NetworkSpec::new(
            "ops",
            vec![1, 6, 6],
            vec![
                LayerSpec::conv(1, 2, 3),
                LayerSpec::Flatten,
                LayerSpec::linear(2 * 4 * 4, 5),
            ],
        )
        .unwrap();
        let conv_codes = Tensor::filled(vec![2, 1, 3, 3], 1i64);
        let lin_codes = Tensor::filled(vec![5, 32], 1i64);
        let model = SnnModel::new(
            spec,
            vec![
                SnnLayer::Conv {
                    weight_codes: conv_codes,
                    bias_acc: Tensor::filled(vec![2], 0i64),
                    stride: 1,
                    padding: 0,
                    requant: Some(1.0),
                },
                SnnLayer::Flatten,
                SnnLayer::Linear {
                    weight_codes: lin_codes,
                    bias_acc: Tensor::filled(vec![5], 0i64),
                    requant: None,
                },
            ],
            3,
            3,
        )
        .unwrap();
        // Conv: 2*4*4 outputs × 1 in-channel × 9 kernel values = 288.
        // Linear: 5 outputs × 32 inputs = 160.
        assert_eq!(model.synaptic_ops_per_step(), 288 + 160);
    }

    #[test]
    fn evaluate_counts_correct_predictions() {
        let model = identity_linear_model(3);
        let a = Tensor::from_vec(vec![3], vec![1.0f32, 0.0, 0.0]).unwrap();
        let b = Tensor::from_vec(vec![3], vec![0.0f32, 1.0, 0.0]).unwrap();
        let acc = model
            .evaluate(vec![(&a, 0usize), (&b, 1usize), (&b, 2usize)])
            .unwrap();
        assert!((acc - 2.0 / 3.0).abs() < 1e-6);
    }
}

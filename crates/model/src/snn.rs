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
//! Each conv/linear layer holds its weight codes once, packed channel-last
//! ([`PackedWeights`]): the copy the accelerator engine executes from.  The
//! gold model here reads it back a block of output channels at a time
//! ([`PackedWeights::output_channels`]) and runs the dense operators of
//! [`snn_tensor::ops`] on each block, so it shares the weights with the
//! engine but none of its arithmetic.
//!
//! The cycle-level accelerator simulator in `snn-accel` reproduces these
//! integer computations **bit-exactly**.  [`requantize`] is the one
//! definition of the rounding: it rounds half away from zero by truncating
//! and comparing the exact fraction, without a `round` call, and an oracle
//! test pins it to the `f64::round` expression on half-way points,
//! saturating products and non-finite scales.  The simulator maps sums to
//! levels by integer compares instead, against each layer's thresholds
//! ([`requant_thresholds`], held by the model from when it is built),
//! which are derived from `requantize` and pinned to it exhaustively.

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
        /// Quantized `[O, C, K, K]` kernel codes, packed channel-last.
        weight_codes: PackedWeights,
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
        /// Quantized `[O, N]` weight codes, packed channel-last (a 1×1
        /// kernel over `N` input channels).
        weight_codes: PackedWeights,
        /// Bias pre-scaled into accumulator units `[O]`.
        bias_acc: Tensor<i64>,
        /// Requantization scale, or `None` for the classifier output layer.
        requant: Option<f32>,
    },
}

impl SnnLayer {
    /// The packed weights of a conv/linear layer — what the accelerator
    /// engine executes from; `None` for a pooling or flatten layer.
    pub fn weights(&self) -> Option<&PackedWeights> {
        match self {
            SnnLayer::Conv { weight_codes, .. } | SnnLayer::Linear { weight_codes, .. } => {
                Some(weight_codes)
            }
            SnnLayer::Pool { .. } | SnnLayer::Flatten => None,
        }
    }
}

/// A converted, quantized, radix-encoded SNN ready for the accelerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnnModel {
    spec: NetworkSpec,
    layers: Vec<SnnLayer>,
    /// Per layer, the thresholds derived from its requantisation scale.
    thresholds: Vec<Option<Vec<i64>>>,
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
/// This function is the single source of truth for the rounding behaviour:
/// the accelerator simulator's thresholds ([`requant_thresholds`]) are
/// derived from it, which is what makes the cycle-level model bit-exact
/// against the functional model.
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

/// The longest spike train whose levels the executor maps by threshold:
/// every level of an 8-step train fits a byte, and a layer holds at most
/// 255 thresholds.
pub const MAX_THRESHOLD_STEPS: usize = 8;

/// The requantisation thresholds of one scale: `θ_k`, the least
/// accumulator with `requantize(acc, requant, max_level) >= k`, for every
/// level `k >= 1` some accumulator reaches, ascending.  `requantize` is
/// non-decreasing in `acc` (the conversion to `f64`, the product with a
/// non-negative scale, the rounding and the clamp each are; a negative or
/// NaN scale gives 0 everywhere), so for every accumulator
/// `requantize(acc, requant, max_level) == #{k : acc >= θ_k}` — the level
/// by integer compares alone, one per radix bit in a balanced search.
///
/// Each threshold is seeded with the closed form `⌈(k − ½) / requant⌉` and
/// fixed up against `requantize` in a few steps; only where that does not
/// settle it — non-finite scales, or products beyond `f64`'s integer
/// precision — is it bisected.  One entry per reachable level, so
/// `max_level` is meant to be a level of a short train (at most
/// `2^`[`MAX_THRESHOLD_STEPS`]` − 1` in the model).
pub fn requant_thresholds(requant: f32, max_level: i64) -> Vec<i64> {
    let top = requantize(i64::MAX, requant, max_level);
    let mut thresholds = Vec::with_capacity(top.max(0) as usize);
    let closed_form = requant.is_finite() && requant > 0.0;
    let mut floor = 1i64;
    for k in 1..=top {
        let reaches = |acc: i64| requantize(acc, requant, max_level) >= k;
        let seed = if closed_form {
            let seed = ((k as f64 - 0.5) / f64::from(requant)).ceil();
            // `as` saturates at `i64::MAX`.
            (seed as i64).max(floor)
        } else {
            floor
        };
        let theta = least_reaching(reaches, seed, floor);
        thresholds.push(theta);
        floor = theta;
    }
    thresholds
}

/// The least `acc >= floor` with `reaches(acc)`, for a non-decreasing
/// predicate that holds at `i64::MAX`: a walk of a few steps from `seed`
/// (down while the one below still reaches, up until it reaches), then a
/// bisection of what is left.
fn least_reaching(reaches: impl Fn(i64) -> bool, seed: i64, floor: i64) -> i64 {
    const WALK: usize = 4;
    let (mut lo, mut hi) = (floor, i64::MAX);
    let mut at = seed;
    for _ in 0..WALK {
        if reaches(at) {
            hi = at;
            if at == lo || !reaches(at - 1) {
                return at;
            }
            at -= 1;
        } else {
            lo = at + 1;
            at = lo;
        }
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if reaches(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

impl SnnModel {
    /// Assembles a converted model.  Normally called by
    /// [`crate::convert::convert`] rather than directly.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ParameterMismatch`] when the number of SNN
    /// layers does not match the network spec.
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
        let thresholds = layers
            .iter()
            .map(|layer| match layer {
                SnnLayer::Conv {
                    requant: Some(r), ..
                }
                | SnnLayer::Linear {
                    requant: Some(r), ..
                } if time_steps <= MAX_THRESHOLD_STEPS => {
                    Some(requant_thresholds(*r, (1i64 << time_steps) - 1))
                }
                _ => None,
            })
            .collect();
        Ok(SnnModel {
            spec,
            layers,
            thresholds,
            time_steps,
            weight_bits,
        })
    }

    /// The requantisation thresholds of layer `index`
    /// ([`requant_thresholds`] of its scale at [`SnnModel::max_level`]),
    /// derived once when the model is built: `None` for a layer without a
    /// requantisation step, and for every layer of a train longer than
    /// [`MAX_THRESHOLD_STEPS`].
    pub fn thresholds(&self, index: usize) -> Option<&[i64]> {
        self.thresholds.get(index)?.as_deref()
    }

    /// The underlying network topology.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// The converted layers.
    pub fn layers(&self) -> &[SnnLayer] {
        &self.layers
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
    /// Every conv/linear layer runs the dense [`ops::conv2d`] /
    /// [`ops::linear`] once per block of 64 output channels, on
    /// those channels' codes unpacked to `i64`: the working memory above
    /// the model is the activations and one block's kernels (2.25 MiB on
    /// VGG-11's 512 × 4608 convolutions).
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
                    let kernel = [
                        weight_codes.c_in(),
                        weight_codes.kernel_rows(),
                        weight_codes.kernel_cols(),
                    ];
                    let acc = per_output_block(weight_codes, bias_acc, &kernel, |k, b| {
                        ops::conv2d(&current, k, Some(b), *stride, *padding)
                    })?;
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
                    let row = [weight_codes.c_in()];
                    let acc = per_output_block(weight_codes, bias_acc, &row, |w, b| {
                        ops::linear(&current, w, Some(b))
                    })?;
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

/// How many output channels the gold model unpacks and runs at once.  64
/// `i8` lanes are one cache line, so a block reads each stored row's line
/// once; one channel at a time reads a line per code.  Reading back VGG-11's
/// 4096 × 4096 layer took 171–239 ms a channel at a time and 38 ms in
/// blocks of 64 (x86-64, one core).
const GOLD_BLOCK: usize = 64;

/// Runs `op` once per block of `GOLD_BLOCK` output channels of `weights`
/// — on those channels' codes as a `[B, kernel_dims..]` tensor and their
/// `[B]` biases — and stacks the `[B, ..]` results into `[O, ..]`.
fn per_output_block(
    weights: &PackedWeights,
    bias_acc: &Tensor<i64>,
    kernel_dims: &[usize],
    op: impl Fn(&Tensor<i64>, &Tensor<i64>) -> snn_tensor::Result<Tensor<i64>>,
) -> Result<Tensor<i64>> {
    let c_out = weights.c_out();
    if bias_acc.shape().dims() != [c_out] {
        return Err(ModelError::ParameterMismatch {
            context: format!(
                "bias shape {:?} does not match {c_out} output channels",
                bias_acc.shape().dims()
            ),
        });
    }
    let mut dims = vec![c_out];
    let mut data = Vec::new();
    for lo in (0..c_out).step_by(GOLD_BLOCK) {
        let hi = (lo + GOLD_BLOCK).min(c_out);
        let block_dims = [&[hi - lo], kernel_dims].concat();
        let kernel = Tensor::from_vec(block_dims, weights.output_channels(lo..hi))?;
        let bias = Tensor::from_vec(vec![hi - lo], bias_acc.as_slice()[lo..hi].to_vec())?;
        let out = op(&kernel, &bias)?;
        if lo == 0 {
            dims.extend_from_slice(&out.shape().dims()[1..]);
            data.reserve(out.len() / (hi - lo) * c_out);
        }
        data.extend_from_slice(out.as_slice());
    }
    Ok(Tensor::from_vec(dims, data)?)
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
        let weight_codes = PackedWeights::from_linear(
            &Tensor::from_vec(vec![3, 3], vec![1i64, 0, 0, 0, 1, 0, 0, 0, 1]).unwrap(),
        )
        .unwrap();
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
        let packed = model.layers()[0]
            .weights()
            .expect("linear layers are packed");
        assert_eq!((packed.c_in(), packed.c_out()), (3, 3));
        assert_eq!(packed.row(1, 0, 0), Codes::I8(&[0, 1, 0, 0]));
        assert!(SnnLayer::Flatten.weights().is_none());
        // A code past the widest packed element never becomes a layer.
        assert!(matches!(
            PackedWeights::from_linear(&Tensor::filled(vec![1, 1], 1i64 << 15)),
            Err(ModelError::ParameterMismatch { .. })
        ));
    }

    #[test]
    fn a_wrong_length_bias_is_a_typed_error() {
        for len in [2, 4] {
            let spec = NetworkSpec::new("bias", vec![3], vec![LayerSpec::linear(3, 3)]).unwrap();
            let layer = SnnLayer::Linear {
                weight_codes: PackedWeights::from_linear(&Tensor::filled(vec![3, 3], 1i64))
                    .unwrap(),
                bias_acc: Tensor::filled(vec![len], 0i64),
                requant: None,
            };
            let model = SnnModel::new(spec, vec![layer], 3, 3).unwrap();
            let input = Tensor::filled(vec![3], 0.5f32);
            assert!(matches!(
                model.forward(&input),
                Err(ModelError::ParameterMismatch { .. })
            ));
        }
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
        let conv_codes = PackedWeights::from_conv(&Tensor::filled(vec![2, 1, 3, 3], 1i64)).unwrap();
        let lin_codes = PackedWeights::from_linear(&Tensor::filled(vec![5, 32], 1i64)).unwrap();
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

//! ANN-to-SNN conversion with radix encoding.
//!
//! The paper obtains its SNN models by training an equivalent ANN and
//! transferring the parameters (Section IV-A, reference \[14\]).  Conversion
//! involves three steps, all implemented here:
//!
//! 1. **Weight quantization** — the floating-point weights are quantized to
//!    3-bit symmetric codes ([`QuantizedTensor`]) and packed channel-last
//!    ([`PackedWeights`]), one layer at a time: at most one layer's `i32`
//!    codes are alive at once, and the packed copy is the only one kept.
//! 2. **Activation calibration** — the ANN is run over a calibration set to
//!    record the maximum post-ReLU activation of every layer
//!    ([`CalibrationStats`]).  These maxima define the dynamic range each
//!    layer's `T`-bit radix code has to cover.
//! 3. **Requantization-scale derivation** — for every weighted layer a
//!    scale is computed that maps the integer accumulator back onto the
//!    next layer's `T`-bit level grid, and biases are pre-scaled into
//!    accumulator units.  The result is an [`SnnModel`].

use crate::packed::PackedWeights;
use crate::params::Parameters;
use crate::snn::{SnnLayer, SnnModel};
use crate::{forward, LayerSpec, ModelError, NetworkSpec, Result};
use serde::{Deserialize, Serialize};
use snn_tensor::quant::QuantizedTensor;
use snn_tensor::Tensor;

/// Maximum post-ReLU activation observed per layer during calibration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationStats {
    layer_max: Vec<f32>,
}

impl CalibrationStats {
    /// Runs the ANN over the calibration samples and records per-layer
    /// activation maxima.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    pub fn collect<'a, I>(net: &NetworkSpec, params: &Parameters, samples: I) -> Result<Self>
    where
        I: IntoIterator<Item = &'a Tensor<f32>>,
    {
        let mut layer_max = vec![0.0f32; net.layers().len()];
        let mut any = false;
        for input in samples {
            any = true;
            let trace = forward::ann_forward(net, params, input)?;
            for (max, act) in layer_max.iter_mut().zip(trace.activations.iter()) {
                let m = act.iter().fold(0.0f32, |acc, &v| acc.max(v));
                if m > *max {
                    *max = m;
                }
            }
        }
        if !any {
            return Err(ModelError::InvalidNetwork {
                context: "calibration requires at least one sample".to_string(),
            });
        }
        Ok(CalibrationStats { layer_max })
    }

    /// Builds calibration statistics from externally supplied per-layer
    /// maxima (useful for tests or when activations are known analytically).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ParameterMismatch`] if the length differs from
    /// the network depth.
    pub fn from_layer_maxima(net: &NetworkSpec, layer_max: Vec<f32>) -> Result<Self> {
        if layer_max.len() != net.layers().len() {
            return Err(ModelError::ParameterMismatch {
                context: format!(
                    "expected {} layer maxima, got {}",
                    net.layers().len(),
                    layer_max.len()
                ),
            });
        }
        Ok(CalibrationStats { layer_max })
    }

    /// The recorded per-layer maxima.
    pub fn layer_max(&self) -> &[f32] {
        &self.layer_max
    }
}

/// Options controlling the ANN-to-SNN conversion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConversionConfig {
    /// Weight precision in bits (3 in the paper).
    pub weight_bits: u8,
    /// Spike-train length `T`.
    pub time_steps: usize,
}

impl Default for ConversionConfig {
    fn default() -> Self {
        ConversionConfig {
            weight_bits: 3,
            time_steps: 4,
        }
    }
}

/// Converts a trained ANN into a radix-encoded SNN.
///
/// `calibration` should be produced from a representative subset of the
/// training data ([`CalibrationStats::collect`]).
///
/// # Errors
///
/// Returns an error when the parameters do not match the network or
/// quantization fails.
pub fn convert(
    net: &NetworkSpec,
    params: &Parameters,
    calibration: &CalibrationStats,
    config: ConversionConfig,
) -> Result<SnnModel> {
    if calibration.layer_max.len() != net.layers().len() {
        return Err(ModelError::ParameterMismatch {
            context: "calibration statistics do not match the network depth".to_string(),
        });
    }
    let max_level = ((1i64 << config.time_steps) - 1) as f32;
    let last_layer = net.layers().len() - 1;

    let mut snn_layers = Vec::with_capacity(net.layers().len());
    // Dynamic range of the *input* to the current layer; network inputs are
    // normalised to [0, 1].
    let mut in_act_max = 1.0f32;

    for (i, layer) in net.layers().iter().enumerate() {
        let pack: fn(&Tensor<i32>) -> Result<PackedWeights> = match *layer {
            LayerSpec::Conv2d { .. } => PackedWeights::from_conv,
            LayerSpec::Linear { .. } => PackedWeights::from_linear,
            LayerSpec::Pool { kind, window } => {
                // Average/max pooling keeps the activation range; the
                // integer average truncates, which only shrinks it.
                snn_layers.push(SnnLayer::Pool { kind, window });
                continue;
            }
            LayerSpec::Flatten => {
                snn_layers.push(SnnLayer::Flatten);
                continue;
            }
        };
        let lp = params
            .layer(i)
            .ok_or_else(|| ModelError::ParameterMismatch {
                context: format!("layer {i} is missing parameters"),
            })?;
        // This layer's `i32` codes live only until it is packed.
        let quantized = QuantizedTensor::quantize(&lp.weight, config.weight_bits)?;
        let weight_codes = pack(quantized.codes())?;
        let w_scale = quantized.scale();
        let out_act_max = effective_max(calibration.layer_max[i]);
        let is_output = i == last_layer;
        let requant = if is_output {
            None
        } else {
            Some(w_scale * in_act_max / out_act_max)
        };
        let bias_acc = scale_bias(&lp.bias, w_scale, in_act_max, max_level);
        snn_layers.push(match *layer {
            LayerSpec::Conv2d {
                stride, padding, ..
            } => SnnLayer::Conv {
                weight_codes,
                bias_acc,
                stride,
                padding,
                requant,
            },
            _ => SnnLayer::Linear {
                weight_codes,
                bias_acc,
                requant,
            },
        });
        if !is_output {
            in_act_max = out_act_max;
        }
    }

    SnnModel::new(
        net.clone(),
        snn_layers,
        config.time_steps,
        config.weight_bits,
    )
}

/// Avoids divide-by-zero for layers whose calibration maximum is zero
/// (completely dead layers).
fn effective_max(max: f32) -> f32 {
    if max <= f32::EPSILON {
        1.0
    } else {
        max
    }
}

/// Pre-scales floating-point biases into integer accumulator units:
/// `bias_acc = round(bias * max_level / (w_scale * in_act_max))`.
fn scale_bias(bias: &Tensor<f32>, w_scale: f32, in_act_max: f32, max_level: f32) -> Tensor<i64> {
    bias.map(|&b| {
        let denom = w_scale * in_act_max;
        if denom.abs() <= f32::EPSILON {
            0
        } else {
            ((b * max_level / denom) as f64).round() as i64
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Parameters;
    use crate::zoo;
    use snn_tensor::Tensor;

    fn calib_inputs(n: usize, shape: &[usize]) -> Vec<Tensor<f32>> {
        (0..n)
            .map(|i| Tensor::filled(shape.to_vec(), (i + 1) as f32 / n as f32))
            .collect()
    }

    #[test]
    fn calibration_records_per_layer_maxima() {
        let net = zoo::tiny_cnn();
        let params = Parameters::he_init(&net, 3).unwrap();
        let inputs = calib_inputs(4, &[1, 12, 12]);
        let stats = CalibrationStats::collect(&net, &params, inputs.iter()).unwrap();
        assert_eq!(stats.layer_max().len(), net.layers().len());
        // Post-ReLU maxima are non-negative.
        assert!(stats.layer_max().iter().all(|&m| m >= 0.0));
    }

    #[test]
    fn calibration_requires_samples() {
        let net = zoo::tiny_cnn();
        let params = Parameters::he_init(&net, 3).unwrap();
        assert!(CalibrationStats::collect(&net, &params, std::iter::empty()).is_err());
    }

    #[test]
    fn from_layer_maxima_checks_length() {
        let net = zoo::tiny_cnn();
        assert!(CalibrationStats::from_layer_maxima(&net, vec![1.0; 2]).is_err());
        assert!(CalibrationStats::from_layer_maxima(&net, vec![1.0; net.layers().len()]).is_ok());
    }

    #[test]
    fn convert_produces_layer_per_spec_layer() {
        let net = zoo::tiny_cnn();
        let params = Parameters::he_init(&net, 3).unwrap();
        let inputs = calib_inputs(4, &[1, 12, 12]);
        let stats = CalibrationStats::collect(&net, &params, inputs.iter()).unwrap();
        let model = convert(&net, &params, &stats, ConversionConfig::default()).unwrap();
        assert_eq!(model.layers().len(), net.layers().len());
        assert_eq!(model.time_steps(), 4);
        assert_eq!(model.weight_bits(), 3);
    }

    #[test]
    fn output_layer_has_no_requant() {
        let net = zoo::tiny_cnn();
        let params = Parameters::he_init(&net, 3).unwrap();
        let inputs = calib_inputs(2, &[1, 12, 12]);
        let stats = CalibrationStats::collect(&net, &params, inputs.iter()).unwrap();
        let model = convert(&net, &params, &stats, ConversionConfig::default()).unwrap();
        match model.layers().last().unwrap() {
            SnnLayer::Linear { requant, .. } => assert!(requant.is_none()),
            other => panic!("expected linear output layer, got {other:?}"),
        }
        // Hidden weighted layers do have a requant scale.
        match &model.layers()[0] {
            SnnLayer::Conv { requant, .. } => assert!(requant.is_some()),
            other => panic!("expected conv first layer, got {other:?}"),
        }
    }

    #[test]
    fn converted_snn_agrees_with_ann_on_predictions() {
        // With sufficient time steps and weight bits, the SNN should almost
        // always agree with the ANN it was converted from.
        let net = zoo::tiny_cnn();
        let params = Parameters::he_init(&net, 11).unwrap();
        let inputs = calib_inputs(6, &[1, 12, 12]);
        let stats = CalibrationStats::collect(&net, &params, inputs.iter()).unwrap();
        let config = ConversionConfig {
            weight_bits: 8,
            time_steps: 10,
        };
        let snn = convert(&net, &params, &stats, config).unwrap();
        let mut agreements = 0usize;
        for input in &inputs {
            let ann_pred = forward::predict(&net, &params, input).unwrap();
            let snn_pred = snn.predict(input).unwrap();
            if ann_pred == snn_pred {
                agreements += 1;
            }
        }
        assert!(
            agreements >= inputs.len() - 1,
            "only {agreements}/{} predictions agreed",
            inputs.len()
        );
    }

    #[test]
    fn quantization_error_grows_as_time_steps_shrink() {
        // Fewer time steps -> coarser activation grid -> the SNN diverges
        // further from the ANN logits.  We measure divergence via the
        // fraction of mismatched predictions over random-ish inputs.
        let net = zoo::tiny_cnn();
        let params = Parameters::he_init(&net, 2).unwrap();
        let inputs: Vec<Tensor<f32>> = (0..8)
            .map(|i| {
                let v: Vec<f32> = (0..144)
                    .map(|j| ((i * 37 + j * 13) % 100) as f32 / 100.0)
                    .collect();
                Tensor::from_vec(vec![1, 12, 12], v).unwrap()
            })
            .collect();
        let stats = CalibrationStats::collect(&net, &params, inputs.iter()).unwrap();
        let mismatch_rate = |steps: usize| -> f32 {
            let cfg = ConversionConfig {
                weight_bits: 3,
                time_steps: steps,
            };
            let snn = convert(&net, &params, &stats, cfg).unwrap();
            let mismatches = inputs
                .iter()
                .filter(|input| {
                    forward::predict(&net, &params, input).unwrap() != snn.predict(input).unwrap()
                })
                .count();
            mismatches as f32 / inputs.len() as f32
        };
        // Not strictly monotone sample-by-sample, but 10 steps should never
        // be worse than 1 step on the same inputs.
        assert!(mismatch_rate(10) <= mismatch_rate(1));
    }
}

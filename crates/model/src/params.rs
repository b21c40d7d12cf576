//! Floating-point network parameters.  ANN-to-SNN conversion quantizes
//! them layer by layer ([`crate::convert`]).

use crate::{LayerSpec, ModelError, NetworkSpec, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use snn_tensor::Tensor;

/// Weights and biases of a single weighted layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerParameters {
    /// Convolution kernels `[O, C, K, K]` or linear weights `[O, N]`.
    pub weight: Tensor<f32>,
    /// Per-output-channel biases `[O]`.
    pub bias: Tensor<f32>,
}

/// All floating-point parameters of a network, indexed by layer.
///
/// Non-weighted layers (pooling, flatten) hold `None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Parameters {
    layers: Vec<Option<LayerParameters>>,
}

impl Parameters {
    /// Creates parameters from a per-layer vector.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ParameterMismatch`] when the vector length does
    /// not match the network depth or a weighted layer is missing
    /// parameters (and vice versa), or a weight/bias shape is wrong.
    pub fn new(net: &NetworkSpec, layers: Vec<Option<LayerParameters>>) -> Result<Self> {
        if layers.len() != net.layers().len() {
            return Err(ModelError::ParameterMismatch {
                context: format!(
                    "expected {} layer entries, got {}",
                    net.layers().len(),
                    layers.len()
                ),
            });
        }
        for (i, (spec, params)) in net.layers().iter().zip(layers.iter()).enumerate() {
            match (spec.has_weights(), params) {
                (true, Some(p)) => {
                    let expected = Self::weight_shape(spec);
                    if p.weight.shape().dims() != expected.as_slice() {
                        return Err(ModelError::ParameterMismatch {
                            context: format!(
                                "layer {i}: weight shape {:?} does not match expected {:?}",
                                p.weight.shape().dims(),
                                expected
                            ),
                        });
                    }
                    let out = expected[0];
                    if p.bias.shape().dims() != [out] {
                        return Err(ModelError::ParameterMismatch {
                            context: format!(
                                "layer {i}: bias shape {:?} does not match [{out}]",
                                p.bias.shape().dims()
                            ),
                        });
                    }
                }
                (true, None) => {
                    return Err(ModelError::ParameterMismatch {
                        context: format!("layer {i} requires weights but none were provided"),
                    })
                }
                (false, Some(_)) => {
                    return Err(ModelError::ParameterMismatch {
                        context: format!("layer {i} does not take weights"),
                    })
                }
                (false, None) => {}
            }
        }
        Ok(Parameters { layers })
    }

    /// The expected weight-tensor shape of a weighted layer.
    fn weight_shape(spec: &LayerSpec) -> Vec<usize> {
        match *spec {
            LayerSpec::Conv2d {
                in_channels,
                out_channels,
                kernel,
                ..
            } => vec![out_channels, in_channels, kernel, kernel],
            LayerSpec::Linear {
                in_features,
                out_features,
            } => vec![out_features, in_features],
            _ => vec![],
        }
    }

    /// He/Kaiming-style random initialisation, deterministic in `seed`.
    ///
    /// # Errors
    ///
    /// Propagates tensor-construction errors (which cannot occur for valid
    /// network specs).
    pub fn he_init(net: &NetworkSpec, seed: u64) -> Result<Self> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(net.layers().len());
        for spec in net.layers() {
            if !spec.has_weights() {
                layers.push(None);
                continue;
            }
            let shape = Self::weight_shape(spec);
            let fan_in: usize = shape[1..].iter().product();
            let std = (2.0 / fan_in as f32).sqrt();
            let volume: usize = shape.iter().product();
            let data: Vec<f32> = (0..volume)
                .map(|_| {
                    // Box-Muller transform for a normal sample.
                    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                    let u2: f32 = rng.gen_range(0.0..1.0);
                    let n = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
                    n * std
                })
                .collect();
            let weight = Tensor::from_vec(shape.clone(), data)?;
            let bias = Tensor::filled(vec![shape[0]], 0.0f32);
            layers.push(Some(LayerParameters { weight, bias }));
        }
        Parameters::new(net, layers)
    }

    /// Per-layer parameter storage (indexed like the network layers).
    pub fn layer_weights(&self) -> &[Option<LayerParameters>] {
        &self.layers
    }

    /// Mutable access to the per-layer parameters (used by the trainer).
    pub fn layer_weights_mut(&mut self) -> &mut [Option<LayerParameters>] {
        &mut self.layers
    }

    /// Parameters of layer `index`, if that layer has any.
    pub fn layer(&self, index: usize) -> Option<&LayerParameters> {
        self.layers.get(index).and_then(|p| p.as_ref())
    }

    /// Total number of scalar parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .flatten()
            .map(|p| p.weight.len() + p.bias.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use snn_tensor::quant::QuantizedTensor;

    #[test]
    fn he_init_produces_matching_shapes() {
        let net = zoo::tiny_cnn();
        let params = Parameters::he_init(&net, 7).unwrap();
        assert_eq!(params.parameter_count(), net.parameter_count());
        let conv = params.layer(0).unwrap();
        assert_eq!(conv.weight.shape().dims(), &[4, 1, 3, 3]);
        assert_eq!(conv.bias.shape().dims(), &[4]);
        assert!(params.layer(1).is_none()); // pooling layer
    }

    #[test]
    fn he_init_is_deterministic() {
        let net = zoo::tiny_cnn();
        let a = Parameters::he_init(&net, 3).unwrap();
        let b = Parameters::he_init(&net, 3).unwrap();
        assert_eq!(a, b);
        let c = Parameters::he_init(&net, 4).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn he_init_scale_tracks_fan_in() {
        let net = zoo::lenet5();
        let params = Parameters::he_init(&net, 1).unwrap();
        // First conv has fan-in 25; weights should be small but non-zero.
        let w = &params.layer(0).unwrap().weight;
        let std: f32 = (w.iter().map(|v| v * v).sum::<f32>() / w.len() as f32).sqrt();
        let expected = (2.0f32 / 25.0).sqrt();
        assert!(
            (std - expected).abs() < expected * 0.5,
            "std {std} too far from {expected}"
        );
    }

    #[test]
    fn new_rejects_wrong_layer_count() {
        let net = zoo::tiny_cnn();
        assert!(matches!(
            Parameters::new(&net, vec![]),
            Err(ModelError::ParameterMismatch { .. })
        ));
    }

    #[test]
    fn new_rejects_missing_weights() {
        let net = zoo::tiny_cnn();
        let layers = vec![None; net.layers().len()];
        assert!(matches!(
            Parameters::new(&net, layers),
            Err(ModelError::ParameterMismatch { .. })
        ));
    }

    #[test]
    fn quantization_respects_bit_width() {
        let net = zoo::tiny_cnn();
        let params = Parameters::he_init(&net, 5).unwrap();
        for layer in params.layer_weights().iter().flatten() {
            let q = QuantizedTensor::quantize(&layer.weight, 3).unwrap();
            assert_eq!(q.bits(), 3);
            assert!(q.codes().iter().all(|&c| c.abs() <= 3));
        }
    }

    #[test]
    fn dequantize_roundtrip_has_bounded_error() {
        let net = zoo::tiny_cnn();
        let params = Parameters::he_init(&net, 5).unwrap();
        for layer in params.layer_weights().iter().flatten() {
            let back = QuantizedTensor::quantize(&layer.weight, 8)
                .unwrap()
                .dequantize();
            for (a, b) in layer.weight.iter().zip(back.iter()) {
                assert!((a - b).abs() < 0.05, "|{a} - {b}| too large");
            }
        }
    }
}

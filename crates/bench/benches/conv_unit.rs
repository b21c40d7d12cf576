//! Criterion micro-benchmarks for the processing-unit simulators.
//!
//! These benches measure the *simulator's* throughput (host-side), which is
//! what matters when sweeping design points: the spike-major convolution
//! engine (run the way the executor runs it, from weights packed once)
//! versus the retained counter-stepped scalar reference and the functional
//! integer reference, LeNet-5's first convolution and a VGG-11 512-channel
//! one on the engine alone, plus the pooling and linear units on LeNet-5-
//! and VGG-11-shaped layers.
//!
//! Besides the usual console output, the harness writes a machine-readable
//! `BENCH_conv.json` summary to the workspace root with the
//! engine-vs-seed-reference host speedup on the LeNet conv2 workload, the
//! product-sparsity op and host ratios, the multiply-accumulate's blocks of
//! four spikes against the same spikes one at a time, the level epilogue
//! (requantization, both pooling kinds and the threshold drain) against
//! the code it replaced,
//! and the row-band tiling overhead on a VGG-11-shaped layer (the cost of
//! running a layer under the 8 KiB tiled activation-buffer budget instead
//! of untiled) — same-session ratios, which `bench_trend` gates against the
//! committed copy.

use criterion::{criterion_group, BenchmarkId, Criterion};
use snn_accel::config::{AcceleratorConfig, ArrayGeometry};
use snn_accel::conv::ConvolutionUnit;
use snn_accel::linear::LinearUnit;
use snn_accel::memory::RowBand;
use snn_accel::pool::PoolingUnit;
use snn_accel::reference::ReferenceConvolutionUnit;
use snn_accel::units::EngineScratch;
use snn_model::layer::PoolKind;
use snn_model::packed::{Codes, PackedWeights};
use snn_model::snn::{requant_thresholds, requantize};
use snn_tensor::simd::{self, scalar};
use snn_tensor::{bitplane, ops, Tensor};
use std::hint::black_box;

fn lenet_conv2_inputs() -> (Tensor<i64>, Tensor<i64>, Tensor<i64>) {
    // LeNet-5 second convolution: 6 -> 16 channels, 5x5 kernel, 14x14 input.
    let input = Tensor::from_vec(
        vec![6, 14, 14],
        (0..6 * 14 * 14).map(|v| (v % 8) as i64).collect(),
    )
    .expect("input tensor");
    let kernel = Tensor::from_vec(
        vec![16, 6, 5, 5],
        (0..16 * 6 * 25).map(|v| ((v % 7) as i64) - 3).collect(),
    )
    .expect("kernel tensor");
    let bias = Tensor::filled(vec![16], 0i64);
    (input, kernel, bias)
}

const LENET_GEOMETRY: ArrayGeometry = ArrayGeometry {
    columns: 30,
    rows: 5,
};

fn bench_conv_unit(c: &mut Criterion) {
    let (input, kernel, bias) = lenet_conv2_inputs();
    let packed = PackedWeights::from_conv(&kernel).expect("packed kernels");
    let mut group = c.benchmark_group("conv_unit");
    for &time_steps in &[3usize, 6] {
        for (id, product_sparsity) in [("bitplane_sparse", false), ("bitplane_sparse_ps", true)] {
            group.bench_with_input(BenchmarkId::new(id, time_steps), &time_steps, |b, &t| {
                let unit = ConvolutionUnit::with_product_sparsity(LENET_GEOMETRY, product_sparsity);
                let mut scratch = EngineScratch::new();
                b.iter(|| {
                    unit.run_packed(
                        black_box(&input),
                        black_box(&packed),
                        black_box(&bias),
                        t,
                        1,
                        0,
                        &mut scratch,
                    )
                    .expect("conv unit run")
                });
            });
        }
        group.bench_with_input(
            BenchmarkId::new("scalar_reference", time_steps),
            &time_steps,
            |b, &t| {
                let unit = ReferenceConvolutionUnit::new(LENET_GEOMETRY);
                b.iter(|| {
                    unit.run_layer(
                        black_box(&input),
                        black_box(&kernel),
                        black_box(&bias),
                        t,
                        1,
                        0,
                    )
                    .expect("reference conv unit run")
                });
            },
        );
    }
    group.bench_function("functional_reference", |b| {
        b.iter(|| {
            ops::conv2d(black_box(&input), black_box(&kernel), Some(&bias), 1, 0)
                .expect("reference conv")
        });
    });

    // LeNet-5's first convolution (1 -> 6 channels, 5x5 kernel, 32x32
    // input, `T = 4`, about half the pixels spiking): the layer that
    // dominates a LeNet-5 inference on the host.  Informational: no ratio
    // key reads it.
    let input = Tensor::from_vec(
        vec![1, 32, 32],
        (0..32 * 32u64)
            .map(|v| v.wrapping_mul(2654435761) >> 8)
            .map(|x| if x % 2 == 0 { 0 } else { (x >> 1) as i64 % 16 })
            .collect(),
    )
    .expect("input tensor");
    let kernel = Tensor::from_vec(
        vec![6, 1, 5, 5],
        (0..6 * 25).map(|v| ((v % 7) as i64) - 3).collect(),
    )
    .expect("kernel tensor");
    let bias = Tensor::filled(vec![6], 0i64);
    let packed = PackedWeights::from_conv(&kernel).expect("packed kernels");
    let unit = ConvolutionUnit::new(LENET_GEOMETRY);
    let mut scratch = EngineScratch::new();
    group.bench_function("lenet_conv1_1x32x32_to_6ch_5x5", |b| {
        b.iter(|| {
            unit.run_packed(
                black_box(&input),
                black_box(&packed),
                black_box(&bias),
                4,
                1,
                0,
                &mut scratch,
            )
            .expect("conv unit run")
        });
    });

    // VGG-11's 512-channel convolutions at 4x4 (3x3 kernel, padding 1,
    // `T = 4`, about half the pixels spiking in each channel): the layers
    // whose pixels fill the engine's blocks of four same-pixel spikes.
    let (input, packed) = vgg_512ch_layer();
    let bias = Tensor::filled(vec![512], 0i64);
    let unit = ConvolutionUnit::new(ArrayGeometry {
        columns: 32,
        rows: 3,
    });
    group.bench_function("vgg_512ch_4x4_T4", |b| {
        b.iter(|| {
            unit.run_packed(
                black_box(&input),
                black_box(&packed),
                black_box(&bias),
                4,
                1,
                1,
                &mut scratch,
            )
            .expect("conv unit run")
        });
    });
    group.finish();
}

/// A `[512, 4, 4]` input with about half the pixels spiking at levels up
/// to 15, and the packed 3-bit codes of a `[512, 512, 3, 3]` kernel.
fn vgg_512ch_layer() -> (Tensor<i64>, PackedWeights) {
    let input = Tensor::from_vec(
        vec![512, 4, 4],
        (0..512 * 16u64)
            .map(|v| v.wrapping_mul(2654435761) >> 8)
            .map(|x| if x % 2 == 0 { 0 } else { (x >> 1) as i64 % 16 })
            .collect(),
    )
    .expect("input tensor");
    let kernel = Tensor::from_vec(
        vec![512, 512, 3, 3],
        (0..512 * 512 * 9)
            .map(|v| ((v * 5 + v / 7) % 8) as i64 - 4)
            .collect(),
    )
    .expect("kernel tensor");
    let packed = PackedWeights::from_conv(&kernel).expect("packed kernels");
    (input, packed)
}

/// The multiply-accumulate of the scatter loops with blocks of four spikes
/// (`block4`, one `axpy_taps` call per four spikes) against the same spikes
/// one at a time (`single`, four calls), on the same accumulators:
///
/// * `conv_vgg_512ch` — a pixel inside a 4x4 map spiking in every input
///   channel of one 16-bit group (60 at `T = 4`) of the VGG-shaped layer,
///   as the engine's pixel-major list visits them: 3 kernel-row runs of
///   `3 x 512` 8-bit weights into 16-bit rows, per channel;
/// * `linear_4096x4096_T4` — the spikes of the `linear_unit/4096x4096_T4`
///   input in order, each a 4096-lane 8-bit weight row of the 32 MiB matrix
///   into one 16-bit row.
fn bench_spike_blocks(c: &mut Criterion) {
    let mut group = c.benchmark_group("spike_block");
    let (_, packed) = vgg_512ch_layer();
    let Codes::I8(codes) = packed.codes() else {
        panic!("3-bit codes pack into bytes")
    };
    let (lanes, channel_len) = (512usize, 9 * 512);
    // Whole blocks of one group: 60 channels.
    let members = packed.i16_group(4) / 4 * 4;
    let channels: Vec<&[i8]> = codes.chunks(channel_len).take(members).collect();
    let levels: Vec<i16> = (0..members).map(|c| (c * 7 % 15 + 1) as i16).collect();
    // Output row `ky` of the 4x4 map, columns 0..3, through kernel row `ky`.
    let taps: Vec<simd::Tap> = (0..3)
        .map(|ky| simd::Tap {
            acc_at: ky * 4 * lanes,
            w_at: ky * 3 * lanes,
        })
        .collect();
    let mut acc = vec![0i16; 16 * lanes];
    group.bench_function("conv_vgg_512ch/single", |b| {
        b.iter(|| {
            for (channel, &level) in channels.iter().zip(&levels) {
                simd::axpy_taps(&mut acc, [*channel], &taps, 3 * lanes, [level]);
            }
            black_box(acc[0])
        });
    });
    group.bench_function("conv_vgg_512ch/block4", |b| {
        b.iter(|| {
            for (channel, level) in channels.chunks(4).zip(levels.chunks(4)) {
                let rows = [channel[0], channel[1], channel[2], channel[3]];
                let levels = [level[0], level[1], level[2], level[3]];
                simd::axpy_taps(&mut acc, rows, &taps, 3 * lanes, levels);
            }
            black_box(acc[0])
        });
    });
    drop(packed);

    let (input, packed) = linear_4096x4096();
    let Codes::I8(codes) = packed.codes() else {
        panic!("3-bit codes pack into bytes")
    };
    let n = 4096;
    let spikes: Vec<(&[i8], i16)> = input
        .iter()
        .enumerate()
        .filter(|&(_, &level)| level != 0)
        .map(|(i, &level)| (&codes[i * n..][..n], level as i16))
        .collect();
    let whole = [simd::Tap::default()];
    let mut acc = vec![0i16; n];
    group.bench_function("linear_4096x4096_T4/single", |b| {
        b.iter(|| {
            for &(row, level) in &spikes {
                simd::axpy_taps(&mut acc, [row], &whole, n, [level]);
            }
            black_box(acc[0])
        });
    });
    group.bench_function("linear_4096x4096_T4/block4", |b| {
        b.iter(|| {
            for block in spikes.chunks_exact(4) {
                let rows = [block[0].0, block[1].0, block[2].0, block[3].0];
                let levels = [block[0].1, block[1].1, block[2].1, block[3].1];
                simd::axpy_taps(&mut acc, rows, &whole, n, levels);
            }
            for &(row, level) in spikes.chunks_exact(4).remainder() {
                simd::axpy_taps(&mut acc, [row], &whole, n, [level]);
            }
            black_box(acc[0])
        });
    });
    group.finish();
}

/// VGG-11 conv2 (64 -> 128 channels, 16x16 maps, 3x3 kernel, padding 1):
/// the whole layer versus the 4-row bands the tiling planner produces for
/// it under the paper-scale 8 KiB activation-buffer budget.  The executor
/// runs the layer whole under any budget; the banded run measures the band
/// entry that replays the plan tile by tile (`run_layer_band`, as the
/// stand-alone benchmark package's traced pass and the plan-replay tests
/// call it), per-band input gather included.
fn bench_tiled_conv(c: &mut Criterion) {
    let (ci, h, w, co, k, t) = (64usize, 16usize, 16usize, 128usize, 3usize, 4usize);
    let input = Tensor::from_vec(
        vec![ci, h, w],
        (0..ci * h * w).map(|v| ((v * 5) % 16) as i64).collect(),
    )
    .expect("input tensor");
    let kernel = Tensor::from_vec(
        vec![co, ci, k, k],
        (0..co * ci * k * k).map(|v| ((v % 7) as i64) - 3).collect(),
    )
    .expect("kernel tensor");
    let bias = Tensor::filled(vec![co], 0i64);
    let packed = PackedWeights::from_conv(&kernel).expect("packed kernels");
    let unit = ConvolutionUnit::new(ArrayGeometry {
        columns: 32,
        rows: 3,
    });
    let mut group = c.benchmark_group("conv_unit_tiled");
    // One scratch across iterations, as the executor keeps one across the
    // layers of an inference; the band entry makes its own per band, as
    // when the benchmark package replays a plan.
    let mut scratch = EngineScratch::new();
    group.bench_function("vgg_conv2_untiled", |b| {
        b.iter(|| {
            unit.run_packed(
                black_box(&input),
                black_box(&packed),
                &bias,
                t,
                1,
                1,
                &mut scratch,
            )
            .expect("untiled run")
        });
    });
    group.bench_function("vgg_conv2_banded_4rows", |b| {
        b.iter(|| {
            let mut adder_ops = 0u64;
            for lo in (0..h).step_by(4) {
                let hi = (lo + 4).min(h);
                let band = RowBand {
                    out_lo: lo,
                    out_hi: hi,
                    in_lo: lo.saturating_sub(1),
                    in_hi: (hi + 1).min(h),
                };
                let mut data = Vec::with_capacity(ci * band.in_rows() * w);
                for ch in 0..ci {
                    data.extend_from_slice(
                        &input.as_slice()[ch * h * w + band.in_lo * w..ch * h * w + band.in_hi * w],
                    );
                }
                let band_input =
                    Tensor::from_vec(vec![ci, band.in_rows(), w], data).expect("band tensor");
                let result = unit
                    .run_layer_band(black_box(&band_input), &packed, &bias, t, 1, 1, &band)
                    .expect("banded run");
                adder_ops += result.stats.adder_ops;
            }
            adder_ops
        });
    });
    group.finish();
}

/// The word-level kernels the engine dispatches through
/// `snn_tensor::simd`, each measured on its dispatched path (AVX2 where
/// the host has it, unless `SNN_SIMD` lowers it) and on the
/// always-compiled scalar oracle — so `BENCH_conv.json` records the
/// simd-on vs simd-off ratio per kernel, not just the end-to-end layer
/// effect.
fn bench_simd_kernels(c: &mut Criterion) {
    const WORDS: usize = 1024; // one 65 536-pixel occupancy row
    let levels: Vec<i64> = (0..WORDS * 64)
        .map(|i| ((i as u64).wrapping_mul(2654435761) % 16) as i64)
        .collect();
    let row: Vec<i16> = (0..4096).map(|i| ((i * 37) % 256) as i16 - 128).collect();
    let bytes: Vec<i8> = row.iter().map(|&w| w as i8).collect();
    let mask = bitplane::level_mask(4);

    let mut group = c.benchmark_group("simd_kernels");
    group.bench_function(
        &format!("weight_axpy/{}", simd::active_level().name()),
        |b| {
            let mut out = vec![0i64; row.len()];
            b.iter(|| {
                simd::axpy(&mut out, black_box(&row), black_box(3));
                out[0]
            });
        },
    );
    group.bench_function("weight_axpy/scalar", |b| {
        let mut out = vec![0i64; row.len()];
        b.iter(|| {
            scalar::axpy(&mut out, black_box(&row), black_box(3));
            out[0]
        });
    });
    // The same row into 32-bit lanes: the kernel the engine runs wherever
    // the packed weights prove the sums fit (every benchmark layer).
    group.bench_function(
        &format!("weight_axpy_i32/{}", simd::active_level().name()),
        |b| {
            let mut out = vec![0i32; row.len()];
            b.iter(|| {
                simd::axpy(&mut out, black_box(&row), black_box(3));
                out[0]
            });
        },
    );
    group.bench_function("weight_axpy_i32/scalar", |b| {
        let mut out = vec![0i32; row.len()];
        b.iter(|| {
            scalar::axpy(&mut out, black_box(&row), black_box(3));
            out[0]
        });
    });
    // 8-bit weights into 16-bit lanes: the kernel of a group of partial
    // sums, which every benchmark layer runs (3-bit codes, `T = 4`).  The
    // accumulators wrap as the iterations pile up; the work is the same.
    group.bench_function(
        &format!("weight_axpy_w8_i16/{}", simd::active_level().name()),
        |b| {
            let mut out = vec![0i16; bytes.len()];
            b.iter(|| {
                simd::axpy(&mut out, black_box(&bytes), black_box(3));
                out[0]
            });
        },
    );
    group.bench_function("weight_axpy_w8_i16/scalar", |b| {
        let mut out = vec![0i16; bytes.len()];
        b.iter(|| {
            scalar::axpy(&mut out, black_box(&bytes), black_box(3));
            out[0]
        });
    });
    group.bench_function(
        &format!("pack_occupancy/{}", simd::active_level().name()),
        |b| {
            let mut out = vec![0u64; WORDS];
            b.iter(|| {
                out.fill(0);
                simd::pack_occupancy_row(black_box(&levels), black_box(mask), &mut out);
                out[0]
            });
        },
    );
    group.bench_function("pack_occupancy/scalar", |b| {
        let mut out = vec![0u64; WORDS];
        b.iter(|| {
            out.fill(0);
            scalar::pack_occupancy_row(black_box(&levels), black_box(mask), &mut out);
            out[0]
        });
    });
    group.finish();
}

/// The level epilogue of LeNet-5's first layers: the pooling unit's
/// streaming pass for both kinds, each beside the functional pooling plus
/// the full-width popcount it replaced (`pool_reference/*`).
fn bench_pool_unit(c: &mut Criterion) {
    let input = Tensor::from_vec(
        vec![6, 28, 28],
        (0..6 * 28 * 28).map(|v| (v % 16) as i64).collect(),
    )
    .expect("input tensor");
    let unit = PoolingUnit::new(ArrayGeometry {
        columns: 14,
        rows: 2,
    });
    for (name, kind) in [("avg", PoolKind::Average), ("max", PoolKind::Max)] {
        c.bench_function(&format!("pool_unit/{name}_2x2_6x28x28"), |b| {
            b.iter(|| {
                unit.run_layer(black_box(&input), kind, 2, 4)
                    .expect("pool unit run")
            });
        });
        c.bench_function(&format!("pool_reference/{name}_2x2_6x28x28"), |b| {
            b.iter(|| {
                let levels = match kind {
                    PoolKind::Average => ops::avg_pool2d(black_box(&input), 2),
                    PoolKind::Max => ops::max_pool2d(black_box(&input), 2),
                }
                .expect("reference pool");
                (levels, bitplane::popcount_levels(input.as_slice()))
            });
        });
    }
}

/// The `f64::round` expression `requantize` computed before it truncated
/// and compared instead; the reference of `requant/*`.
fn requantize_by_round(acc: i64, requant: f32, max_level: i64) -> i64 {
    if acc <= 0 {
        return 0;
    }
    ((acc as f64 * requant as f64).round() as i64).clamp(0, max_level)
}

/// Requantizing LeNet-5 conv1's 6x28x28 accumulators to `T = 4` levels,
/// as the executor does after every conv and hidden linear layer.
fn bench_requant(c: &mut Criterion) {
    let acc: Vec<i64> = (0..6 * 28 * 28)
        .map(|v| ((v as i64 * 2654435761) % 1024) - 256)
        .collect();
    let (scale, max_level) = (0.0173f32, 15);
    let mut out = vec![0i64; acc.len()];
    c.bench_function("requant/lenet_conv1_6x28x28", |b| {
        b.iter(|| {
            let r = black_box(scale);
            for (o, &a) in out.iter_mut().zip(black_box(&acc)) {
                *o = requantize(a, r, max_level);
            }
            out[0]
        });
    });
    c.bench_function("requant_reference/lenet_conv1_6x28x28", |b| {
        b.iter(|| {
            let r = black_box(scale);
            for (o, &a) in out.iter_mut().zip(black_box(&acc)) {
                *o = requantize_by_round(a, r, max_level);
            }
            out[0]
        });
    });
}

/// The level epilogue of VGG-11's second convolution (128 channels over
/// 16x16 positions, `T = 4`): the dispatched threshold drain from the
/// channel-last `i32` rows to channel-last byte levels, against what it
/// replaced — the widening transpose to `[O, H, W]` `i64` with the bias
/// added, then `requantize` per element.
fn bench_drain(c: &mut Criterion) {
    let (lanes, positions) = (128usize, 16 * 16);
    let sums: Vec<i32> = (0..lanes * positions)
        .map(|v| ((v as i64 * 2654435761) % 4096 - 2048) as i32)
        .collect();
    let bias: Vec<i64> = (0..lanes as i64).map(|o| o * 7 - 300).collect();
    let (scale, max_level) = (0.0073f32, 15);
    let thresholds: Vec<i32> = requant_thresholds(scale, max_level)
        .iter()
        .map(|&t| t.min(i64::from(i32::MAX)) as i32)
        .collect();
    let narrow_bias: Vec<i32> = bias.iter().map(|&b| b as i32).collect();
    let mut levels = vec![0u8; sums.len()];
    c.bench_function("drain/vgg_conv2_16x16x128", |b| {
        b.iter(|| {
            simd::drain_levels(
                black_box(&sums),
                lanes,
                &narrow_bias,
                &thresholds,
                &mut levels,
            );
            levels[0]
        });
    });
    let mut planes = vec![0i64; sums.len()];
    c.bench_function("drain_reference/vgg_conv2_16x16x128", |b| {
        b.iter(|| {
            let sums = black_box(&sums);
            for (oc, plane) in planes.chunks_mut(positions).enumerate() {
                for (position, out) in plane.iter_mut().enumerate() {
                    *out = i64::from(sums[position * lanes + oc]) + bias[oc];
                }
            }
            let r = black_box(scale);
            for level in planes.iter_mut() {
                *level = requantize(*level, r, max_level);
            }
            planes[0]
        });
    });
}

fn bench_linear_unit(c: &mut Criterion) {
    // LeNet-5 first fully-connected layer: 120 -> 120.
    let input = Tensor::from_vec(vec![120], (0..120).map(|v| (v % 16) as i64).collect())
        .expect("input tensor");
    let weight = Tensor::from_vec(
        vec![120, 120],
        (0..120 * 120).map(|v| ((v % 7) as i64) - 3).collect(),
    )
    .expect("weight tensor");
    let bias = Tensor::filled(vec![120], 0i64);
    let packed = PackedWeights::from_linear(&weight).expect("packed weights");
    let config = AcceleratorConfig::default();
    let unit = LinearUnit::new(config.linear_lanes);
    let mut scratch = EngineScratch::new();
    c.bench_function("linear_unit/120x120_T4", |b| {
        b.iter(|| {
            unit.run_packed(
                black_box(&input),
                black_box(&packed),
                black_box(&bias),
                4,
                &mut scratch,
            )
            .expect("linear unit run")
        });
    });

    // VGG-11's widest classifier layer: a 32 MiB packed matrix no cache
    // holds, of which a run reads the 4 KiB rows of the spiking neurons
    // (about half, as on the benchmark's VGG inputs) in spike order — what
    // the linear unit's weight-row prefetch is for.
    let (input, packed) = linear_4096x4096();
    let bias = Tensor::filled(vec![4096], 0i64);
    c.bench_function("linear_unit/4096x4096_T4", |b| {
        b.iter(|| {
            unit.run_packed(
                black_box(&input),
                black_box(&packed),
                black_box(&bias),
                4,
                &mut scratch,
            )
            .expect("linear unit run")
        });
    });
}

/// The `[4096]` input (about half the neurons spiking, levels up to 15)
/// and the packed `[4096, 4096]` 3-bit weights of VGG-11's widest
/// classifier layer.
fn linear_4096x4096() -> (Tensor<i64>, PackedWeights) {
    let n = 4096;
    let input = Tensor::from_vec(
        vec![n],
        (0..n as u64)
            .map(|v| v.wrapping_mul(2654435761) >> 8)
            .map(|x| if x % 2 == 0 { 0 } else { (x >> 1) as i64 % 16 })
            .collect(),
    )
    .expect("input tensor");
    let weight = Tensor::from_vec(
        vec![n, n],
        (0..n * n).map(|v| ((v % 7) as i64) - 3).collect(),
    )
    .expect("weight tensor");
    let packed = PackedWeights::from_linear(&weight).expect("packed weights");
    (input, packed)
}

criterion_group!(
    benches,
    bench_conv_unit,
    bench_tiled_conv,
    bench_simd_kernels,
    bench_pool_unit,
    bench_requant,
    bench_drain,
    bench_linear_unit,
    bench_spike_blocks
);

/// Runs the groups, then writes the `BENCH_conv.json` summary.  Every
/// top-level number in it is a ratio of two quantities measured in this
/// process (so host drift between runs cancels) and is named for what it
/// divides: `host_*` keys are wall-clock medians, `*_op_ratio` is modelled
/// adder ops.  `snn_bench::trend::RATIO_KEYS` holds their directions.
fn main() {
    let mut criterion = Criterion::default();
    benches(&mut criterion);
    criterion.final_summary();
    let median = |id: &str| {
        criterion
            .result(id)
            .unwrap_or_else(|| panic!("no bench result {id}"))
            .median_ns
    };

    let mut engine_speedups = Vec::new();
    let mut ps_host_ratios = Vec::new();
    let mut ps_op_ratios = Vec::new();
    let (ps_input, ps_kernel, ps_bias) = lenet_conv2_inputs();
    for t in [3usize, 6] {
        let engine = median(&format!("conv_unit/bitplane_sparse/{t}"));
        let speedup = median(&format!("conv_unit/scalar_reference/{t}")) / engine;
        // Product sparsity optimises the *modelled* adder activations (the
        // paper-facing quantity), not host wall-clock: the op ratio is what
        // it saves the hardware, the host ratio (< 1) what its accounting
        // costs the simulator on the same workload.
        let ps_host = engine / median(&format!("conv_unit/bitplane_sparse_ps/{t}"));
        let adder_ops = |product_sparsity| {
            ConvolutionUnit::with_product_sparsity(LENET_GEOMETRY, product_sparsity)
                .run_layer(&ps_input, &ps_kernel, &ps_bias, t, 1, 0)
                .expect("stats run")
                .stats
                .adder_ops
        };
        let ps_ops = adder_ops(false) as f64 / adder_ops(true) as f64;
        println!("conv_unit T={t}: bitplane_sparse is {speedup:.2}x faster than scalar_reference");
        println!(
            "conv_unit T={t}: product sparsity cuts modelled adder ops {ps_ops:.2}x \
             and runs at {ps_host:.2}x the plain engine's host speed"
        );
        engine_speedups.push(format!("\"T{t}\": {speedup:.3}"));
        ps_host_ratios.push(format!("\"T{t}\": {ps_host:.3}"));
        ps_op_ratios.push(format!("\"T{t}\": {ps_ops:.3}"));
    }
    let overhead = median("conv_unit_tiled/vgg_conv2_banded_4rows")
        / median("conv_unit_tiled/vgg_conv2_untiled");
    println!("conv_unit_tiled: 8 KiB row-band execution costs {overhead:.3}x the untiled layer");

    // Per-kernel simd-on vs simd-off ratios: dispatched path over the
    // always-compiled fallback it is pinned against.
    let level = simd::active_level().name();
    let mut kernel_speedups = Vec::new();
    for kernel in [
        "weight_axpy",
        "weight_axpy_i32",
        "weight_axpy_w8_i16",
        "pack_occupancy",
    ] {
        let ratio = median(&format!("simd_kernels/{kernel}/scalar"))
            / median(&format!("simd_kernels/{kernel}/{level}"));
        println!("simd_kernels/{kernel}: {level} is {ratio:.2}x the scalar fallback");
        kernel_speedups.push(format!("\"{kernel}\": {ratio:.3}"));
    }

    // Blocks of four spikes against the same spikes one at a time.
    let mut block_speedups = Vec::new();
    for shape in ["conv_vgg_512ch", "linear_4096x4096_T4"] {
        let ratio = median(&format!("spike_block/{shape}/single"))
            / median(&format!("spike_block/{shape}/block4"));
        println!("spike_block/{shape}: blocks of four run {ratio:.2}x single spikes");
        block_speedups.push(format!("\"{shape}\": {ratio:.3}"));
    }

    // The level epilogue against the code it replaced: the `f64::round`
    // requantization, and functional pooling plus a full-width popcount.
    let mut epilogue_speedups = Vec::new();
    for (key, fast, reference) in [
        (
            "requant",
            "requant/lenet_conv1_6x28x28",
            "requant_reference/lenet_conv1_6x28x28",
        ),
        (
            "pool_avg",
            "pool_unit/avg_2x2_6x28x28",
            "pool_reference/avg_2x2_6x28x28",
        ),
        (
            "pool_max",
            "pool_unit/max_2x2_6x28x28",
            "pool_reference/max_2x2_6x28x28",
        ),
        (
            "drain_vgg_conv2",
            "drain/vgg_conv2_16x16x128",
            "drain_reference/vgg_conv2_16x16x128",
        ),
    ] {
        let ratio = median(reference) / median(fast);
        println!("level epilogue {key}: {ratio:.2}x its reference");
        epilogue_speedups.push(format!("\"{key}\": {ratio:.3}"));
    }

    let json = format!(
        "{{\n\"workload\": \"lenet_conv2_6x14x14_to_16ch_5x5\",\n\
         \"simd_level\": \"{level}\",\n\
         \"host_speedup_engine_vs_seed_reference\": {{{}}},\n\
         \"product_sparsity_op_ratio\": {{{}}},\n\
         \"product_sparsity_host_ratio\": {{{}}},\n\
         \"simd_kernel_speedup_vs_scalar\": {{{}}},\n\
         \"spike_block_speedup_vs_single\": {{{}}},\n\
         \"level_epilogue_speedup_vs_reference\": {{{}}},\n\
         \"tiling_overhead_vgg_conv2_8KiB\": {overhead:.3},\n\
         \"results\": {}\n}}\n",
        engine_speedups.join(", "),
        ps_op_ratios.join(", "),
        ps_host_ratios.join(", "),
        kernel_speedups.join(", "),
        block_speedups.join(", "),
        epilogue_speedups.join(", "),
        criterion.summary_json()
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_conv.json");
    std::fs::write(path, &json).expect("write BENCH_conv.json");
    println!("wrote {path}");
}

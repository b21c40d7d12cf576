//! The engines' blocks of spikes against the counter-stepped reference
//! units: the convolution engine adds up to four spikes at one pixel
//! (different input channels) with one load-add-store of each accumulator
//! lane, the linear engine up to four consecutive spikes.  Accumulators
//! **and** `UnitStats` must match the reference for blocks of every size,
//! for pixels with more spiking channels than one block holds, at the edge
//! of a 16-bit group of partial sums — where a block that crossed into the
//! next group would overflow the group's `i16` lanes — and for linear spike
//! counts that leave a tail block of one to three, inside groups whose size
//! is not a multiple of four, under output chunking.

use snn_accel::config::ArrayGeometry;
use snn_accel::conv::ConvolutionUnit;
use snn_accel::linear::LinearUnit;
use snn_accel::reference::{ReferenceConvolutionUnit, ReferenceLinearUnit};
use snn_model::packed::PackedWeights;
use snn_tensor::Tensor;

const GEOMETRY: ArrayGeometry = ArrayGeometry {
    columns: 8,
    rows: 3,
};

/// Engine and reference on one convolution; both parts of the result must
/// be equal.
fn check_conv(input: &Tensor<i64>, kernel: &Tensor<i64>, t: usize, stride: usize, padding: usize) {
    let c_out = kernel.shape().dims()[0];
    let bias = Tensor::from_vec(vec![c_out], (0..c_out as i64).map(|o| o * 3 - 4).collect())
        .expect("bias");
    let fast = ConvolutionUnit::new(GEOMETRY)
        .run_layer(input, kernel, &bias, t, stride, padding)
        .expect("engine");
    let slow = ReferenceConvolutionUnit::new(GEOMETRY)
        .run_layer(input, kernel, &bias, t, stride, padding)
        .expect("reference");
    let case = format!("t={t} stride={stride} padding={padding}");
    assert_eq!(fast.accumulators, slow.accumulators, "{case}");
    assert_eq!(fast.stats, slow.stats, "{case}");
}

/// `[c_out, c_in, 3, 3]` 3-bit codes, `-4..=3`.
fn small_kernel(c_out: usize, c_in: usize) -> Tensor<i64> {
    Tensor::from_vec(
        vec![c_out, c_in, 3, 3],
        (0..c_out * c_in * 9)
            .map(|v| ((v * 5 + v / 7) % 8) as i64 - 4)
            .collect(),
    )
    .expect("kernel")
}

#[test]
fn conv_blocks_of_one_to_five_same_pixel_spikes_match_the_reference() {
    // Every pixel spikes in exactly `k` of the 6 input channels — which
    // ones rotates with the pixel — so the pixel-major list holds blocks
    // of `k` (`k <= 4`), or a block of four and one of `k - 4`.
    let (c_in, h, w) = (6usize, 5usize, 7usize);
    for k in 1..=5usize {
        let levels: Vec<i64> = (0..c_in * h * w)
            .map(|i| {
                let (c, pixel) = (i / (h * w), i % (h * w));
                if (c + c_in - pixel % c_in) % c_in < k {
                    (1 + (i * 7) % 15) as i64
                } else {
                    0
                }
            })
            .collect();
        let input = Tensor::from_vec(vec![c_in, h, w], levels).expect("input");
        // 3-bit codes at `T = 4`: every channel in one 16-bit group; 17
        // output lanes leave a tail after the 16-lane vector.
        let kernel = small_kernel(17, c_in);
        let packed = PackedWeights::from_conv(&kernel).expect("packed");
        assert!(packed.i16_group(4) >= c_in, "one group holds every channel");
        for (stride, padding) in [(1, 1), (1, 0), (2, 1)] {
            check_conv(&input, &kernel, 4, stride, padding);
        }
        // `T = 16` keeps the plain 32-bit rows: the same blocks, no groups.
        check_conv(&input, &kernel, 16, 1, 1);
    }
}

#[test]
fn a_block_never_straddles_a_group_of_partial_sums() {
    // Codes of 14 under a 3x3 kernel at `T = 7` (levels up to 127): one
    // channel adds at most 127 x 9 x 14 = 16002 to an output, so a 16-bit
    // group holds two channels and its sums reach 32004 of 32767 wherever
    // every pixel of the window spikes at 127.  Five channels spike at
    // every pixel: the list must cut them into blocks of 2, 2 and 1, group
    // by group.  A block of four (a crossing into the next group) would
    // add 64008 into a 16-bit lane before the drain.
    let (c_in, h, w, c_out) = (5usize, 4usize, 6usize, 3usize);
    let input = Tensor::filled(vec![c_in, h, w], 127i64);
    let kernel = Tensor::filled(vec![c_out, c_in, 3, 3], 14i64);
    let packed = PackedWeights::from_conv(&kernel).expect("packed");
    assert_eq!(packed.i16_group(7), 2);
    assert!(packed.sums_fit_i32(7));
    check_conv(&input, &kernel, 7, 1, 1);
    check_conv(&input, &kernel, 7, 1, 0);
    // Negative codes reach the other edge, -32004.
    let negative = Tensor::filled(vec![c_out, c_in, 3, 3], -14i64);
    check_conv(&input, &negative, 7, 1, 1);
}

#[test]
fn more_channels_than_one_slice_keep_their_blocks_and_groups() {
    // 70 input channels: the list builder gathers 64 channels of a group
    // at a time, so a pixel spiking in all of them yields blocks from two
    // slices; at `T = 4` with 3-bit codes a group holds 60 channels, so the
    // slices end at the group boundary as well.
    let (c_in, h, w) = (70usize, 3usize, 4usize);
    let levels: Vec<i64> = (0..c_in * h * w)
        .map(|i| ((i * 11) % 16) as i64 * i64::from(i % 5 != 0))
        .collect();
    let input = Tensor::from_vec(vec![c_in, h, w], levels).expect("input");
    let kernel = small_kernel(16, c_in);
    let packed = PackedWeights::from_conv(&kernel).expect("packed");
    assert_eq!(packed.i16_group(4), 60);
    check_conv(&input, &kernel, 4, 1, 1);
    check_conv(&input, &kernel, 4, 2, 0);
}

#[test]
fn linear_tail_blocks_inside_groups_that_are_not_multiples_of_four() {
    // Codes up to 43 at `T = 7` (levels up to 127): a 16-bit group holds
    // 32767 / (127 x 43) = 6 spikes, so the blocks of a group are 4 and 2.
    // Spike counts 4k + 1..3 (and 4k) leave every tail size, in the last
    // group and within it; 20 outputs in chunks of 8 lanes leave a short
    // last chunk.
    let (n, o, lanes) = (40usize, 20usize, 4usize);
    let weight = Tensor::from_vec(
        vec![o, n],
        (0..o * n)
            .map(|i| match i % 9 {
                0 => 43,
                1 => -43,
                _ => (i % 17) as i64 - 8,
            })
            .collect(),
    )
    .expect("weight");
    let packed = PackedWeights::from_linear(&weight).expect("packed");
    assert_eq!(packed.i16_group(7), 6);
    let bias = Tensor::from_vec(vec![o], (0..o as i64).map(|v| 5 - v).collect()).expect("bias");
    for spikes in [1usize, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 37] {
        // `spikes` neurons spike, spread over the input, at levels up to
        // 127 so the groups' partial sums come near the 16-bit edge.
        let levels: Vec<i64> = (0..n)
            .map(|i| {
                if (i * spikes) % n < spikes {
                    127 - (i % 3) as i64
                } else {
                    0
                }
            })
            .collect();
        assert_eq!(levels.iter().filter(|&&l| l != 0).count(), spikes);
        let input = Tensor::from_vec(vec![n], levels).expect("input");
        for chunk in [8usize, o] {
            let fast = LinearUnit::new(lanes)
                .run_layer_chunked(&input, &weight, &bias, 7, chunk)
                .expect("engine");
            let slow = ReferenceLinearUnit::new(lanes)
                .run_layer(&input, &weight, &bias, 7)
                .expect("reference");
            assert_eq!(
                fast.accumulators, slow.accumulators,
                "spikes={spikes} chunk={chunk}"
            );
            assert_eq!(fast.stats, slow.stats, "spikes={spikes} chunk={chunk}");
        }
    }
}

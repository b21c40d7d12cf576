//! VGG-11 keeps one copy of its weights.  A counting global allocator
//! tracks the live heap bytes and their high-water mark while VGG-11 is
//! converted and run through the gold model, and the test asserts:
//!
//! * the converted model retains at most 5 % more than its packed codes;
//! * conversion peaks at most one layer's `i32` codes (plus 8 MiB of
//!   slack) above what it retains — it quantizes and packs layer by layer;
//! * `SnnModel::forward` peaks at most 8 MiB above the model — it reads
//!   the packed codes back a block of output channels at a time.
//!
//! Ignored by default (VGG-11 has 28.5 M parameters); run with
//! `cargo test --release -p snn-model --test memory_guard -- --ignored --nocapture`.

use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_model::packed::Codes;
use snn_model::params::Parameters;
use snn_model::zoo;
use snn_tensor::Tensor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Heap bytes allocated and not yet freed, by every thread.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The largest value `LIVE` has had since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters are plain atomics, so updating them never allocates or
// re-enters the allocator.  `realloc` and `alloc_zeroed` keep their
// default implementations, which go through `alloc` and `dealloc`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System.alloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Starts a new high-water mark at the current live bytes, and returns them.
fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

const MIB: usize = 1 << 20;

fn mib(bytes: usize) -> f64 {
    bytes as f64 / MIB as f64
}

#[test]
#[ignore = "VGG-11 scale; run with --ignored in release"]
fn vgg11_keeps_one_weight_copy() {
    let net = zoo::vgg11_cifar10();
    let params = Parameters::he_init(&net, 7).unwrap();
    let calibration = CalibrationStats::from_layer_maxima(&net, vec![4.0; net.layers().len()])
        .expect("one maximum per layer");

    let base = reset_peak();
    let model = convert(&net, &params, &calibration, ConversionConfig::default()).unwrap();
    let convert_peak = PEAK.load(Ordering::Relaxed) - base;
    let retained = LIVE.load(Ordering::Relaxed) - base;

    let packed: usize = model
        .layers()
        .iter()
        .filter_map(|layer| layer.weights())
        .map(|weights| match weights.codes() {
            Codes::I8(codes) => codes.len(),
            Codes::I16(codes) => codes.len() * 2,
        })
        .sum();
    let largest_i32_codes = params
        .layer_weights()
        .iter()
        .flatten()
        .map(|layer| layer.weight.len() * std::mem::size_of::<i32>())
        .max()
        .unwrap();

    let input = Tensor::filled(net.input_shape().to_vec(), 0.5f32);
    reset_peak();
    let trace = model.forward(&input).unwrap();
    let forward_peak = PEAK.load(Ordering::Relaxed) - base;
    assert_eq!(trace.logits().len(), 10);

    println!(
        "VGG-11: parameters {:.1} MiB, largest layer's i32 codes {:.1} MiB, packed {:.1} MiB, \
         retained {:.1} MiB, convert peak {:.1} MiB, forward peak {:.1} MiB (above the parameters)",
        mib(base),
        mib(largest_i32_codes),
        mib(packed),
        mib(retained),
        mib(convert_peak),
        mib(forward_peak),
    );
    assert!(
        retained as f64 <= 1.05 * packed as f64,
        "the model retains {retained} bytes for {packed} packed bytes"
    );
    assert!(
        convert_peak <= retained + largest_i32_codes + 8 * MIB,
        "conversion peaked at {convert_peak} bytes above the parameters"
    );
    assert!(
        forward_peak <= retained + 8 * MIB,
        "the forward pass peaked at {forward_peak} bytes above the parameters"
    );
}

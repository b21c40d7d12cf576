//! LeNet-5 on the synthetic MNIST stand-in — the workload of Tables I and
//! II of the paper.
//!
//! The example runs the complete pipeline the paper assumes:
//!
//! 1. train the equivalent ANN (LeNet-5) on the synthetic digit dataset,
//! 2. quantize to 3-bit weights and convert to a radix-encoded SNN,
//! 3. compare ANN and SNN accuracy for several spike-train lengths,
//! 4. deploy on the simulated accelerator (four convolution units, 200 MHz —
//!    the Table III operating point) and report latency, throughput, power
//!    and resources.
//!
//! Run with: `cargo run --release --example lenet_mnist`

use snn_repro::accel::config::AcceleratorConfig;
use snn_repro::accel::sim::Accelerator;
use snn_repro::data::digits::SyntheticDigits;
use snn_repro::model::convert::{convert, CalibrationStats, ConversionConfig};
use snn_repro::model::forward;
use snn_repro::model::params::Parameters;
use snn_repro::model::zoo;
use snn_repro::train::trainer::{Trainer, TrainingConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Synthetic digit dataset (MNIST substitution, see DESIGN.md) and
    //    ANN training.
    let dataset = SyntheticDigits::new(32)
        .with_noise_percent(8)
        .generate(160, 7);
    let data = dataset.split(0.75);
    let net = zoo::lenet5();
    println!(
        "training {} on {} synthetic digits...",
        net.name(),
        data.train.len()
    );

    let mut params = Parameters::he_init(&net, 7)?;
    let report = Trainer::new(TrainingConfig {
        epochs: 4,
        learning_rate: 0.01,
        momentum: 0.9,
        lr_decay: 0.9,
    })
    .train(&net, &mut params, &data.train)?;
    println!(
        "ANN training finished: final epoch loss {:.3}, train accuracy {:.1}%",
        report.epoch_losses.last().copied().unwrap_or(f32::NAN),
        report.final_train_accuracy * 100.0
    );
    let ann_test_acc = forward::evaluate(&net, &params, data.test.iter())? * 100.0;
    println!("ANN test accuracy: {ann_test_acc:.1}%");

    // 2./3. Convert for several spike-train lengths and compare accuracy —
    //       the Table I experiment.
    let calibration_inputs: Vec<_> = data.train.iter().take(32).map(|(img, _)| img).collect();
    let calibration = CalibrationStats::collect(&net, &params, calibration_inputs)?;
    println!();
    println!("{:>12} {:>14}", "time steps", "SNN acc [%]");
    let mut snn_t4 = None;
    for time_steps in 3..=6 {
        let snn = convert(
            &net,
            &params,
            &calibration,
            ConversionConfig {
                weight_bits: 3,
                time_steps,
            },
        )?;
        let acc = snn.evaluate(data.test.iter())? * 100.0;
        println!("{time_steps:>12} {acc:>14.1}");
        if time_steps == 4 {
            snn_t4 = Some(snn);
        }
    }

    // 4. Deploy the T = 4 model on the Table III operating point.
    let snn = snn_t4.expect("T = 4 model was converted in the loop above");
    let config = AcceleratorConfig::lenet_table3();
    let accelerator = Accelerator::new(config);
    let design = accelerator.design_report(&snn)?;
    let (sample, _) = data.test.sample(0).expect("non-empty test set");
    let run = accelerator.run(&snn, sample)?;

    println!();
    println!(
        "deployment at {} MHz with {} convolution units:",
        config.clock_mhz, config.conv_units
    );
    println!(
        "  latency {:.0} us  |  throughput {:.0} fps  |  power {:.2} W  |  {} LUTs / {} FFs",
        run.latency_us(&config),
        run.throughput_fps(&config),
        design.power.total_w(),
        design.resources.luts,
        design.resources.flip_flops
    );
    println!("  (paper, Table III: 294 us, 3380 fps, 3.4 W, 27k LUTs / 24k FFs on real MNIST)");
    Ok(())
}

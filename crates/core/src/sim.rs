//! Top-level accelerator simulator.
//!
//! [`Accelerator`] owns a configuration, compiles converted SNN models onto
//! it and executes inferences through the layer loop in [`crate::exec`].
//! There is one level of detail: [`Accelerator::run`] is **unit-exact**.
//! Every layer is executed on the spike-major processing-unit models
//! ([`crate::conv::ConvolutionUnit`], [`crate::pool::PoolingUnit`],
//! [`crate::linear::LinearUnit`]), once per layer over its whole input
//! map, and exact work/operation counts are reported.  The units walk
//! the packed spike occupancy (word-level skip of silent regions),
//! accumulate from the layers' channel-last packed weights (all
//! output-channel lanes of a spike in one vector loop, on the calling
//! thread) and *derive* their counters analytically from the static
//! schedule plus popcounts; property tests pin both accumulators and
//! counters to the retained counter-stepped models in [`crate::reference`],
//! and the logits to the functional model [`SnnModel::forward`].
//!
//! Depth does not limit the unit-exact path: with
//! [`AcceleratorConfig::activation_buffer_bytes`] set, the compiler plans
//! row-band tiles ([`crate::memory::plan_network_tiles`]) as a compile-time
//! model of a paper-scale on-chip budget — a model that does not fit is a
//! typed error before anything runs — and [`Accelerator::run`] still
//! executes every layer whole, full-scale VGG-11 included, with the
//! report the untiled run gives (the optional product-sparsity accounting,
//! which links rows only within one band, is scoped to the plan's bands).
//!
//! Batches of independent inputs can be dispatched over the worker pool
//! with [`Accelerator::run_batch`] — whole inferences are the only thing
//! the host runs in parallel, one contiguous block of the batch per
//! budgeted thread; each input produces exactly the report a solo
//! [`Accelerator::run`] would.
//! For a continuously fed submission queue served by N dispatcher
//! threads, see [`crate::serve::StreamServer`].

use crate::compiler::{self, Program};
use crate::config::AcceleratorConfig;
use crate::cost;
use crate::exec;
use crate::report::{DesignReport, RunReport};
use crate::timing;
use crate::Result;
use snn_model::snn::SnnModel;
use snn_tensor::Tensor;

/// The accelerator: a configuration plus the machinery to compile and run
/// converted SNN models on it.
#[derive(Debug, Clone, PartialEq)]
pub struct Accelerator {
    config: AcceleratorConfig,
}

impl Accelerator {
    /// Creates an accelerator with the given configuration.
    pub fn new(config: AcceleratorConfig) -> Self {
        Accelerator { config }
    }

    /// The configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Compiles a model onto this accelerator.
    ///
    /// # Errors
    ///
    /// See [`compiler::compile`].
    pub fn compile(&self, model: &SnnModel) -> Result<Program> {
        compiler::compile(model, &self.config)
    }

    /// Produces the static design report (resources, power, predicted
    /// timing) for deploying `model` on this accelerator.
    ///
    /// # Errors
    ///
    /// Returns an error when the model cannot be mapped.
    pub fn design_report(&self, model: &SnnModel) -> Result<DesignReport> {
        let program = self.compile(model)?;
        let timing = timing::network_timing(&self.config, model.spec(), model.time_steps())?;
        Ok(DesignReport {
            resources: cost::estimate_resources(&self.config, model.spec(), model.time_steps()),
            power: cost::estimate_power(&self.config),
            activation_plan: program.activation_plan,
            weight_plan: program.weight_plan,
            timing,
        })
    }

    /// Runs one inference unit-exactly on the processing-unit models.
    ///
    /// # Errors
    ///
    /// Returns an error when the model cannot be mapped onto the
    /// configuration or the input shape does not match the network.
    pub fn run(&self, model: &SnnModel, input: &Tensor<f32>) -> Result<RunReport> {
        let program = self.compile(model)?;
        self.execute_compiled(model, &program, input)
    }

    /// Delegates to [`Accelerator::run`].  The name exists only because
    /// the frozen `benchmark/` package calls it; use [`Accelerator::run`].
    ///
    /// # Errors
    ///
    /// See [`Accelerator::run`].
    pub fn run_fast(&self, model: &SnnModel, input: &Tensor<f32>) -> Result<RunReport> {
        self.run(model, input)
    }

    /// Delegates to [`Accelerator::run`].  The name exists only because
    /// the frozen `benchmark/` package calls it; use [`Accelerator::run`].
    ///
    /// # Errors
    ///
    /// See [`Accelerator::run`].
    pub fn run_sequential(&self, model: &SnnModel, input: &Tensor<f32>) -> Result<RunReport> {
        self.run(model, input)
    }

    /// Delegates to [`Accelerator::run`].  The name exists only because
    /// the frozen `benchmark/` package calls it; use [`Accelerator::run`].
    ///
    /// # Errors
    ///
    /// See [`Accelerator::run`].
    pub fn run_fast_sequential(&self, model: &SnnModel, input: &Tensor<f32>) -> Result<RunReport> {
        self.run(model, input)
    }

    /// Runs one inference per input, unit-exact, spreading the batch over
    /// the shared worker pool.  The model is compiled once and shared;
    /// report `i` is bit-identical to `self.run(model, &inputs[i])`.
    ///
    /// # Errors
    ///
    /// Returns the first error encountered (bad input shape, unmappable
    /// model); remaining inputs are still processed but their reports are
    /// discarded.
    pub fn run_batch(&self, model: &SnnModel, inputs: &[Tensor<f32>]) -> Result<Vec<RunReport>> {
        let program = self.compile(model)?;
        // One contiguous block of whole inferences per budgeted thread;
        // nothing below this call fans out again.
        let threads = snn_parallel::budget().total().min(inputs.len().max(1));
        snn_parallel::par_map(inputs, threads, |_, input| {
            self.execute_compiled(model, &program, input)
        })
        .into_iter()
        .collect()
    }

    /// Encodes one input and executes it unit-exactly over an
    /// already-compiled program (shared by [`Accelerator::run`], the batch
    /// path and [`crate::serve::StreamServer`]).
    pub(crate) fn execute_compiled(
        &self,
        model: &SnnModel,
        program: &Program,
        input: &Tensor<f32>,
    ) -> Result<RunReport> {
        let levels = model.encode_input(input)?;
        exec::execute(&self.config, model, program, levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryOption;
    use snn_model::convert::{convert, CalibrationStats, ConversionConfig};
    use snn_model::params::Parameters;
    use snn_model::zoo;

    fn tiny_setup(time_steps: usize) -> (SnnModel, Vec<Tensor<f32>>) {
        let net = zoo::tiny_cnn();
        let params = Parameters::he_init(&net, 5).unwrap();
        let inputs: Vec<Tensor<f32>> = (0..4)
            .map(|i| {
                let values: Vec<f32> = (0..144)
                    .map(|j| ((i * 31 + j * 7) % 100) as f32 / 100.0)
                    .collect();
                Tensor::from_vec(vec![1, 12, 12], values).unwrap()
            })
            .collect();
        let stats = CalibrationStats::collect(&net, &params, inputs.iter()).unwrap();
        let model = convert(
            &net,
            &params,
            &stats,
            ConversionConfig {
                weight_bits: 3,
                time_steps,
            },
        )
        .unwrap();
        (model, inputs)
    }

    #[test]
    fn cycle_accurate_run_matches_functional_model_bit_exactly() {
        let (model, inputs) = tiny_setup(4);
        let accel = Accelerator::new(AcceleratorConfig::default());
        for input in &inputs {
            let report = accel.run(&model, input).unwrap();
            let trace = model.forward(input).unwrap();
            assert_eq!(report.logits, trace.logits().as_slice());
            assert_eq!(report.prediction, trace.predicted_class());
        }
    }

    #[test]
    fn latency_is_independent_of_the_input_data() {
        // The schedule is static: two different inputs must take exactly the
        // same number of cycles (only adder activity differs).
        let (model, inputs) = tiny_setup(4);
        let accel = Accelerator::new(AcceleratorConfig::default());
        let a = accel.run(&model, &inputs[0]).unwrap();
        let b = accel.run(&model, &inputs[1]).unwrap();
        assert_eq!(a.total_cycles(), b.total_cycles());
    }

    #[test]
    fn more_conv_units_reduce_latency_but_not_results() {
        let (model, inputs) = tiny_setup(3);
        let one = Accelerator::new(AcceleratorConfig::lenet_experiment(1));
        let four = Accelerator::new(AcceleratorConfig::lenet_experiment(4));
        let r1 = one.run(&model, &inputs[0]).unwrap();
        let r4 = four.run(&model, &inputs[0]).unwrap();
        assert_eq!(r1.logits, r4.logits);
        assert!(r4.total_cycles() <= r1.total_cycles());
    }

    #[test]
    fn run_report_layers_match_network_depth() {
        let (model, inputs) = tiny_setup(3);
        let accel = Accelerator::new(AcceleratorConfig::default());
        let report = accel.run(&model, &inputs[0]).unwrap();
        assert_eq!(report.layers.len(), model.spec().layers().len());
        assert!(report.total_work().adder_ops > 0);
        assert!(report.traffic.activation_reads > 0);
        assert_eq!(report.traffic.dram_bits, 0);
    }

    #[test]
    fn report_records_thread_budget_and_utilisation() {
        let (model, inputs) = tiny_setup(3);
        let accel = Accelerator::new(AcceleratorConfig::default());
        let report = accel.run(&model, &inputs[0]).unwrap();
        assert_eq!(report.thread_budget, snn_parallel::budget().total());
        assert!(!report.utilisation.is_empty());
        for unit in &report.utilisation {
            assert!(unit.busy_cycles <= unit.total_cycles);
            assert!(unit.utilisation() <= 1.0);
        }
    }

    #[test]
    fn dram_configuration_reports_weight_traffic() {
        let (model, inputs) = tiny_setup(3);
        let config = AcceleratorConfig {
            memory: MemoryOption::Dram,
            ..AcceleratorConfig::default()
        };
        let accel = Accelerator::new(config);
        let report = accel.run(&model, &inputs[0]).unwrap();
        assert_eq!(
            report.traffic.dram_bits,
            model.spec().parameter_count() as u64 * 3
        );
    }

    #[test]
    fn design_report_is_consistent_with_run() {
        let (model, inputs) = tiny_setup(3);
        let accel = Accelerator::new(AcceleratorConfig::default());
        let design = accel.design_report(&model).unwrap();
        let run = accel.run(&model, &inputs[0]).unwrap();
        assert_eq!(design.timing.total_cycles(), run.total_cycles());
        assert!(design.resources.luts > 0);
        assert!(design.power.total_w() > 0.0);
    }

    #[test]
    fn wrong_input_shape_is_rejected() {
        let (model, _) = tiny_setup(3);
        let accel = Accelerator::new(AcceleratorConfig::default());
        let bad = Tensor::filled(vec![1, 8, 8], 0.5f32);
        assert!(accel.run(&model, &bad).is_err());
    }

    #[test]
    fn batch_reports_match_individual_runs() {
        let (model, inputs) = tiny_setup(4);
        let accel = Accelerator::new(AcceleratorConfig::default());
        let solo: Vec<RunReport> = inputs
            .iter()
            .map(|input| accel.run(&model, input).unwrap())
            .collect();
        // Sizes on both sides of any budget, most of them splitting into
        // blocks of unequal length over the pool.
        for size in [1, 2, 3, 4, 5, 9] {
            let inputs: Vec<Tensor<f32>> = inputs.iter().cycle().take(size).cloned().collect();
            let batch = accel.run_batch(&model, &inputs).unwrap();
            assert_eq!(batch.len(), size);
            for (i, report) in batch.iter().enumerate() {
                assert_eq!(report, &solo[i % solo.len()], "item {i} of {size}");
            }
        }
    }

    #[test]
    fn empty_batch_is_fine_and_bad_inputs_error() {
        let (model, mut inputs) = tiny_setup(3);
        let accel = Accelerator::new(AcceleratorConfig::default());
        assert!(accel.run_batch(&model, &[]).unwrap().is_empty());
        inputs.push(Tensor::filled(vec![1, 8, 8], 0.5f32));
        assert!(accel.run_batch(&model, &inputs).is_err());
    }
}

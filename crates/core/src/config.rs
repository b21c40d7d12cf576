//! Accelerator configuration.
//!
//! The configuration mirrors the design parameters the paper exposes:
//! the number of convolution units (the parallelism knob of Table II), the
//! adder-array geometry `(X, Y)` of the convolution and pooling units, the
//! number of parallel output lanes of the linear unit, the clock frequency
//! and the weight-memory option (on-chip BRAM vs. external DRAM).

use crate::{AccelError, Result};
use serde::{Deserialize, Serialize};

/// Where convolution kernels and fully-connected weights are stored
/// (Section III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryOption {
    /// All parameters fit in on-chip block RAM.
    OnChip,
    /// Parameters are fetched from external DRAM before each layer.
    Dram,
}

/// Adder-array geometry of a processing unit: `columns` parallel output
/// positions (X) by `rows` pipelined kernel rows (Y).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArrayGeometry {
    /// Number of adder columns (X) — parallel output positions per row.
    pub columns: usize,
    /// Number of adder rows (Y) — kernel rows computed in parallel.
    pub rows: usize,
}

impl ArrayGeometry {
    /// Creates a geometry after validating it is non-degenerate.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] if either dimension is zero.
    pub fn new(columns: usize, rows: usize) -> Result<Self> {
        if columns == 0 || rows == 0 {
            return Err(AccelError::InvalidConfig {
                context: format!("adder array geometry {columns}x{rows} must be non-zero"),
            });
        }
        Ok(ArrayGeometry { columns, rows })
    }

    /// Total number of adders in the array.
    pub fn adder_count(&self) -> usize {
        self.columns * self.rows
    }
}

/// Full accelerator configuration.
///
/// The defaults correspond to the paper's LeNet-5 configuration
/// (Section IV-A): convolution units with `(X, Y) = (30, 5)`, pooling units
/// with `(X, Y) = (14, 2)`, 3-bit weights and a 100 MHz clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AcceleratorConfig {
    /// Number of convolution units instantiated (1–8 in the paper).
    pub conv_units: usize,
    /// Adder-array geometry of each convolution unit.
    pub conv_geometry: ArrayGeometry,
    /// Adder-array geometry of the pooling unit.
    pub pool_geometry: ArrayGeometry,
    /// Number of parallel output channels of the linear unit (limited by
    /// memory bandwidth in the paper).
    pub linear_lanes: usize,
    /// Clock frequency in MHz.
    pub clock_mhz: f64,
    /// Weight precision in bits.
    pub weight_bits: u8,
    /// Accumulator width in bits (partial sums are kept at full precision).
    pub accumulator_bits: u8,
    /// Weight-memory option.
    pub memory: MemoryOption,
    /// DRAM bus width in bits (only relevant with [`MemoryOption::Dram`]).
    pub dram_bus_bits: usize,
    /// **Ignored.**  Used to select between a sparse-scatter and a
    /// dense-gather row kernel; the spike-major engine has one kernel and
    /// nothing reads this field (it is not validated either).  It survives
    /// only because the frozen `benchmark/` package names it, and goes with
    /// [`crate::conv::ConvolutionUnit::with_threshold`] in the next
    /// benchmark PR.
    pub dense_gather_threshold: f64,
    /// Enable the **product-sparsity** accounting in the convolution unit
    /// (after Prosperity, HPCA 2025): within each input channel of a band,
    /// rows whose spike pattern contains another row's pattern (with equal
    /// levels on the shared support) are counted as reusing that row's
    /// per-tap partial sums and only adding the difference bits.  The
    /// host computes the accumulators the same way either way, so they are
    /// bit-identical; `adder_ops` shrinks to mirror the reused work and
    /// [`crate::units::UnitStats::reused_partials`] /
    /// [`crate::units::UnitStats::difference_bits`] report the reuse.  The
    /// schedule counters (`cycles`, reads, writes) keep the baseline
    /// static schedule — this models the op-count saving, not a retimed
    /// pipeline.  Off by default.
    #[serde(default)]
    pub product_sparsity: bool,
    /// On-chip activation-buffer budget in bytes, counting each activation
    /// element as its `T`-bit radix code.  `None` sizes the ping-pong
    /// buffers for the largest feature map (the paper's LeNet-class
    /// configuration); `Some(budget)` makes the compiler plan **row-band
    /// tiles** for every layer whose input + output working set exceeds
    /// the budget (see [`crate::memory::plan_network_tiles`]), which is
    /// what lets full-scale VGG-11 run through the cycle-accurate engine.
    /// Results and reported [`crate::units::UnitStats`] are bit-identical
    /// either way; compilation fails with
    /// [`crate::AccelError::BufferBudget`] when even a single-row tile
    /// cannot fit.
    pub activation_buffer_bytes: Option<u64>,
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        AcceleratorConfig {
            conv_units: 2,
            conv_geometry: ArrayGeometry {
                columns: 30,
                rows: 5,
            },
            pool_geometry: ArrayGeometry {
                columns: 14,
                rows: 2,
            },
            linear_lanes: 32,
            clock_mhz: 100.0,
            weight_bits: 3,
            accumulator_bits: 16,
            memory: MemoryOption::OnChip,
            dram_bus_bits: 64,
            dense_gather_threshold: 0.5,
            product_sparsity: false,
            activation_buffer_bytes: None,
        }
    }
}

impl AcceleratorConfig {
    /// The configuration used for the LeNet-5 experiments in Sections IV-B
    /// and IV-C: `(X, Y) = (30, 5)` convolution units, `(14, 2)` pooling
    /// units, 100 MHz.
    pub fn lenet_experiment(conv_units: usize) -> Self {
        AcceleratorConfig {
            conv_units,
            ..AcceleratorConfig::default()
        }
    }

    /// The LeNet-5 deployment of Table III: four convolution units at
    /// 200 MHz.
    pub fn lenet_table3() -> Self {
        AcceleratorConfig {
            conv_units: 4,
            clock_mhz: 200.0,
            ..AcceleratorConfig::default()
        }
    }

    /// The configuration used to deploy the CNN of Fang et al. \[11\]
    /// (Table III): four convolution units with a 3×3-kernel adder array at
    /// 200 MHz.
    pub fn fang_cnn_table3() -> Self {
        AcceleratorConfig {
            conv_units: 4,
            conv_geometry: ArrayGeometry {
                columns: 28,
                rows: 3,
            },
            clock_mhz: 200.0,
            ..AcceleratorConfig::default()
        }
    }

    /// The VGG-11 deployment of Table III: eight convolution units with a
    /// 3×3-kernel adder array, 115 MHz, weights streamed from DRAM.
    pub fn vgg11_table3() -> Self {
        AcceleratorConfig {
            conv_units: 8,
            conv_geometry: ArrayGeometry {
                columns: 32,
                rows: 3,
            },
            pool_geometry: ArrayGeometry {
                columns: 16,
                rows: 2,
            },
            linear_lanes: 32,
            clock_mhz: 115.0,
            weight_bits: 3,
            accumulator_bits: 18,
            memory: MemoryOption::Dram,
            dram_bus_bits: 64,
            dense_gather_threshold: 0.5,
            product_sparsity: false,
            activation_buffer_bytes: None,
        }
    }

    /// The VGG-11 deployment of Table III with a paper-scale **tiled**
    /// activation buffer: 8 KiB on chip, more than four times smaller than
    /// VGG-11's largest untiled layer working set at `T = 4`, so the
    /// compile-time tile plan splits every oversized layer into row-band
    /// tiles (the host still runs each layer whole).
    pub fn vgg11_tiled() -> Self {
        AcceleratorConfig {
            activation_buffer_bytes: Some(8 * 1024),
            ..AcceleratorConfig::vgg11_table3()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::InvalidConfig`] when any parameter is
    /// degenerate (zero units, zero lanes, non-positive clock, ...).
    pub fn validate(&self) -> Result<()> {
        if self.conv_units == 0 {
            return Err(AccelError::InvalidConfig {
                context: "at least one convolution unit is required".to_string(),
            });
        }
        if self.linear_lanes == 0 {
            return Err(AccelError::InvalidConfig {
                context: "at least one linear output lane is required".to_string(),
            });
        }
        if self.clock_mhz <= 0.0 {
            return Err(AccelError::InvalidConfig {
                context: format!("clock frequency must be positive, got {}", self.clock_mhz),
            });
        }
        if self.weight_bits < 2 || self.weight_bits > 16 {
            return Err(AccelError::InvalidConfig {
                context: format!("weight precision {} outside 2..=16 bits", self.weight_bits),
            });
        }
        if self.dram_bus_bits == 0 {
            return Err(AccelError::InvalidConfig {
                context: "DRAM bus width must be non-zero".to_string(),
            });
        }
        if self.activation_buffer_bytes == Some(0) {
            return Err(AccelError::InvalidConfig {
                context: "activation buffer budget must be non-zero (use None for untiled)"
                    .to_string(),
            });
        }
        ArrayGeometry::new(self.conv_geometry.columns, self.conv_geometry.rows)?;
        ArrayGeometry::new(self.pool_geometry.columns, self.pool_geometry.rows)?;
        Ok(())
    }

    /// Clock period in microseconds.
    pub fn clock_period_us(&self) -> f64 {
        1.0 / self.clock_mhz
    }

    /// Converts a cycle count into microseconds at the configured clock.
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 * self.clock_period_us()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_lenet_setup() {
        let cfg = AcceleratorConfig::default();
        assert_eq!(cfg.conv_geometry.columns, 30);
        assert_eq!(cfg.conv_geometry.rows, 5);
        assert_eq!(cfg.pool_geometry.columns, 14);
        assert_eq!(cfg.pool_geometry.rows, 2);
        assert_eq!(cfg.weight_bits, 3);
        assert_eq!(cfg.clock_mhz, 100.0);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn table3_configs_are_valid() {
        assert!(AcceleratorConfig::lenet_table3().validate().is_ok());
        assert!(AcceleratorConfig::fang_cnn_table3().validate().is_ok());
        assert!(AcceleratorConfig::vgg11_table3().validate().is_ok());
        assert_eq!(AcceleratorConfig::vgg11_table3().memory, MemoryOption::Dram);
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let degenerate = [
            AcceleratorConfig {
                conv_units: 0,
                ..AcceleratorConfig::default()
            },
            AcceleratorConfig {
                clock_mhz: 0.0,
                ..AcceleratorConfig::default()
            },
            AcceleratorConfig {
                linear_lanes: 0,
                ..AcceleratorConfig::default()
            },
            AcceleratorConfig {
                weight_bits: 1,
                ..AcceleratorConfig::default()
            },
            AcceleratorConfig {
                conv_geometry: ArrayGeometry {
                    columns: 0,
                    rows: 5,
                },
                ..AcceleratorConfig::default()
            },
        ];
        for cfg in degenerate {
            assert!(cfg.validate().is_err());
        }
    }

    #[test]
    fn geometry_adder_count() {
        let g = ArrayGeometry::new(30, 5).unwrap();
        assert_eq!(g.adder_count(), 150);
        assert!(ArrayGeometry::new(0, 5).is_err());
    }

    #[test]
    fn cycle_time_conversion() {
        let cfg = AcceleratorConfig::lenet_experiment(2);
        assert!((cfg.cycles_to_us(100) - 1.0).abs() < 1e-9);
        let fast = AcceleratorConfig::lenet_table3();
        assert!((fast.cycles_to_us(200) - 1.0).abs() < 1e-9);
    }
}

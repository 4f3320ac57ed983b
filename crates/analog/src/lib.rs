//! Analog crossbar processing-using-memory: matrix–vector multiplication in
//! ReRAM with faithful peripheral and non-ideality models.
//!
//! Analog PUM (Section 2.2.1 of the DARTH-PUM paper) programs a matrix into
//! crossbar conductances and performs a multiply–accumulate per bitline via
//! Ohm's law and Kirchhoff's current law. This crate models that pipeline
//! end to end:
//!
//! * [`crossbar`] — a conductance-programmed crossbar of differential
//!   device pairs (two planes of [`darth_reram::ReramArray`], whose level
//!   slabs are the only copy of the matrix), with programming noise, read
//!   noise and an IR-drop parasitic model.
//! * [`adc`] — SAR and ramp analog-to-digital converters with the latency,
//!   multiplexing and early-termination behaviours of Table 2 / §7.3.
//! * [`dac`] — input drivers with input bit-slicing (an N-bit input is
//!   applied as N sequential 1-bit wordline vectors).
//! * [`slicing`] — weight bit-slicing across arrays and the shift-and-add
//!   recombination plans that DARTH-PUM's instruction injection unit
//!   replays.
//! * [`ace`] — the analog compute element: a bank of crossbars plus input
//!   buffers, sample-and-hold and an ADC group, producing the per-input-bit
//!   partial-product vectors that the digital side reduces.
//! * [`design`] — validated coarse design points ([`AceDesign`]) for the
//!   design-space sweeps: ADC kind × resolution, crossbar geometry,
//!   slicing policy and array count in one object.
//!
//! # Example: a noisy 2×2 MVM
//!
//! ```
//! use darth_analog::crossbar::{Crossbar, CrossbarConfig};
//! use darth_reram::NoiseRng;
//!
//! # fn main() -> Result<(), darth_analog::Error> {
//! let mut rng = NoiseRng::seed_from(1);
//! let config = CrossbarConfig {
//!     rows: 2,
//!     cols: 2,
//!     bits_per_cell: 2,
//!     ..CrossbarConfig::ideal(2, 2)
//! };
//! let mut xbar = Crossbar::new(config)?;
//! xbar.program(&[vec![2, 3], vec![-1, 0]], &mut rng)?;
//! let currents = xbar.mvm_currents(&[true, true], &mut rng)?;
//! // column 0: 2 + (-1) = 1; column 1: 3 + 0 = 3 (in units of one level)
//! assert!((currents[0] / xbar.unit_current() - 1.0).abs() < 0.2);
//! assert!((currents[1] / xbar.unit_current() - 3.0).abs() < 0.2);
//! # Ok(())
//! # }
//! ```

pub mod ace;
pub mod adc;
pub mod crossbar;
pub mod dac;
pub mod design;
pub mod slicing;

pub use ace::{AnalogComputeElement, MvmOutput};
pub use adc::{Adc, AdcKind};
pub use crossbar::{Crossbar, CrossbarConfig};
pub use dac::InputDriver;
pub use design::AceDesign;
pub use slicing::{RecombinationPlan, WeightSlicer};

use std::fmt;

/// Errors produced by the analog PUM simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// Matrix dimensions do not match the crossbar.
    ShapeMismatch {
        /// Expected rows.
        expected_rows: usize,
        /// Expected columns.
        expected_cols: usize,
        /// Provided rows.
        got_rows: usize,
        /// Provided columns.
        got_cols: usize,
    },
    /// A weight value exceeds the representable range for the configured
    /// bits per cell.
    WeightOutOfRange {
        /// The offending weight.
        weight: i64,
        /// Largest representable magnitude.
        max_magnitude: i64,
    },
    /// An input vector had the wrong length.
    InputLengthMismatch {
        /// Expected length (crossbar rows).
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// Configuration is invalid.
    InvalidConfig(&'static str),
    /// An input value does not fit the configured input bit width.
    InputOutOfRange {
        /// The offending input value.
        value: i64,
        /// Input bit width.
        bits: u8,
    },
    /// An array index exceeded the ACE's array count.
    InvalidArray {
        /// Requested index.
        index: usize,
        /// Available arrays.
        count: usize,
    },
    /// A row update reached a crossbar that holds no programmed matrix.
    NotProgrammed,
    /// An underlying ReRAM substrate error.
    Reram(darth_reram::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ShapeMismatch {
                expected_rows,
                expected_cols,
                got_rows,
                got_cols,
            } => write!(
                f,
                "matrix shape {got_rows}x{got_cols} does not match crossbar \
                 {expected_rows}x{expected_cols}"
            ),
            Error::WeightOutOfRange {
                weight,
                max_magnitude,
            } => write!(
                f,
                "weight {weight} exceeds representable magnitude {max_magnitude}"
            ),
            Error::InputLengthMismatch { expected, got } => {
                write!(f, "input length {got} does not match {expected} wordlines")
            }
            Error::InvalidConfig(msg) => write!(f, "invalid analog configuration: {msg}"),
            Error::InputOutOfRange { value, bits } => {
                write!(f, "input {value} does not fit in {bits} bits")
            }
            Error::InvalidArray { index, count } => {
                write!(f, "array {index} out of range (have {count})")
            }
            Error::NotProgrammed => write!(f, "crossbar has no programmed matrix to update"),
            Error::Reram(e) => write!(f, "reram substrate: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Reram(e) => Some(e),
            _ => None,
        }
    }
}

impl From<darth_reram::Error> for Error {
    fn from(e: darth_reram::Error) -> Self {
        Error::Reram(e)
    }
}

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, Error>;

//! Bit-pipelined digital processing-using-memory (RACER / OSCAR).
//!
//! Digital PUM (Section 2.2.2 of the DARTH-PUM paper) computes Boolean
//! primitives *inside* ReRAM arrays: driving two input bitlines and an
//! output bitline with the OSCAR voltages flips the output device to the
//! NOR of the inputs, for every row of the array in parallel. Chaining
//! primitives realises arbitrary functions, and RACER's *bit-pipelining*
//! recovers throughput by striping each bit position of a value into its own
//! array so that different bit positions execute different operations
//! concurrently.
//!
//! This crate provides:
//!
//! * [`logic`] — logic families: [`logic::LogicFamily::Oscar`] (NOR and OR
//!   primitives with output-preset semantics) and
//!   [`logic::LogicFamily::Ideal`] (any two-input Boolean op in one cycle;
//!   the Figure 7 ablation).
//! * [`mod@array`] — a digital PUM array: column-parallel gate execution over
//!   plain bits, one per SLC device (digital writes are error-free, so the
//!   analog device model's levels and conductances have no role here).
//! * [`dce`] — the [`DcePipeline`] trait, the one declaration of the
//!   pipeline API (vector-register I/O, the macro library, transfers and
//!   the timing/energy meters). Import it to call any pipeline operation.
//! * [`pipeline`] — the cell-accurate reference RACER pipeline: `depth`
//!   arrays, bit-striped vector registers, inter-array carry movement,
//!   element-wise load/store, and pipeline reversal.
//! * [`packed`] — [`PackedPipeline`], the same pipeline with each bit-plane
//!   column packed into `u64` words (the fast path the simulators run).
//! * [`macros`] — the NOR-only macro library (ADD, SUB, XOR, MUL, shifts,
//!   comparisons, ReLU, …) with per-macro primitive counts that drive both
//!   the functional simulation and the analytical timing model.
//! * [`timing`] — the bit-pipelining cost model (stage cycles, warm-up,
//!   drain) shared with the chip-level simulator.
//! * [`design`] — validated coarse design points ([`DceDesign`]) for the
//!   design-space sweeps: pipeline count/depth, array dimension, logic
//!   family and tile clock in one object.
//!
//! # Example: 8-bit vector add on a RACER pipeline
//!
//! ```
//! use darth_digital::logic::LogicFamily;
//! use darth_digital::pipeline::{Pipeline, PipelineConfig};
//! use darth_digital::DcePipeline;
//!
//! # fn main() -> Result<(), darth_digital::Error> {
//! let mut pipe = Pipeline::new(PipelineConfig {
//!     depth: 8,
//!     family: LogicFamily::Oscar,
//!     ..PipelineConfig::default()
//! })?;
//! pipe.write_value(0, 0, 25)?; // VR0, element 0
//! pipe.write_value(1, 0, 17)?; // VR1, element 0
//! pipe.add(2, 0, 1)?; // VR2 = VR0 + VR1
//! assert_eq!(pipe.read_value(2, 0)?, 42);
//! # Ok(())
//! # }
//! ```

pub mod array;
pub mod dce;
pub mod design;
pub mod logic;
pub mod macros;
pub mod packed;
pub mod pipeline;
pub mod timing;

pub use array::DigitalArray;
pub use dce::DcePipeline;
pub use design::DceDesign;
pub use logic::{BoolOp, LogicFamily};
pub use macros::MacroOp;
pub use packed::{PackedBits, PackedPipeline};
pub use pipeline::{Pipeline, PipelineConfig};
pub use timing::MacroCost;

use std::fmt;

/// Errors produced by the digital PUM simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A vector register index exceeded the pipeline's register file.
    InvalidVectorRegister {
        /// Requested register.
        vr: usize,
        /// Number of architectural vector registers.
        count: usize,
    },
    /// An element index exceeded the pipeline's row count.
    InvalidElement {
        /// Requested element.
        element: usize,
        /// Elements per vector register.
        count: usize,
    },
    /// Pipeline configuration is invalid (zero depth, no scratch, …).
    InvalidConfig(&'static str),
    /// A value does not fit in the pipeline's bit width.
    ValueTooWide {
        /// The value that did not fit.
        value: u64,
        /// Pipeline depth in bits.
        depth: usize,
    },
    /// A shift amount exceeded the pipeline depth.
    ShiftTooFar {
        /// Requested shift amount.
        amount: usize,
        /// Pipeline depth in bits.
        depth: usize,
    },
    /// The macro executor ran out of scratch columns.
    OutOfScratch,
    /// An element-wise load referenced an address outside the source
    /// pipeline's register file.
    AddressOutOfRange {
        /// The offending address value read from the address register.
        address: u64,
        /// Number of addressable vector registers in the source pipeline.
        count: usize,
    },
    /// Two pipelines involved in a transfer have mismatched geometry.
    GeometryMismatch(&'static str),
    /// An underlying ReRAM substrate error.
    Reram(darth_reram::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidVectorRegister { vr, count } => {
                write!(f, "vector register {vr} out of range (have {count})")
            }
            Error::InvalidElement { element, count } => {
                write!(f, "element {element} out of range (have {count})")
            }
            Error::InvalidConfig(msg) => write!(f, "invalid pipeline configuration: {msg}"),
            Error::ValueTooWide { value, depth } => {
                write!(f, "value {value} does not fit in {depth} bits")
            }
            Error::ShiftTooFar { amount, depth } => {
                write!(f, "shift by {amount} exceeds pipeline depth {depth}")
            }
            Error::OutOfScratch => write!(f, "macro expansion exhausted scratch columns"),
            Error::AddressOutOfRange { address, count } => {
                write!(
                    f,
                    "element-wise address {address} out of range (have {count})"
                )
            }
            Error::GeometryMismatch(msg) => write!(f, "pipeline geometry mismatch: {msg}"),
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

//! ReRAM device and array substrate shared by both PUM domains.
//!
//! This crate models the resistive memory devices that DARTH-PUM computes
//! with. Analog PUM stores multi-bit values as conductances and computes
//! matrix–vector products on bitlines; digital PUM stores single bits and
//! flips device state with Boolean primitives. Both sit on the same physical
//! substrate, which is what this crate provides:
//!
//! * [`device`] — the device model: population parameters, multi-level
//!   programming with write–verify, programming noise, read noise and
//!   stuck-at faults, as functions of one device.
//! * [`mod@array`] — a wordline × bitline plane of devices stored as flat
//!   slabs: intended levels, realised conductances (only under programming
//!   noise) and a sparse list of stuck devices. Analog crossbars keep one
//!   plane per polarity; digital PUM arrays keep plain bits of their own.
//! * [`noise`] — seeded, reproducible noise sources (Gaussian / lognormal).
//! * [`energy`] — a per-component energy meter used across the workspace.
//! * [`units`] — `Cycles`, `PicoJoules`, `SquareMicrons` newtypes so that
//!   latency, energy and area can never be mixed up.
//!
//! # Example
//!
//! ```
//! use darth_reram::{array::ReramArray, device::DeviceParams, noise::NoiseRng};
//!
//! # fn main() -> Result<(), darth_reram::Error> {
//! let params = DeviceParams::slc();
//! let mut rng = NoiseRng::seed_from(7);
//! let mut array = ReramArray::new(64, 64, params)?;
//! assert_eq!(array.program_level(0, 0, 1, &mut rng)?, 1);
//! assert_eq!(array.levels()[0], 1);
//! # Ok(())
//! # }
//! ```

pub mod array;
pub mod device;
pub mod energy;
pub mod noise;
pub mod units;

pub use array::ReramArray;
pub use device::{DeviceParams, StuckAt};
pub use energy::EnergyMeter;
pub use noise::NoiseRng;
pub use units::{Cycles, PicoJoules, SquareMicrons};

use std::fmt;

/// Errors produced by the ReRAM substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A wordline or bitline index was outside the array bounds.
    OutOfBounds {
        /// Requested row (wordline) index.
        row: usize,
        /// Requested column (bitline) index.
        col: usize,
        /// Array row count.
        rows: usize,
        /// Array column count.
        cols: usize,
    },
    /// A programming level exceeded what the cell's bits-per-cell allows.
    LevelOutOfRange {
        /// Requested level.
        level: u16,
        /// Number of representable levels.
        levels: u16,
    },
    /// Array dimensions were zero or otherwise invalid.
    InvalidDimensions {
        /// Requested row count.
        rows: usize,
        /// Requested column count.
        cols: usize,
    },
    /// Device parameters are inconsistent (e.g. `g_off >= g_on`).
    InvalidDeviceParams(&'static str),
    /// Write–verify failed to converge within the iteration budget.
    WriteVerifyFailed {
        /// Target level that could not be programmed.
        level: u16,
        /// Iterations attempted.
        attempts: u32,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::OutOfBounds {
                row,
                col,
                rows,
                cols,
            } => write!(
                f,
                "cell ({row}, {col}) out of bounds for {rows}x{cols} array"
            ),
            Error::LevelOutOfRange { level, levels } => {
                write!(f, "level {level} out of range for {levels}-level cell")
            }
            Error::InvalidDimensions { rows, cols } => {
                write!(f, "invalid array dimensions {rows}x{cols}")
            }
            Error::InvalidDeviceParams(msg) => write!(f, "invalid device parameters: {msg}"),
            Error::WriteVerifyFailed { level, attempts } => write!(
                f,
                "write-verify did not converge to level {level} after {attempts} attempts"
            ),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, Error>;

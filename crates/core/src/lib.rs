//! DARTH-PUM: a hybrid analog/digital processing-using-memory architecture.
//!
//! This crate is the paper's primary contribution: the hybrid compute tile
//! (HCT) that pairs an analog compute element (ACE, matrix–vector multiply
//! in crossbars) with a digital compute element (DCE, RACER bit-pipelines),
//! the auxiliary hardware that makes the pairing practical, and the
//! software stack above it.
//!
//! Architecture (Figure 8):
//!
//! ```text
//!  Front end (fetch/decode/issue, shared by 8 HCTs)
//!    └── Hybrid Compute Tile × N
//!         ├── ACE: 64 analog arrays + DAC/S&H/ADC
//!         ├── DCE: 64 digital pipelines + µop queues
//!         ├── Shift units      (in-flight shift-and-place, §4.1)
//!         ├── A/D arbiter      (analog/digital mutual exclusion, §4.2)
//!         ├── Transpose unit   (row-vector ↔ column-register, §4.2)
//!         └── Instruction injection unit (IIU, §4.2)
//! ```
//!
//! Modules:
//!
//! * [`params`] — Table 2 (HCT configuration) and Table 3 (area/power),
//!   plus iso-area chip sizing.
//! * [`vacore`] — virtual analog cores: firmware-tracked array groups
//!   supporting flexible operand widths (§4.2).
//! * [`shift_unit`] / [`transpose`] / [`arbiter`] / [`iiu`] — the four
//!   auxiliary units, each modelled as far as the tile runs it: the shift
//!   units' in-flight shift and transfer cost, the transpose unit's
//!   one-cycle retime, the arbiter's acquire/release of an MVM's landing
//!   pipeline, and the IIU's replay of the reduction program.
//! * [`hct`] — the hybrid compute tile: functional hybrid MVM with the
//!   optimized (Figure 10b) or unoptimized (Figure 10a) schedule.
//! * [`front_end`] — the shared front end's issue count and energy (the
//!   analytical [`model`] prices issue contention across tiles).
//! * [`chip`] — whole-chip assembly, ISA interpretation and accounting.
//! * [`runtime`] — the application-agnostic half of Table 1's library.
//! * [`trace`] — architecture-neutral kernel op streams: the
//!   [`trace::TraceSink`] pipeline every architecture model consumes,
//!   plus [`trace::TraceSummary`], the run-length recording of a
//!   stream (itself replayable as a workload).
//! * [`model`] — the analytical DARTH-PUM cost model (a streaming
//!   [`eval::CostAccumulator`]) used for the throughput/energy sweeps of
//!   Figures 13–18.
//! * [`config`] — the [`config::DarthConfig`] design space: validated
//!   ADC/crossbar/slicing/clock parameter points that build cost models,
//!   the substrate of the `darth_eval::dse` sweeps.
//! * [`eval`] — the open evaluation contract: the [`eval::Workload`]
//!   (op-stream emitter) and [`eval::ArchModel`] (accumulator factory)
//!   traits that the `darth_eval` engine crosses into a workload ×
//!   architecture matrix, [`eval::Fanout`] to price one emission on
//!   many architectures in a single pass, and the functional-execution
//!   side of the contract — [`eval::Executable`] (lowers a work item to
//!   an encoded-ISA [`eval::ExecJob`]) and [`eval::Executor`] (runs the
//!   job over bit-accurate machine state) — that the `darth_sim`
//!   differential harness checks against golden references.
//! * [`workers`] — the one worker rule (explicit count, else
//!   `DARTH_EVAL_THREADS`, else the available cores) and the one scoped
//!   fan-out used by every parallel phase in the stack.
//!
//! # Example: hybrid MVM through the runtime
//!
//! ```
//! use darth_pum::runtime::{Runtime, RuntimeConfig};
//!
//! # fn main() -> Result<(), darth_pum::Error> {
//! let mut rt = Runtime::new(RuntimeConfig::small_test())?;
//! let matrix = vec![vec![2, -1], vec![3, 4]];
//! let handle = rt.set_matrix(&matrix, 4, 1)?;
//! let result = rt.exec_mvm(handle, &[1, 2])?;
//! assert_eq!(result, vec![2 * 1 + 3 * 2, -1 + 4 * 2]);
//! # Ok(())
//! # }
//! ```

pub mod arbiter;
pub mod chip;
pub mod config;
pub mod eval;
pub mod front_end;
pub mod hct;
pub mod iiu;
pub mod model;
pub mod params;
pub mod runtime;
pub mod shift_unit;
pub mod trace;
pub mod transpose;
pub mod vacore;
pub mod workers;

pub use chip::{CompiledProgram, DarthPumChip, FastChip, GenericChip};
pub use config::DarthConfig;
pub use eval::{
    ArchModel, CostAccumulator, ExecJob, ExecOutput, ExecRun, Executable, Executor, Readback,
    Workload,
};
pub use hct::{FastTile, GenericTile, HybridComputeTile};
pub use params::{ChipParams, HctParams};
pub use runtime::Runtime;
pub use trace::{KernelOp, TraceMeta, TraceSink, TraceSummary};

use std::fmt;

/// Errors produced by the DARTH-PUM simulator.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// An invalid configuration value.
    InvalidConfig(String),
    /// A vACore id is unknown or already in use.
    VaCore(String),
    /// A pipeline is owned by the other domain (arbiter violation).
    ArbiterConflict {
        /// The contested pipeline index.
        pipeline: usize,
    },
    /// A matrix or vector did not match the expected shape.
    Shape(String),
    /// A matrix handle is unknown.
    UnknownMatrix(usize),
    /// The chip ran out of a resource (HCTs, pipelines, vACores).
    ResourceExhausted(&'static str),
    /// The requested operation needs a domain that is disabled.
    DomainDisabled(&'static str),
    /// An error from the digital PUM substrate.
    Digital(darth_digital::Error),
    /// An error from the analog PUM substrate.
    Analog(darth_analog::Error),
    /// An error from the ISA layer.
    Isa(darth_isa::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::VaCore(msg) => write!(f, "vACore error: {msg}"),
            Error::ArbiterConflict { pipeline } => {
                write!(f, "pipeline {pipeline} is reserved by the other domain")
            }
            Error::Shape(msg) => write!(f, "shape mismatch: {msg}"),
            Error::UnknownMatrix(handle) => write!(f, "unknown matrix handle {handle}"),
            Error::ResourceExhausted(what) => write!(f, "out of {what}"),
            Error::DomainDisabled(which) => write!(f, "{which} domain is disabled"),
            Error::Digital(e) => write!(f, "digital PUM: {e}"),
            Error::Analog(e) => write!(f, "analog PUM: {e}"),
            Error::Isa(e) => write!(f, "ISA: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Digital(e) => Some(e),
            Error::Analog(e) => Some(e),
            Error::Isa(e) => Some(e),
            _ => None,
        }
    }
}

impl From<darth_digital::Error> for Error {
    fn from(e: darth_digital::Error) -> Self {
        Error::Digital(e)
    }
}

impl From<darth_analog::Error> for Error {
    fn from(e: darth_analog::Error) -> Self {
        Error::Analog(e)
    }
}

impl From<darth_isa::Error> for Error {
    fn from(e: darth_isa::Error) -> Self {
        Error::Isa(e)
    }
}

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, Error>;

//! The DARTH-PUM hybrid instruction set.
//!
//! Section 4.2/4.4 of the paper: DARTH-PUM exposes a full ISA so that entire
//! applications — not just MVM calls — deploy onto the chip. Digital
//! instructions touch only digital arrays; analog instructions coordinate
//! both domains (an MVM produces partial products that the digital side
//! reduces); coordination instructions (pipeline reserve, fences, vACore
//! management) keep the two domains from interfering.
//!
//! This crate is self-contained (no dependency on the simulators) and
//! provides:
//!
//! * [`instruction`] — the [`Instruction`] enum with its operand newtypes,
//!   and the one table that declares every opcode's operands: their
//!   assembly order, kind and byte offset in the record.
//! * [`encode`] — a fixed 16-byte binary encoding with encode/decode.
//! * [`asm`] — a line-oriented assembler and disassembler.
//! * [`fnv`] — [`fnv::Fnv1a`], the 64-bit FNV-1a folder every stable digest
//!   in the workspace uses.
//! * [`iiu`] — [`iiu::InjectionProgram`]: the shift-and-add reduction
//!   sequences (Figure 9c) that the hardware instruction injection unit
//!   replays without front-end involvement.
//!
//! Encoding, decoding, assembly and disassembly are all loops over that
//! table, so the four cannot drift apart: an operand the binary field
//! cannot hold is a parse error in the assembler, never a truncation.
//!
//! # Example
//!
//! ```
//! use darth_isa::instruction::{Instruction, PipelineId, Vr};
//! use darth_isa::encode;
//!
//! # fn main() -> Result<(), darth_isa::Error> {
//! let inst = Instruction::Add {
//!     pipe: PipelineId(3),
//!     dst: Vr(2),
//!     a: Vr(0),
//!     b: Vr(1),
//! };
//! let bytes = encode::encode(&inst);
//! assert_eq!(encode::decode(&bytes)?, inst);
//! # Ok(())
//! # }
//! ```

pub mod asm;
pub mod encode;
pub mod fnv;
pub mod iiu;
pub mod instruction;

pub use instruction::{Instruction, PipelineId, VaCoreId, Vr};

use std::fmt;

/// Errors produced by the ISA layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The byte stream is shorter than one instruction record.
    Truncated {
        /// Bytes available.
        got: usize,
    },
    /// An unknown opcode byte.
    UnknownOpcode(u8),
    /// A field held an invalid value for its instruction.
    InvalidField {
        /// The instruction mnemonic being decoded.
        mnemonic: &'static str,
        /// Description of the problem.
        reason: &'static str,
    },
    /// Assembly text could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Truncated { got } => {
                write!(f, "instruction record truncated ({got} bytes)")
            }
            Error::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            Error::InvalidField { mnemonic, reason } => {
                write!(f, "invalid field in {mnemonic}: {reason}")
            }
            Error::Parse { line, reason } => write!(f, "parse error on line {line}: {reason}"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, Error>;

//! Fixed-width binary encoding.
//!
//! Every instruction occupies one 16-byte record: an opcode byte followed
//! by little-endian operand fields at fixed offsets. Fixed-width records
//! keep the front end's fetch/decode trivially pipelined (one record per
//! cycle) and make program sizes predictable.

use crate::instruction::{Instruction, IsaBoolOp, PipelineId, Program, VaCoreId, Vr};
use crate::{Error, Result};
use bytes::{Buf, BufMut};

/// Size of one encoded instruction record.
pub const RECORD_SIZE: usize = 16;

mod opcode {
    pub const NOP: u8 = 0x00;
    pub const BOOL: u8 = 0x01;
    pub const NOT: u8 = 0x02;
    pub const ADD: u8 = 0x03;
    pub const SUB: u8 = 0x04;
    pub const MUL: u8 = 0x05;
    pub const CMPLT: u8 = 0x06;
    pub const SELECT: u8 = 0x07;
    pub const RELU: u8 = 0x08;
    pub const SHL: u8 = 0x09;
    pub const SHR: u8 = 0x0A;
    pub const ROTL: u8 = 0x0B;
    pub const COPY: u8 = 0x0C;
    pub const COPYX: u8 = 0x0D;
    pub const ELOAD: u8 = 0x0E;
    pub const PREV: u8 = 0x0F;
    pub const WIMM: u8 = 0x10;
    pub const MVM: u8 = 0x11;
    pub const PROGM: u8 = 0x12;
    pub const UPDROW: u8 = 0x13;
    pub const UPDCOL: u8 = 0x14;
    pub const PRESV: u8 = 0x15;
    pub const VALLOC: u8 = 0x16;
    pub const VFREE: u8 = 0x17;
    pub const FENCE: u8 = 0x18;
    pub const AMODE: u8 = 0x19;
    pub const DMODE: u8 = 0x1A;
    pub const HALT: u8 = 0x1B;
}

/// Whether `op` is an assigned opcode byte. Decoding a record whose
/// first byte fails this check returns [`Error::UnknownOpcode`]; fuzzers
/// and the property suite use it to partition the byte space.
pub fn is_valid_opcode(op: u8) -> bool {
    op <= opcode::HALT
}

/// Encodes one instruction into a 16-byte record.
pub fn encode(inst: &Instruction) -> [u8; RECORD_SIZE] {
    let mut record = [0u8; RECORD_SIZE];
    {
        let mut buf = &mut record[..];
        match *inst {
            Instruction::Nop => buf.put_u8(opcode::NOP),
            Instruction::Bool {
                op,
                pipe,
                dst,
                a,
                b,
            } => {
                buf.put_u8(opcode::BOOL);
                buf.put_u8(op.code());
                buf.put_u16_le(pipe.0);
                buf.put_u8(dst.0);
                buf.put_u8(a.0);
                buf.put_u8(b.0);
            }
            Instruction::Not { pipe, dst, a } => {
                buf.put_u8(opcode::NOT);
                buf.put_u8(0);
                buf.put_u16_le(pipe.0);
                buf.put_u8(dst.0);
                buf.put_u8(a.0);
            }
            Instruction::Add { pipe, dst, a, b } => {
                buf.put_u8(opcode::ADD);
                buf.put_u8(0);
                buf.put_u16_le(pipe.0);
                buf.put_u8(dst.0);
                buf.put_u8(a.0);
                buf.put_u8(b.0);
            }
            Instruction::Sub { pipe, dst, a, b } => {
                buf.put_u8(opcode::SUB);
                buf.put_u8(0);
                buf.put_u16_le(pipe.0);
                buf.put_u8(dst.0);
                buf.put_u8(a.0);
                buf.put_u8(b.0);
            }
            Instruction::Mul {
                pipe,
                dst,
                a,
                b,
                width,
            } => {
                buf.put_u8(opcode::MUL);
                buf.put_u8(width);
                buf.put_u16_le(pipe.0);
                buf.put_u8(dst.0);
                buf.put_u8(a.0);
                buf.put_u8(b.0);
            }
            Instruction::CmpLt { pipe, dst, a, b } => {
                buf.put_u8(opcode::CMPLT);
                buf.put_u8(0);
                buf.put_u16_le(pipe.0);
                buf.put_u8(dst.0);
                buf.put_u8(a.0);
                buf.put_u8(b.0);
            }
            Instruction::Select {
                pipe,
                dst,
                cond,
                a,
                b,
            } => {
                buf.put_u8(opcode::SELECT);
                buf.put_u8(0);
                buf.put_u16_le(pipe.0);
                buf.put_u8(dst.0);
                buf.put_u8(a.0);
                buf.put_u8(b.0);
                buf.put_u8(cond.0);
            }
            Instruction::Relu { pipe, dst, a } => {
                buf.put_u8(opcode::RELU);
                buf.put_u8(0);
                buf.put_u16_le(pipe.0);
                buf.put_u8(dst.0);
                buf.put_u8(a.0);
            }
            Instruction::ShiftLeft {
                pipe,
                dst,
                src,
                amount,
            } => {
                buf.put_u8(opcode::SHL);
                buf.put_u8(amount);
                buf.put_u16_le(pipe.0);
                buf.put_u8(dst.0);
                buf.put_u8(src.0);
            }
            Instruction::ShiftRight {
                pipe,
                dst,
                src,
                amount,
            } => {
                buf.put_u8(opcode::SHR);
                buf.put_u8(amount);
                buf.put_u16_le(pipe.0);
                buf.put_u8(dst.0);
                buf.put_u8(src.0);
            }
            Instruction::RotateLeft {
                pipe,
                dst,
                src,
                tmp,
                amount,
                width,
            } => {
                buf.put_u8(opcode::ROTL);
                buf.put_u8(amount);
                buf.put_u16_le(pipe.0);
                buf.put_u8(dst.0);
                buf.put_u8(src.0);
                buf.put_u8(tmp.0);
                buf.put_u8(width);
            }
            Instruction::CopyVr { pipe, dst, src } => {
                buf.put_u8(opcode::COPY);
                buf.put_u8(0);
                buf.put_u16_le(pipe.0);
                buf.put_u8(dst.0);
                buf.put_u8(src.0);
            }
            Instruction::CopyAcross {
                src_pipe,
                src,
                dst_pipe,
                dst,
            } => {
                buf.put_u8(opcode::COPYX);
                buf.put_u8(0);
                buf.put_u16_le(src_pipe.0);
                buf.put_u8(src.0);
                buf.put_u16_le(dst_pipe.0);
                buf.put_u8(dst.0);
            }
            Instruction::ElementLoad {
                pipe,
                addr,
                table_pipe,
                dst,
            } => {
                buf.put_u8(opcode::ELOAD);
                buf.put_u8(0);
                buf.put_u16_le(pipe.0);
                buf.put_u8(addr.0);
                buf.put_u16_le(table_pipe.0);
                buf.put_u8(dst.0);
            }
            Instruction::PipeReverse { pipe } => {
                buf.put_u8(opcode::PREV);
                buf.put_u8(0);
                buf.put_u16_le(pipe.0);
            }
            Instruction::WriteImm {
                pipe,
                vr,
                element,
                value,
            } => {
                buf.put_u8(opcode::WIMM);
                buf.put_u8(element);
                buf.put_u16_le(pipe.0);
                buf.put_u8(vr.0);
                buf.put_u8(0);
                buf.put_u16_le(0);
                buf.put_u64_le(value);
            }
            Instruction::Mvm {
                vacore,
                input_pipe,
                input_vr,
                dst_pipe,
                dst_vr,
                early_levels,
            } => {
                buf.put_u8(opcode::MVM);
                buf.put_u8(vacore.0);
                buf.put_u16_le(input_pipe.0);
                buf.put_u8(input_vr.0);
                buf.put_u16_le(dst_pipe.0);
                buf.put_u8(dst_vr.0);
                buf.put_u16_le(early_levels);
            }
            Instruction::ProgMatrix {
                vacore,
                matrix_handle,
            } => {
                buf.put_u8(opcode::PROGM);
                buf.put_u8(vacore.0);
                buf.put_u16_le(matrix_handle);
            }
            Instruction::UpdateRow {
                vacore,
                row,
                data_handle,
            } => {
                buf.put_u8(opcode::UPDROW);
                buf.put_u8(vacore.0);
                buf.put_u8(row);
                buf.put_u8(0);
                buf.put_u16_le(data_handle);
            }
            Instruction::UpdateCol {
                vacore,
                col,
                data_handle,
            } => {
                buf.put_u8(opcode::UPDCOL);
                buf.put_u8(vacore.0);
                buf.put_u8(col);
                buf.put_u8(0);
                buf.put_u16_le(data_handle);
            }
            Instruction::PipeReserve { pipe } => {
                buf.put_u8(opcode::PRESV);
                buf.put_u8(0);
                buf.put_u16_le(pipe.0);
            }
            Instruction::AllocVaCore {
                vacore,
                element_bits,
                bits_per_cell,
                input_bits,
                input_signed,
            } => {
                buf.put_u8(opcode::VALLOC);
                buf.put_u8(vacore.0);
                buf.put_u8(element_bits);
                buf.put_u8(bits_per_cell);
                buf.put_u8(input_bits);
                buf.put_u8(u8::from(input_signed));
            }
            Instruction::FreeVaCore { vacore } => {
                buf.put_u8(opcode::VFREE);
                buf.put_u8(vacore.0);
            }
            Instruction::FenceAd => buf.put_u8(opcode::FENCE),
            Instruction::SetAnalogMode { enabled } => {
                buf.put_u8(opcode::AMODE);
                buf.put_u8(u8::from(enabled));
            }
            Instruction::SetDigitalMode { enabled } => {
                buf.put_u8(opcode::DMODE);
                buf.put_u8(u8::from(enabled));
            }
            Instruction::Halt => buf.put_u8(opcode::HALT),
        }
    }
    record
}

/// Decodes one 16-byte record.
///
/// # Errors
///
/// Returns [`Error::Truncated`] for short input and
/// [`Error::UnknownOpcode`] / [`Error::InvalidField`] for malformed
/// records, including any record that is not the [`encode`] of the
/// instruction it decodes to (non-zero reserved bytes, a flag byte other
/// than 0 or 1).
pub fn decode(record: &[u8]) -> Result<Instruction> {
    if record.len() < RECORD_SIZE {
        return Err(Error::Truncated { got: record.len() });
    }
    let mut buf = &record[..RECORD_SIZE];
    let op = buf.get_u8();
    let inst = match op {
        opcode::NOP => Instruction::Nop,
        opcode::BOOL => {
            let code = buf.get_u8();
            let op = IsaBoolOp::from_code(code).ok_or(Error::InvalidField {
                mnemonic: "bool",
                reason: "unknown boolean operator code",
            })?;
            Instruction::Bool {
                op,
                pipe: PipelineId(buf.get_u16_le()),
                dst: Vr(buf.get_u8()),
                a: Vr(buf.get_u8()),
                b: Vr(buf.get_u8()),
            }
        }
        opcode::NOT => {
            buf.advance(1);
            Instruction::Not {
                pipe: PipelineId(buf.get_u16_le()),
                dst: Vr(buf.get_u8()),
                a: Vr(buf.get_u8()),
            }
        }
        opcode::ADD => {
            buf.advance(1);
            Instruction::Add {
                pipe: PipelineId(buf.get_u16_le()),
                dst: Vr(buf.get_u8()),
                a: Vr(buf.get_u8()),
                b: Vr(buf.get_u8()),
            }
        }
        opcode::SUB => {
            buf.advance(1);
            Instruction::Sub {
                pipe: PipelineId(buf.get_u16_le()),
                dst: Vr(buf.get_u8()),
                a: Vr(buf.get_u8()),
                b: Vr(buf.get_u8()),
            }
        }
        opcode::MUL => {
            let width = buf.get_u8();
            Instruction::Mul {
                pipe: PipelineId(buf.get_u16_le()),
                dst: Vr(buf.get_u8()),
                a: Vr(buf.get_u8()),
                b: Vr(buf.get_u8()),
                width,
            }
        }
        opcode::CMPLT => {
            buf.advance(1);
            Instruction::CmpLt {
                pipe: PipelineId(buf.get_u16_le()),
                dst: Vr(buf.get_u8()),
                a: Vr(buf.get_u8()),
                b: Vr(buf.get_u8()),
            }
        }
        opcode::SELECT => {
            buf.advance(1);
            let pipe = PipelineId(buf.get_u16_le());
            let dst = Vr(buf.get_u8());
            let a = Vr(buf.get_u8());
            let b = Vr(buf.get_u8());
            let cond = Vr(buf.get_u8());
            Instruction::Select {
                pipe,
                dst,
                cond,
                a,
                b,
            }
        }
        opcode::RELU => {
            buf.advance(1);
            Instruction::Relu {
                pipe: PipelineId(buf.get_u16_le()),
                dst: Vr(buf.get_u8()),
                a: Vr(buf.get_u8()),
            }
        }
        opcode::SHL => {
            let amount = buf.get_u8();
            Instruction::ShiftLeft {
                pipe: PipelineId(buf.get_u16_le()),
                dst: Vr(buf.get_u8()),
                src: Vr(buf.get_u8()),
                amount,
            }
        }
        opcode::SHR => {
            let amount = buf.get_u8();
            Instruction::ShiftRight {
                pipe: PipelineId(buf.get_u16_le()),
                dst: Vr(buf.get_u8()),
                src: Vr(buf.get_u8()),
                amount,
            }
        }
        opcode::ROTL => {
            let amount = buf.get_u8();
            let pipe = PipelineId(buf.get_u16_le());
            let dst = Vr(buf.get_u8());
            let src = Vr(buf.get_u8());
            let tmp = Vr(buf.get_u8());
            let width = buf.get_u8();
            Instruction::RotateLeft {
                pipe,
                dst,
                src,
                tmp,
                amount,
                width,
            }
        }
        opcode::COPY => {
            buf.advance(1);
            Instruction::CopyVr {
                pipe: PipelineId(buf.get_u16_le()),
                dst: Vr(buf.get_u8()),
                src: Vr(buf.get_u8()),
            }
        }
        opcode::COPYX => {
            buf.advance(1);
            Instruction::CopyAcross {
                src_pipe: PipelineId(buf.get_u16_le()),
                src: Vr(buf.get_u8()),
                dst_pipe: PipelineId(buf.get_u16_le()),
                dst: Vr(buf.get_u8()),
            }
        }
        opcode::ELOAD => {
            buf.advance(1);
            Instruction::ElementLoad {
                pipe: PipelineId(buf.get_u16_le()),
                addr: Vr(buf.get_u8()),
                table_pipe: PipelineId(buf.get_u16_le()),
                dst: Vr(buf.get_u8()),
            }
        }
        opcode::PREV => {
            buf.advance(1);
            Instruction::PipeReverse {
                pipe: PipelineId(buf.get_u16_le()),
            }
        }
        opcode::WIMM => {
            let element = buf.get_u8();
            let pipe = PipelineId(buf.get_u16_le());
            let vr = Vr(buf.get_u8());
            buf.advance(3);
            let value = buf.get_u64_le();
            Instruction::WriteImm {
                pipe,
                vr,
                element,
                value,
            }
        }
        opcode::MVM => {
            let vacore = VaCoreId(buf.get_u8());
            Instruction::Mvm {
                vacore,
                input_pipe: PipelineId(buf.get_u16_le()),
                input_vr: Vr(buf.get_u8()),
                dst_pipe: PipelineId(buf.get_u16_le()),
                dst_vr: Vr(buf.get_u8()),
                early_levels: buf.get_u16_le(),
            }
        }
        opcode::PROGM => {
            let vacore = VaCoreId(buf.get_u8());
            Instruction::ProgMatrix {
                vacore,
                matrix_handle: buf.get_u16_le(),
            }
        }
        opcode::UPDROW => {
            let vacore = VaCoreId(buf.get_u8());
            let row = buf.get_u8();
            buf.advance(1);
            Instruction::UpdateRow {
                vacore,
                row,
                data_handle: buf.get_u16_le(),
            }
        }
        opcode::UPDCOL => {
            let vacore = VaCoreId(buf.get_u8());
            let col = buf.get_u8();
            buf.advance(1);
            Instruction::UpdateCol {
                vacore,
                col,
                data_handle: buf.get_u16_le(),
            }
        }
        opcode::PRESV => {
            buf.advance(1);
            Instruction::PipeReserve {
                pipe: PipelineId(buf.get_u16_le()),
            }
        }
        opcode::VALLOC => Instruction::AllocVaCore {
            vacore: VaCoreId(buf.get_u8()),
            element_bits: buf.get_u8(),
            bits_per_cell: buf.get_u8(),
            input_bits: buf.get_u8(),
            input_signed: buf.get_u8() != 0,
        },
        opcode::VFREE => Instruction::FreeVaCore {
            vacore: VaCoreId(buf.get_u8()),
        },
        opcode::FENCE => Instruction::FenceAd,
        opcode::AMODE => Instruction::SetAnalogMode {
            enabled: buf.get_u8() != 0,
        },
        opcode::DMODE => Instruction::SetDigitalMode {
            enabled: buf.get_u8() != 0,
        },
        opcode::HALT => Instruction::Halt,
        other => return Err(Error::UnknownOpcode(other)),
    };
    // Each instruction has exactly one record: reserved bytes are zero
    // and flags are 0 or 1, so anything else is refused, not normalised.
    if encode(&inst)[..] != record[..RECORD_SIZE] {
        return Err(Error::InvalidField {
            mnemonic: inst.mnemonic(),
            reason: "non-canonical record (reserved bytes must be zero, flags 0 or 1)",
        });
    }
    Ok(inst)
}

/// Encodes a whole program.
pub fn encode_program(program: &Program) -> Vec<u8> {
    let mut out = Vec::with_capacity(program.len() * RECORD_SIZE);
    for inst in program.iter() {
        out.extend_from_slice(&encode(inst));
    }
    out
}

/// Decodes a whole program.
///
/// # Errors
///
/// Returns the first decoding failure; the byte length must be a multiple
/// of [`RECORD_SIZE`].
pub fn decode_program(bytes: &[u8]) -> Result<Program> {
    if !bytes.len().is_multiple_of(RECORD_SIZE) {
        return Err(Error::Truncated {
            got: bytes.len() % RECORD_SIZE,
        });
    }
    bytes
        .chunks_exact(RECORD_SIZE)
        .map(decode)
        .collect::<Result<Vec<_>>>()
        .map(|instructions| Program { instructions })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exemplars() -> Vec<Instruction> {
        vec![
            Instruction::Nop,
            Instruction::Bool {
                op: IsaBoolOp::Xor,
                pipe: PipelineId(513),
                dst: Vr(1),
                a: Vr(2),
                b: Vr(3),
            },
            Instruction::Not {
                pipe: PipelineId(0),
                dst: Vr(4),
                a: Vr(5),
            },
            Instruction::Add {
                pipe: PipelineId(63),
                dst: Vr(9),
                a: Vr(8),
                b: Vr(7),
            },
            Instruction::Sub {
                pipe: PipelineId(1),
                dst: Vr(0),
                a: Vr(1),
                b: Vr(2),
            },
            Instruction::Mul {
                pipe: PipelineId(2),
                dst: Vr(3),
                a: Vr(4),
                b: Vr(5),
                width: 8,
            },
            Instruction::CmpLt {
                pipe: PipelineId(2),
                dst: Vr(3),
                a: Vr(4),
                b: Vr(5),
            },
            Instruction::Select {
                pipe: PipelineId(2),
                dst: Vr(3),
                cond: Vr(6),
                a: Vr(4),
                b: Vr(5),
            },
            Instruction::Relu {
                pipe: PipelineId(40),
                dst: Vr(1),
                a: Vr(1),
            },
            Instruction::ShiftLeft {
                pipe: PipelineId(3),
                dst: Vr(1),
                src: Vr(2),
                amount: 17,
            },
            Instruction::ShiftRight {
                pipe: PipelineId(3),
                dst: Vr(1),
                src: Vr(2),
                amount: 63,
            },
            Instruction::RotateLeft {
                pipe: PipelineId(3),
                dst: Vr(1),
                src: Vr(2),
                tmp: Vr(9),
                amount: 8,
                width: 32,
            },
            Instruction::CopyVr {
                pipe: PipelineId(3),
                dst: Vr(1),
                src: Vr(2),
            },
            Instruction::CopyAcross {
                src_pipe: PipelineId(3),
                src: Vr(1),
                dst_pipe: PipelineId(4),
                dst: Vr(2),
            },
            Instruction::ElementLoad {
                pipe: PipelineId(3),
                addr: Vr(1),
                table_pipe: PipelineId(63),
                dst: Vr(2),
            },
            Instruction::PipeReverse {
                pipe: PipelineId(21),
            },
            Instruction::WriteImm {
                pipe: PipelineId(3),
                vr: Vr(1),
                element: 42,
                value: 0xDEAD_BEEF_CAFE_F00D,
            },
            Instruction::Mvm {
                vacore: VaCoreId(7),
                input_pipe: PipelineId(1),
                input_vr: Vr(2),
                dst_pipe: PipelineId(3),
                dst_vr: Vr(4),
                early_levels: 4,
            },
            Instruction::ProgMatrix {
                vacore: VaCoreId(7),
                matrix_handle: 999,
            },
            Instruction::UpdateRow {
                vacore: VaCoreId(7),
                row: 13,
                data_handle: 55,
            },
            Instruction::UpdateCol {
                vacore: VaCoreId(7),
                col: 14,
                data_handle: 56,
            },
            Instruction::PipeReserve {
                pipe: PipelineId(11),
            },
            Instruction::AllocVaCore {
                vacore: VaCoreId(2),
                element_bits: 8,
                bits_per_cell: 2,
                input_bits: 8,
                input_signed: true,
            },
            Instruction::FreeVaCore {
                vacore: VaCoreId(2),
            },
            Instruction::FenceAd,
            Instruction::SetAnalogMode { enabled: false },
            Instruction::SetDigitalMode { enabled: true },
            Instruction::Halt,
        ]
    }

    #[test]
    fn every_instruction_round_trips() {
        for inst in exemplars() {
            let bytes = encode(&inst);
            let back = decode(&bytes).expect("decodes");
            assert_eq!(back, inst, "{}", inst.mnemonic());
        }
    }

    #[test]
    fn program_round_trips() {
        let program: Program = exemplars().into_iter().collect();
        let bytes = encode_program(&program);
        assert_eq!(bytes.len(), program.len() * RECORD_SIZE);
        let back = decode_program(&bytes).expect("decodes");
        assert_eq!(back, program);
    }

    #[test]
    fn truncated_input_is_rejected() {
        assert!(matches!(
            decode(&[0u8; 3]),
            Err(Error::Truncated { got: 3 })
        ));
        assert!(decode_program(&[0u8; 17]).is_err());
    }

    #[test]
    fn unknown_opcode_is_rejected() {
        let mut rec = [0u8; RECORD_SIZE];
        rec[0] = 0xFF;
        assert_eq!(decode(&rec), Err(Error::UnknownOpcode(0xFF)));
    }

    #[test]
    fn opcode_validity_partitions_the_byte_space() {
        for op in 0u8..=255 {
            let mut rec = [0u8; RECORD_SIZE];
            rec[0] = op;
            let decoded = decode(&rec);
            if is_valid_opcode(op) {
                // Valid opcodes never report UnknownOpcode (payload
                // errors like a bad Bool code are still possible).
                assert!(
                    !matches!(decoded, Err(Error::UnknownOpcode(_))),
                    "opcode {op:#x}"
                );
            } else {
                assert_eq!(decoded, Err(Error::UnknownOpcode(op)));
            }
        }
    }

    #[test]
    fn every_exemplar_opcode_is_valid() {
        for inst in exemplars() {
            assert!(is_valid_opcode(encode(&inst)[0]), "{}", inst.mnemonic());
        }
    }

    #[test]
    fn bad_bool_code_is_rejected() {
        let mut rec = encode(&Instruction::Bool {
            op: IsaBoolOp::Nor,
            pipe: PipelineId(0),
            dst: Vr(0),
            a: Vr(0),
            b: Vr(0),
        });
        rec[1] = 99;
        assert!(matches!(decode(&rec), Err(Error::InvalidField { .. })));
    }

    #[test]
    fn non_canonical_records_are_rejected() {
        for inst in exemplars() {
            let canonical = encode(&inst);
            for byte in 1..RECORD_SIZE {
                let mut rec = canonical;
                rec[byte] ^= 0x02;
                if let Ok(back) = decode(&rec) {
                    assert_ne!(back, inst, "{} byte {byte}", inst.mnemonic());
                    assert_eq!(encode(&back), rec, "{} byte {byte}", inst.mnemonic());
                }
            }
        }
        let mut nop = [0u8; RECORD_SIZE];
        nop[15] = 1;
        assert_eq!(
            decode(&nop),
            Err(Error::InvalidField {
                mnemonic: "nop",
                reason: "non-canonical record (reserved bytes must be zero, flags 0 or 1)",
            })
        );
    }

    /// Arbitrary bytes never panic the decoder, and whatever it accepts
    /// re-encodes to exactly the bytes it was given. Half the records
    /// start with an assigned opcode so the payload paths are reached.
    #[test]
    fn arbitrary_bytes_decode_or_err_and_never_panic() {
        let mut state = 0x0DA5_7B00_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut accepted = 0;
        for _ in 0..200_000 {
            let len = (next() % 80) as usize;
            let mut bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            if next() & 1 == 0 {
                for record in bytes.chunks_mut(RECORD_SIZE) {
                    record[0] = (next() % (u64::from(opcode::HALT) + 1)) as u8;
                    // Sparse payloads make canonical records reachable.
                    for b in &mut record[1..] {
                        if next() % 16 != 0 {
                            *b = 0;
                        }
                    }
                }
            }
            if let Ok(program) = decode_program(&bytes) {
                assert_eq!(encode_program(&program), bytes);
                accepted += program.len();
            }
        }
        assert!(accepted > 1_000, "only {accepted} records decoded");
    }
}

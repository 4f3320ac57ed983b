//! Fixed-width binary encoding.
//!
//! Every instruction occupies one 16-byte record: an opcode byte followed
//! by little-endian operand fields at fixed offsets. Fixed-width records
//! keep the front end's fetch/decode trivially pipelined (one record per
//! cycle) and make program sizes predictable. Each opcode's offsets and
//! widths are one row of the instruction table both directions read.

use crate::instruction::{Instruction, Program, LAYOUTS, MAX_OPERANDS};
use crate::{Error, Result};

/// Size of one encoded instruction record.
pub const RECORD_SIZE: usize = 16;

/// Whether `op` is an assigned opcode byte. Decoding a record whose
/// first byte fails this check returns [`Error::UnknownOpcode`]; fuzzers
/// and the property suite use it to partition the byte space.
pub fn is_valid_opcode(op: u8) -> bool {
    usize::from(op) < LAYOUTS.len()
}

/// Encodes one instruction into a 16-byte record.
pub fn encode(inst: &Instruction) -> [u8; RECORD_SIZE] {
    let (op, values) = inst.fields();
    let mut word = u128::from(op);
    for (&(_, offset), value) in LAYOUTS[usize::from(op)].operands.iter().zip(values) {
        word |= u128::from(value) << (8 * offset);
    }
    word.to_le_bytes()
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
    let record = record
        .first_chunk::<RECORD_SIZE>()
        .ok_or(Error::Truncated { got: record.len() })?;
    let word = u128::from_le_bytes(*record);
    let op = record[0];
    let layout = LAYOUTS
        .get(usize::from(op))
        .ok_or(Error::UnknownOpcode(op))?;
    let mut values = [0u64; MAX_OPERANDS];
    let mut covered = 0xFF_u128;
    let mut in_range = true;
    for (value, &(kind, offset)) in values.iter_mut().zip(layout.operands) {
        let field = u128::from(kind.mask()) << (8 * offset);
        covered |= field;
        *value = ((word & field) >> (8 * offset)) as u64;
        in_range &= *value <= kind.max();
    }
    // A field read at its own width fits it, so the only value an
    // opcode's row cannot turn into an instruction is a `Bool` operator
    // code past the last operator.
    let inst = Instruction::from_fields(op, &values).ok_or(Error::InvalidField {
        mnemonic: layout.mnemonic,
        reason: "unknown boolean operator code",
    })?;
    // Each instruction has exactly one record: reserved bytes are zero
    // and flags are 0 or 1, so anything else is refused, not normalised.
    if !in_range || word & !covered != 0 {
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
    use crate::instruction::{opcode, IsaBoolOp, PipelineId, VaCoreId, Vr};

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
            Instruction::Bool {
                op: IsaBoolOp::Nor,
                pipe: PipelineId(0),
                dst: Vr(4),
                a: Vr(5),
                b: Vr(6),
            },
            Instruction::Bool {
                op: IsaBoolOp::Or,
                pipe: PipelineId(1),
                dst: Vr(7),
                a: Vr(8),
                b: Vr(9),
            },
            Instruction::Bool {
                op: IsaBoolOp::And,
                pipe: PipelineId(2),
                dst: Vr(10),
                a: Vr(11),
                b: Vr(12),
            },
            Instruction::Bool {
                op: IsaBoolOp::Nand,
                pipe: PipelineId(65535),
                dst: Vr(255),
                a: Vr(0),
                b: Vr(128),
            },
            Instruction::Bool {
                op: IsaBoolOp::Xnor,
                pipe: PipelineId(4),
                dst: Vr(13),
                a: Vr(14),
                b: Vr(15),
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

    /// The exemplar program's records and text, recorded before the
    /// codec became table-driven: any drift in an offset, a width, an
    /// opcode byte or a mnemonic moves one of these.
    #[test]
    fn exemplar_encoding_and_text_are_pinned() {
        let program: Program = exemplars().into_iter().collect();
        let bytes = encode_program(&program);
        let mut h = crate::fnv::Fnv1a::new();
        h.write(&bytes);
        assert_eq!(h.finish(), 0xd1b4_60d5_714f_60b1);
        let text = crate::asm::disassemble_program(&program);
        assert_eq!(crate::asm::assemble(&text), Ok(program));
        assert_eq!(
            text,
            "\
             nop\n\
             xor p513 v1 v2 v3\n\
             nor p0 v4 v5 v6\n\
             or p1 v7 v8 v9\n\
             and p2 v10 v11 v12\n\
             nand p65535 v255 v0 v128\n\
             xnor p4 v13 v14 v15\n\
             not p0 v4 v5\n\
             add p63 v9 v8 v7\n\
             sub p1 v0 v1 v2\n\
             mul p2 v3 v4 v5 8\n\
             cmplt p2 v3 v4 v5\n\
             select p2 v3 v6 v4 v5\n\
             relu p40 v1 v1\n\
             shl p3 v1 v2 17\n\
             shr p3 v1 v2 63\n\
             rotl p3 v1 v2 v9 8 32\n\
             copy p3 v1 v2\n\
             copyx p3 v1 p4 v2\n\
             eload p3 v1 p63 v2\n\
             prev p21\n\
             wimm p3 v1 42 0xdeadbeefcafef00d\n\
             mvm ac7 p1 v2 p3 v4 4\n\
             progm ac7 999\n\
             updrow ac7 13 55\n\
             updcol ac7 14 56\n\
             presv p11\n\
             valloc ac2 8 2 8 1\n\
             vfree ac2\n\
             fence\n\
             amode 0\n\
             dmode 1\n\
             halt\n"
        );
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

//! A line-oriented assembler and disassembler.
//!
//! One instruction per line, positional operands, `#` comments:
//!
//! ```text
//! # reduce two partial products
//! shl   p0 v3 v1 1
//! add   p0 v5 v0 v3
//! mvm   ac0 p1 v2 p3 v4 4
//! halt
//! ```
//!
//! Pipelines are written `pN`, vector registers `vN`, vACores `acN`;
//! numeric operands are plain decimal (or `0x…` hex for immediates).
//! Operand order and widths come from the same instruction table the
//! binary encoding reads, so an operand too wide for its field is a
//! parse error, never a truncation.

use crate::instruction::{opcode, Instruction, IsaBoolOp, Kind, Program, LAYOUTS, MAX_OPERANDS};
use crate::{Error, Result};
use std::fmt::Write as _;

/// Formats one instruction in assembly syntax.
pub fn disassemble(inst: &Instruction) -> String {
    let (op, values) = inst.fields();
    let mut s = String::from(inst.mnemonic());
    for (&(kind, _), value) in LAYOUTS[usize::from(op)].operands.iter().zip(values) {
        let _ = match kind {
            Kind::BoolOp => Ok(()),
            Kind::U64(_) => write!(s, " {value:#x}"),
            _ => write!(s, " {}{value}", kind.prefix()),
        };
    }
    s
}

/// Formats a whole program, one instruction per line.
pub fn disassemble_program(program: &Program) -> String {
    let mut out = String::new();
    for inst in program.iter() {
        out.push_str(&disassemble(inst));
        out.push('\n');
    }
    out
}

/// Parses one operand token of `kind`, range-checked against its field.
fn parse_operand(kind: Kind, tok: &str) -> std::result::Result<u64, String> {
    let (what, prefix) = (kind.name(), kind.prefix());
    let parsed = if !prefix.is_empty() {
        let digits = tok
            .strip_prefix(prefix)
            .ok_or_else(|| format!("expected {what} like `{prefix}0`, found `{tok}`"))?;
        digits.parse()
    } else if let Some(hex) = tok.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        tok.parse()
    };
    let value = parsed.map_err(|_| format!("invalid {what} `{tok}`"))?;
    let max = kind.max();
    if value > max {
        return Err(format!(
            "{what} `{tok}` out of range {prefix}0..={prefix}{max}"
        ));
    }
    Ok(value)
}

/// Parses one line of assembly (comments and blank lines return `None`).
///
/// # Errors
///
/// Returns [`Error::Parse`] with the given line number on malformed input,
/// including an operand outside its field's range.
pub fn parse_line(text: &str, line: usize) -> Result<Option<Instruction>> {
    let err = |reason: String| Error::Parse { line, reason };
    let mut tokens = text.split('#').next().unwrap_or("").split_whitespace();
    let Some(mnemonic) = tokens.next() else {
        return Ok(None);
    };
    // `Bool` is the one row spelled by an operand: its operator's name.
    let mut values = [0u64; MAX_OPERANDS];
    let layout = match IsaBoolOp::ALL.iter().find(|op| op.mnemonic() == mnemonic) {
        Some(op) => {
            values[0] = u64::from(op.code());
            &LAYOUTS[usize::from(opcode::BOOL)]
        }
        None => LAYOUTS
            .iter()
            .find(|l| l.mnemonic == mnemonic && l.opcode != opcode::BOOL)
            .ok_or_else(|| err(format!("unknown mnemonic `{mnemonic}`")))?,
    };
    for (value, &(kind, _)) in values.iter_mut().zip(layout.operands) {
        if kind != Kind::BoolOp {
            let tok = tokens
                .next()
                .ok_or_else(|| err(format!("missing {} operand", kind.name())))?;
            *value = parse_operand(kind, tok).map_err(err)?;
        }
    }
    if let Some(extra) = tokens.next() {
        return Err(err(format!(
            "unexpected operand `{extra}` after {mnemonic}"
        )));
    }
    Instruction::from_fields(layout.opcode, &values)
        .map(Some)
        .ok_or_else(|| err(format!("invalid operands for {mnemonic}")))
}

/// Assembles a multi-line program.
///
/// # Errors
///
/// Returns the first [`Error::Parse`] encountered.
pub fn assemble(source: &str) -> Result<Program> {
    let mut program = Program::new();
    for (i, line) in source.lines().enumerate() {
        if let Some(inst) = parse_line(line, i + 1)? {
            program.push(inst);
        }
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_basic_program() {
        let src = "\
            # compute a xor, then halt\n\
            xor p0 v2 v0 v1\n\
            \n\
            add p0 v3 v2 v2   # doubled\n\
            halt\n";
        let program = assemble(src).expect("parses");
        assert_eq!(program.len(), 3);
        assert_eq!(program.instructions[2], Instruction::Halt);
    }

    #[test]
    fn disassemble_then_reassemble_round_trips() {
        let src = "\
            nor p1 v1 v2 v3\n\
            not p1 v4 v1\n\
            mul p2 v0 v1 v2 8\n\
            select p0 v4 v3 v1 v2\n\
            rotl p0 v1 v2 v9 8 32\n\
            copyx p3 v1 p4 v2\n\
            eload p0 v1 p63 v2\n\
            wimm p0 v1 42 0xdeadbeef\n\
            mvm ac0 p1 v2 p3 v4 4\n\
            valloc ac2 8 2 8 1\n\
            fence\n\
            amode 0\n\
            halt\n";
        let program = assemble(src).expect("parses");
        let text = disassemble_program(&program);
        let again = assemble(&text).expect("reparses");
        assert_eq!(program, again);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = assemble("nop\nbogus p0\n").unwrap_err();
        match err {
            Error::Parse { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains("bogus"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn missing_operand_is_reported() {
        let err = assemble("add p0 v1 v2").unwrap_err();
        assert!(matches!(err, Error::Parse { line: 1, .. }));
    }

    #[test]
    fn extra_operand_is_reported() {
        let err = assemble("halt v1").unwrap_err();
        assert!(matches!(err, Error::Parse { line: 1, .. }));
    }

    #[test]
    fn wrong_prefix_is_reported() {
        let err = assemble("add v0 v1 v2 v3").unwrap_err();
        match err {
            Error::Parse { reason, .. } => assert!(reason.contains("pipeline")),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn out_of_range_operands_are_refused_not_truncated() {
        for (src, reason) in [
            ("wimm p0 v0 300 1", "element `300` out of range 0..=255"),
            (
                "add p70000 v1 v2 v3",
                "pipeline `p70000` out of range p0..=p65535",
            ),
            (
                "add p0 v256 v1 v2",
                "register `v256` out of range v0..=v255",
            ),
            (
                "mvm ac300 p0 v0 p1 v1 70000",
                "vACore `ac300` out of range ac0..=ac255",
            ),
            ("amode 2", "enabled flag `2` out of range 0..=1"),
        ] {
            assert_eq!(
                assemble(src),
                Err(Error::Parse {
                    line: 1,
                    reason: reason.into()
                }),
                "{src}"
            );
        }
        let err = assemble("mvm ac3 p0 v0 p1 v1 70000").unwrap_err();
        assert!(err
            .to_string()
            .contains("early_levels `70000` out of range 0..=65535"));
        // Every field's largest value still assembles.
        let max = "mvm ac255 p65535 v255 p65535 v255 65535\n\
                   wimm p65535 v255 255 0xffffffffffffffff\n\
                   valloc ac255 255 255 255 1\n";
        let program = assemble(max).expect("maximal operands parse");
        assert_eq!(disassemble_program(&program), max);
    }

    #[test]
    fn hex_and_decimal_immediates() {
        let p1 = assemble("wimm p0 v0 0 255").expect("parses");
        let p2 = assemble("wimm p0 v0 0 0xff").expect("parses");
        assert_eq!(p1, p2);
    }
}

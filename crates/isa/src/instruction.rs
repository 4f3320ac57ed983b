//! Instruction and operand definitions.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A digital pipeline within a hybrid compute tile (0..64 per HCT; the
/// field is wide enough for chip-global pipeline naming too).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct PipelineId(pub u16);

/// A vector register within a pipeline.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Vr(pub u8);

/// A virtual analog core (§4.2): a firmware-tracked group of analog arrays
/// presenting one wide-operand matrix unit.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct VaCoreId(pub u8);

impl fmt::Display for PipelineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for Vr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VaCoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ac{}", self.0)
    }
}

/// Boolean operators at the ISA level (mapped to the logic family's
/// primitives by the back end).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IsaBoolOp {
    /// `!(a | b)`.
    Nor,
    /// `a | b`.
    Or,
    /// `a & b`.
    And,
    /// `!(a & b)`.
    Nand,
    /// `a ^ b`.
    Xor,
    /// `!(a ^ b)`.
    Xnor,
}

impl IsaBoolOp {
    /// All operators, in encoding order.
    pub const ALL: [IsaBoolOp; 6] = [
        IsaBoolOp::Nor,
        IsaBoolOp::Or,
        IsaBoolOp::And,
        IsaBoolOp::Nand,
        IsaBoolOp::Xor,
        IsaBoolOp::Xnor,
    ];

    /// Encoding index: the operator's position in [`IsaBoolOp::ALL`].
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decodes an encoding index.
    pub fn from_code(code: u8) -> Option<Self> {
        IsaBoolOp::ALL.get(code as usize).copied()
    }

    /// Mnemonic suffix.
    pub fn mnemonic(self) -> &'static str {
        ["nor", "or", "and", "nand", "xor", "xnor"][self as usize]
    }
}

/// Opcode bytes; each is its row's index in [`LAYOUTS`].
pub(crate) mod opcode {
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

/// What one operand is: how assembly spells it and how many
/// little-endian bytes its record field takes. Numeric kinds carry the
/// operand's name for assembler diagnostics.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Pipeline `pN`, 2 bytes.
    Pipe,
    /// Vector register `vN`, 1 byte.
    Reg,
    /// vACore `acN`, 1 byte.
    Core,
    /// Number, 1 byte.
    U8(&'static str),
    /// Number, 2 bytes.
    U16(&'static str),
    /// Immediate, 8 bytes, disassembled as hex.
    U64(&'static str),
    /// 0 or 1, 1 byte.
    Flag(&'static str),
    /// `Bool`'s operator code, 1 byte; assembly spells it as the mnemonic.
    BoolOp,
}

impl Kind {
    /// Field width in bytes.
    pub(crate) fn width(self) -> usize {
        match self {
            Kind::Pipe | Kind::U16(_) => 2,
            Kind::U64(_) => 8,
            _ => 1,
        }
    }

    /// All ones over the field's width.
    pub(crate) fn mask(self) -> u64 {
        u64::MAX >> (64 - 8 * self.width())
    }

    /// The largest value the operand may take.
    pub(crate) fn max(self) -> u64 {
        match self {
            Kind::Flag(_) => 1,
            _ => self.mask(),
        }
    }

    /// The assembly prefix of a numbered resource (`p`, `v`, `ac`).
    pub(crate) fn prefix(self) -> &'static str {
        match self {
            Kind::Pipe => "p",
            Kind::Reg => "v",
            Kind::Core => "ac",
            _ => "",
        }
    }

    /// The operand's name in diagnostics.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Kind::Pipe => "pipeline",
            Kind::Reg => "register",
            Kind::Core => "vACore",
            Kind::BoolOp => "operator",
            Kind::U8(name) | Kind::U16(name) | Kind::U64(name) | Kind::Flag(name) => name,
        }
    }
}

/// Most operands any instruction has.
pub(crate) const MAX_OPERANDS: usize = 6;

/// Operand values in [`Layout::operands`] order.
pub(crate) type Fields = [u64; MAX_OPERANDS];

/// One opcode's 16-byte record layout and assembly form.
pub(crate) struct Layout {
    /// Record byte 0.
    pub(crate) opcode: u8,
    /// Assembly mnemonic (`Bool` is spelled by its operator instead).
    pub(crate) mnemonic: &'static str,
    /// Operands in assembly order, each with its record byte offset.
    /// Bytes no operand covers are reserved and must be zero.
    pub(crate) operands: &'static [(Kind, usize)],
}

const fn row(opcode: u8, mnemonic: &'static str, operands: &'static [(Kind, usize)]) -> Layout {
    Layout {
        opcode,
        mnemonic,
        operands,
    }
}

/// The instruction set, one row per opcode, indexed by opcode byte.
/// Encoding, decoding, assembly and disassembly all read this table.
#[rustfmt::skip]
pub(crate) static LAYOUTS: [Layout; 28] = {
    use Kind::{BoolOp, Core, Flag, Pipe, Reg, U16, U64, U8};
    [
        row(opcode::NOP, "nop", &[]),
        row(opcode::BOOL, "bool", &[(BoolOp, 1), (Pipe, 2), (Reg, 4), (Reg, 5), (Reg, 6)]),
        row(opcode::NOT, "not", &[(Pipe, 2), (Reg, 4), (Reg, 5)]),
        row(opcode::ADD, "add", &[(Pipe, 2), (Reg, 4), (Reg, 5), (Reg, 6)]),
        row(opcode::SUB, "sub", &[(Pipe, 2), (Reg, 4), (Reg, 5), (Reg, 6)]),
        row(opcode::MUL, "mul", &[(Pipe, 2), (Reg, 4), (Reg, 5), (Reg, 6), (U8("width"), 1)]),
        row(opcode::CMPLT, "cmplt", &[(Pipe, 2), (Reg, 4), (Reg, 5), (Reg, 6)]),
        row(opcode::SELECT, "select", &[(Pipe, 2), (Reg, 4), (Reg, 7), (Reg, 5), (Reg, 6)]),
        row(opcode::RELU, "relu", &[(Pipe, 2), (Reg, 4), (Reg, 5)]),
        row(opcode::SHL, "shl", &[(Pipe, 2), (Reg, 4), (Reg, 5), (U8("amount"), 1)]),
        row(opcode::SHR, "shr", &[(Pipe, 2), (Reg, 4), (Reg, 5), (U8("amount"), 1)]),
        row(opcode::ROTL, "rotl", &[
            (Pipe, 2), (Reg, 4), (Reg, 5), (Reg, 6), (U8("amount"), 1), (U8("width"), 7),
        ]),
        row(opcode::COPY, "copy", &[(Pipe, 2), (Reg, 4), (Reg, 5)]),
        row(opcode::COPYX, "copyx", &[(Pipe, 2), (Reg, 4), (Pipe, 5), (Reg, 7)]),
        row(opcode::ELOAD, "eload", &[(Pipe, 2), (Reg, 4), (Pipe, 5), (Reg, 7)]),
        row(opcode::PREV, "prev", &[(Pipe, 2)]),
        row(opcode::WIMM, "wimm", &[(Pipe, 2), (Reg, 4), (U8("element"), 1), (U64("value"), 8)]),
        row(opcode::MVM, "mvm", &[
            (Core, 1), (Pipe, 2), (Reg, 4), (Pipe, 5), (Reg, 7), (U16("early_levels"), 8),
        ]),
        row(opcode::PROGM, "progm", &[(Core, 1), (U16("matrix handle"), 2)]),
        row(opcode::UPDROW, "updrow", &[(Core, 1), (U8("row"), 2), (U16("data handle"), 4)]),
        row(opcode::UPDCOL, "updcol", &[(Core, 1), (U8("col"), 2), (U16("data handle"), 4)]),
        row(opcode::PRESV, "presv", &[(Pipe, 2)]),
        row(opcode::VALLOC, "valloc", &[
            (Core, 1), (U8("element bits"), 2), (U8("bits per cell"), 3), (U8("input bits"), 4),
            (Flag("signed flag"), 5),
        ]),
        row(opcode::VFREE, "vfree", &[(Core, 1)]),
        row(opcode::FENCE, "fence", &[]),
        row(opcode::AMODE, "amode", &[(Flag("enabled flag"), 1)]),
        row(opcode::DMODE, "dmode", &[(Flag("enabled flag"), 1)]),
        row(opcode::HALT, "halt", &[]),
    ]
};

/// One DARTH-PUM instruction.
///
/// The set divides into digital compute, analog/hybrid compute, and
/// coordination, mirroring §4.2. Bulk data (matrices for `ProgMatrix`,
/// immediate vectors) travels through a runtime side channel — matrices are
/// far too large for instruction operands — referenced by handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Instruction {
    /// No operation.
    Nop,
    /// Element-wise Boolean operation.
    Bool {
        /// Operator.
        op: IsaBoolOp,
        /// Target pipeline.
        pipe: PipelineId,
        /// Destination register.
        dst: Vr,
        /// First operand.
        a: Vr,
        /// Second operand.
        b: Vr,
    },
    /// Element-wise NOT.
    Not {
        /// Target pipeline.
        pipe: PipelineId,
        /// Destination register.
        dst: Vr,
        /// Operand.
        a: Vr,
    },
    /// Vector addition.
    Add {
        /// Target pipeline.
        pipe: PipelineId,
        /// Destination register.
        dst: Vr,
        /// First operand.
        a: Vr,
        /// Second operand.
        b: Vr,
    },
    /// Vector subtraction.
    Sub {
        /// Target pipeline.
        pipe: PipelineId,
        /// Destination register.
        dst: Vr,
        /// Minuend.
        a: Vr,
        /// Subtrahend.
        b: Vr,
    },
    /// Vector multiplication over `width`-bit operands.
    Mul {
        /// Target pipeline.
        pipe: PipelineId,
        /// Destination register.
        dst: Vr,
        /// First operand.
        a: Vr,
        /// Second operand.
        b: Vr,
        /// Operand width in bits.
        width: u8,
    },
    /// Unsigned less-than producing a 0/all-ones mask.
    CmpLt {
        /// Target pipeline.
        pipe: PipelineId,
        /// Destination register.
        dst: Vr,
        /// Left operand.
        a: Vr,
        /// Right operand.
        b: Vr,
    },
    /// Masked select `dst = cond ? a : b`.
    Select {
        /// Target pipeline.
        pipe: PipelineId,
        /// Destination register.
        dst: Vr,
        /// Mask register.
        cond: Vr,
        /// Taken when mask bits are 1.
        a: Vr,
        /// Taken when mask bits are 0.
        b: Vr,
    },
    /// Rectified linear unit.
    Relu {
        /// Target pipeline.
        pipe: PipelineId,
        /// Destination register.
        dst: Vr,
        /// Operand.
        a: Vr,
    },
    /// Constant left shift.
    ShiftLeft {
        /// Target pipeline.
        pipe: PipelineId,
        /// Destination register.
        dst: Vr,
        /// Source register.
        src: Vr,
        /// Shift amount in bits.
        amount: u8,
    },
    /// Constant logical right shift.
    ShiftRight {
        /// Target pipeline.
        pipe: PipelineId,
        /// Destination register.
        dst: Vr,
        /// Source register.
        src: Vr,
        /// Shift amount in bits.
        amount: u8,
    },
    /// Left rotation within the low `width` bits (ShiftRows building
    /// block).
    RotateLeft {
        /// Target pipeline.
        pipe: PipelineId,
        /// Destination register.
        dst: Vr,
        /// Source register.
        src: Vr,
        /// Scratch register.
        tmp: Vr,
        /// Rotation amount in bits.
        amount: u8,
        /// Rotation width in bits.
        width: u8,
    },
    /// Register copy within a pipeline.
    CopyVr {
        /// Target pipeline.
        pipe: PipelineId,
        /// Destination register.
        dst: Vr,
        /// Source register.
        src: Vr,
    },
    /// Vector copy between pipelines of the same tile.
    CopyAcross {
        /// Source pipeline.
        src_pipe: PipelineId,
        /// Source register.
        src: Vr,
        /// Destination pipeline.
        dst_pipe: PipelineId,
        /// Destination register.
        dst: Vr,
    },
    /// Element-wise indexed load from an adjacent pipeline (§4.2).
    ElementLoad {
        /// Pipeline holding the addresses (and receiving the data).
        pipe: PipelineId,
        /// Address register.
        addr: Vr,
        /// Pipeline holding the table (same tile).
        table_pipe: PipelineId,
        /// Destination register.
        dst: Vr,
    },
    /// Pipeline reversal (drains, then flips bit order).
    PipeReverse {
        /// Target pipeline.
        pipe: PipelineId,
    },
    /// Writes an immediate into one element of a register.
    WriteImm {
        /// Target pipeline.
        pipe: PipelineId,
        /// Destination register.
        vr: Vr,
        /// Element index.
        element: u8,
        /// The value (must fit the pipeline depth).
        value: u64,
    },
    /// Analog MVM through a vACore: input vector read from
    /// `input_pipe.input_vr`, reduced result written to `dst_pipe.dst_vr`.
    Mvm {
        /// The virtual analog core holding the matrix.
        vacore: VaCoreId,
        /// Pipeline holding the input vector.
        input_pipe: PipelineId,
        /// Input register.
        input_vr: Vr,
        /// Pipeline receiving the reduced output.
        dst_pipe: PipelineId,
        /// Output register.
        dst_vr: Vr,
        /// Ramp-ADC early-termination level count (0 = full sweep).
        early_levels: u16,
    },
    /// Programs a matrix (by side-channel handle) into a vACore.
    ProgMatrix {
        /// Target vACore.
        vacore: VaCoreId,
        /// Runtime handle of the matrix data.
        matrix_handle: u16,
    },
    /// Reprograms one matrix row from a side-channel handle.
    UpdateRow {
        /// Target vACore.
        vacore: VaCoreId,
        /// Row index.
        row: u8,
        /// Runtime handle of the row data.
        data_handle: u16,
    },
    /// Reprograms one matrix column from a side-channel handle.
    UpdateCol {
        /// Target vACore.
        vacore: VaCoreId,
        /// Column index.
        col: u8,
        /// Runtime handle of the column data.
        data_handle: u16,
    },
    /// Reserves a pipeline for MVM partial products, marking its contents
    /// dead (§4.2's corruption-avoidance mechanism).
    PipeReserve {
        /// The pipeline to reserve.
        pipe: PipelineId,
    },
    /// Allocates a vACore spanning `arrays` analog arrays with the given
    /// element width and device precision, and installs its shift-and-add
    /// program into the instruction injection unit.
    AllocVaCore {
        /// New vACore id.
        vacore: VaCoreId,
        /// Matrix element width in bits.
        element_bits: u8,
        /// Device bits per cell.
        bits_per_cell: u8,
        /// Input width in bits.
        input_bits: u8,
        /// Whether inputs are two's complement.
        input_signed: bool,
    },
    /// Frees a vACore.
    FreeVaCore {
        /// The vACore to free.
        vacore: VaCoreId,
    },
    /// Orders all younger instructions after all older analog/digital
    /// operations on this tile (the arbiter's serialization point).
    FenceAd,
    /// Enables or disables the tile's analog compute element
    /// (`disableAnalogMode` copies matrices to digital arrays first at the
    /// runtime level).
    SetAnalogMode {
        /// Whether the ACE is active.
        enabled: bool,
    },
    /// Enables or disables DCE post-processing.
    SetDigitalMode {
        /// Whether the DCE is active.
        enabled: bool,
    },
    /// Terminates the program.
    Halt,
}

impl Instruction {
    /// The instruction's mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instruction::Bool { op, .. } => op.mnemonic(),
            _ => LAYOUTS[usize::from(self.fields().0)].mnemonic,
        }
    }

    /// The instruction's opcode and its operand values in [`LAYOUTS`]
    /// order (unused trailing slots are zero). With
    /// [`Instruction::from_fields`], the only per-variant code the
    /// encoding and the assembler share.
    #[rustfmt::skip]
    pub(crate) fn fields(&self) -> (u8, Fields) {
        fn with<const N: usize>(opcode: u8, values: [u64; N]) -> (u8, Fields) {
            let mut fields = [0; MAX_OPERANDS];
            fields[..N].copy_from_slice(&values);
            (opcode, fields)
        }
        let p = |pipe: PipelineId| u64::from(pipe.0);
        let v = |vr: Vr| u64::from(vr.0);
        let ac = |core: VaCoreId| u64::from(core.0);
        let n = <u64 as From<u8>>::from;
        let h = <u64 as From<u16>>::from;
        let f = <u64 as From<bool>>::from;
        use Instruction as I;
        match *self {
            I::Nop => with(opcode::NOP, []),
            I::Bool { op, pipe, dst, a, b } =>
                with(opcode::BOOL, [n(op.code()), p(pipe), v(dst), v(a), v(b)]),
            I::Not { pipe, dst, a } => with(opcode::NOT, [p(pipe), v(dst), v(a)]),
            I::Add { pipe, dst, a, b } => with(opcode::ADD, [p(pipe), v(dst), v(a), v(b)]),
            I::Sub { pipe, dst, a, b } => with(opcode::SUB, [p(pipe), v(dst), v(a), v(b)]),
            I::Mul { pipe, dst, a, b, width } =>
                with(opcode::MUL, [p(pipe), v(dst), v(a), v(b), n(width)]),
            I::CmpLt { pipe, dst, a, b } => with(opcode::CMPLT, [p(pipe), v(dst), v(a), v(b)]),
            I::Select { pipe, dst, cond, a, b } =>
                with(opcode::SELECT, [p(pipe), v(dst), v(cond), v(a), v(b)]),
            I::Relu { pipe, dst, a } => with(opcode::RELU, [p(pipe), v(dst), v(a)]),
            I::ShiftLeft { pipe, dst, src, amount } =>
                with(opcode::SHL, [p(pipe), v(dst), v(src), n(amount)]),
            I::ShiftRight { pipe, dst, src, amount } =>
                with(opcode::SHR, [p(pipe), v(dst), v(src), n(amount)]),
            I::RotateLeft { pipe, dst, src, tmp, amount, width } =>
                with(opcode::ROTL, [p(pipe), v(dst), v(src), v(tmp), n(amount), n(width)]),
            I::CopyVr { pipe, dst, src } => with(opcode::COPY, [p(pipe), v(dst), v(src)]),
            I::CopyAcross { src_pipe, src, dst_pipe, dst } =>
                with(opcode::COPYX, [p(src_pipe), v(src), p(dst_pipe), v(dst)]),
            I::ElementLoad { pipe, addr, table_pipe, dst } =>
                with(opcode::ELOAD, [p(pipe), v(addr), p(table_pipe), v(dst)]),
            I::PipeReverse { pipe } => with(opcode::PREV, [p(pipe)]),
            I::WriteImm { pipe, vr, element, value } =>
                with(opcode::WIMM, [p(pipe), v(vr), n(element), value]),
            I::Mvm { vacore, input_pipe, input_vr, dst_pipe, dst_vr, early_levels } =>
                with(opcode::MVM, [
                    ac(vacore), p(input_pipe), v(input_vr), p(dst_pipe), v(dst_vr), h(early_levels),
                ]),
            I::ProgMatrix { vacore, matrix_handle } =>
                with(opcode::PROGM, [ac(vacore), h(matrix_handle)]),
            I::UpdateRow { vacore, row, data_handle } =>
                with(opcode::UPDROW, [ac(vacore), n(row), h(data_handle)]),
            I::UpdateCol { vacore, col, data_handle } =>
                with(opcode::UPDCOL, [ac(vacore), n(col), h(data_handle)]),
            I::PipeReserve { pipe } => with(opcode::PRESV, [p(pipe)]),
            I::AllocVaCore { vacore, element_bits, bits_per_cell, input_bits, input_signed } =>
                with(opcode::VALLOC, [
                    ac(vacore), n(element_bits), n(bits_per_cell), n(input_bits), f(input_signed),
                ]),
            I::FreeVaCore { vacore } => with(opcode::VFREE, [ac(vacore)]),
            I::FenceAd => with(opcode::FENCE, []),
            I::SetAnalogMode { enabled } => with(opcode::AMODE, [f(enabled)]),
            I::SetDigitalMode { enabled } => with(opcode::DMODE, [f(enabled)]),
            I::Halt => with(opcode::HALT, []),
        }
    }

    /// The inverse of [`Instruction::fields`]. Every value must fit its
    /// operand's field width (a record read or a range-checked parse
    /// guarantees it). `None` for an unassigned opcode or a `Bool`
    /// operator code past [`IsaBoolOp::ALL`].
    #[rustfmt::skip]
    pub(crate) fn from_fields(opcode: u8, v: &Fields) -> Option<Instruction> {
        let p = |i: usize| PipelineId(v[i] as u16);
        let r = |i: usize| Vr(v[i] as u8);
        let ac = |i: usize| VaCoreId(v[i] as u8);
        let n = |i: usize| v[i] as u8;
        let h = |i: usize| v[i] as u16;
        let f = |i: usize| v[i] != 0;
        use Instruction as I;
        Some(match opcode {
            opcode::NOP => I::Nop,
            opcode::BOOL => I::Bool {
                op: IsaBoolOp::from_code(n(0))?, pipe: p(1), dst: r(2), a: r(3), b: r(4),
            },
            opcode::NOT => I::Not { pipe: p(0), dst: r(1), a: r(2) },
            opcode::ADD => I::Add { pipe: p(0), dst: r(1), a: r(2), b: r(3) },
            opcode::SUB => I::Sub { pipe: p(0), dst: r(1), a: r(2), b: r(3) },
            opcode::MUL => I::Mul { pipe: p(0), dst: r(1), a: r(2), b: r(3), width: n(4) },
            opcode::CMPLT => I::CmpLt { pipe: p(0), dst: r(1), a: r(2), b: r(3) },
            opcode::SELECT => I::Select { pipe: p(0), dst: r(1), cond: r(2), a: r(3), b: r(4) },
            opcode::RELU => I::Relu { pipe: p(0), dst: r(1), a: r(2) },
            opcode::SHL => I::ShiftLeft { pipe: p(0), dst: r(1), src: r(2), amount: n(3) },
            opcode::SHR => I::ShiftRight { pipe: p(0), dst: r(1), src: r(2), amount: n(3) },
            opcode::ROTL => I::RotateLeft {
                pipe: p(0), dst: r(1), src: r(2), tmp: r(3), amount: n(4), width: n(5),
            },
            opcode::COPY => I::CopyVr { pipe: p(0), dst: r(1), src: r(2) },
            opcode::COPYX => I::CopyAcross { src_pipe: p(0), src: r(1), dst_pipe: p(2), dst: r(3) },
            opcode::ELOAD => I::ElementLoad { pipe: p(0), addr: r(1), table_pipe: p(2), dst: r(3) },
            opcode::PREV => I::PipeReverse { pipe: p(0) },
            opcode::WIMM => I::WriteImm { pipe: p(0), vr: r(1), element: n(2), value: v[3] },
            opcode::MVM => I::Mvm {
                vacore: ac(0), input_pipe: p(1), input_vr: r(2), dst_pipe: p(3), dst_vr: r(4),
                early_levels: h(5),
            },
            opcode::PROGM => I::ProgMatrix { vacore: ac(0), matrix_handle: h(1) },
            opcode::UPDROW => I::UpdateRow { vacore: ac(0), row: n(1), data_handle: h(2) },
            opcode::UPDCOL => I::UpdateCol { vacore: ac(0), col: n(1), data_handle: h(2) },
            opcode::PRESV => I::PipeReserve { pipe: p(0) },
            opcode::VALLOC => I::AllocVaCore {
                vacore: ac(0), element_bits: n(1), bits_per_cell: n(2), input_bits: n(3),
                input_signed: f(4),
            },
            opcode::VFREE => I::FreeVaCore { vacore: ac(0) },
            opcode::FENCE => I::FenceAd,
            opcode::AMODE => I::SetAnalogMode { enabled: f(0) },
            opcode::DMODE => I::SetDigitalMode { enabled: f(0) },
            opcode::HALT => I::Halt,
            _ => return None,
        })
    }

    /// Whether this instruction touches the analog domain (and therefore
    /// passes through the A/D arbiter).
    pub fn is_analog(&self) -> bool {
        matches!(
            self,
            Instruction::Mvm { .. }
                | Instruction::ProgMatrix { .. }
                | Instruction::UpdateRow { .. }
                | Instruction::UpdateCol { .. }
        )
    }

    /// Whether this is a coordination (non-compute) instruction.
    pub fn is_coordination(&self) -> bool {
        matches!(
            self,
            Instruction::Nop
                | Instruction::PipeReserve { .. }
                | Instruction::AllocVaCore { .. }
                | Instruction::FreeVaCore { .. }
                | Instruction::FenceAd
                | Instruction::SetAnalogMode { .. }
                | Instruction::SetDigitalMode { .. }
                | Instruction::Halt
        )
    }
}

/// A sequence of instructions.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Program {
    /// The instructions in program order.
    pub instructions: Vec<Instruction>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Appends an instruction.
    pub fn push(&mut self, inst: Instruction) -> &mut Self {
        self.instructions.push(inst);
        self
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Iterates the instructions in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }

    /// Whether the program contains no `halt` — the invariant for
    /// split-program setup and per-request input sections, which must
    /// fall through into the section concatenated after them.
    pub fn is_halt_free(&self) -> bool {
        !self
            .instructions
            .iter()
            .any(|i| matches!(i, Instruction::Halt))
    }

    /// Whether the program's final instruction is `halt` — the
    /// invariant for split-program bodies (and monolithic jobs).
    pub fn ends_with_halt(&self) -> bool {
        matches!(self.instructions.last(), Some(Instruction::Halt))
    }
}

impl FromIterator<Instruction> for Program {
    fn from_iter<T: IntoIterator<Item = Instruction>>(iter: T) -> Self {
        Program {
            instructions: iter.into_iter().collect(),
        }
    }
}

impl Extend<Instruction> for Program {
    fn extend<T: IntoIterator<Item = Instruction>>(&mut self, iter: T) {
        self.instructions.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_rows_are_indexed_by_opcode_and_fields_are_disjoint() {
        for (i, layout) in LAYOUTS.iter().enumerate() {
            assert_eq!(usize::from(layout.opcode), i, "{}", layout.mnemonic);
            assert!(layout.operands.len() <= MAX_OPERANDS);
            let mut used = [false; 16];
            used[0] = true;
            for &(kind, offset) in layout.operands {
                for byte in &mut used[offset..offset + kind.width()] {
                    assert!(!*byte, "{} byte {offset} overlaps", layout.mnemonic);
                    *byte = true;
                }
            }
        }
    }

    #[test]
    fn bool_op_codes_round_trip() {
        for op in IsaBoolOp::ALL {
            assert_eq!(IsaBoolOp::from_code(op.code()), Some(op));
        }
        assert_eq!(IsaBoolOp::from_code(6), None);
    }

    #[test]
    fn analog_classification() {
        assert!(Instruction::Mvm {
            vacore: VaCoreId(0),
            input_pipe: PipelineId(0),
            input_vr: Vr(0),
            dst_pipe: PipelineId(1),
            dst_vr: Vr(0),
            early_levels: 0,
        }
        .is_analog());
        assert!(!Instruction::Add {
            pipe: PipelineId(0),
            dst: Vr(0),
            a: Vr(1),
            b: Vr(2),
        }
        .is_analog());
    }

    #[test]
    fn coordination_classification() {
        assert!(Instruction::FenceAd.is_coordination());
        assert!(Instruction::Halt.is_coordination());
        assert!(!Instruction::Not {
            pipe: PipelineId(0),
            dst: Vr(0),
            a: Vr(1),
        }
        .is_coordination());
    }

    #[test]
    fn program_collects() {
        let p: Program = [Instruction::Nop, Instruction::Halt].into_iter().collect();
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        let mnems: Vec<&str> = p.iter().map(|i| i.mnemonic()).collect();
        assert_eq!(mnems, vec!["nop", "halt"]);
    }

    #[test]
    fn display_newtypes() {
        assert_eq!(format!("{}", PipelineId(3)), "p3");
        assert_eq!(format!("{}", Vr(7)), "v7");
        assert_eq!(format!("{}", VaCoreId(1)), "ac1");
    }
}

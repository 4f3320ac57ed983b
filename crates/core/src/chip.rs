//! Whole-chip assembly and ISA interpretation.
//!
//! A [`DarthPumChip`] couples the iso-area sizing of [`ChipParams`] with
//! one or more *functional* hybrid compute tiles and a front-end model. It
//! executes [`darth_isa`] programs instruction by instruction: digital ops
//! dispatch to pipelines, analog ops route through vACores and the
//! arbiter, and coordination ops manage allocation — exactly the §4.2
//! flow. Bulk data (matrices, immediates) is supplied through a
//! [`SideChannel`], mirroring how a host would stage data into the chip's
//! memory before launching a kernel.

use crate::front_end::FrontEnd;
use crate::hct::{GenericTile, HctConfig};
use crate::params::ChipParams;
use crate::{Error, Result};
use darth_digital::{BoolOp, DcePipeline, PackedPipeline, Pipeline};
use darth_isa::iiu::ReductionRegs;
use darth_isa::instruction::{Instruction, IsaBoolOp, Program};
use darth_isa::{PipelineId, VaCoreId, Vr};
use darth_reram::{Cycles, EnergyMeter};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::marker::PhantomData;

/// Host-staged bulk data referenced by instruction handles.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SideChannel {
    /// Matrices for `ProgMatrix`, keyed by handle.
    pub matrices: BTreeMap<u16, Vec<Vec<i64>>>,
    /// Row/column vectors for `UpdateRow`/`UpdateCol`, keyed by handle.
    pub vectors: BTreeMap<u16, Vec<i64>>,
}

impl SideChannel {
    /// Creates an empty side channel.
    pub fn new() -> Self {
        SideChannel::default()
    }

    /// Stages a matrix, returning its handle.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ResourceExhausted`] once handle `u16::MAX` is in
    /// use — the next allocation would wrap the `u16` handle space that
    /// instructions encode.
    pub fn stage_matrix(&mut self, matrix: Vec<Vec<i64>>) -> Result<u16> {
        let handle = Self::next_handle(&self.matrices, "matrix handles")?;
        self.matrices.insert(handle, matrix);
        Ok(handle)
    }

    /// Stages a vector, returning its handle.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ResourceExhausted`] once handle `u16::MAX` is in
    /// use (see [`SideChannel::stage_matrix`]).
    pub fn stage_vector(&mut self, vector: Vec<i64>) -> Result<u16> {
        let handle = Self::next_handle(&self.vectors, "vector handles")?;
        self.vectors.insert(handle, vector);
        Ok(handle)
    }

    /// One past the highest staged handle, or an error when the `u16`
    /// handle space is exhausted.
    fn next_handle<T>(staged: &BTreeMap<u16, T>, what: &'static str) -> Result<u16> {
        match staged.keys().next_back() {
            None => Ok(0),
            Some(&k) => k.checked_add(1).ok_or(Error::ResourceExhausted(what)),
        }
    }
}

/// Execution statistics of one program run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunStats {
    /// Instructions executed (including the halting instruction).
    pub instructions: u64,
    /// Analog instructions among them.
    pub analog_instructions: u64,
    /// Front-end issue cycles consumed.
    pub issue_cycles: u64,
}

/// The DARTH-PUM chip, generic over its DCE pipeline implementation.
///
/// [`DarthPumChip`] is the reference chip over cell-accurate
/// [`Pipeline`]s; [`FastChip`] swaps in [`PackedPipeline`]s. All ISA
/// interpretation, accounting and side-channel handling is shared.
#[derive(Debug, Clone)]
pub struct GenericChip<P: DcePipeline> {
    params: ChipParams,
    tile: GenericTile<P>,
    front_end: FrontEnd,
    analog_enabled: bool,
    digital_enabled: bool,
}

/// The reference chip: cell-accurate pipelines.
pub type DarthPumChip = GenericChip<Pipeline>;

/// The fast-path chip: packed bit-plane pipelines.
pub type FastChip = GenericChip<PackedPipeline>;

/// A decoded program prepared for repeated runs: its executed prefix and
/// the run statistics that prefix will report.
///
/// [`GenericChip::compile`] finds the first `halt` and precomputes the
/// executed-prefix length, analog count and per-mnemonic histogram once,
/// so repeated [`GenericChip::run_compiled`] runs only pay for the work
/// the instructions actually do. Execution itself is the interpreter's:
/// both entry points dispatch through the one `match` over
/// [`Instruction`]. The type parameter ties a compiled program to the
/// chip flavour it was compiled for.
pub struct CompiledProgram<P: DcePipeline> {
    /// The instructions before the first `halt`.
    body: Vec<Instruction>,
    instructions: u64,
    analog_instructions: u64,
    histogram: BTreeMap<&'static str, u64>,
    chip: PhantomData<fn() -> P>,
}

impl<P: DcePipeline> CompiledProgram<P> {
    /// Instructions executed per run: the prefix through the first `halt`
    /// (inclusive), or the whole program when there is none.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Analog instructions among [`CompiledProgram::instructions`].
    pub fn analog_instructions(&self) -> u64 {
        self.analog_instructions
    }

    /// Per-mnemonic instruction counts over the executed prefix. Keys are
    /// the interned `&'static str` mnemonics from
    /// [`Instruction::mnemonic`], so merging a run's histogram into a
    /// machine's lifetime histogram never clones a key.
    pub fn histogram(&self) -> &BTreeMap<&'static str, u64> {
        &self.histogram
    }
}

impl<P: DcePipeline> std::fmt::Debug for CompiledProgram<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledProgram")
            .field("body", &self.body.len())
            .field("instructions", &self.instructions)
            .field("analog_instructions", &self.analog_instructions)
            .finish()
    }
}

/// The executed prefix of `program`: the instructions before the first
/// `halt`, and whether a `halt` ends it.
fn executed_prefix(program: &Program) -> (&[Instruction], bool) {
    let all = program.instructions.as_slice();
    match all.iter().position(|i| matches!(i, Instruction::Halt)) {
        Some(halt) => (&all[..halt], true),
        None => (all, false),
    }
}

impl<P: DcePipeline> GenericChip<P> {
    /// Builds a chip with one functional tile (the architecture replicates
    /// it; throughput scaling is the model layer's job).
    ///
    /// # Errors
    ///
    /// Propagates tile construction errors.
    pub fn new(params: ChipParams, tile_config: HctConfig) -> Result<Self> {
        let tile = GenericTile::new(tile_config)?;
        Ok(GenericChip {
            params,
            tile,
            front_end: FrontEnd::new(),
            analog_enabled: true,
            digital_enabled: true,
        })
    }

    /// Chip-level parameters (iso-area sizing).
    pub fn params(&self) -> &ChipParams {
        &self.params
    }

    /// The functional tile.
    pub fn tile(&self) -> &GenericTile<P> {
        &self.tile
    }

    /// Mutable access to the functional tile (application mappings drive
    /// pipelines directly for digital-only kernels).
    pub fn tile_mut(&mut self) -> &mut GenericTile<P> {
        &mut self.tile
    }

    /// The front-end model.
    pub fn front_end(&self) -> &FrontEnd {
        &self.front_end
    }

    /// Merged energy meter.
    pub fn energy_meter(&self) -> EnergyMeter {
        let mut meter = self.tile.energy_meter();
        meter.add(
            "front_end",
            self.front_end.energy(Cycles::new(self.front_end.issued())),
        );
        meter
    }

    /// Executes a program against the functional tile.
    ///
    /// Returns statistics; results live in the tile's pipelines and can be
    /// read back through [`GenericChip::tile`]. Front-end cycles are
    /// issued as in [`GenericChip::run_compiled`].
    ///
    /// # Errors
    ///
    /// Returns the first execution error (bad operands, arbiter conflicts,
    /// missing side-channel data).
    pub fn execute(&mut self, program: &Program, data: &SideChannel) -> Result<RunStats> {
        let (body, halted) = executed_prefix(program);
        let issue_cycles = self.run_prefix(body, halted, data)?;
        Ok(RunStats {
            instructions: body.len() as u64 + u64::from(halted),
            analog_instructions: body.iter().filter(|i| i.is_analog()).count() as u64,
            issue_cycles,
        })
    }

    /// Prepares `program` for repeated [`GenericChip::run_compiled`] runs.
    ///
    /// Only the executed prefix (through the first `halt`, inclusive)
    /// counts; instructions after a `halt` never run. Unknown opcodes are
    /// kept and fail at run time exactly as [`GenericChip::execute`]
    /// fails on them.
    pub fn compile(program: &Program) -> CompiledProgram<P> {
        let (body, halted) = executed_prefix(program);
        // Count per static mnemonic first (a handful of distinct entries)
        // so the per-instruction loop never allocates key strings.
        let mut counts: Vec<(&'static str, u64)> = Vec::new();
        let halt = halted.then_some(&Instruction::Halt);
        for inst in body.iter().chain(halt) {
            let mnemonic = inst.mnemonic();
            match counts.iter_mut().find(|(m, _)| *m == mnemonic) {
                Some((_, n)) => *n += 1,
                None => counts.push((mnemonic, 1)),
            }
        }
        CompiledProgram {
            body: body.to_vec(),
            instructions: body.len() as u64 + u64::from(halted),
            analog_instructions: body.iter().filter(|i| i.is_analog()).count() as u64,
            histogram: counts.into_iter().collect(),
            chip: PhantomData,
        }
    }

    /// Runs a [`CompiledProgram`] against the chip.
    ///
    /// Bit-identical to interpreting the same program with
    /// [`GenericChip::execute`]: both run the same loop. The front end
    /// issues one cycle as each instruction is reached, before it
    /// executes, and one for a terminating `halt` after the prefix
    /// completes; a failing instruction has therefore been issued, and
    /// nothing after it has.
    ///
    /// # Errors
    ///
    /// Returns the first execution error, exactly as the interpreter
    /// would.
    pub fn run_compiled(
        &mut self,
        program: &CompiledProgram<P>,
        data: &SideChannel,
    ) -> Result<RunStats> {
        let halted = program.instructions > program.body.len() as u64;
        let issue_cycles = self.run_prefix(&program.body, halted, data)?;
        Ok(RunStats {
            instructions: program.instructions,
            analog_instructions: program.analog_instructions,
            issue_cycles,
        })
    }

    /// The run loop shared by [`GenericChip::execute`] and
    /// [`GenericChip::run_compiled`]: issues and executes each instruction
    /// of `body` in order, then issues the terminating `halt`, if any.
    /// Returns the issue cycles consumed.
    fn run_prefix(
        &mut self,
        body: &[Instruction],
        halted: bool,
        data: &SideChannel,
    ) -> Result<u64> {
        let mut issue_cycles = 0;
        for inst in body {
            issue_cycles += self.front_end.issue(1).get();
            self.execute_one(inst, data)?;
        }
        if halted {
            issue_cycles += self.front_end.issue(1).get();
        }
        Ok(issue_cycles)
    }

    /// Fails with [`Error::DomainDisabled`] unless `enabled`.
    fn require(enabled: bool, domain: &'static str) -> Result<()> {
        if enabled {
            Ok(())
        } else {
            Err(Error::DomainDisabled(domain))
        }
    }

    /// The pipeline a DCE instruction targets, checked after the digital
    /// domain.
    fn digital_pipe(&mut self, pipe: PipelineId) -> Result<&mut P> {
        Self::require(self.digital_enabled, "digital")?;
        self.tile.pipeline_mut(usize::from(pipe.0))
    }

    /// The two pipelines of a cross-pipeline DCE instruction, checked
    /// after the digital domain.
    fn digital_pair(&mut self, a: PipelineId, b: PipelineId) -> Result<(&mut P, &mut P)> {
        Self::require(self.digital_enabled, "digital")?;
        self.tile.pipeline_pair(usize::from(a.0), usize::from(b.0))
    }

    /// Executes one instruction — the chip's only instruction dispatch.
    fn execute_one(&mut self, inst: &Instruction, data: &SideChannel) -> Result<()> {
        let r = |vr: Vr| usize::from(vr.0);
        match *inst {
            // `presv` marks a pipeline's registers dead for MVM landing;
            // the functional model needs no action beyond arbiter intent.
            Instruction::Nop
            | Instruction::FenceAd
            | Instruction::Halt
            | Instruction::PipeReserve { .. } => Ok(()),
            Instruction::Bool {
                op,
                pipe,
                dst,
                a,
                b,
            } => {
                let pipe = self.digital_pipe(pipe)?;
                let op = match op {
                    IsaBoolOp::Nor => BoolOp::Nor,
                    IsaBoolOp::Or => BoolOp::Or,
                    IsaBoolOp::And => BoolOp::And,
                    IsaBoolOp::Nand => BoolOp::Nand,
                    IsaBoolOp::Xor => BoolOp::Xor,
                    IsaBoolOp::Xnor => BoolOp::Xnor,
                };
                Ok(pipe.bool_op(op, r(dst), r(a), r(b))?)
            }
            Instruction::Not { pipe, dst, a } => Ok(self.digital_pipe(pipe)?.not(r(dst), r(a))?),
            Instruction::Add { pipe, dst, a, b } => {
                Ok(self.digital_pipe(pipe)?.add(r(dst), r(a), r(b))?)
            }
            Instruction::Sub { pipe, dst, a, b } => {
                Ok(self.digital_pipe(pipe)?.sub(r(dst), r(a), r(b))?)
            }
            Instruction::Mul {
                pipe,
                dst,
                a,
                b,
                width,
            } => Ok(self.digital_pipe(pipe)?.mul(r(dst), r(a), r(b), width)?),
            Instruction::CmpLt { pipe, dst, a, b } => {
                Ok(self.digital_pipe(pipe)?.cmp_lt(r(dst), r(a), r(b))?)
            }
            Instruction::Select {
                pipe,
                dst,
                cond,
                a,
                b,
            } => Ok(self
                .digital_pipe(pipe)?
                .select(r(dst), r(cond), r(a), r(b))?),
            Instruction::Relu { pipe, dst, a } => {
                Ok(self.digital_pipe(pipe)?.relu(r(dst), r(a))?)
            }
            Instruction::ShiftLeft {
                pipe,
                dst,
                src,
                amount,
            } => Ok(self
                .digital_pipe(pipe)?
                .shl(r(dst), r(src), amount.into())?),
            Instruction::ShiftRight {
                pipe,
                dst,
                src,
                amount,
            } => Ok(self
                .digital_pipe(pipe)?
                .shr(r(dst), r(src), amount.into())?),
            Instruction::RotateLeft {
                pipe,
                dst,
                src,
                tmp,
                amount,
                width,
            } => Ok(self.digital_pipe(pipe)?.rotate_left(
                r(dst),
                r(src),
                r(tmp),
                amount.into(),
                width.into(),
            )?),
            Instruction::CopyVr { pipe, dst, src } => {
                Ok(self.digital_pipe(pipe)?.copy_vr(r(dst), r(src))?)
            }
            Instruction::CopyAcross {
                src_pipe,
                src,
                dst_pipe,
                dst,
            } => {
                let (dst_p, src_p) = self.digital_pair(dst_pipe, src_pipe)?;
                Ok(dst_p.copy_from(src_p, r(src), r(dst))?)
            }
            Instruction::ElementLoad {
                pipe,
                addr,
                table_pipe,
                dst,
            } => {
                let (p, table) = self.digital_pair(pipe, table_pipe)?;
                Ok(p.elementwise_load(r(addr), table, r(dst))?)
            }
            Instruction::PipeReverse { pipe } => {
                self.digital_pipe(pipe)?.reverse();
                Ok(())
            }
            Instruction::WriteImm {
                pipe,
                vr,
                element,
                value,
            } => {
                let pipe = self.tile.pipeline_mut(usize::from(pipe.0))?;
                Ok(pipe.write_value(r(vr), element.into(), value)?)
            }
            Instruction::AllocVaCore {
                vacore,
                element_bits,
                bits_per_cell,
                input_bits,
                input_signed,
            } => {
                Self::require(self.analog_enabled, "analog")?;
                let allocated = self.tile.alloc_vacore(
                    element_bits,
                    bits_per_cell,
                    input_bits,
                    input_signed,
                )?;
                if allocated != vacore {
                    return Err(Error::VaCore(format!(
                        "program expected vACore {vacore}, firmware allocated {allocated}"
                    )));
                }
                Ok(())
            }
            Instruction::FreeVaCore { vacore } => self.tile.free_vacore(vacore),
            Instruction::ProgMatrix {
                vacore,
                matrix_handle,
            } => {
                Self::require(self.analog_enabled, "analog")?;
                let matrix = data
                    .matrices
                    .get(&matrix_handle)
                    .ok_or(Error::UnknownMatrix(matrix_handle.into()))?;
                self.tile.set_matrix(vacore, matrix).map(drop)
            }
            Instruction::UpdateRow {
                vacore,
                row,
                data_handle,
            } => {
                let values = data
                    .vectors
                    .get(&data_handle)
                    .ok_or(Error::UnknownMatrix(data_handle.into()))?;
                self.tile.update_row(vacore, row.into(), values).map(drop)
            }
            Instruction::UpdateCol {
                vacore,
                col,
                data_handle,
            } => {
                // Column updates reprogram one device column per slice.
                let values = data
                    .vectors
                    .get(&data_handle)
                    .ok_or(Error::UnknownMatrix(data_handle.into()))?;
                self.update_col(vacore, col.into(), values)
            }
            Instruction::Mvm {
                vacore,
                input_pipe,
                input_vr,
                dst_pipe,
                dst_vr,
                early_levels,
            } => {
                Self::require(self.analog_enabled, "analog")?;
                self.exec_mvm_instruction(
                    vacore,
                    usize::from(input_pipe.0),
                    r(input_vr),
                    usize::from(dst_pipe.0),
                    r(dst_vr),
                    early_levels,
                )
            }
            Instruction::SetAnalogMode { enabled } => {
                self.analog_enabled = enabled;
                Ok(())
            }
            Instruction::SetDigitalMode { enabled } => {
                self.digital_enabled = enabled;
                Ok(())
            }
            // `Instruction` is non-exhaustive; future opcodes must fail
            // loudly rather than silently no-op.
            _ => Err(Error::InvalidConfig(format!(
                "instruction `{}` is not implemented by this chip model",
                inst.mnemonic()
            ))),
        }
    }

    fn update_col(&mut self, vacore: VaCoreId, col: usize, values: &[i64]) -> Result<()> {
        // Reuses update_row per affected row (a column touches one device
        // per row; write–verify granularity is per row here).
        let core_rows = self.tile.vacores().get(vacore)?.rows;
        let core_cols = self.tile.vacores().get(vacore)?.cols;
        if col >= core_cols || values.len() != core_rows {
            return Err(Error::Shape(format!(
                "column {col} of length {} does not fit matrix {core_rows}x{core_cols}",
                values.len()
            )));
        }
        for (row, &v) in values.iter().enumerate() {
            // Read-modify-write of the stored row.
            let mut stored = self.tile.stored_row(vacore, row)?;
            stored[col] = v;
            self.tile.update_row(vacore, row, &stored)?;
        }
        Ok(())
    }

    fn exec_mvm_instruction(
        &mut self,
        vacore: VaCoreId,
        input_pipe: usize,
        input_vr: usize,
        dst_pipe: usize,
        dst_vr: usize,
        early_levels: u16,
    ) -> Result<()> {
        let (rows, terms) = {
            let core = self.tile.vacores().get(vacore)?;
            (core.rows, core.term_count())
        };
        // Read the input vector out of the DCE.
        let input: Vec<i64> = {
            let pipe = self.tile.pipeline_mut(input_pipe)?;
            pipe.read_signed_prefix(input_vr, rows)?
        };
        // Landing convention: parts occupy dst_vr+1.., tmp above them, the
        // accumulator is dst_vr itself.
        let pipe_vrs = self.tile.pipeline(dst_pipe)?.vr_count();
        let needed = dst_vr + terms + 2;
        if needed > pipe_vrs - 1 {
            return Err(Error::Shape(format!(
                "MVM needs registers v{dst_vr}..v{needed} but pipeline has {pipe_vrs} \
                 (last is the zero register)"
            )));
        }
        let regs = ReductionRegs {
            parts: (0..terms)
                .map(|i| darth_isa::Vr((dst_vr + 1 + i) as u8))
                .collect(),
            tmp: darth_isa::Vr((dst_vr + 1 + terms) as u8),
            acc: darth_isa::Vr(dst_vr as u8),
        };
        let early = if early_levels == 0 {
            None
        } else {
            Some(early_levels)
        };
        self.tile.exec_mvm(vacore, &input, dst_pipe, &regs, early)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darth_isa::asm::assemble;
    use darth_reram::NoiseRng;

    fn chip() -> DarthPumChip {
        DarthPumChip::new(ChipParams::default(), HctConfig::small_test()).expect("valid")
    }

    #[test]
    fn execute_digital_program() {
        let mut c = chip();
        let program = assemble(
            "wimm p0 v0 0 25\n\
             wimm p0 v1 0 17\n\
             add p0 v2 v0 v1\n\
             xor p0 v3 v0 v1\n\
             halt\n",
        )
        .expect("parses");
        let stats = c.execute(&program, &SideChannel::new()).expect("runs");
        assert_eq!(stats.instructions, 5);
        assert_eq!(stats.analog_instructions, 0);
        let pipe = c.tile_mut().pipeline_mut(0).expect("exists");
        assert_eq!(pipe.read_value(2, 0).expect("in range"), 42);
        assert_eq!(pipe.read_value(3, 0).expect("in range"), 25 ^ 17);
    }

    #[test]
    fn execute_hybrid_mvm_program() {
        let mut c = chip();
        let mut data = SideChannel::new();
        let handle = data
            .stage_matrix(vec![vec![5, 9], vec![8, 7]])
            .expect("stages");
        let program = assemble(&format!(
            "valloc ac0 4 4 3 0\n\
             progm ac0 {handle}\n\
             wimm p0 v0 0 2\n\
             wimm p0 v0 1 7\n\
             mvm ac0 p0 v0 p1 v4 0\n\
             halt\n"
        ))
        .expect("parses");
        let stats = c.execute(&program, &data).expect("runs");
        assert_eq!(stats.analog_instructions, 2); // progm + mvm
        let pipe = c.tile_mut().pipeline_mut(1).expect("exists");
        assert_eq!(pipe.read_value(4, 0).expect("in range"), 66);
        assert_eq!(pipe.read_value(4, 1).expect("in range"), 67);
    }

    #[test]
    fn halt_stops_execution() {
        let mut c = chip();
        let program = assemble("halt\nwimm p0 v0 0 9\n").expect("parses");
        c.execute(&program, &SideChannel::new()).expect("runs");
        let pipe = c.tile_mut().pipeline_mut(0).expect("exists");
        assert_eq!(pipe.read_value(0, 0).expect("in range"), 0);
    }

    #[test]
    fn disabled_analog_mode_rejects_mvm() {
        let mut c = chip();
        let program = assemble("amode 0\nvalloc ac0 4 2 3 0\n").expect("parses");
        let err = c.execute(&program, &SideChannel::new()).unwrap_err();
        assert!(matches!(err, Error::DomainDisabled("analog")));
    }

    #[test]
    fn disabled_digital_mode_rejects_vector_ops() {
        let mut c = chip();
        let program = assemble("dmode 0\nadd p0 v2 v0 v1\n").expect("parses");
        let err = c.execute(&program, &SideChannel::new()).unwrap_err();
        assert!(matches!(err, Error::DomainDisabled("digital")));
    }

    #[test]
    fn missing_matrix_handle_errors() {
        let mut c = chip();
        let program = assemble("valloc ac0 4 2 3 0\nprogm ac0 99\n").expect("parses");
        let err = c.execute(&program, &SideChannel::new()).unwrap_err();
        assert!(matches!(err, Error::UnknownMatrix(99)));
    }

    #[test]
    fn update_col_through_isa() {
        let mut c = chip();
        let mut data = SideChannel::new();
        let mh = data
            .stage_matrix(vec![vec![1, 2], vec![3, 4]])
            .expect("stages");
        let vh = data.stage_vector(vec![9, 9]).expect("stages");
        let program = assemble(&format!(
            "valloc ac0 4 4 2 0\n\
             progm ac0 {mh}\n\
             updcol ac0 1 {vh}\n\
             wimm p0 v0 0 1\n\
             wimm p0 v0 1 1\n\
             mvm ac0 p0 v0 p1 v4 0\n\
             halt\n"
        ))
        .expect("parses");
        c.execute(&program, &data).expect("runs");
        let pipe = c.tile_mut().pipeline_mut(1).expect("exists");
        assert_eq!(pipe.read_value(4, 0).expect("in range"), 4); // 1 + 3
        assert_eq!(pipe.read_value(4, 1).expect("in range"), 18); // 9 + 9

        // Signed 8-bit weights over four 2-bit slices, signed 2-bit
        // inputs: the column update rewrites each row from its stored
        // values, so the untouched column must survive the slice
        // recombination exactly, negative weights included.
        let mut c = chip();
        let mut data = SideChannel::new();
        let mh = data
            .stage_matrix(vec![vec![-100, 27], vec![55, -3]])
            .expect("stages");
        let vh = data.stage_vector(vec![-77, 120]).expect("stages");
        let minus_two = darth_digital::pipeline::twos_complement_field(-2, 32).expect("fits");
        let program = assemble(&format!(
            "valloc ac0 8 2 2 1\n\
             progm ac0 {mh}\n\
             updcol ac0 1 {vh}\n\
             wimm p0 v0 0 1\n\
             wimm p0 v0 1 {minus_two}\n\
             mvm ac0 p0 v0 p1 v4 0\n\
             halt\n"
        ))
        .expect("parses");
        c.execute(&program, &data).expect("runs");
        let id = darth_isa::VaCoreId(0);
        assert_eq!(c.tile().stored_row(id, 0).expect("stored"), vec![-100, -77]);
        assert_eq!(c.tile().stored_row(id, 1).expect("stored"), vec![55, 120]);
        let pipe = c.tile_mut().pipeline_mut(1).expect("exists");
        // [1, -2] · [[-100, -77], [55, 120]]
        assert_eq!(pipe.read_value_signed(4, 0).expect("in range"), -210);
        assert_eq!(pipe.read_value_signed(4, 1).expect("in range"), -317);
    }

    #[test]
    fn compiled_program_matches_interpreter() {
        let mut data = SideChannel::new();
        let handle = data
            .stage_matrix(vec![vec![5, 9], vec![8, 7]])
            .expect("stages");
        let program = assemble(&format!(
            "valloc ac0 4 4 3 0\n\
             progm ac0 {handle}\n\
             wimm p0 v0 0 2\n\
             wimm p0 v0 1 7\n\
             mvm ac0 p0 v0 p1 v4 0\n\
             add p1 v5 v4 v4\n\
             halt\n\
             wimm p0 v9 0 1\n"
        ))
        .expect("parses");
        let compiled = DarthPumChip::compile(&program);
        assert_eq!(compiled.instructions(), 7, "prefix stops at halt");
        assert_eq!(compiled.analog_instructions(), 2);
        let expected: BTreeMap<&str, u64> = [
            ("valloc", 1),
            ("progm", 1),
            ("wimm", 2),
            ("mvm", 1),
            ("add", 1),
            ("halt", 1),
        ]
        .into_iter()
        .collect();
        assert_eq!(compiled.histogram(), &expected, "nothing after halt");
        let mut interpreted = chip();
        let interp_stats = interpreted.execute(&program, &data).expect("runs");
        let mut compiled_chip = chip();
        let compiled_stats = compiled_chip.run_compiled(&compiled, &data).expect("runs");
        assert_eq!(interp_stats, compiled_stats);
        assert_eq!(
            interpreted.front_end().issued(),
            compiled_chip.front_end().issued(),
            "issue accounting must match for identical energy"
        );
        // Without a halt the whole program is the prefix.
        let unhalted = assemble("nop\nwimm p0 v0 0 1\n").expect("parses");
        assert_eq!(DarthPumChip::compile(&unhalted).instructions(), 2);
    }

    /// Instruction templates for random programs. Each placeholder draws
    /// an operand: `P` a pipeline, `V` a register, `D` an MVM landing
    /// register, `A` a vACore, `H` a side-channel handle, `I` a row or
    /// column, `E` an element, `X` an immediate, `N` a shift amount, `W` a
    /// multiply width, `B` a mode flag.
    const TEMPLATES: &str = "nop|fence|presv P|nor P V V V|or P V V V|and P V V V|\
        nand P V V V|xor P V V V|xnor P V V V|not P V V|add P V V V|sub P V V V|\
        mul P V V V W|cmplt P V V V|select P V V V V|relu P V V|shl P V V N|shr P V V N|\
        rotl P V V V N 8|copy P V V|copyx P V P V|eload P V P V|prev P|wimm P V E X|\
        wimm P V E X|mvm A P V P D 0|mvm A P V P D 0|progm A H|updrow A I H|updcol A I H|\
        valloc A 4 4 3 0|vfree A|amode B|dmode B|halt";

    /// One random assembly line for the `small_test` tile (4 pipelines of
    /// 40 registers, 64 elements). Operands are mostly in range so that
    /// many programs complete, and registers mostly come from a few low
    /// ones so that values flow between instructions; an occasional
    /// draw beyond (up to out of range) keeps the rest and the error
    /// paths covered.
    fn random_line(rng: &mut NoiseRng) -> String {
        let templates: Vec<&str> = TEMPLATES.split('|').collect();
        let template = templates[rng.index(templates.len())];
        let mut pick = |valid: usize, over: usize| {
            if rng.chance(0.03) {
                valid + rng.index(over)
            } else {
                rng.index(valid)
            }
        };
        let operands = template.split(' ').map(|token| match token {
            "P" => format!("p{}", pick(4, 1)),
            "V" => format!("v{}", pick(6, 36)),
            "D" => format!("v{}", pick(30, 12)),
            "A" => format!("ac{}", pick(1, 1)),
            "H" | "I" => pick(2, 1).to_string(),
            "E" => pick(64, 2).to_string(),
            "X" => pick(64, 1).to_string(),
            "N" => pick(8, 1).to_string(),
            "W" => (1 + pick(8, 1)).to_string(),
            "B" => usize::from(pick(5, 1) > 0).to_string(),
            literal => literal.to_string(),
        });
        operands.collect::<Vec<_>>().join(" ")
    }

    /// Every pipeline's every register, read out of `chip`.
    fn pipeline_contents<P: DcePipeline>(chip: &mut GenericChip<P>) -> Vec<Vec<u64>> {
        let mut contents = Vec::new();
        for p in 0..chip.tile().config().functional_pipelines {
            let pipe = chip.tile_mut().pipeline_mut(p).expect("exists");
            for vr in 0..pipe.vr_count() {
                contents.push(pipe.read_vector(vr).expect("in range"));
            }
        }
        contents
    }

    #[test]
    fn fast_chip_matches_reference_on_hybrid_program() {
        let mut data = SideChannel::new();
        for m in 0..2 {
            data.stage_matrix(vec![vec![5 + m, 9], vec![8, 7 - m]])
                .expect("stages");
            data.stage_vector(vec![3 + m, 1]).expect("stages");
        }
        let mut reference_chip = chip();
        let mut fast_chip =
            FastChip::new(ChipParams::default(), HctConfig::small_test()).expect("valid");
        let mut rng = NoiseRng::seed_from(0xC0DE_2026);
        // Random 32-bit data in the low registers most operands name, so
        // every instruction computes on live values.
        for p in 0..4 {
            for vr in 0..6 {
                let values: Vec<u64> = (0..64).map(|_| rng.next_u64() >> 32).collect();
                let reference_pipe = reference_chip.tile_mut().pipeline_mut(p);
                reference_pipe
                    .expect("exists")
                    .write_vector(vr, &values)
                    .expect("fits");
                let fast_pipe = fast_chip.tile_mut().pipeline_mut(p);
                fast_pipe
                    .expect("exists")
                    .write_vector(vr, &values)
                    .expect("fits");
            }
        }
        let programs = 300;
        let mut completed = 0;
        for case in 0..programs {
            let mut source = String::new();
            // Half the programs start from an allocated, programmed vACore
            // so MVMs and row/column updates can succeed.
            if rng.chance(0.5) {
                source += &format!("valloc ac0 4 4 3 0\nprogm ac0 {}\n", rng.index(2));
            }
            for _ in 0..=rng.index(6) {
                source += &random_line(&mut rng);
                source.push('\n');
            }
            let program = assemble(&source).expect("templates assemble");
            let mut reference = reference_chip.clone();
            let mut fast = fast_chip.clone();
            let ref_result = reference.execute(&program, &data);
            let fast_result = fast.run_compiled(&FastChip::compile(&program), &data);
            assert_eq!(
                format!("{ref_result:?}"),
                format!("{fast_result:?}"),
                "case {case}:\n{source}"
            );
            if ref_result.is_err() {
                continue;
            }
            completed += 1;
            // Primitive accounting (and therefore energy) matches too.
            assert_eq!(
                reference.energy_meter().total(),
                fast.energy_meter().total(),
                "case {case}"
            );
            assert_eq!(
                reference.tile().busy_cycles(),
                fast.tile().busy_cycles(),
                "case {case}"
            );
            assert!(
                pipeline_contents(&mut reference) == pipeline_contents(&mut fast),
                "case {case}: pipeline contents differ after\n{source}"
            );
        }
        assert!(
            completed * 4 >= programs,
            "only {completed} of {programs} random programs completed"
        );
    }

    #[test]
    fn side_channel_handles_increment() {
        let mut data = SideChannel::new();
        let a = data.stage_matrix(vec![vec![1]]).expect("stages");
        let b = data.stage_matrix(vec![vec![2]]).expect("stages");
        assert_ne!(a, b);
        let v1 = data.stage_vector(vec![1]).expect("stages");
        let v2 = data.stage_vector(vec![2]).expect("stages");
        assert_ne!(v1, v2);
    }

    #[test]
    fn side_channel_handle_exhaustion_is_an_error() {
        let mut data = SideChannel::new();
        // Occupy the top of the u16 handle space directly; the next
        // allocation has nowhere to go and must not wrap to 0.
        data.matrices.insert(u16::MAX, vec![vec![1]]);
        let err = data.stage_matrix(vec![vec![2]]).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted("matrix handles")));
        data.vectors.insert(u16::MAX, vec![1]);
        let err = data.stage_vector(vec![2]).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted("vector handles")));
        // Allocation below the ceiling still works (no off-by-one).
        let mut low = SideChannel::new();
        low.matrices.insert(u16::MAX - 1, vec![vec![1]]);
        assert_eq!(low.stage_matrix(vec![vec![2]]).expect("stages"), u16::MAX);
    }
}

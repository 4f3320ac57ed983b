//! The hybrid compute tile (HCT): one ACE, one DCE, and the auxiliary
//! units that make them compose.
//!
//! The tile's signature operation is the hybrid MVM of Figure 9: the ACE
//! bit-slices the input, producing one partial-product vector per input
//! bit per weight slice; each vector crosses to the DCE through the shift
//! units (pre-shifted in flight under the optimized Figure 10b schedule)
//! and lands in a vector register; the instruction injection unit then
//! replays the pipelined ADD reduction, leaving the exact dot-product
//! vector in the accumulator register.
//!
//! A functional tile is deliberately smaller than the Table 2 tile (fewer
//! pipelines, shallower depth) — cell-accurate state for a full 64×64-array
//! tile would be hundreds of megabytes — while the *timing* model always
//! uses the configured geometry. Chip-level throughput scales tiles
//! analytically in [`crate::model`].

use crate::arbiter::{AdArbiter, Domain};
use crate::params::{power, HctParams};
use crate::transpose::VECTOR_RETIME_CYCLES;
use crate::vacore::{VaCore, VaCoreTable};
use crate::{iiu, shift_unit, Error, Result};
use darth_analog::ace::{AceConfig, AnalogComputeElement};
use darth_analog::adc::AdcKind;
use darth_analog::dac::InputDriver;
use darth_digital::dce::DcePipeline;
use darth_digital::logic::LogicFamily;
use darth_digital::macros::MacroOp;
use darth_digital::packed::PackedPipeline;
use darth_digital::pipeline::{Pipeline, PipelineConfig};
use darth_isa::iiu::ReductionRegs;
use darth_isa::VaCoreId;
use darth_reram::{Cycles, EnergyMeter, PicoJoules};
use serde::{Deserialize, Serialize};

/// Configuration of a hybrid compute tile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HctConfig {
    /// Architectural geometry (Table 2) used by the timing model.
    pub params: HctParams,
    /// Logic family of the digital pipelines.
    pub family: LogicFamily,
    /// Use the Figure 10b optimized schedule (in-flight shifting); `false`
    /// reproduces the serialized Figure 10a flow for the ablation.
    pub optimized_schedule: bool,
    /// Route reductions through the IIU (`false` models front-end issue).
    pub use_iiu: bool,
    /// Inject device noise (evaluation mode) or run ideal (verification).
    pub noisy: bool,
    /// Lognormal programming-noise sigma applied when `noisy` (MILO-style
    /// write–verify residual, §6). Zero makes the noisy tile structurally
    /// identical to the ideal one — bit-exact by construction.
    pub program_sigma: f64,
    /// Gaussian read-noise sigma (fraction of `g_on`) applied when `noisy`.
    pub read_sigma: f64,
    /// ADC resolution of the functional tile in bits. The paper's design
    /// space sweeps 6 and 8 bits; lower resolutions clip large bit-plane
    /// sums at the converter rails, which is exactly the precision/accuracy
    /// trade-off the Monte-Carlo engine measures.
    pub functional_adc_bits: u8,
    /// Functional pipelines to instantiate (timing still assumes the full
    /// `params.dce_pipelines`).
    pub functional_pipelines: usize,
    /// Functional pipeline depth in bits.
    pub functional_depth: usize,
    /// Elements per vector register.
    pub functional_elements: usize,
    /// Architectural vector registers per pipeline.
    pub functional_vrs: usize,
    /// Functional ACE arrays to instantiate.
    pub functional_ace_arrays: usize,
    /// Bits per cell of the functional ACE's devices. AES stores its raw
    /// 0/1 GF(2) MixColumns matrix in SLC cells (§4.3) so each weight owns
    /// the full conductance window; MVM workloads default to 4-bit MLC.
    pub functional_bits_per_cell: u8,
    /// IR-drop coefficient applied to the functional ACE when `noisy`
    /// (the ideal tile keeps parasitics off, as verification requires).
    pub ir_drop_alpha: f64,
    /// RNG seed for device noise.
    pub seed: u64,
}

impl HctConfig {
    /// A compact functional tile for tests and examples: 4 pipelines of
    /// 32-bit depth, 16 ACE arrays, ideal devices.
    pub fn small_test() -> Self {
        HctConfig {
            params: HctParams::paper(AdcKind::Sar),
            family: LogicFamily::Oscar,
            optimized_schedule: true,
            use_iiu: true,
            noisy: false,
            program_sigma: 0.02,
            read_sigma: 0.005,
            functional_adc_bits: 10,
            functional_pipelines: 4,
            functional_depth: 32,
            functional_elements: 64,
            functional_vrs: 40,
            functional_ace_arrays: 16,
            functional_bits_per_cell: 4,
            ir_drop_alpha: 0.0008,
            seed: 0xDA27_0001,
        }
    }

    /// The evaluation tile: noisy devices, chosen ADC, full 64-element
    /// registers.
    pub fn evaluation(adc_kind: AdcKind) -> Self {
        HctConfig {
            params: HctParams::paper(adc_kind),
            noisy: true,
            ..HctConfig::small_test()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for unusable values.
    pub fn validate(&self) -> Result<()> {
        if self.functional_pipelines == 0 {
            return Err(Error::InvalidConfig(
                "at least one functional pipeline is required".into(),
            ));
        }
        if self.functional_ace_arrays == 0 {
            return Err(Error::InvalidConfig(
                "at least one functional ACE array is required".into(),
            ));
        }
        if self.program_sigma < 0.0 || self.read_sigma < 0.0 {
            return Err(Error::InvalidConfig(
                "noise sigmas must be non-negative".into(),
            ));
        }
        if self.functional_adc_bits == 0 || self.functional_adc_bits > 16 {
            return Err(Error::InvalidConfig(
                "functional_adc_bits must be in 1..=16".into(),
            ));
        }
        if self.functional_bits_per_cell == 0 || self.functional_bits_per_cell > 8 {
            return Err(Error::InvalidConfig(
                "functional_bits_per_cell must be in 1..=8".into(),
            ));
        }
        if self.ir_drop_alpha < 0.0 {
            return Err(Error::InvalidConfig(
                "ir_drop_alpha must be non-negative".into(),
            ));
        }
        Ok(())
    }
}

/// The result of one hybrid MVM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MvmReport {
    /// The reduced output vector (one value per matrix column), exact when
    /// devices are ideal or analog error stays below half an ADC LSB.
    pub result: Vec<i64>,
    /// Tile-level latency of the whole MVM (analog + transfer + reduce).
    pub cycles: Cycles,
    /// Cycles spent in the analog phase (apply + convert).
    pub analog_cycles: Cycles,
    /// Cycles spent transferring partial products (overlap accounted).
    pub transfer_cycles: Cycles,
    /// Cycles spent in the digital reduction.
    pub reduce_cycles: Cycles,
    /// Total energy of the MVM.
    pub energy: PicoJoules,
}

/// One hybrid compute tile, generic over its DCE pipeline implementation.
///
/// The reference tile ([`HybridComputeTile`]) instantiates cell-accurate
/// [`Pipeline`] state; the fast-path tile ([`FastTile`]) swaps in the
/// packed [`PackedPipeline`] (64 cells per `u64` word). Both share this
/// single implementation — MVM, timing and energy logic exist once —
/// which is what makes the fast path bit-identical by construction.
#[derive(Debug, Clone)]
pub struct GenericTile<P: DcePipeline> {
    config: HctConfig,
    pipelines: Vec<P>,
    ace: AnalogComputeElement,
    vacores: VaCoreTable,
    arbiter: AdArbiter,
    meter: EnergyMeter,
    busy: Cycles,
    front_end_ops: u64,
}

/// The reference tile: cell-accurate [`Pipeline`] state.
pub type HybridComputeTile = GenericTile<Pipeline>;

/// The fast-path tile: packed bit-plane [`PackedPipeline`] state.
pub type FastTile = GenericTile<PackedPipeline>;

impl<P: DcePipeline> GenericTile<P> {
    /// Builds a tile.
    ///
    /// # Errors
    ///
    /// Returns configuration/substrate errors.
    pub fn new(config: HctConfig) -> Result<Self> {
        config.validate()?;
        let pipe_config = PipelineConfig {
            depth: config.functional_depth,
            elements: config.functional_elements,
            vr_count: config.functional_vrs,
            scratch_cols: 12,
            family: config.family,
        };
        let pipelines = (0..config.functional_pipelines)
            .map(|_| P::new(pipe_config))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        // One construction path for both modes: start from the ideal
        // functional geometry and overlay only the noise sigmas when the
        // evaluation flag is set. (The old noisy branch rebuilt the ACE
        // from `AceConfig::evaluation(_, 1)`, silently forcing SLC cells,
        // a 64×64 geometry and an 8-bit ADC regardless of the tile's
        // configuration — MLC workloads broke and zero-sigma runs still
        // diverged from the ideal tile.) With zero sigmas the noisy config
        // is structurally identical to the ideal one, so noise-off
        // execution is bit-exact by construction.
        let mut ace_config = AceConfig::ideal(
            config.functional_ace_arrays,
            config.params.array_dim,
            config.params.array_dim,
        );
        ace_config.adc_kind = config.params.adc_kind;
        ace_config.adc_bits = config.functional_adc_bits;
        ace_config.crossbar.bits_per_cell = config.functional_bits_per_cell;
        if config.noisy {
            ace_config.crossbar.device.program_sigma = config.program_sigma;
            ace_config.crossbar.device.read_sigma = config.read_sigma;
            ace_config.crossbar.ir_drop_alpha = config.ir_drop_alpha;
        }
        let ace = AnalogComputeElement::new(ace_config, config.seed)?;
        let vacores = VaCoreTable::new(config.functional_ace_arrays);
        let arbiter = AdArbiter::new(config.functional_pipelines);
        Ok(GenericTile {
            config,
            pipelines,
            ace,
            vacores,
            arbiter,
            meter: EnergyMeter::new(),
            busy: Cycles::ZERO,
            front_end_ops: 0,
        })
    }

    /// The tile's configuration.
    pub fn config(&self) -> &HctConfig {
        &self.config
    }

    /// Borrows a pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a bad index.
    pub fn pipeline(&self, index: usize) -> Result<&P> {
        self.pipelines
            .get(index)
            .ok_or_else(|| Error::InvalidConfig(format!("pipeline {index} not instantiated")))
    }

    /// Mutably borrows a pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a bad index.
    pub fn pipeline_mut(&mut self, index: usize) -> Result<&mut P> {
        self.pipelines
            .get_mut(index)
            .ok_or_else(|| Error::InvalidConfig(format!("pipeline {index} not instantiated")))
    }

    /// Two distinct pipelines at once, both mutable: element-wise loads
    /// write one pipeline and refresh the other's host lookup cache.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for bad or identical indices.
    pub fn pipeline_pair(&mut self, a: usize, b: usize) -> Result<(&mut P, &mut P)> {
        if a == b {
            return Err(Error::InvalidConfig(
                "pipeline pair must be distinct".into(),
            ));
        }
        if a >= self.pipelines.len() || b >= self.pipelines.len() {
            return Err(Error::InvalidConfig("pipeline index out of range".into()));
        }
        // Split the slice to hand out two disjoint mutable borrows.
        if a < b {
            let (left, right) = self.pipelines.split_at_mut(b);
            Ok((&mut left[a], &mut right[0]))
        } else {
            let (left, right) = self.pipelines.split_at_mut(a);
            Ok((&mut right[0], &mut left[b]))
        }
    }

    /// The analog compute element.
    pub fn ace(&self) -> &AnalogComputeElement {
        &self.ace
    }

    /// The vACore firmware table.
    pub fn vacores(&self) -> &VaCoreTable {
        &self.vacores
    }

    /// Macro operations issued by the front end on this tile's behalf.
    pub fn front_end_ops(&self) -> u64 {
        self.front_end_ops
    }

    /// Total busy cycles accumulated by tile-level operations.
    pub fn busy_cycles(&self) -> Cycles {
        self.busy
    }

    /// Advances the tile's busy time (used by the chip when it schedules
    /// digital-only work through the pipelines directly).
    pub fn advance(&mut self, cycles: Cycles) {
        self.busy += cycles;
    }

    /// Allocates a vACore (§4.2) and reports it.
    ///
    /// # Errors
    ///
    /// Propagates table errors (width conflicts, exhaustion).
    pub fn alloc_vacore(
        &mut self,
        element_bits: u8,
        bits_per_cell: u8,
        input_bits: u8,
        input_signed: bool,
    ) -> Result<VaCoreId> {
        self.vacores
            .alloc(element_bits, bits_per_cell, input_bits, input_signed)
    }

    /// Frees a vACore.
    ///
    /// # Errors
    ///
    /// Propagates table errors.
    pub fn free_vacore(&mut self, id: VaCoreId) -> Result<()> {
        self.vacores.free(id)
    }

    /// Programs a matrix into a vACore's arrays (slice by slice).
    ///
    /// # Errors
    ///
    /// Returns shape errors when the matrix exceeds one array, plus
    /// substrate programming errors.
    pub fn set_matrix(&mut self, id: VaCoreId, matrix: &[Vec<i64>]) -> Result<Cycles> {
        let dim = self.config.params.array_dim;
        let rows = matrix.len();
        let cols = matrix.first().map_or(0, Vec::len);
        if rows == 0 || rows > dim || cols == 0 || cols > dim {
            return Err(Error::Shape(format!(
                "matrix {rows}x{cols} does not fit a {dim}x{dim} array"
            )));
        }
        if matrix.iter().any(|r| r.len() != cols) {
            return Err(Error::Shape("ragged matrix".into()));
        }
        // Pad to the full array so exact MVMs see zeroes elsewhere.
        let mut padded = vec![vec![0i64; dim]; dim];
        for (r, row) in matrix.iter().enumerate() {
            padded[r][..cols].copy_from_slice(row);
        }
        let core = self.vacores.get(id)?.clone();
        let slices = core.slicer().slice(&padded).map_err(Error::Analog)?;
        let mut total = Cycles::ZERO;
        for (slice, &array) in slices.iter().zip(&core.arrays) {
            total += self.ace.program_matrix(array, slice)?;
        }
        {
            let core = self.vacores.get_mut(id)?;
            core.rows = rows;
            core.cols = cols;
        }
        self.busy += total;
        Ok(total)
    }

    /// Reprograms one row of a vACore's matrix.
    ///
    /// # Errors
    ///
    /// Returns shape or programming errors.
    pub fn update_row(&mut self, id: VaCoreId, row: usize, values: &[i64]) -> Result<Cycles> {
        let core = self.vacores.get(id)?.clone();
        if row >= core.rows || values.len() != core.cols {
            return Err(Error::Shape(format!(
                "row {row} of length {} does not fit matrix {}x{}",
                values.len(),
                core.rows,
                core.cols
            )));
        }
        let dim = self.config.params.array_dim;
        let mut padded_row = vec![0i64; dim];
        padded_row[..values.len()].copy_from_slice(values);
        let row_matrix = vec![padded_row];
        let slices = core.slicer().slice(&row_matrix).map_err(Error::Analog)?;
        let mut total = Cycles::ZERO;
        for (slice, &array) in slices.iter().zip(&core.arrays) {
            total += self.ace.update_row(array, row, &slice[0])?;
        }
        self.busy += total;
        Ok(total)
    }

    /// The full-precision values stored in one row of a vACore's matrix,
    /// recombined from the per-slice crossbar weights (the read half of a
    /// read-modify-write column update, and the exact MVM oracle's matrix).
    ///
    /// # Errors
    ///
    /// Returns vACore errors for unknown ids and [`Error::Shape`] for a
    /// row outside the programmed matrix.
    pub fn stored_row(&self, id: VaCoreId, row: usize) -> Result<Vec<i64>> {
        let core = self.vacores.get(id)?;
        if row >= core.rows {
            return Err(Error::Shape(format!(
                "row {row} out of range for {} rows",
                core.rows
            )));
        }
        let per_slice = core
            .arrays
            .iter()
            .map(|&array| {
                let xbar = self.ace.crossbar(array).map_err(Error::Analog)?;
                Ok(xbar.weight_row(row)[..core.cols].to_vec())
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(core.slicer().recombine(&per_slice))
    }

    /// Executes a hybrid MVM: analog multiply, shift-unit transfer, IIU
    /// reduction. Partial products land in `regs.parts` of pipeline
    /// `dst_pipe`; the reduced vector ends in `regs.acc` and is returned.
    ///
    /// `early_levels` forwards ramp-ADC early termination.
    ///
    /// # Errors
    ///
    /// Returns vACore/shape/arbiter/substrate errors.
    pub fn exec_mvm(
        &mut self,
        id: VaCoreId,
        input: &[i64],
        dst_pipe: usize,
        regs: &ReductionRegs,
        early_levels: Option<u16>,
    ) -> Result<MvmReport> {
        let core = self.checked_core(id, input)?.clone();
        // The MVM occupies the landing pipeline exclusively (the paper's
        // pipeline-reserve + arbiter protocol).
        self.arbiter.acquire(dst_pipe, Domain::Analog)?;
        let report = self.exec_mvm_inner(&core, input, dst_pipe, regs, early_levels);
        self.arbiter.release(dst_pipe);
        report
    }

    /// The vACore an MVM of `input` runs on: it must hold a matrix whose
    /// row count matches the input. Shared by [`GenericTile::exec_mvm`] and
    /// [`GenericTile::mvm_oracle`] so the two cannot disagree on shapes.
    fn checked_core(&self, id: VaCoreId, input: &[i64]) -> Result<&VaCore> {
        let core = self.vacores.get(id)?;
        if core.rows == 0 {
            return Err(Error::VaCore(format!("vACore {id} has no matrix")));
        }
        if input.len() != core.rows {
            return Err(Error::Shape(format!(
                "input length {} does not match matrix rows {}",
                input.len(),
                core.rows
            )));
        }
        Ok(core)
    }

    fn exec_mvm_inner(
        &mut self,
        core: &VaCore,
        input: &[i64],
        dst_pipe: usize,
        regs: &ReductionRegs,
        early_levels: Option<u16>,
    ) -> Result<MvmReport> {
        let dim = self.config.params.array_dim;
        let driver = InputDriver::new(core.input_bits, core.input_signed).map_err(Error::Analog)?;
        let mut padded_input = vec![0i64; dim];
        padded_input[..input.len()].copy_from_slice(input);

        // --- Analog phase: bit-sliced MVM over the core's arrays.
        let out =
            self.ace
                .mvm_group(&core.arrays, core.cols, &padded_input, driver, early_levels)?;
        let lsb = self.ace.adc().lsb_units();

        // --- Transfer phase: land each term, pre-shifted when optimized.
        let terms = core.term_count();
        let input_bits = usize::from(core.input_bits);
        let pipe = self
            .pipelines
            .get_mut(dst_pipe)
            .ok_or_else(|| Error::InvalidConfig(format!("pipeline {dst_pipe} not instantiated")))?;
        let depth = pipe.depth();
        let field_mask = if depth == 64 {
            u64::MAX
        } else {
            (1u64 << depth) - 1
        };
        if regs.parts.len() != terms {
            return Err(Error::Shape(format!(
                "reduction registers provide {} landing slots for {terms} terms",
                regs.parts.len()
            )));
        }
        let mut transfer_total = Cycles::ZERO;
        for t in 0..terms {
            let s = t / input_bits;
            let b = t % input_bits;
            // The grouped MVM reads the core's columns of each array, so
            // slice `s` occupies [s*cols, (s+1)*cols).
            let codes: Vec<i64> = out.partial_products[b][s * core.cols..(s + 1) * core.cols]
                .iter()
                .map(|&code| ((code as f64) * lsb).round() as i64)
                .collect();
            // In-flight transform applies only the shift; the term's sign
            // is handled by the IIU's Sub step (negating here too would
            // double-count it).
            let shift = core.term_shift(t);
            let landing = if self.config.optimized_schedule {
                shift_unit::apply(&codes, shift)
            } else {
                codes
            };
            let fields: Vec<u64> = landing.iter().map(|&v| (v as u64) & field_mask).collect();
            pipe.write_vector(regs.parts[t].0 as usize, &fields)?;
            transfer_total +=
                shift_unit::transfer_cycles(core.cols as u64, 8) + VECTOR_RETIME_CYCLES;
        }

        // --- Reduce phase: replay the IIU program.
        let zero_vr = pipe.vr_count() - 1;
        let program = core.injection_program(regs, self.config.optimized_schedule);
        if !self.config.use_iiu {
            // Same dataflow, but the front end issues every µop.
            self.front_end_ops += program.len() as u64;
        }
        iiu::replay(&program, pipe, zero_vr)?;
        let result: Vec<i64> = pipe.read_signed_prefix(regs.acc.0 as usize, core.cols)?;

        // --- Timing (documented schedule model).
        let family = self.config.family;
        let pipe_depth = self.config.params.dce_pipeline_depth as u64;
        let elements = core.cols as u64;
        let per_bit_ace = Cycles::new(out.cycles.get() / u64::from(core.input_bits).max(1));
        let per_bit_transfer =
            Cycles::new(transfer_total.get() / u64::from(core.input_bits).max(1));
        let add_cost = MacroOp::Add.cost(family, pipe_depth, elements);
        let shift_cost = MacroOp::ShiftBits(1).cost(family, pipe_depth, elements);
        let arith = program.arithmetic_steps() as u64;
        let (analog_cycles, transfer_cycles, reduce_cycles) = if self.config.optimized_schedule {
            // Figure 10b: conversions and transfers overlap; adds pipeline.
            let overlapped = per_bit_ace
                + Cycles::new(
                    per_bit_ace.get().max(per_bit_transfer.get())
                        * (u64::from(core.input_bits).saturating_sub(1)),
                )
                + per_bit_transfer;
            (
                out.cycles,
                overlapped - out.cycles.min(overlapped),
                add_cost.pipelined_batch(arith),
            )
        } else {
            // Figure 10a: write, shift, add fully serialize per term.
            let shifts = program.shift_steps() as u64;
            let serial_reduce =
                Cycles::new(shift_cost.latency().get() * shifts + add_cost.latency().get() * arith);
            (out.cycles, transfer_total, serial_reduce)
        };
        let cycles = analog_cycles + transfer_cycles + reduce_cycles;
        self.busy += cycles;

        // --- Energy. `dce.reduce` is the architectural estimate (full
        // Table 2 pipeline depth); the functional pipelines' own primitive
        // counts appear separately under `dce.array` as a diagnostic.
        let dce_energy = PicoJoules::new(
            add_cost.primitives as f64 * arith as f64 * family.energy_per_primitive_pj(),
        );
        let ctrl_energy = PicoJoules::from_power(power::PIPELINE_CTRL, reduce_cycles);
        self.meter.add("dce.reduce", dce_energy);
        self.meter.add("dce.pipeline_ctrl", ctrl_energy);
        let energy = out.energy + dce_energy + ctrl_energy;
        Ok(MvmReport {
            result,
            cycles,
            analog_cycles,
            transfer_cycles,
            reduce_cycles,
            energy,
        })
    }

    /// Merged energy meter: ACE components plus DCE primitive energy.
    pub fn energy_meter(&self) -> EnergyMeter {
        let mut meter = self.meter.clone();
        meter.merge(self.ace.energy_meter());
        let dce: PicoJoules = self.pipelines.iter().map(P::energy).sum();
        meter.add("dce.array", dce);
        meter
    }
}

impl<P: DcePipeline> GenericTile<P> {
    /// Exact software oracle for [`GenericTile::exec_mvm`], with the same
    /// shape checks.
    ///
    /// # Errors
    ///
    /// Returns vACore errors for unknown ids or a vACore without a matrix,
    /// and [`Error::Shape`] when `input` does not match the matrix rows.
    pub fn mvm_oracle(&self, id: VaCoreId, input: &[i64]) -> Result<Vec<i64>> {
        let core = self.checked_core(id, input)?;
        // Reconstruct from the programmed slices for full fidelity.
        let mut out = vec![0i64; core.cols];
        for (r, &x) in input.iter().enumerate() {
            if x == 0 {
                continue;
            }
            for (acc, w) in out.iter_mut().zip(self.stored_row(id, r)?) {
                *acc += x * w;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile() -> HybridComputeTile {
        HybridComputeTile::new(HctConfig::small_test()).expect("valid config")
    }

    #[test]
    fn config_validation() {
        let mut c = HctConfig::small_test();
        c.functional_pipelines = 0;
        assert!(HybridComputeTile::new(c).is_err());
    }

    #[test]
    fn mvm_4bit_weights_3bit_inputs_matches_oracle() {
        let mut t = tile();
        let id = t.alloc_vacore(4, 2, 3, false).expect("allocates");
        let matrix = vec![vec![5, 9, 1], vec![8, 7, 2], vec![3, 0, 15]];
        t.set_matrix(id, &matrix).expect("programs");
        let input = vec![2, 7, 1];
        let regs = ReductionRegs::dense(t.vacores().get(id).expect("exists").term_count());
        let report = t.exec_mvm(id, &input, 0, &regs, None).expect("executes");
        let oracle = t.mvm_oracle(id, &input).expect("oracle");
        assert_eq!(report.result, oracle);
        assert_eq!(
            report.result,
            vec![2 * 5 + 7 * 8 + 3, 2 * 9 + 7 * 7, 2 + 14 + 15]
        );
        assert!(report.cycles > Cycles::ZERO);
        assert!(report.energy > PicoJoules::ZERO);
    }

    #[test]
    fn mvm_oracle_rejects_shape_drift_like_exec_mvm() {
        let mut t = tile();
        let id = t.alloc_vacore(4, 2, 3, false).expect("allocates");
        t.set_matrix(id, &[vec![1, 2], vec![3, 4]])
            .expect("programs");
        let regs = ReductionRegs::dense(t.vacores().get(id).expect("exists").term_count());
        for input in [vec![1], vec![1, 2, 3]] {
            assert!(matches!(t.mvm_oracle(id, &input), Err(Error::Shape(_))));
            assert!(matches!(
                t.exec_mvm(id, &input, 0, &regs, None),
                Err(Error::Shape(_))
            ));
        }
        assert_eq!(t.mvm_oracle(id, &[1, 1]).expect("oracle"), vec![4, 6]);
        // Allocated but never programmed: no matrix to multiply.
        let empty = t.alloc_vacore(4, 2, 3, false).expect("allocates");
        assert!(matches!(t.mvm_oracle(empty, &[]), Err(Error::VaCore(_))));
        assert!(matches!(
            t.exec_mvm(empty, &[], 0, &regs, None),
            Err(Error::VaCore(_))
        ));
    }

    #[test]
    fn mvm_signed_weights_and_inputs() {
        let mut t = tile();
        let id = t.alloc_vacore(4, 2, 4, true).expect("allocates");
        let matrix = vec![vec![-5, 9], vec![8, -7]];
        t.set_matrix(id, &matrix).expect("programs");
        for input in [vec![-8i64, 7], vec![3, -4], vec![-1, -1]] {
            let regs = ReductionRegs::dense(t.vacores().get(id).expect("exists").term_count());
            let report = t.exec_mvm(id, &input, 1, &regs, None).expect("executes");
            let expected: Vec<i64> = (0..2)
                .map(|c| (0..2).map(|r| input[r] * matrix[r][c]).sum())
                .collect();
            assert_eq!(report.result, expected, "input {input:?}");
        }
    }

    #[test]
    fn figure9_walkthrough() {
        // Figure 9: 2x2 matrix [[5,9],[8,7]], 3-bit input [2,7], 4-bit
        // elements — result [66, 67].
        let mut t = tile();
        let id = t.alloc_vacore(4, 4, 3, false).expect("allocates");
        t.set_matrix(id, &[vec![5, 9], vec![8, 7]])
            .expect("programs");
        let regs = ReductionRegs::dense(3);
        let report = t.exec_mvm(id, &[2, 7], 0, &regs, None).expect("executes");
        assert_eq!(report.result, vec![66, 67]);
    }

    #[test]
    fn optimized_schedule_beats_unoptimized() {
        let run = |optimized: bool| {
            let mut config = HctConfig::small_test();
            config.optimized_schedule = optimized;
            let mut t = HybridComputeTile::new(config).expect("valid");
            let id = t.alloc_vacore(8, 2, 8, false).expect("allocates");
            let matrix: Vec<Vec<i64>> = (0..8)
                .map(|r| (0..8).map(|c| ((r * c) % 16) as i64).collect())
                .collect();
            t.set_matrix(id, &matrix).expect("programs");
            let regs = ReductionRegs::dense(32); // 4 slices x 8 bits
            let input: Vec<i64> = (0..8).map(|i| (i * 31) % 256).collect();

            t.exec_mvm(id, &input, 0, &regs, None).expect("executes")
        };
        let opt = run(true);
        let unopt = run(false);
        assert_eq!(opt.result, unopt.result, "both schedules are correct");
        assert!(
            opt.cycles.get() * 2 < unopt.cycles.get(),
            "Fig 10b ({}) should be much faster than Fig 10a ({})",
            opt.cycles,
            unopt.cycles
        );
    }

    #[test]
    fn mvm_requires_matrix_and_matching_input() {
        let mut t = tile();
        let id = t.alloc_vacore(4, 2, 2, false).expect("allocates");
        let regs = ReductionRegs::dense(4);
        assert!(matches!(
            t.exec_mvm(id, &[1], 0, &regs, None),
            Err(Error::VaCore(_))
        ));
        t.set_matrix(id, &[vec![1, 2], vec![3, 4]])
            .expect("programs");
        assert!(matches!(
            t.exec_mvm(id, &[1], 0, &regs, None),
            Err(Error::Shape(_))
        ));
    }

    #[test]
    fn set_matrix_rejects_oversize_and_ragged() {
        let mut t = tile();
        let id = t.alloc_vacore(4, 2, 2, false).expect("allocates");
        let dim = t.config().params.array_dim;
        let too_tall = vec![vec![0i64; 2]; dim + 1];
        assert!(matches!(t.set_matrix(id, &too_tall), Err(Error::Shape(_))));
        let ragged = vec![vec![1, 2], vec![3]];
        assert!(matches!(t.set_matrix(id, &ragged), Err(Error::Shape(_))));
    }

    #[test]
    fn update_row_changes_results() {
        let mut t = tile();
        let id = t.alloc_vacore(4, 2, 2, false).expect("allocates");
        t.set_matrix(id, &[vec![1, 1], vec![1, 1]])
            .expect("programs");
        t.update_row(id, 0, &[3, -3]).expect("updates");
        let regs = ReductionRegs::dense(4);
        let report = t.exec_mvm(id, &[1, 1], 0, &regs, None).expect("executes");
        assert_eq!(report.result, vec![4, -2]);
    }

    #[test]
    fn iiu_vs_front_end_issue() {
        let mut config = HctConfig::small_test();
        config.use_iiu = false;
        let mut t = HybridComputeTile::new(config).expect("valid");
        let id = t.alloc_vacore(4, 2, 3, false).expect("allocates");
        t.set_matrix(id, &[vec![1, 2], vec![3, 4]])
            .expect("programs");
        let regs = ReductionRegs::dense(6);
        let front_end = t.exec_mvm(id, &[1, 2], 0, &regs, None).expect("executes");
        assert!(t.front_end_ops() > 0);
        // The IIU runs the same replay; only the issue charge differs.
        let mut t = tile();
        let id = t.alloc_vacore(4, 2, 3, false).expect("allocates");
        t.set_matrix(id, &[vec![1, 2], vec![3, 4]])
            .expect("programs");
        let injected = t.exec_mvm(id, &[1, 2], 0, &regs, None).expect("executes");
        assert_eq!(t.front_end_ops(), 0);
        assert_eq!(injected.result, front_end.result);
    }

    #[test]
    fn energy_meter_has_both_domains() {
        let mut t = tile();
        let id = t.alloc_vacore(4, 2, 3, false).expect("allocates");
        t.set_matrix(id, &[vec![5, 9], vec![8, 7]])
            .expect("programs");
        let regs = ReductionRegs::dense(6);
        t.exec_mvm(id, &[2, 7], 0, &regs, None).expect("executes");
        let meter = t.energy_meter();
        assert!(meter.component("ace.adc").get() > 0.0);
        assert!(meter.component("dce.array").get() > 0.0);
        assert!(meter.component("dce.reduce").get() > 0.0);
    }

    #[test]
    fn pipeline_pair_borrows() {
        let mut t = tile();
        {
            let (a, b) = t.pipeline_pair(0, 1).expect("distinct");
            let _ = (a, b);
        }
        assert!(t.pipeline_pair(0, 0).is_err());
        assert!(t.pipeline_pair(0, 99).is_err());
    }
}

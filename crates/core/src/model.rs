//! The analytical DARTH-PUM cost model.
//!
//! Prices an op stream on the iso-area chip: every kernel op maps to the
//! same latency/energy rules the functional tile uses (ACE bit-sliced MVM
//! with rate-matched transfer, DCE macro costs, IIU-injected reductions),
//! then throughput scales across the chip's HCTs. Figures 13–18 divide
//! these reports against the baseline models in `darth-baselines`.
//!
//! Modelling notes (also recorded in `EXPERIMENTS.md`):
//!
//! * Dynamic energy only; ReRAM leakage is negligible and CMOS idle power
//!   is excluded on all architectures alike.
//! * An MVM's matrix is assumed resident (programmed once, reused) except
//!   for explicit [`KernelOp::WeightUpdate`] ops — matching §5.2's
//!   treatment of attention versus FFN weights.
//! * Batched MVMs double-buffer across landing pipelines, so consecutive
//!   inputs overlap at `max(analog, reduce)` (§4.1's rate matching).

use crate::eval::{ArchModel, CostAccumulator};
use crate::params::{power, ChipParams, HCTS_PER_FRONT_END};
use crate::trace::{CostReport, KernelOp, TraceMeta, TraceSink};
use darth_analog::adc::{Adc, AdcKind};
use darth_digital::logic::LogicFamily;
use darth_digital::macros::MacroOp;
use darth_reram::units::CLOCK_HZ;
use serde::{Deserialize, Serialize};

/// Analog-array programming cost per matrix row (write–verify dominated).
const PROGRAM_CYCLES_PER_ROW: u64 = 1000;

/// The converter resolution the §4.3 compensation scheme is sized
/// against: an 8-bit ADC digitizes a full 64-row bitline in one pass.
/// Designs below this reference split the line into `2^(8 - bits)`
/// row-group passes (each dropped bit halves the representable range);
/// extra bits above it buy headroom, not speed.
const ADC_REFERENCE_BITS: u8 = 8;

/// The analytical chip model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DarthModel {
    /// Chip geometry and iso-area sizing.
    pub chip: ChipParams,
    /// Digital logic family.
    pub family: LogicFamily,
    /// Reductions injected by the IIU (`false`: front-end issued, which
    /// adds issue contention across the 8 tiles sharing a front end).
    pub use_iiu: bool,
    /// Figure 10b overlap (`false`: serialized Figure 10a).
    pub optimized_schedule: bool,
    /// Ramp-ADC early-termination levels (AES's 4-level trick); ignored
    /// for SAR.
    pub early_levels: Option<u16>,
    /// Device bits per cell for multi-bit weights (1 forced for 1-bit
    /// matrices).
    pub bits_per_cell: u8,
    /// Tile clock in Hz (paper: [`CLOCK_HZ`], 1 GHz). Latency scales
    /// inversely; dynamic energy scales *quadratically* (constant-field
    /// supply-voltage scaling around the paper's 1 GHz reference), so
    /// clocking is a real latency↔energy trade in the DSE sweeps.
    pub clock_hz: f64,
}

impl DarthModel {
    /// The paper's configuration with the chosen ADC.
    pub fn paper(adc_kind: AdcKind) -> Self {
        DarthModel {
            chip: ChipParams::paper(adc_kind),
            family: LogicFamily::Oscar,
            use_iiu: true,
            optimized_schedule: true,
            early_levels: None,
            // vACores flex operand width (§4.2); 4-bit cells halve the
            // slice count for the 8-bit evaluation workloads.
            bits_per_cell: 4,
            clock_hz: CLOCK_HZ,
        }
    }

    fn adc(&self) -> Adc {
        // `DarthModel` is plain public data, so nothing forces it
        // through the validated `DarthConfig::build` path; clamp a
        // hand-set or deserialized resolution into `Adc::new`'s 1..=16
        // range rather than panicking mid-pricing.
        let bits = self.chip.hct.adc_bits.clamp(1, 16);
        Adc::new(self.chip.hct.adc_kind, bits, 1.0).expect("clamped resolution is valid")
    }

    /// Latency (cycles), energy (pJ), HCT-arrays occupied, and serial ACE
    /// occupancy (cycles) of one op on one HCT.
    fn price_op(&self, op: &KernelOp) -> (f64, f64, f64, f64) {
        let dim = self.chip.hct.array_dim as u64;
        let pipe_depth = self.chip.hct.dce_pipeline_depth as u64;
        let adc = self.adc();
        match *op {
            KernelOp::Mvm {
                rows,
                cols,
                input_bits,
                weight_bits,
                batch,
            } => {
                let bpc = if weight_bits <= 1 {
                    1
                } else {
                    self.bits_per_cell.min(weight_bits)
                };
                let slices = u64::from(weight_bits.div_ceil(bpc));
                let ace_rows = self.chip.hct.ace_rows as u64;
                let ace_cols = self.chip.hct.ace_cols as u64;
                let row_tiles = rows.div_ceil(ace_rows);
                let col_tiles = cols.div_ceil(ace_cols);
                let arrays = row_tiles * col_tiles * slices;

                // Analog phase per input bit on one (row, col) tile group:
                // the ADC group digitizes the tile's bitlines × slices.
                let bitlines = (ace_cols * slices) as usize;
                let readout = adc.readout_cycles(bitlines, self.early_levels).get();
                // Below-reference resolutions pay range splitting: one
                // sample+readout pass per row group (see
                // [`ADC_REFERENCE_BITS`]); exactly one pass at the
                // paper's 8-bit point.
                let range_groups =
                    1u64 << u32::from(ADC_REFERENCE_BITS.saturating_sub(self.chip.hct.adc_bits));
                let per_bit_ace = range_groups * (1 + readout);
                // Transfer: one row of data per cycle per landing
                // pipeline; each weight slice lands in its own pipeline,
                // so the transfer is one array's columns wide (the 8 B/cyc
                // network moves 8 codes per cycle, which is faster still).
                let per_bit_transfer = ace_cols;
                let bits = u64::from(input_bits.max(1));
                let analog_phase = if self.optimized_schedule {
                    per_bit_ace
                        + per_bit_ace.max(per_bit_transfer) * bits.saturating_sub(1)
                        + per_bit_transfer
                } else {
                    (per_bit_ace + per_bit_transfer) * bits
                };

                // Reduction: terms-1 adds, pipelined; plus row-tile merge.
                let terms = slices * bits;
                let add = MacroOp::Add.cost(self.family, pipe_depth, dim);
                let arith = terms.saturating_sub(1) + row_tiles.saturating_sub(1);
                let reduce = if self.optimized_schedule {
                    add.pipelined_batch(arith).get()
                } else {
                    let shift = MacroOp::ShiftBits(1).cost(self.family, pipe_depth, dim);
                    add.latency().get() * arith + shift.latency().get() * terms
                };
                // Front-end contention when the IIU is absent: reduction
                // µops are issued for all 8 tiles through one port.
                let issue_penalty = if self.use_iiu {
                    0
                } else {
                    arith * add.stage_cycles * (HCTS_PER_FRONT_END as u64 - 1) / 2
                };
                // Column tiles run on parallel arrays/ADC groups in other
                // tiles; row tiles' analog phases share the input buffers
                // and run concurrently too (their merges are in `reduce`).
                let per_input = analog_phase + reduce + issue_penalty;
                let pipelined =
                    per_input + (batch.saturating_sub(1)) * per_input.max(analog_phase.max(reduce));

                // Energy.
                let conversions =
                    (bitlines as u64) * bits * row_tiles * col_tiles * batch * range_groups;
                // Per-conversion SAR energy scales with resolution (one
                // comparator decision + DAC settle per bit; Table 3's
                // 1.5 mW is the 8-bit point, so the paper's factor is
                // exactly 1). Ramp energy scales with the total sweep
                // length (`2^bits` cycles per range-group pass).
                let sar_resolution = f64::from(self.chip.hct.adc_bits) / 8.0;
                let adc_energy = match self.chip.hct.adc_kind {
                    AdcKind::Sar => power::SAR_ADC * conversions as f64 * sar_resolution,
                    AdcKind::Ramp => {
                        power::RAMP_ADC
                            * (readout * range_groups * bits * row_tiles * col_tiles * batch) as f64
                    }
                };
                let row_periphery =
                    power::ROW_PERIPHERY * (bits * row_tiles * col_tiles * batch) as f64;
                // Each column tile runs its own reduction; row-tile merges
                // are already inside `arith`.
                let reduce_energy = add.primitives as f64
                    * self.family.energy_per_primitive_pj()
                    * (arith * col_tiles * batch) as f64;
                let ctrl = power::PIPELINE_CTRL * (reduce * batch) as f64;
                (
                    pipelined as f64,
                    adc_energy + row_periphery + reduce_energy + ctrl,
                    arrays as f64,
                    (analog_phase * batch) as f64,
                )
            }
            KernelOp::Vector {
                kind,
                elements,
                bits,
                count,
            } => {
                let lanes = dim; // 64 elements per pipeline op
                let instances = elements.div_ceil(lanes) * count;
                let cost = kind
                    .macro_op(bits)
                    .cost(self.family, u64::from(bits).max(1), lanes);
                let latency = if cost.barrier {
                    cost.latency().get() * instances
                } else {
                    cost.pipelined_batch(instances).get()
                };
                let energy = cost.primitives as f64
                    * instances as f64
                    * self.family.energy_per_primitive_pj();
                (latency as f64, energy, 0.0, 0.0)
            }
            KernelOp::TableLookup { elements, .. } => {
                let cost = MacroOp::ElementLoad.cost(self.family, pipe_depth, dim);
                let instances = elements.div_ceil(dim);
                let latency = cost.latency().get() * instances;
                // element-wise load is peripheral I/O: charge pipeline ctrl
                let energy = power::PIPELINE_CTRL * latency as f64;
                (latency as f64, energy, 0.0, 0.0)
            }
            KernelOp::HostMove { bytes } | KernelOp::OnChipMove { bytes } => {
                // On DARTH-PUM all movement stays on chip at 8 B/cycle.
                let cycles = bytes.div_ceil(crate::params::ACE_DCE_BYTES_PER_CYCLE);
                (
                    cycles as f64,
                    power::PIPELINE_CTRL * cycles as f64,
                    0.0,
                    0.0,
                )
            }
            KernelOp::WeightUpdate {
                rows, weight_bits, ..
            } => {
                let bpc = if weight_bits <= 1 {
                    1
                } else {
                    self.bits_per_cell
                };
                let slices = u64::from(weight_bits.div_ceil(bpc));
                let cycles = rows * PROGRAM_CYCLES_PER_ROW * slices;
                (
                    cycles as f64,
                    power::ROW_PERIPHERY * cycles as f64,
                    slices as f64,
                    cycles as f64,
                )
            }
        }
    }
}

/// The streaming accumulator behind [`DarthModel`]'s
/// [`ArchModel::price`]: folds an op stream into per-kernel
/// latency/energy state and finalizes with the iso-area placement maths.
///
/// An item's digital (non-MVM) work spreads across the
/// `pipelines_per_item` pipelines its mapping occupies; MVM chains are
/// serial per vACore.
#[derive(Debug, Clone)]
pub struct DarthAccumulator {
    model: DarthModel,
    workload: String,
    parallel_items: u64,
    pipelines_per_item: u64,
    spread: f64,
    item_cycles: f64,
    item_energy_pj: f64,
    max_arrays: f64,
    ace_serial_cycles: f64,
    kernel_latency: Vec<(String, f64)>,
    current: Option<DarthKernel>,
}

#[derive(Debug, Clone)]
struct DarthKernel {
    name: String,
    cycles: f64,
    energy_pj: f64,
    arrays: f64,
}

impl DarthAccumulator {
    /// A fresh accumulator for one work item on `model`.
    pub fn new(model: DarthModel) -> Self {
        DarthAccumulator {
            model,
            workload: String::new(),
            parallel_items: u64::MAX,
            pipelines_per_item: 1,
            spread: 1.0,
            item_cycles: 0.0,
            item_energy_pj: 0.0,
            max_arrays: 0.0,
            ace_serial_cycles: 0.0,
            kernel_latency: Vec::new(),
            current: None,
        }
    }

    fn flush_kernel(&mut self) {
        if let Some(kernel) = self.current.take() {
            self.kernel_latency
                .push((kernel.name, kernel.cycles / self.model.clock_hz));
            self.item_cycles += kernel.cycles;
            self.item_energy_pj += kernel.energy_pj;
            self.max_arrays = self.max_arrays.max(kernel.arrays);
        }
    }
}

impl TraceSink for DarthAccumulator {
    fn begin_trace(&mut self, meta: &TraceMeta) {
        self.workload = meta.name.clone();
        self.parallel_items = meta.parallel_items;
        self.pipelines_per_item = meta.pipelines_per_item;
        self.spread = meta.pipelines_per_item.max(1) as f64;
    }

    fn begin_kernel(&mut self, name: &str) {
        self.flush_kernel();
        self.current = Some(DarthKernel {
            name: name.to_owned(),
            cycles: 0.0,
            energy_pj: 0.0,
            arrays: 0.0,
        });
    }

    fn op_run(&mut self, op: &KernelOp, repeat: u64) {
        let (ol, oe, oa, oace) = self.model.price_op(op);
        let ol = if matches!(op, KernelOp::Vector { .. } | KernelOp::TableLookup { .. }) {
            ol / self.spread
        } else {
            ol
        };
        let kernel = self.current.as_mut().expect("begin_kernel precedes ops");
        // Fold the run one repetition at a time: pricing the op once and
        // re-adding the same addends keeps a run of `n` bit-identical to
        // `n` single-op events while skipping `n - 1` model evaluations.
        for _ in 0..repeat {
            kernel.cycles += ol;
            kernel.energy_pj += oe;
            self.ace_serial_cycles += oace;
        }
        kernel.arrays = kernel.arrays.max(oa);
    }
}

impl CostAccumulator for DarthAccumulator {
    fn finish(&mut self) -> CostReport {
        self.flush_kernel();
        let model = &self.model;
        // Front-end share: one front end per 8 HCTs, amortised per item.
        // Dynamic energy scales quadratically with the clock around the
        // paper's 1 GHz reference (constant-field voltage scaling) —
        // exactly 1.0 at the paper point, a real trade-off in sweeps.
        let clock_scale = (model.clock_hz / CLOCK_HZ).powi(2);
        let item_energy_pj = (self.item_energy_pj
            + power::FRONT_END * self.item_cycles / HCTS_PER_FRONT_END as f64)
            * clock_scale;

        // Placement: arrays bound the analog footprint; DCE pipelines
        // bound digital batching.
        let arrays_per_hct = model.chip.hct.ace_arrays as f64;
        let hcts_for_arrays = (self.max_arrays / arrays_per_hct).ceil().max(1.0);
        let pipes_per_hct = model.chip.hct.dce_pipelines as f64;
        let items_per_hct_group =
            (pipes_per_hct * hcts_for_arrays / self.pipelines_per_item as f64).max(1.0);
        let hct_count = model.chip.hct_count() as f64;
        let groups = (hct_count / hcts_for_arrays).max(1.0);
        let chip_parallel = (groups * items_per_hct_group)
            .min(self.parallel_items as f64)
            .max(1.0);

        let latency_s = self.item_cycles / model.clock_hz;
        let pipeline_bound = chip_parallel / latency_s.max(1e-12);
        // Items sharing a tile group also share its ACEs: the group's
        // analog throughput caps the item rate regardless of how many
        // pipeline contexts are free.
        let ace_bound = if self.ace_serial_cycles > 0.0 {
            groups * model.clock_hz / self.ace_serial_cycles
        } else {
            f64::INFINITY
        };
        CostReport {
            architecture: format!("DARTH-PUM ({:?} ADC)", model.chip.hct.adc_kind),
            workload: std::mem::take(&mut self.workload),
            latency_s,
            throughput_items_per_s: pipeline_bound.min(ace_bound),
            energy_per_item_j: item_energy_pj * 1e-12,
            kernel_latency_s: std::mem::take(&mut self.kernel_latency),
        }
    }
}

impl ArchModel for DarthModel {
    /// `"darth-sar"` / `"darth-ramp"`, with the Figure-10a/ablation knobs
    /// appended when they differ from the paper configuration.
    fn name(&self) -> String {
        let mut name = format!("darth-{}", self.chip.hct.adc_kind.slug());
        if !self.use_iiu {
            name.push_str("-noiiu");
        }
        if !self.optimized_schedule {
            name.push_str("-serialized");
        }
        name
    }

    fn label(&self) -> String {
        "DARTH-PUM".into()
    }

    fn accumulator(&self) -> Box<dyn crate::eval::CostAccumulator + '_> {
        Box::new(DarthAccumulator::new(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceSummary, VectorKind};

    /// A one-kernel, one-op stream under `meta`.
    fn one_op(meta: TraceMeta, kernel: &str, op: KernelOp) -> TraceSummary {
        TraceSummary::record(|r| {
            r.begin_trace(&meta);
            r.begin_kernel(kernel);
            r.op(&op);
        })
    }

    fn mvm_op(input_bits: u8, weight_bits: u8) -> KernelOp {
        KernelOp::Mvm {
            rows: 64,
            cols: 64,
            input_bits,
            weight_bits,
            batch: 1,
        }
    }

    fn mvm_trace(input_bits: u8, weight_bits: u8) -> TraceSummary {
        one_op(TraceMeta::new("t"), "mvm", mvm_op(input_bits, weight_bits))
    }

    #[test]
    fn price_is_positive_and_finite() {
        let model = DarthModel::paper(AdcKind::Sar);
        let report = model.price(&mvm_trace(8, 8));
        assert!(report.latency_s > 0.0 && report.latency_s.is_finite());
        assert!(report.energy_per_item_j > 0.0);
        assert!(report.throughput_items_per_s > 0.0);
    }

    #[test]
    fn more_input_bits_cost_more() {
        let model = DarthModel::paper(AdcKind::Sar);
        let narrow = model.price(&mvm_trace(1, 1));
        let wide = model.price(&mvm_trace(8, 8));
        assert!(wide.latency_s > narrow.latency_s);
        assert!(wide.energy_per_item_j > narrow.energy_per_item_j);
    }

    #[test]
    fn optimized_schedule_is_faster() {
        let mut opt = DarthModel::paper(AdcKind::Sar);
        opt.optimized_schedule = true;
        let mut unopt = opt;
        unopt.optimized_schedule = false;
        let t = mvm_trace(8, 8);
        assert!(opt.price(&t).latency_s < unopt.price(&t).latency_s);
    }

    #[test]
    fn iiu_saves_latency() {
        let with = DarthModel::paper(AdcKind::Sar);
        let mut without = with;
        without.use_iiu = false;
        let t = mvm_trace(8, 8);
        assert!(with.price(&t).latency_s < without.price(&t).latency_s);
    }

    #[test]
    fn ramp_early_termination_helps_aes_style_mvm() {
        let mut ramp = DarthModel::paper(AdcKind::Ramp);
        let full = ramp.price(&mvm_trace(1, 1));
        ramp.early_levels = Some(4);
        let early = ramp.price(&mvm_trace(1, 1));
        assert!(early.latency_s < full.latency_s);
    }

    #[test]
    fn low_adc_resolution_trades_area_for_conversion_passes() {
        // A 6-bit design's converter is smaller, but the lost range
        // costs 2^(8-6) = 4 row-group passes per conversion — worse
        // latency and energy at lower area, so neither resolution
        // dominates the other in a sweep and the axis never produces
        // duplicate columns.
        let b8 = DarthModel::paper(AdcKind::Sar);
        let mut b6 = b8;
        b6.chip.hct.adc_bits = 6;
        let t = mvm_trace(8, 8);
        let full = b8.price(&t);
        let coarse = b6.price(&t);
        assert!(coarse.latency_s > full.latency_s);
        assert!(coarse.energy_per_item_j > full.energy_per_item_j);
        assert!(b6.chip.hct.ace_area() < b8.chip.hct.ace_area());
        // Above the reference, extra bits buy headroom (area), never
        // extra passes.
        let mut b12 = b8;
        b12.chip.hct.adc_bits = 12;
        assert_eq!(b12.price(&t).latency_s, full.latency_s);
        assert!(b12.chip.hct.ace_area() > b8.chip.hct.ace_area());
        // Hand-set out-of-range resolutions clamp rather than panic:
        // the model is plain data, not forced through DarthConfig.
        let mut raw = b8;
        raw.chip.hct.adc_bits = 0;
        assert!(raw.price(&t).latency_s.is_finite());
        raw.chip.hct.adc_bits = 200;
        assert!(raw.price(&t).latency_s.is_finite());
    }

    #[test]
    fn clock_trades_latency_for_energy() {
        // Faster clocks shorten items but pay quadratic dynamic energy
        // (voltage scaling), so no clock strictly dominates in a sweep.
        let base = DarthModel::paper(AdcKind::Sar);
        let mut fast = base;
        fast.clock_hz = 1.5e9;
        let t = mvm_trace(8, 8);
        let slow_report = base.price(&t);
        let fast_report = fast.price(&t);
        assert!(fast_report.latency_s < slow_report.latency_s);
        assert!(fast_report.energy_per_item_j > slow_report.energy_per_item_j);
        let ratio = fast_report.energy_per_item_j / slow_report.energy_per_item_j;
        assert!((ratio - 2.25).abs() < 1e-9, "expected (1.5)^2, got {ratio}");
    }

    #[test]
    fn vector_ops_price_by_macro_cost() {
        let model = DarthModel::paper(AdcKind::Sar);
        let bool_trace = one_op(
            TraceMeta::new("b"),
            "xor",
            KernelOp::Vector {
                kind: VectorKind::Bool,
                elements: 64,
                bits: 8,
                count: 100,
            },
        );
        let mul_trace = one_op(
            TraceMeta::new("m"),
            "mul",
            KernelOp::Vector {
                kind: VectorKind::Mul,
                elements: 64,
                bits: 8,
                count: 100,
            },
        );
        let b = model.price(&bool_trace);
        let m = model.price(&mul_trace);
        assert!(m.latency_s > b.latency_s, "mul is costlier than xor");
    }

    #[test]
    fn parallelism_caps_apply() {
        let model = DarthModel::paper(AdcKind::Sar);
        let free = model.price(&mvm_trace(8, 8));
        let capped_trace = one_op(
            TraceMeta::new("t").with_parallel_items(1),
            "mvm",
            mvm_op(8, 8),
        );
        let capped = model.price(&capped_trace);
        assert!(capped.throughput_items_per_s < free.throughput_items_per_s);
        let fat_trace = one_op(
            TraceMeta::new("t").with_pipelines_per_item(64),
            "mvm",
            mvm_op(8, 8),
        );
        let fat = model.price(&fat_trace);
        assert!(fat.throughput_items_per_s < free.throughput_items_per_s);
    }

    #[test]
    fn kernel_breakdown_sums_to_latency() {
        let model = DarthModel::paper(AdcKind::Sar);
        let trace = TraceSummary::record(|r| {
            r.begin_trace(&TraceMeta::new("multi"));
            r.begin_kernel("a");
            r.op(&KernelOp::Vector {
                kind: VectorKind::Add,
                elements: 64,
                bits: 8,
                count: 10,
            });
            r.begin_kernel("b");
            r.op(&KernelOp::TableLookup {
                elements: 64,
                table_size: 256,
                bits: 8,
            });
        });
        let report = model.price(&trace);
        let sum: f64 = report.kernel_latency_s.iter().map(|(_, s)| s).sum();
        assert!((sum - report.latency_s).abs() / report.latency_s < 1e-9);
    }

    #[test]
    fn weight_update_is_expensive() {
        let model = DarthModel::paper(AdcKind::Sar);
        let update = one_op(
            TraceMeta::new("u"),
            "prog",
            KernelOp::WeightUpdate {
                rows: 64,
                cols: 64,
                weight_bits: 8,
            },
        );
        let mvm = model.price(&mvm_trace(8, 8));
        let upd = model.price(&update);
        assert!(
            upd.latency_s > 10.0 * mvm.latency_s,
            "programming dwarfs compute: {} vs {}",
            upd.latency_s,
            mvm.latency_s
        );
    }
}

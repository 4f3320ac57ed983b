//! The paper's Baseline: a CPU paired with an analog-only PUM accelerator.
//!
//! MVM kernels run on a 1.5 GB ReRAM crossbar accelerator (whose area the
//! paper treats as free); everything else runs on the CPU. Every
//! MVM/non-MVM boundary crosses the host link, which — together with the
//! CPU's limited parallelism on the auxiliary kernels — is exactly the
//! bottleneck DARTH-PUM removes (Figure 14's DataMovement bar).

use crate::cpu::CpuModel;
use darth_analog::adc::{Adc, AdcKind};
use darth_pum::eval::{ArchModel, CostAccumulator};
use darth_pum::trace::{CostReport, KernelOp, TraceMeta, TraceSink};

/// CPU + analog accelerator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineModel {
    /// The host CPU.
    pub cpu: CpuModel,
    /// Accelerator clock in Hz.
    pub accel_freq_hz: f64,
    /// Crossbar array dimension.
    pub array_dim: u64,
    /// ADC architecture on the accelerator.
    pub adc_kind: AdcKind,
    /// Bits per cell for multi-bit weights.
    pub bits_per_cell: u8,
    /// Host↔accelerator link bandwidth in bytes/s (protocol-limited
    /// DDR/PCIe attachment).
    pub link_bw: f64,
    /// Per-offload round-trip latency in seconds (sync + doorbell).
    pub link_latency_s: f64,
    /// Independent items batched per offload (amortises the round trip).
    pub offload_batch: f64,
    /// Link energy per byte in joules.
    pub link_energy_per_byte: f64,
    /// Accelerator arrays available (1.5 GB of 64×64 SLC arrays).
    pub arrays: u64,
}

impl BaselineModel {
    /// The §6 Baseline: i7-13700 plus a 1.5 GB analog accelerator.
    pub fn paper(adc_kind: AdcKind) -> Self {
        let capacity_bits = 1.5e9 * 8.0;
        BaselineModel {
            cpu: CpuModel::i7_13700(),
            accel_freq_hz: 1.0e9,
            array_dim: 64,
            adc_kind,
            bits_per_cell: 2,
            link_bw: 4.0e9,
            link_latency_s: 500e-9,
            offload_batch: 128.0,
            link_energy_per_byte: 60e-12,
            arrays: (capacity_bits / (64.0 * 64.0)) as u64,
        }
    }

    /// (compute seconds, link seconds, joules) for one MVM op on the
    /// accelerator; the link time is reported as DataMovement.
    fn price_mvm(&self, op: &KernelOp) -> (f64, f64, f64) {
        let KernelOp::Mvm {
            rows,
            cols,
            input_bits,
            weight_bits,
            batch,
        } = *op
        else {
            unreachable!("price_mvm only handles Mvm ops");
        };
        let adc = Adc::new(self.adc_kind, 8, 1.0).expect("valid ADC parameters");
        let bpc = if weight_bits <= 1 {
            1
        } else {
            self.bits_per_cell.min(weight_bits)
        };
        let slices = u64::from(weight_bits.div_ceil(bpc));
        let row_tiles = rows.div_ceil(self.array_dim);
        let col_tiles = cols.div_ceil(self.array_dim);
        let bits = u64::from(input_bits.max(1));
        // The 1.5 GB accelerator replicates the matrix across its free
        // arrays, spreading the batch.
        let arrays_needed = (row_tiles * col_tiles * slices).max(1);
        let copies = (self.arrays / arrays_needed).max(1);
        let effective_batch = batch.div_ceil(copies).max(1);
        // Dedicated shift-and-add: one cycle per ADC batch, no DCE detour.
        let readout = adc
            .readout_cycles((self.array_dim * slices) as usize, None)
            .get();
        let per_input = bits * (1 + readout) + bits; // + shift-add pipeline
        let cycles = per_input + effective_batch.saturating_sub(1) * (bits * readout).max(1);
        let time = cycles as f64 / self.accel_freq_hz;
        // Host crossings: inputs down, outputs back, plus one offload
        // round trip per kernel-level MVM call.
        let bytes = (rows * u64::from(input_bits.div_ceil(8)) + cols * 4) as f64 * batch as f64;
        let link_time = bytes / self.link_bw + 2.0 * self.link_latency_s / self.offload_batch;
        // ADC energy dominates the accelerator side.
        let conversions =
            (self.array_dim * slices * bits * row_tiles * col_tiles) as f64 * batch as f64;
        let adc_energy = match self.adc_kind {
            AdcKind::Sar => 1.5e-12 * conversions,
            AdcKind::Ramp => 1.2e-12 * 256.0 * (bits * row_tiles * col_tiles * batch) as f64,
        };
        (
            time,
            link_time,
            adc_energy + self.link_energy_per_byte * bytes,
        )
    }
}

/// The streaming accumulator behind [`BaselineModel`]'s
/// [`ArchModel::price`]: MVMs on the accelerator, the rest on the CPU.
#[derive(Debug, Clone)]
pub struct BaselineAccumulator {
    model: BaselineModel,
    workload: String,
    parallel_items: u64,
    latency: f64,
    energy: f64,
    movement_time: f64,
    breakdown: Vec<(String, f64)>,
    current: Option<(String, f64)>,
}

impl BaselineAccumulator {
    /// A fresh accumulator for one work item on `model`.
    pub fn new(model: BaselineModel) -> Self {
        BaselineAccumulator {
            model,
            workload: String::new(),
            parallel_items: u64::MAX,
            latency: 0.0,
            energy: 0.0,
            movement_time: 0.0,
            breakdown: Vec::new(),
            current: None,
        }
    }

    fn flush_kernel(&mut self) {
        if let Some((name, kernel_time)) = self.current.take() {
            self.breakdown.push((name, kernel_time));
            self.latency += kernel_time;
        }
    }
}

impl TraceSink for BaselineAccumulator {
    fn begin_trace(&mut self, meta: &TraceMeta) {
        self.workload = meta.name.clone();
        self.parallel_items = meta.parallel_items;
    }

    fn begin_kernel(&mut self, name: &str) {
        self.flush_kernel();
        self.current = Some((name.to_owned(), 0.0));
    }

    fn op_run(&mut self, op: &KernelOp, repeat: u64) {
        let (t, link, e) = if op.is_mvm() {
            let (t, link, e) = self.model.price_mvm(op);
            // link time shows up as DataMovement, the paper's bar; the
            // host core blocks on the offload, burning package power the
            // whole time (synchronous library calls)
            let blocked = self.model.cpu.package_watts / self.model.cpu.cores * (t + link);
            (t, link, e + blocked)
        } else {
            let (t, e) = self.model.cpu.price_op(op);
            (t, 0.0, e)
        };
        let kernel = self.current.as_mut().expect("begin_kernel precedes ops");
        for _ in 0..repeat {
            self.movement_time += link;
            kernel.1 += t;
            self.energy += e;
        }
    }
}

impl CostAccumulator for BaselineAccumulator {
    fn finish(&mut self) -> CostReport {
        self.flush_kernel();
        let mut breakdown = std::mem::take(&mut self.breakdown);
        // Attribute host-link crossings to the DataMovement bucket.
        let latency = self.latency + self.movement_time;
        if let Some(entry) = breakdown.iter_mut().find(|(n, _)| n == "DataMovement") {
            entry.1 += self.movement_time;
        } else if self.movement_time > 0.0 {
            breakdown.insert(0, ("DataMovement".to_owned(), self.movement_time));
        }
        // Parallelism: the accelerator has many arrays, but the CPU side
        // caps concurrent items at its core count (§3's bottleneck).
        let parallel = (self.parallel_items as f64).min(self.model.cpu.cores);
        CostReport {
            architecture: format!("Baseline (CPU + analog, {:?})", self.model.adc_kind),
            workload: std::mem::take(&mut self.workload),
            latency_s: latency,
            throughput_items_per_s: parallel / latency.max(1e-15),
            energy_per_item_j: self.energy,
            kernel_latency_s: breakdown,
        }
    }
}

impl ArchModel for BaselineModel {
    /// `"baseline-sar"` / `"baseline-ramp"`.
    fn name(&self) -> String {
        format!("baseline-{}", self.adc_kind.slug())
    }

    fn label(&self) -> String {
        "Baseline".into()
    }

    fn accumulator(&self) -> Box<dyn CostAccumulator + '_> {
        Box::new(BaselineAccumulator::new(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darth_apps::aes::workload::AesWorkload;

    #[test]
    fn accelerator_beats_cpu_on_the_mvm_kernels() {
        // The accelerator's win is on the matrix work itself; host-link
        // crossings eat part of it back (that is the paper's point).
        let baseline = BaselineModel::paper(AdcKind::Sar);
        let cpu = CpuModel::i7_13700();
        let op = KernelOp::Mvm {
            rows: 576,
            cols: 64,
            input_bits: 8,
            weight_bits: 8,
            batch: 256,
        };
        let (accel_compute, _, _) = baseline.price_mvm(&op);
        let (cpu_time, _) = cpu.price_op(&op);
        assert!(
            accel_compute < cpu_time,
            "accel {accel_compute} !< cpu {cpu_time}"
        );
    }

    #[test]
    fn aes_on_baseline_is_cpu_bound() {
        // §3/§7.1: three of four AES kernels stay on the CPU, so the
        // accelerator barely helps.
        let baseline = BaselineModel::paper(AdcKind::Sar);
        let report = baseline.price(&AesWorkload::paper());
        let total: f64 = report.kernel_latency_s.iter().map(|(_, t)| t).sum();
        let non_mvm: f64 = report
            .kernel_latency_s
            .iter()
            .filter(|(n, _)| n != "MixColumns")
            .map(|(_, t)| t)
            .sum();
        assert!(non_mvm / total > 0.4, "non-MVM share {}", non_mvm / total);
    }

    #[test]
    fn link_crossings_cost_time() {
        let baseline = BaselineModel::paper(AdcKind::Sar);
        let op = KernelOp::Mvm {
            rows: 64,
            cols: 64,
            input_bits: 8,
            weight_bits: 8,
            batch: 1,
        };
        let (_, with_link, _) = baseline.price_mvm(&op);
        let mut free_link = baseline;
        free_link.link_bw = 1e18;
        free_link.link_latency_s = 0.0;
        free_link.offload_batch = 1.0;
        let (_, without_link, _) = free_link.price_mvm(&op);
        assert!(with_link > without_link);
        assert!(without_link < 1e-12);
    }
}

//! An RTX-4090-class GPU model (Figure 18).
//!
//! A throughput/power table with a roofline over int8 tensor throughput
//! and memory bandwidth, plus the cache-resident T-table path for AES the
//! paper calls out ("the AES lookup tables are small enough to be
//! cache-resident in the GPU, enabling it to achieve high throughput").

use darth_pum::eval::{ArchModel, CostAccumulator};
use darth_pum::trace::{CostReport, KernelOp, TraceMeta, TraceSink, VectorKind};

/// GPU parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Marketing name.
    pub name: &'static str,
    /// INT8 tensor throughput in ops/s.
    pub int8_tops: f64,
    /// General INT32 vector throughput in ops/s (CUDA cores).
    pub int_ops: f64,
    /// Shared-memory table lookups per second (cache-resident gathers).
    pub gathers_per_s: f64,
    /// Memory bandwidth in bytes/s.
    pub mem_bw: f64,
    /// Board power in watts.
    pub board_watts: f64,
    /// Achievable utilisation of the peak numbers.
    pub utilisation: f64,
    /// Die area in cm² (iso-area comparisons).
    pub die_area_cm2: f64,
    /// Minimum wall time of a dependent layer-style kernel (launch +
    /// occupancy ramp); tiny layers in a serial chain cannot amortise it.
    pub kernel_floor_s: f64,
}

impl GpuModel {
    /// GeForce RTX 4090.
    pub fn rtx_4090() -> Self {
        GpuModel {
            name: "RTX 4090",
            int8_tops: 660.0e12,
            int_ops: 41.0e12,
            gathers_per_s: 8.0e12,
            mem_bw: 1.0e12,
            board_watts: 450.0,
            utilisation: 0.25,
            die_area_cm2: 6.08,
            kernel_floor_s: 2.0e-6,
        }
    }

    fn price_op(&self, op: &KernelOp) -> (f64, f64) {
        let u = self.utilisation;
        match *op {
            KernelOp::Mvm {
                rows,
                cols,
                batch,
                input_bits,
                weight_bits,
                ..
            } => {
                let macs = (rows * cols * batch) as f64;
                let width = f64::from(input_bits.max(weight_bits).max(8)) / 8.0;
                let compute = macs * width / (self.int8_tops * u);
                let bytes = (rows * cols) as f64 * width;
                let memory = bytes / self.mem_bw;
                let mut time = compute.max(memory);
                // dependent layer kernels (large batch = one spatial layer)
                // pay the launch/occupancy floor; streaming kernels (AES
                // blocks) amortise it across millions of items
                if batch >= 256 {
                    time = time.max(self.kernel_floor_s);
                }
                // energy charges the compute, not the bubble
                (time, self.board_watts * compute.max(memory))
            }
            KernelOp::Vector {
                kind,
                elements,
                count,
                ..
            } => {
                let ops = (elements * count) as f64;
                let rate = match kind {
                    VectorKind::Mul => self.int_ops * 0.5,
                    _ => self.int_ops,
                };
                let time = ops / (rate * u);
                (time, self.board_watts * time)
            }
            KernelOp::TableLookup { elements, .. } => {
                // cache-resident tables: shared-memory gather rate
                let time = elements as f64 / (self.gathers_per_s * u);
                (time, self.board_watts * time)
            }
            KernelOp::HostMove { bytes } | KernelOp::OnChipMove { bytes } => {
                let time = bytes as f64 / self.mem_bw;
                (time, self.board_watts * 0.3 * time)
            }
            KernelOp::WeightUpdate { rows, cols, .. } => {
                let bytes = (rows * cols) as f64;
                let time = bytes / self.mem_bw;
                (time, self.board_watts * 0.3 * time)
            }
        }
    }
}

/// The streaming accumulator behind [`GpuModel`]'s [`ArchModel::price`].
/// The GPU exploits parallelism across items natively (its throughput
/// numbers already assume full occupancy), so item throughput is
/// `1 / latency` with the latency computed at full device utilisation.
#[derive(Debug, Clone)]
pub struct GpuAccumulator {
    model: GpuModel,
    workload: String,
    latency: f64,
    energy: f64,
    breakdown: Vec<(String, f64)>,
    current: Option<(String, f64, f64)>,
}

impl GpuAccumulator {
    /// A fresh accumulator for one work item on `model`.
    pub fn new(model: GpuModel) -> Self {
        GpuAccumulator {
            model,
            workload: String::new(),
            latency: 0.0,
            energy: 0.0,
            breakdown: Vec::new(),
            current: None,
        }
    }

    fn flush_kernel(&mut self) {
        if let Some((name, t, e)) = self.current.take() {
            self.breakdown.push((name, t));
            self.latency += t;
            self.energy += e;
        }
    }
}

impl TraceSink for GpuAccumulator {
    fn begin_trace(&mut self, meta: &TraceMeta) {
        self.workload = meta.name.clone();
    }

    fn begin_kernel(&mut self, name: &str) {
        self.flush_kernel();
        self.current = Some((name.to_owned(), 0.0, 0.0));
    }

    fn op_run(&mut self, op: &KernelOp, repeat: u64) {
        let (dt, de) = self.model.price_op(op);
        let kernel = self.current.as_mut().expect("begin_kernel precedes ops");
        for _ in 0..repeat {
            kernel.1 += dt;
            kernel.2 += de;
        }
    }
}

impl CostAccumulator for GpuAccumulator {
    fn finish(&mut self) -> CostReport {
        self.flush_kernel();
        CostReport {
            architecture: format!("GPU ({})", self.model.name),
            workload: std::mem::take(&mut self.workload),
            latency_s: self.latency,
            throughput_items_per_s: 1.0 / self.latency.max(1e-15),
            energy_per_item_j: self.energy,
            kernel_latency_s: std::mem::take(&mut self.breakdown),
        }
    }
}

impl ArchModel for GpuModel {
    /// `"gpu-rtx-4090"` (the marketing name, slugged).
    fn name(&self) -> String {
        format!("gpu-{}", self.name.to_lowercase().replace(' ', "-"))
    }

    fn label(&self) -> String {
        format!("GPU ({})", self.name)
    }

    fn accumulator(&self) -> Box<dyn CostAccumulator + '_> {
        Box::new(GpuAccumulator::new(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darth_apps::aes::workload::AesWorkload;
    use darth_apps::cnn::workload::ResNetWorkload;

    #[test]
    fn gpu_resnet_inference_rate_is_plausible() {
        let gpu = GpuModel::rtx_4090();
        let report = gpu.price(&ResNetWorkload::paper());
        // ResNet-20 is tiny; a 4090 should push > 10k inferences/s even
        // with conservative utilisation, but < 1e9 (it is not free).
        assert!(report.throughput_items_per_s > 1e4);
        assert!(report.throughput_items_per_s < 1e9);
    }

    #[test]
    fn gpu_aes_benefits_from_cache_resident_tables() {
        let gpu = GpuModel::rtx_4090();
        let report = gpu.price(&AesWorkload::paper());
        // §7.4: the GPU gets high AES throughput from cached lookups.
        assert!(report.throughput_items_per_s > 1e7);
    }

    #[test]
    fn energy_scales_with_time() {
        let gpu = GpuModel::rtx_4090();
        let report = gpu.price(&ResNetWorkload::paper());
        // With the kernel-occupancy floor, average power sits below board
        // power (bubbles burn no modelled energy) but stays physical.
        let implied_power = report.energy_per_item_j / report.latency_s;
        assert!(implied_power <= 451.0);
        assert!(implied_power > 0.1);
    }
}

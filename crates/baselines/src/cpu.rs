//! An analytical CPU model.
//!
//! Roofline-style: each kernel op costs the larger of its compute time
//! (vector lanes × cores × IPC) and its memory time (bytes over DRAM
//! bandwidth), with energy from sustained package power plus per-byte DRAM
//! energy. This reproduces the §3 observation that the non-MVM AES steps —
//! gathers and byte shuffles with little vector parallelism — dominate CPU
//! execution even before data-movement overheads.

use darth_pum::eval::{ArchModel, CostAccumulator};
use darth_pum::trace::{CostReport, KernelOp, TraceMeta, TraceSink, VectorKind};

/// CPU parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Model label.
    pub name: &'static str,
    /// Clock in Hz.
    pub freq_hz: f64,
    /// Cores.
    pub cores: f64,
    /// SIMD width in bytes (256-bit = 32).
    pub vector_bytes: f64,
    /// Vector operations issued per core per cycle.
    pub vector_ipc: f64,
    /// Scalar/gather operations per core per cycle (table lookups).
    pub gather_ipc: f64,
    /// DRAM bandwidth in bytes/s.
    pub dram_bw: f64,
    /// DRAM energy per byte in joules.
    pub dram_energy_per_byte: f64,
    /// Package power in watts while active.
    pub package_watts: f64,
}

impl CpuModel {
    /// The evaluation host: an Intel i7-13700-class part (§6).
    pub fn i7_13700() -> Self {
        CpuModel {
            name: "i7-13700",
            freq_hz: 4.0e9,
            cores: 16.0,
            vector_bytes: 32.0,
            vector_ipc: 2.0,
            gather_ipc: 1.0,
            dram_bw: 70.0e9,
            dram_energy_per_byte: 20e-12,
            package_watts: 150.0,
        }
    }

    /// The §3 motivation CPU: a 4 GHz 8-core Arm with 256-bit vectors.
    pub fn arm_8core() -> Self {
        CpuModel {
            name: "arm-8core",
            freq_hz: 4.0e9,
            cores: 8.0,
            vector_bytes: 32.0,
            vector_ipc: 1.0,
            gather_ipc: 0.5,
            dram_bw: 50.0e9,
            dram_energy_per_byte: 20e-12,
            package_watts: 60.0,
        }
    }

    /// Seconds and joules for one kernel op on this CPU.
    pub fn price_op(&self, op: &KernelOp) -> (f64, f64) {
        match *op {
            KernelOp::Mvm {
                rows,
                cols,
                batch,
                input_bits,
                weight_bits,
                ..
            } => {
                if weight_bits <= 1 && input_bits <= 1 {
                    // A GF(2) linear map (AES MixColumns): CPUs run this
                    // as a short XOR/shift network, not a MAC loop.
                    let ops = (cols * batch) as f64 / self.vector_bytes;
                    let time = ops.max(1.0) / self.vector_ipc / self.freq_hz;
                    return (time, self.package_watts / self.cores * time);
                }
                // 8-bit MACs through the vector units; wider operands
                // scale lanes down.
                let width = f64::from(input_bits.max(weight_bits).max(8)) / 8.0;
                // Latency is single-core (items parallelise across cores
                // at the throughput level).
                let macs = (rows * cols * batch) as f64;
                let macs_per_cycle = self.vector_ipc * (self.vector_bytes / width);
                let compute = macs / macs_per_cycle / self.freq_hz;
                let bytes = (rows * cols) as f64 * width + (rows + cols) as f64 * batch as f64;
                let memory = bytes / self.dram_bw;
                let time = compute.max(memory);
                (
                    time,
                    self.package_watts / self.cores * time + self.dram_energy_per_byte * bytes,
                )
            }
            KernelOp::Vector {
                kind,
                elements,
                bits,
                count,
            } => {
                let width = f64::from(bits.max(8)) / 8.0;
                let lanes = (self.vector_bytes / width).max(1.0);
                let ipc = match kind {
                    // multiplies halve throughput; the rest issue full rate
                    VectorKind::Mul => self.vector_ipc / 2.0,
                    _ => self.vector_ipc,
                };
                let ops = (elements * count) as f64;
                let compute = ops / (ipc * lanes) / self.freq_hz;
                // register/cache-resident working sets skip DRAM; only
                // large sweeps pay memory bandwidth
                let working_set = elements as f64 * width;
                let (memory, dram_bytes) = if working_set > 65_536.0 {
                    let bytes = ops * width * 2.0;
                    (bytes / self.dram_bw, bytes)
                } else {
                    (0.0, 0.0)
                };
                let time = compute.max(memory);
                (
                    time,
                    self.package_watts / self.cores * time + self.dram_energy_per_byte * dram_bytes,
                )
            }
            KernelOp::TableLookup { elements, .. } => {
                // gathers serialize in one core's load units
                let time = elements as f64 / self.gather_ipc / self.freq_hz;
                let bytes = elements as f64 * 2.0;
                (
                    time,
                    self.package_watts / self.cores * time + self.dram_energy_per_byte * bytes,
                )
            }
            KernelOp::HostMove { bytes } | KernelOp::OnChipMove { bytes } => {
                let time = bytes as f64 / self.dram_bw;
                (
                    time,
                    self.package_watts * 0.2 * time + self.dram_energy_per_byte * bytes as f64,
                )
            }
            KernelOp::WeightUpdate { rows, cols, .. } => {
                // a plain memory write on a CPU
                let bytes = (rows * cols) as f64;
                let time = bytes / self.dram_bw;
                (time, self.dram_energy_per_byte * bytes)
            }
        }
    }
}

/// The streaming accumulator behind [`CpuModel`]'s [`ArchModel::price`]:
/// every op on the CPU.
#[derive(Debug, Clone)]
pub struct CpuAccumulator {
    model: CpuModel,
    workload: String,
    parallel_items: u64,
    latency: f64,
    energy: f64,
    breakdown: Vec<(String, f64)>,
    // (name, seconds, joules): per-kernel subtotals, folded into the
    // trace totals only at kernel end so a kernel's rounding does not
    // depend on what preceded it.
    current: Option<(String, f64, f64)>,
}

impl CpuAccumulator {
    /// A fresh accumulator for one work item on `model`.
    pub fn new(model: CpuModel) -> Self {
        CpuAccumulator {
            model,
            workload: String::new(),
            parallel_items: u64::MAX,
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

impl TraceSink for CpuAccumulator {
    fn begin_trace(&mut self, meta: &TraceMeta) {
        self.workload = meta.name.clone();
        self.parallel_items = meta.parallel_items;
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

impl CostAccumulator for CpuAccumulator {
    fn finish(&mut self) -> CostReport {
        self.flush_kernel();
        // the CPU batches items up to its core count
        let parallel = (self.parallel_items as f64).min(self.model.cores);
        CostReport {
            architecture: format!("CPU ({})", self.model.name),
            workload: std::mem::take(&mut self.workload),
            latency_s: self.latency,
            throughput_items_per_s: parallel / self.latency.max(1e-15),
            energy_per_item_j: self.energy,
            kernel_latency_s: std::mem::take(&mut self.breakdown),
        }
    }
}

impl ArchModel for CpuModel {
    /// `"cpu-i7-13700"` / `"cpu-arm-8core"`.
    fn name(&self) -> String {
        format!("cpu-{}", self.name.to_lowercase())
    }

    fn label(&self) -> String {
        format!("CPU ({})", self.name)
    }

    fn accumulator(&self) -> Box<dyn CostAccumulator + '_> {
        Box::new(CpuAccumulator::new(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darth_apps::aes::workload::AesWorkload;

    #[test]
    fn aes_cpu_latency_is_plausible() {
        // A table-based software AES block is some tens to thousands of ns.
        let cpu = CpuModel::i7_13700();
        let report = cpu.price(&AesWorkload::paper());
        assert!(report.latency_s > 1e-9, "{}", report.latency_s);
        assert!(report.latency_s < 1e-4, "{}", report.latency_s);
        assert!(report.energy_per_item_j > 0.0);
    }

    #[test]
    fn non_mvm_dominates_aes_on_cpu() {
        // §3: SubBytes/ShiftRows/AddRoundKey consume the majority of CPU
        // execution time.
        let cpu = CpuModel::arm_8core();
        let report = cpu.price(&AesWorkload::paper());
        let total: f64 = report.kernel_latency_s.iter().map(|(_, t)| t).sum();
        let mix = report
            .kernel_latency_s
            .iter()
            .find(|(n, _)| n == "MixColumns")
            .map(|(_, t)| *t)
            .expect("kernel present");
        assert!(
            mix / total < 0.6,
            "MixColumns fraction {} should not dominate",
            mix / total
        );
    }

    #[test]
    fn bigger_cpu_is_faster() {
        let big = CpuModel::i7_13700();
        let small = CpuModel::arm_8core();
        let t = AesWorkload::paper();
        assert!(big.price(&t).latency_s < small.price(&t).latency_s);
    }

    #[test]
    fn memory_bound_ops_hit_bandwidth() {
        let cpu = CpuModel::i7_13700();
        let (t, _) = cpu.price_op(&KernelOp::HostMove {
            bytes: 70_000_000_000,
        });
        assert!((t - 1.0).abs() < 0.05, "70 GB at 70 GB/s should be ~1 s");
    }
}

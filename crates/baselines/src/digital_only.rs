//! DigitalPUM: an iso-area RACER chip (§6).
//!
//! 5.3 GB of OSCAR-family digital PUM with one front end per eight
//! clusters, limited to two active pipelines per cluster by thermals.
//! Everything — including matrix multiplies — runs as bit-serial Boolean
//! macros, which is precisely the gap hybrid PUM closes on MVM kernels
//! (11.5× on MixColumns, §7.1).

use darth_digital::logic::LogicFamily;
use darth_digital::macros::MacroOp;
use darth_pum::eval::{ArchModel, CostAccumulator};
use darth_pum::params::{area, power, HCTS_PER_FRONT_END, ISO_AREA_CM2};
use darth_pum::trace::{CostReport, KernelOp, TraceMeta, TraceSink};
use darth_reram::units::CLOCK_HZ;
use serde::{Deserialize, Serialize};

/// The RACER chip model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DigitalPumModel {
    /// Logic family (OSCAR for the evaluation; Ideal for Figure 7).
    pub family: LogicFamily,
    /// Pipelines per cluster.
    pub pipelines_per_cluster: usize,
    /// Active pipelines per cluster (thermal limit, §6).
    pub active_pipelines_per_cluster: usize,
    /// Pipeline depth (bit width).
    pub depth: u64,
    /// Elements per vector register.
    pub elements: u64,
}

impl DigitalPumModel {
    /// The §6 configuration.
    pub fn paper(family: LogicFamily) -> Self {
        DigitalPumModel {
            family,
            pipelines_per_cluster: 64,
            active_pipelines_per_cluster: 2,
            depth: 64,
            elements: 64,
        }
    }

    /// Iso-area cluster count: a cluster is a DCE-only tile plus its
    /// front-end share.
    pub fn cluster_count(&self) -> usize {
        let cluster_area = area::DCE_PIPELINE_CONTROL
            + area::DCE_IO_CTRL
            + area::DCE_DECODE_DRIVE
            + area::DCE_PIPELINE_SELECT
            + area::FRONT_END / HCTS_PER_FRONT_END as f64;
        (ISO_AREA_CM2 * 1e8 / cluster_area) as usize
    }

    /// Seconds, joules for one kernel op on one active pipeline.
    fn price_op(&self, op: &KernelOp) -> (f64, f64) {
        let energy_per_prim = self.family.energy_per_primitive_pj() * 1e-12;
        match *op {
            KernelOp::Mvm {
                rows,
                cols,
                input_bits,
                weight_bits,
                batch,
            } => {
                // Bit-serial multiply-accumulate: one Mul + one Add macro
                // per matrix row, per 64-wide column group, per input.
                let width = input_bits.max(weight_bits).max(1);
                let mul = MacroOp::Mul(width).cost(self.family, self.depth, self.elements);
                let add = MacroOp::Add.cost(self.family, self.depth, self.elements);
                let col_groups = cols.div_ceil(self.elements);
                let macro_count = rows * col_groups * batch;
                let cycles =
                    mul.pipelined_batch(macro_count).get() + add.pipelined_batch(macro_count).get();
                let prims = (mul.primitives + add.primitives) * macro_count;
                (cycles as f64 / CLOCK_HZ, prims as f64 * energy_per_prim)
            }
            KernelOp::Vector {
                kind,
                elements,
                bits,
                count,
            } => {
                let cost =
                    kind.macro_op(bits)
                        .cost(self.family, u64::from(bits).max(1), self.elements);
                let instances = elements.div_ceil(self.elements) * count;
                let cycles = if cost.barrier {
                    cost.latency().get() * instances
                } else {
                    cost.pipelined_batch(instances).get()
                };
                (
                    cycles as f64 / CLOCK_HZ,
                    (cost.primitives * instances) as f64 * energy_per_prim,
                )
            }
            KernelOp::TableLookup { elements, .. } => {
                let cost = MacroOp::ElementLoad.cost(self.family, self.depth, self.elements);
                let instances = elements.div_ceil(self.elements);
                let cycles = cost.latency().get() * instances;
                (
                    cycles as f64 / CLOCK_HZ,
                    power::PIPELINE_CTRL * 1e-3 * cycles as f64 / CLOCK_HZ,
                )
            }
            KernelOp::HostMove { bytes } | KernelOp::OnChipMove { bytes } => {
                let cycles = bytes.div_ceil(8);
                (cycles as f64 / CLOCK_HZ, 1e-12 * bytes as f64)
            }
            KernelOp::WeightUpdate { rows, cols, .. } => {
                // digital arrays rewrite at SLC speed: a row per cycle
                let cycles = rows * cols.div_ceil(self.elements);
                (cycles as f64 / CLOCK_HZ, 1e-12 * (rows * cols) as f64)
            }
        }
    }
}

/// The streaming accumulator behind [`DigitalPumModel`]'s
/// [`ArchModel::price`].
#[derive(Debug, Clone)]
pub struct DigitalPumAccumulator {
    model: DigitalPumModel,
    workload: String,
    parallel_items: u64,
    pipelines_per_item: u64,
    spread: f64,
    latency: f64,
    energy: f64,
    breakdown: Vec<(String, f64)>,
    // (name, seconds, joules): per-kernel subtotals; the thermal spread
    // divides each kernel total once.
    current: Option<(String, f64, f64)>,
}

impl DigitalPumAccumulator {
    /// A fresh accumulator for one work item on `model`.
    pub fn new(model: DigitalPumModel) -> Self {
        DigitalPumAccumulator {
            model,
            workload: String::new(),
            parallel_items: u64::MAX,
            pipelines_per_item: 1,
            spread: 1.0,
            latency: 0.0,
            energy: 0.0,
            breakdown: Vec::new(),
            current: None,
        }
    }

    fn flush_kernel(&mut self) {
        if let Some((name, t, e)) = self.current.take() {
            let t = t / self.spread;
            self.breakdown.push((name, t));
            self.latency += t;
            self.energy += e;
        }
    }
}

impl TraceSink for DigitalPumAccumulator {
    fn begin_trace(&mut self, meta: &TraceMeta) {
        self.workload = meta.name.clone();
        self.parallel_items = meta.parallel_items;
        self.pipelines_per_item = meta.pipelines_per_item;
        // an item's work spreads across the pipelines it occupies, up to
        // the thermal active limit
        self.spread = (meta.pipelines_per_item.max(1) as f64)
            .min(self.model.active_pipelines_per_cluster as f64);
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

impl CostAccumulator for DigitalPumAccumulator {
    fn finish(&mut self) -> CostReport {
        self.flush_kernel();
        let model = &self.model;
        let active = (model.cluster_count() * model.active_pipelines_per_cluster) as f64;
        let parallel = (active / self.pipelines_per_item as f64)
            .max(1.0)
            .min(self.parallel_items as f64);
        CostReport {
            architecture: format!("DigitalPUM ({})", model.family),
            workload: std::mem::take(&mut self.workload),
            latency_s: self.latency,
            throughput_items_per_s: parallel / self.latency.max(1e-15),
            energy_per_item_j: self.energy,
            kernel_latency_s: std::mem::take(&mut self.breakdown),
        }
    }
}

impl ArchModel for DigitalPumModel {
    /// `"digitalpum-oscar"` / `"digitalpum-ideal"`.
    fn name(&self) -> String {
        format!("digitalpum-{}", format!("{}", self.family).to_lowercase())
    }

    fn label(&self) -> String {
        "DigitalPUM".into()
    }

    fn accumulator(&self) -> Box<dyn CostAccumulator + '_> {
        Box::new(DigitalPumAccumulator::new(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darth_apps::aes::workload::AesWorkload;
    use darth_apps::cnn::workload::ResNetWorkload;
    use darth_pum::model::DarthModel;

    #[test]
    fn cluster_count_is_iso_area() {
        let model = DigitalPumModel::paper(LogicFamily::Oscar);
        let clusters = model.cluster_count();
        assert!((1500..4000).contains(&clusters), "cluster count {clusters}");
    }

    #[test]
    fn ideal_family_is_faster() {
        let oscar = DigitalPumModel::paper(LogicFamily::Oscar);
        let ideal = DigitalPumModel::paper(LogicFamily::Ideal);
        let t = AesWorkload::paper();
        assert!(ideal.price(&t).latency_s < oscar.price(&t).latency_s);
    }

    #[test]
    fn darth_crushes_digital_on_mvm_heavy_work() {
        // §7.1: DARTH-PUM improves MixColumns 11.5x over DigitalPUM and
        // dominates on ResNet.
        let digital = DigitalPumModel::paper(LogicFamily::Oscar);
        let darth = DarthModel::paper(darth_analog::adc::AdcKind::Sar);
        let resnet = ResNetWorkload::paper();
        let d = digital.price(&resnet);
        let h = darth.price(&resnet);
        assert!(
            h.latency_s * 3.0 < d.latency_s,
            "darth {} vs digital {}",
            h.latency_s,
            d.latency_s
        );
    }

    #[test]
    fn mvm_dominates_digital_aes_time() {
        let digital = DigitalPumModel::paper(LogicFamily::Oscar);
        let report = digital.price(&AesWorkload::paper());
        let mix = report
            .kernel_latency_s
            .iter()
            .find(|(n, _)| n == "MixColumns")
            .map(|(_, t)| *t)
            .expect("present");
        assert!(mix / report.latency_s > 0.5, "{}", mix / report.latency_s);
    }
}

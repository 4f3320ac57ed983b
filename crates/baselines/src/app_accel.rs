//! AppAccel: the per-application accelerators of §6.
//!
//! * **AES**: Intel AES-NI — one round per instruction, fully pipelined
//!   across the host's cores.
//! * **ResNet-20**: a ReRAM CNN accelerator in the style of Xiao et al. —
//!   ramp ADCs with current-integrator shift-and-add and peripheral ALUs.
//!   Fast per inference, but the SFU area cuts iso-area parallelism
//!   (§7.1's explanation for DARTH-PUM closing to within 26.2%).
//! * **LLM encoder**: an ISAAC-style accelerator with SAR ADCs and a
//!   transformer SFU (shift, add, sqrt, ReLU, layernorm).

use darth_analog::adc::{Adc, AdcKind};
use darth_pum::eval::{ArchModel, CostAccumulator};
use darth_pum::params::{area, ISO_AREA_CM2};
use darth_pum::trace::{CostReport, KernelOp, TraceMeta, TraceSink};
use serde::{Deserialize, Serialize};

/// Which accelerator to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AppAccelKind {
    /// AES-NI on the host CPU.
    AesNi,
    /// Ramp-ADC CNN accelerator with current integrators.
    CnnAccelerator,
    /// ISAAC-style transformer accelerator with SFUs.
    LlmAccelerator,
}

/// An application-specific accelerator model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AppAccelModel {
    /// The accelerator flavour.
    pub kind: AppAccelKind,
    /// ADC used by the analog variants.
    pub adc_kind: AdcKind,
}

impl AppAccelModel {
    /// AES-NI.
    pub fn aes_ni() -> Self {
        AppAccelModel {
            kind: AppAccelKind::AesNi,
            adc_kind: AdcKind::Sar,
        }
    }

    /// The CNN accelerator (ramp ADC per the paper).
    pub fn cnn(adc_kind: AdcKind) -> Self {
        AppAccelModel {
            kind: AppAccelKind::CnnAccelerator,
            adc_kind,
        }
    }

    /// The LLM accelerator (SAR ADC per the paper).
    pub fn llm(adc_kind: AdcKind) -> Self {
        AppAccelModel {
            kind: AppAccelKind::LlmAccelerator,
            adc_kind,
        }
    }

    /// Analog tile area including the dedicated SFU/shift-add periphery
    /// that DARTH-PUM's HCT avoids (§7.1).
    fn tile_area_um2(&self) -> f64 {
        let adc = match self.adc_kind {
            AdcKind::Sar => area::SAR_ADC * 2.0,
            AdcKind::Ramp => area::RAMP_ADC,
        };
        // input buffers + row periphery + ADC + integrator/shift-add
        // network + application SFUs (activation / softmax / layernorm)
        let sfu = match self.kind {
            AppAccelKind::AesNi => 0.0,
            AppAccelKind::CnnAccelerator => 180_000.0,
            AppAccelKind::LlmAccelerator => 160_000.0,
        };
        area::ACE_INPUT_BUFFERS + area::ACE_ROW_PERIPHERY + adc + area::SAMPLE_HOLD + sfu
    }

    /// Iso-area tile count.
    pub fn tile_count(&self) -> usize {
        (ISO_AREA_CM2 * 1e8 / self.tile_area_um2()) as usize
    }

    fn price_op(&self, op: &KernelOp) -> (f64, f64) {
        const FREQ: f64 = 1.0e9;
        match *op {
            KernelOp::Mvm {
                rows,
                cols,
                input_bits,
                weight_bits,
                batch,
            } => {
                let adc = Adc::new(self.adc_kind, 8, 1.0).expect("valid");
                let bpc = if weight_bits <= 1 { 1 } else { 2u8 };
                let slices = u64::from(weight_bits.div_ceil(bpc));
                let tiles = rows.div_ceil(64) * cols.div_ceil(64);
                let bits = u64::from(input_bits.max(1));
                let readout = adc.readout_cycles((64 * slices) as usize, None).get();
                // current integrators accumulate all input bits in analog,
                // so the ADC converts once per input vector — not once per
                // bit (the Xiao-style design the paper cites)
                let per_input = bits + readout;
                let cycles = per_input + (batch.saturating_sub(1)) * per_input;
                let conversions = (64 * slices * bits * tiles) as f64 * batch as f64;
                let adc_energy = match self.adc_kind {
                    AdcKind::Sar => 1.5e-12 * conversions,
                    AdcKind::Ramp => 1.2e-12 * 256.0 * (bits * tiles * batch) as f64,
                };
                (cycles as f64 / FREQ, adc_energy)
            }
            KernelOp::Vector {
                elements, count, ..
            } => {
                // dedicated SFU datapaths; the transformer accelerator's
                // softmax/layernorm SFUs are much wider (its whole point)
                let lanes = match self.kind {
                    AppAccelKind::CnnAccelerator => 256.0,
                    AppAccelKind::LlmAccelerator => 2048.0,
                    AppAccelKind::AesNi => 64.0,
                };
                let ops = (elements * count) as f64;
                let time = ops / lanes / FREQ;
                // SFU ALU energy ~0.5 pJ/op
                (time, 0.5e-12 * ops)
            }
            KernelOp::TableLookup { elements, .. } => {
                let time = elements as f64 / 16.0 / FREQ;
                (time, 1e-12 * elements as f64)
            }
            KernelOp::HostMove { bytes } | KernelOp::OnChipMove { bytes } => {
                let time = bytes as f64 / 32.0e9;
                (time, 10e-12 * bytes as f64)
            }
            KernelOp::WeightUpdate { rows, .. } => {
                let cycles = rows * 1000;
                (cycles as f64 / FREQ, 0.7e-12 * cycles as f64)
            }
        }
    }
}

/// The streaming accumulator behind [`AppAccelModel`]'s
/// [`ArchModel::price`].
///
/// The AES-NI flavour prices from the workload name alone (one
/// instruction per round, §6), so its op events are ignored; the analog
/// flavours fold per-op costs and track the peak MVM array footprint for
/// the iso-area parallelism cap.
#[derive(Debug, Clone)]
pub struct AppAccelAccumulator {
    model: AppAccelModel,
    workload: String,
    parallel_items: u64,
    latency: f64,
    energy: f64,
    peak_arrays: f64,
    // AES-NI prices per block; host moves count the blocks in the
    // stream (one 32-byte in/out move per block), so bulk scenarios
    // scale instead of being priced as a single block.
    host_moves: u64,
    breakdown: Vec<(String, f64)>,
    current: Option<(String, f64)>,
}

impl AppAccelAccumulator {
    /// A fresh accumulator for one work item on `model`.
    pub fn new(model: AppAccelModel) -> Self {
        AppAccelAccumulator {
            model,
            workload: String::new(),
            parallel_items: u64::MAX,
            latency: 0.0,
            energy: 0.0,
            peak_arrays: 1.0,
            host_moves: 0,
            breakdown: Vec::new(),
            current: None,
        }
    }

    fn flush_kernel(&mut self) {
        if let Some((name, t_k)) = self.current.take() {
            self.breakdown.push((name, t_k));
            self.latency += t_k;
        }
    }

    fn finish_aes_ni(&mut self) -> CostReport {
        // Single-stream AES-NI through a library interface (the paper
        // measures OpenSSL): AESENC has a 4-cycle latency with
        // round-to-round dependence, plus per-call overhead (load, key
        // whitening, store, EVP dispatch). Modelled as one accelerator
        // unit, matching the paper's AppAccel framing.
        // Key size by name *prefix* — a substring match would collide
        // with the block counts bulk scenarios embed in their names
        // (`aes-128-bulk256` is 10-round AES, not AES-256).
        let rounds = if self.workload.starts_with("aes-256") {
            14.0
        } else if self.workload.starts_with("aes-192") {
            12.0
        } else {
            10.0
        };
        let freq = 4.0e9;
        let units = 1.0;
        let overhead_cycles = 236.0;
        // One block per host move; the paper scenarios stream exactly
        // one block per item (`blocks == 1.0`, leaving their pricing
        // untouched), bulk scenarios scale linearly.
        let blocks = self.host_moves.max(1) as f64;
        let latency = (rounds * 4.0 + overhead_cycles) / freq * blocks;
        let throughput = units / latency;
        let energy = 2.0e-9 * blocks; // ~2 nJ/block at ~15 W across the AES units
        CostReport {
            architecture: "AppAccel (AES-NI)".to_owned(),
            workload: std::mem::take(&mut self.workload),
            latency_s: latency,
            throughput_items_per_s: throughput,
            energy_per_item_j: energy,
            kernel_latency_s: vec![("AES-NI".to_owned(), latency)],
        }
    }

    fn finish_analog(&mut self) -> CostReport {
        self.flush_kernel();
        // Iso-area parallelism: tiles hold 64 arrays each, like an ACE.
        let tiles_per_item = (self.peak_arrays / 64.0).ceil().max(1.0);
        let parallel = ((self.model.tile_count() as f64) / tiles_per_item)
            .max(1.0)
            .min(self.parallel_items as f64);
        let label = match self.model.kind {
            AppAccelKind::CnnAccelerator => "AppAccel (CNN)",
            AppAccelKind::LlmAccelerator => "AppAccel (LLM)",
            AppAccelKind::AesNi => unreachable!(),
        };
        CostReport {
            architecture: label.to_owned(),
            workload: std::mem::take(&mut self.workload),
            latency_s: self.latency,
            throughput_items_per_s: parallel / self.latency.max(1e-15),
            energy_per_item_j: self.energy,
            kernel_latency_s: std::mem::take(&mut self.breakdown),
        }
    }
}

impl TraceSink for AppAccelAccumulator {
    fn begin_trace(&mut self, meta: &TraceMeta) {
        self.workload = meta.name.clone();
        self.parallel_items = meta.parallel_items;
    }

    fn begin_kernel(&mut self, name: &str) {
        if self.model.kind == AppAccelKind::AesNi {
            return;
        }
        self.flush_kernel();
        self.current = Some((name.to_owned(), 0.0));
    }

    fn op_run(&mut self, op: &KernelOp, repeat: u64) {
        if self.model.kind == AppAccelKind::AesNi {
            if matches!(op, KernelOp::HostMove { .. }) {
                self.host_moves = self.host_moves.saturating_add(repeat);
            }
            return;
        }
        let (t, e) = self.model.price_op(op);
        let kernel = self.current.as_mut().expect("begin_kernel precedes ops");
        for _ in 0..repeat {
            kernel.1 += t;
            self.energy += e;
        }
        if let KernelOp::Mvm {
            rows,
            cols,
            weight_bits,
            ..
        } = *op
        {
            let slices = f64::from(weight_bits.div_ceil(2).max(1));
            self.peak_arrays = self
                .peak_arrays
                .max((rows.div_ceil(64) * cols.div_ceil(64)) as f64 * slices);
        }
    }
}

impl CostAccumulator for AppAccelAccumulator {
    fn finish(&mut self) -> CostReport {
        match self.model.kind {
            AppAccelKind::AesNi => self.finish_aes_ni(),
            _ => self.finish_analog(),
        }
    }
}

impl ArchModel for AppAccelModel {
    /// `"appaccel-aesni"` / `"appaccel-cnn-ramp"` / `"appaccel-llm-sar"`.
    fn name(&self) -> String {
        let adc = self.adc_kind.slug();
        match self.kind {
            AppAccelKind::AesNi => "appaccel-aesni".into(),
            AppAccelKind::CnnAccelerator => format!("appaccel-cnn-{adc}"),
            AppAccelKind::LlmAccelerator => format!("appaccel-llm-{adc}"),
        }
    }

    fn label(&self) -> String {
        "AppAccel".into()
    }

    fn accumulator(&self) -> Box<dyn CostAccumulator + '_> {
        Box::new(AppAccelAccumulator::new(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darth_apps::aes::workload::{AesVariant, AesWorkload, BulkAesWorkload};
    use darth_apps::cnn::workload::ResNetWorkload;
    use darth_apps::llm::workload::EncoderWorkload;

    #[test]
    fn aes_ni_is_very_fast_per_block() {
        let accel = AppAccelModel::aes_ni();
        let report = accel.price(&AesWorkload::paper());
        assert!(report.latency_s < 100e-9);
        assert!(report.throughput_items_per_s > 1e7);
    }

    fn price_bulk(accel: &AppAccelModel, variant: AesVariant, blocks: u64) -> CostReport {
        accel.price(&BulkAesWorkload { variant, blocks })
    }

    #[test]
    fn aes_ni_round_count_ignores_block_count_suffixes() {
        // "aes-128-bulk256" must price as 10-round AES-128 — the block
        // count in the name is not a key size.
        let accel = AppAccelModel::aes_ni();
        let one = accel.price(&AesWorkload::paper());
        let bulk256 = price_bulk(&accel, AesVariant::Aes128, 256);
        assert!((bulk256.latency_s / one.latency_s - 256.0).abs() < 1e-9);
        // And a real AES-256 bulk stream still prices at 14 rounds.
        let one_256 = accel.price(&AesWorkload {
            variant: AesVariant::Aes256,
        });
        let bulk_aes256 = price_bulk(&accel, AesVariant::Aes256, 192);
        assert!((bulk_aes256.latency_s / one_256.latency_s - 192.0).abs() < 1e-9);
    }

    #[test]
    fn aes_ni_scales_with_streamed_block_count() {
        let accel = AppAccelModel::aes_ni();
        let one = accel.price(&AesWorkload::paper());
        let bulk_report = price_bulk(&accel, AesVariant::Aes128, 1000);
        assert!((bulk_report.latency_s / one.latency_s - 1000.0).abs() < 1e-9);
        assert!((bulk_report.energy_per_item_j / one.energy_per_item_j - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn sfu_area_reduces_tile_count() {
        let cnn = AppAccelModel::cnn(AdcKind::Ramp);
        let llm = AppAccelModel::llm(AdcKind::Sar);
        assert!(llm.tile_count() < cnn.tile_count() * 2);
        // both fit far fewer analog tiles than DARTH fits HCTs... per
        // analog area; the point is the SFU overhead exists.
        let no_sfu = AppAccelModel {
            kind: AppAccelKind::CnnAccelerator,
            adc_kind: AdcKind::Ramp,
        }
        .tile_area_um2()
            - 180_000.0;
        assert!(cnn.tile_area_um2() > 2.0 * no_sfu);
    }

    #[test]
    fn cnn_accel_latency_beats_darth_latency() {
        // §7.1: AppAccel's dedicated SFUs give better per-inference
        // latency; DARTH-PUM recovers on iso-area throughput.
        let accel = AppAccelModel::cnn(AdcKind::Ramp);
        let darth = darth_pum::model::DarthModel::paper(AdcKind::Sar);
        let resnet = ResNetWorkload::paper();
        let a = accel.price(&resnet);
        let d = darth.price(&resnet);
        assert!(a.latency_s < d.latency_s);
    }

    #[test]
    fn llm_accel_prices_encoder() {
        let accel = AppAccelModel::llm(AdcKind::Sar);
        let report = accel.price(&EncoderWorkload::paper());
        assert!(report.latency_s > 0.0 && report.latency_s.is_finite());
        assert!(report.energy_per_item_j > 0.0);
    }
}

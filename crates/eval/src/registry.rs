//! Standard registries: the paper's evaluation points and the extended
//! scenario sweeps.
//!
//! Two model wrappers live here because the paper's evaluation applies
//! per-workload policy that no single architecture struct owns:
//!
//! * [`PaperDarthModel`] — DARTH-PUM with the §7.3 ramp-ADC early
//!   termination applied to AES traces (MixColumns' GF(2) sums never
//!   exceed 4 of the 256 ramp levels);
//! * [`PaperAppAccel`] — "AppAccel" is a *category*, not one chip: the
//!   paper compares each workload against its own dedicated accelerator
//!   (AES-NI, a ramp-ADC CNN accelerator, an ISAAC-style transformer
//!   accelerator). This composite picks the accelerator by workload
//!   family, so the matrix gets one honest AppAccel column.

use darth_analog::adc::AdcKind;
use darth_apps::aes::workload::{AesWorkload, BulkAesWorkload};
use darth_apps::cnn::workload::ResNetWorkload;
use darth_apps::gemm::GemmWorkload;
use darth_apps::llm::workload::EncoderWorkload;
use darth_apps::reduce::ReduceWorkload;
use darth_baselines::app_accel::AppAccelAccumulator;
use darth_baselines::{AppAccelModel, BaselineModel, CpuModel, DigitalPumModel, GpuModel};
use darth_digital::logic::LogicFamily;
use darth_pum::eval::{ArchModel, CostAccumulator, Workload};
use darth_pum::model::{DarthAccumulator, DarthModel};
use darth_pum::trace::{CostReport, KernelOp, TraceMeta, TraceSink};

/// DARTH-PUM under the paper's evaluation policy: with a ramp ADC, AES
/// traces terminate the sweep after 4 levels (§7.3). Other traces and the
/// SAR configuration price exactly like the wrapped [`DarthModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperDarthModel {
    /// The underlying chip model.
    pub model: DarthModel,
}

impl PaperDarthModel {
    /// The paper configuration with the chosen ADC.
    pub fn paper(adc_kind: AdcKind) -> Self {
        PaperDarthModel {
            model: DarthModel::paper(adc_kind),
        }
    }
}

impl ArchModel for PaperDarthModel {
    fn name(&self) -> String {
        self.model.name()
    }

    fn label(&self) -> String {
        "DARTH-PUM".into()
    }

    fn accumulator(&self) -> Box<dyn CostAccumulator + '_> {
        let model = self.model;
        Box::new(PerTraceAccumulator::new(move |meta: &TraceMeta| {
            let mut model = model;
            if model.chip.hct.adc_kind == AdcKind::Ramp && meta.name.starts_with("aes") {
                model.early_levels = Some(4);
            }
            DarthAccumulator::new(model)
        }))
    }
}

/// The per-application accelerator column: dispatches each trace to its
/// dedicated accelerator by workload family (`aes*` → AES-NI, `llm*` →
/// the transformer accelerator, anything else — `resnet*`, `gemm*` — →
/// the ramp-ADC CNN/MVM accelerator).
///
/// The dispatch is by trace-name prefix, so a workload outside these
/// families lands on the generic MVM accelerator; a scenario with a
/// genuinely different dedicated chip should register its own
/// [`ArchModel`] column instead of relying on this composite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PaperAppAccel;

impl PaperAppAccel {
    /// The accelerator a trace of this name is compared against.
    pub fn dispatch(trace_name: &str) -> AppAccelModel {
        if trace_name.starts_with("aes") {
            AppAccelModel::aes_ni()
        } else if trace_name.starts_with("llm") {
            AppAccelModel::llm(AdcKind::Sar)
        } else {
            AppAccelModel::cnn(AdcKind::Ramp)
        }
    }
}

impl ArchModel for PaperAppAccel {
    fn name(&self) -> String {
        "appaccel".into()
    }

    fn label(&self) -> String {
        "AppAccel".into()
    }

    fn accumulator(&self) -> Box<dyn CostAccumulator + '_> {
        Box::new(PerTraceAccumulator::new(|meta: &TraceMeta| {
            AppAccelAccumulator::new(PaperAppAccel::dispatch(&meta.name))
        }))
    }
}

/// The streaming accumulator behind both paper wrappers: the workload
/// name arrives with [`TraceSink::begin_trace`], so that is where
/// `choose` builds the accumulator the rest of the trace feeds (the
/// §7.3 early-termination policy, or the per-family accelerator).
struct PerTraceAccumulator<A, F> {
    choose: F,
    inner: Option<A>,
}

impl<A: CostAccumulator, F: Fn(&TraceMeta) -> A> PerTraceAccumulator<A, F> {
    fn new(choose: F) -> Self {
        PerTraceAccumulator {
            choose,
            inner: None,
        }
    }

    fn inner(&mut self) -> &mut A {
        self.inner.as_mut().expect("begin_trace precedes events")
    }
}

impl<A: CostAccumulator, F: Fn(&TraceMeta) -> A> TraceSink for PerTraceAccumulator<A, F> {
    fn begin_trace(&mut self, meta: &TraceMeta) {
        let mut inner = (self.choose)(meta);
        inner.begin_trace(meta);
        self.inner = Some(inner);
    }

    fn begin_kernel(&mut self, name: &str) {
        self.inner().begin_kernel(name);
    }

    fn op_run(&mut self, op: &KernelOp, repeat: u64) {
        self.inner().op_run(op, repeat);
    }
}

impl<A: CostAccumulator, F: Fn(&TraceMeta) -> A> CostAccumulator for PerTraceAccumulator<A, F> {
    fn finish(&mut self) -> CostReport {
        self.inner().finish()
    }
}

/// The paper's three evaluation workloads, in figure order.
pub fn paper_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(AesWorkload::paper()),
        Box::new(ResNetWorkload::paper()),
        Box::new(EncoderWorkload::paper()),
    ]
}

/// The extended scenario matrix: the AES key-size sweep, the CIFAR
/// ResNet depth sweep, the encoder shape sweep, the standalone GEMM
/// size sweep and the PrIM-style reduction sweep (the paper's three
/// points are the respective sweep heads).
pub fn extended_workloads() -> Vec<Box<dyn Workload>> {
    let mut workloads: Vec<Box<dyn Workload>> = Vec::new();
    for aes in AesWorkload::sweep() {
        workloads.push(Box::new(aes));
    }
    for resnet in ResNetWorkload::depth_sweep() {
        workloads.push(Box::new(resnet));
    }
    for encoder in EncoderWorkload::sweep() {
        workloads.push(Box::new(encoder));
    }
    for gemm in GemmWorkload::sweep() {
        workloads.push(Box::new(gemm));
    }
    for reduce in ReduceWorkload::sweep() {
        workloads.push(Box::new(reduce));
    }
    workloads
}

/// The `make eval-large` registry: scenarios whose op streams are far
/// too large to materialize — the streaming pipeline's headroom proof.
///
/// * [`BulkAesWorkload::million_blocks`] — 2²⁰ AES-128 blocks as one
///   work item (a ~74M-op stream, ~3 GB if stored op by op);
/// * a BERT-large encoder at a 4096-token context and a GPT-2-XL-scale
///   48-layer stack ([`EncoderWorkload::large_scale`]);
/// * ResNet-110 ([`ResNetWorkload::resnet110`]).
pub fn large_workloads() -> Vec<Box<dyn Workload>> {
    let mut workloads: Vec<Box<dyn Workload>> = vec![Box::new(BulkAesWorkload::million_blocks())];
    for encoder in EncoderWorkload::large_scale() {
        workloads.push(Box::new(encoder));
    }
    workloads.push(Box::new(ResNetWorkload::resnet110()));
    workloads
}

/// The five figure columns for one ADC choice: Baseline, DigitalPUM,
/// DARTH-PUM, AppAccel, GPU.
pub fn paper_models(adc_kind: AdcKind) -> Vec<Box<dyn ArchModel>> {
    vec![
        Box::new(BaselineModel::paper(adc_kind)),
        Box::new(DigitalPumModel::paper(LogicFamily::Oscar)),
        Box::new(PaperDarthModel::paper(adc_kind)),
        Box::new(PaperAppAccel),
        Box::new(GpuModel::rtx_4090()),
    ]
}

/// Every distinct architecture column: both ADC flavours of Baseline and
/// DARTH-PUM, DigitalPUM, AppAccel, the GPU and the host CPU.
pub fn all_models() -> Vec<Box<dyn ArchModel>> {
    vec![
        Box::new(BaselineModel::paper(AdcKind::Sar)),
        Box::new(BaselineModel::paper(AdcKind::Ramp)),
        Box::new(DigitalPumModel::paper(LogicFamily::Oscar)),
        Box::new(PaperDarthModel::paper(AdcKind::Sar)),
        Box::new(PaperDarthModel::paper(AdcKind::Ramp)),
        Box::new(PaperAppAccel),
        Box::new(GpuModel::rtx_4090()),
        Box::new(CpuModel::i7_13700()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use darth_apps::aes::workload::AesWorkload;
    use darth_baselines::app_accel::AppAccelKind;

    #[test]
    fn paper_darth_applies_early_termination_to_ramp_aes_only() {
        let aes = AesWorkload::paper();
        let ramp = PaperDarthModel::paper(AdcKind::Ramp);
        let mut tuned = ramp.model;
        tuned.early_levels = Some(4);
        assert_eq!(ramp.price(&aes), tuned.price(&aes));
        // SAR pricing is untouched by the wrapper.
        let sar = PaperDarthModel::paper(AdcKind::Sar);
        assert_eq!(sar.price(&aes), sar.model.price(&aes));
    }

    #[test]
    fn app_accel_dispatch_by_family() {
        assert_eq!(PaperAppAccel::dispatch("aes-256").kind, AppAccelKind::AesNi);
        assert_eq!(
            PaperAppAccel::dispatch("llm-seq512").kind,
            AppAccelKind::LlmAccelerator
        );
        assert_eq!(
            PaperAppAccel::dispatch("resnet-56").kind,
            AppAccelKind::CnnAccelerator
        );
        assert_eq!(
            PaperAppAccel::dispatch("gemm-256x256x256").kind,
            AppAccelKind::CnnAccelerator
        );
    }

    #[test]
    fn registries_have_unique_names() {
        let workloads = extended_workloads();
        let mut names: Vec<String> = workloads.iter().map(|w| w.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), workloads.len());
        assert!(names.iter().any(|n| n == "aes-128"));
        assert!(names.iter().any(|n| n == "resnet-20"));
        assert!(names.iter().any(|n| n == "llm-encoder"));

        let models = all_models();
        let mut model_names: Vec<String> = models.iter().map(|m| m.name()).collect();
        model_names.sort();
        model_names.dedup();
        assert_eq!(model_names.len(), models.len());
    }
}

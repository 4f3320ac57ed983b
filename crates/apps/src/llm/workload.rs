//! The LLM encoder workload stream (one sequence through the stack).
//!
//! Placement per §5.2: weight-static projections (QKV, output, FFN) are
//! ACE MVMs; the attention mechanism's activation–activation products and
//! the I-BERT non-linearities are DCE vector work. This split is why the
//! paper finds 71% of LLMEnc time in non-MVM operations on DARTH-PUM.

use super::encoder::EncoderConfig;
use darth_pum::eval::Workload;
use darth_pum::trace::{KernelOp, OpRun, TraceMeta, TraceSink, TraceSummary, VectorKind};

/// Ops per scalar I-BERT softmax element (exp poly + normalize).
const SOFTMAX_OPS_PER_ELEM: u64 = 8;
/// Ops per scalar I-BERT GELU element.
const GELU_OPS_PER_ELEM: u64 = 6;
/// Ops per scalar layernorm element (mean/var/sqrt amortised).
const LAYERNORM_OPS_PER_ELEM: u64 = 6;

/// Streams one forward pass of the encoder stack into `sink`, kernel by
/// kernel, under the given work-item name.
pub fn emit_encoder(cfg: &EncoderConfig, name: &str, sink: &mut dyn TraceSink) {
    let d = cfg.d_model as u64;
    let dff = cfg.d_ff as u64;
    let seq = cfg.seq_len as u64;
    let heads = cfg.heads as u64;
    let d_head = cfg.d_head() as u64;
    let layers = cfg.layers as u64;

    sink.begin_trace(
        &TraceMeta::new(name)
            .with_pipelines_per_item(16)
            .with_parallel_items(1 << 20),
    );
    // --- ACE side: the weight-static projections.
    sink.begin_kernel("QKV-Proj");
    sink.op(&KernelOp::Mvm {
        rows: d,
        cols: 3 * d,
        input_bits: 8,
        weight_bits: 8,
        batch: seq * layers,
    });
    // --- DCE side: the attention mechanism (dynamic matrices).
    sink.begin_kernel("Attention");
    // QK^T: seq x seq dots of length d_head per head, then attn . V
    let attention_mul = KernelOp::Vector {
        kind: VectorKind::Mul,
        elements: heads * seq * seq * d_head,
        bits: 8,
        count: layers,
    };
    sink.op(&attention_mul);
    sink.op(&attention_mul);
    sink.begin_kernel("Softmax");
    sink.op(&KernelOp::Vector {
        kind: VectorKind::Mul,
        elements: heads * seq * seq * SOFTMAX_OPS_PER_ELEM,
        bits: 16,
        count: layers,
    });
    sink.begin_kernel("Out-Proj");
    sink.op(&KernelOp::Mvm {
        rows: d,
        cols: d,
        input_bits: 8,
        weight_bits: 8,
        batch: seq * layers,
    });
    sink.begin_kernel("LayerNorm");
    sink.op(&KernelOp::Vector {
        kind: VectorKind::Mul,
        elements: 2 * seq * d * LAYERNORM_OPS_PER_ELEM,
        bits: 16,
        count: layers,
    });
    // --- ACE side: the FFN (the paper's headline placement).
    sink.begin_kernel("FFN");
    sink.op(&KernelOp::Mvm {
        rows: d,
        cols: dff,
        input_bits: 8,
        weight_bits: 8,
        batch: seq * layers,
    });
    sink.op(&KernelOp::Vector {
        kind: VectorKind::Mul,
        elements: seq * dff * GELU_OPS_PER_ELEM,
        bits: 16,
        count: layers,
    });
    sink.op(&KernelOp::Mvm {
        rows: dff,
        cols: d,
        input_bits: 8,
        weight_bits: 8,
        batch: seq * layers,
    });
}

/// A variant stream that *does* run attention on the ACE, paying the
/// §5.2 reprogramming penalty — the ablation showing why the paper avoids
/// it. The encoder emission is recorded and its `Attention` kernel's ops
/// replaced with ACE MVMs plus weight updates (K and V must be
/// reprogrammed every sequence).
pub fn encoder_trace_attention_on_ace(cfg: &EncoderConfig) -> TraceSummary {
    let d = cfg.d_model as u64;
    let seq = cfg.seq_len as u64;
    let heads = cfg.heads as u64;
    let d_head = cfg.d_head() as u64;
    let layers = cfg.layers as u64;
    let reprogram = KernelOp::WeightUpdate {
        rows: seq,
        cols: d,
        weight_bits: 8,
    };
    let mut base = TraceSummary::record(|r| emit_encoder(cfg, "llm-encoder-attn-on-ace", r));
    let attention = base
        .kernels
        .iter_mut()
        .find(|k| k.name == "Attention")
        .expect("the encoder emits an Attention kernel");
    attention.runs = [
        reprogram,
        KernelOp::Mvm {
            rows: d_head,
            cols: seq,
            input_bits: 8,
            weight_bits: 8,
            batch: seq * heads * layers,
        },
        reprogram,
        KernelOp::Mvm {
            rows: seq,
            cols: d_head,
            input_bits: 8,
            weight_bits: 8,
            batch: seq * heads * layers,
        },
    ]
    .into_iter()
    .map(|op| OpRun { op, repeat: 1 })
    .collect();
    base
}

/// An encoder forward pass as a pluggable [`Workload`], parameterized by
/// the full [`EncoderConfig`] — the model-shape sweep axis of the
/// evaluation matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncoderWorkload {
    /// Encoder dimensions.
    pub config: EncoderConfig,
    name: String,
    label: String,
}

impl EncoderWorkload {
    /// The paper's evaluation scenario (BERT-base shape), keeping the
    /// legacy `"llm-encoder"` trace name the figures key on.
    pub fn paper() -> Self {
        EncoderWorkload {
            config: EncoderConfig::bert_base(),
            name: "llm-encoder".into(),
            label: "LLMEnc".into(),
        }
    }

    /// A named scenario over an arbitrary configuration.
    pub fn named(name: impl Into<String>, label: impl Into<String>, config: EncoderConfig) -> Self {
        EncoderWorkload {
            config,
            name: name.into(),
            label: label.into(),
        }
    }

    /// The encoder shape sweep: the paper scenario plus a distilled
    /// 6-layer stack, a BERT-large stack, and a long-sequence variant
    /// (attention work scales with `seq²`, so this shifts the MVM/vector
    /// balance the §7.1 discussion hinges on).
    pub fn sweep() -> Vec<EncoderWorkload> {
        let long = EncoderConfig {
            seq_len: 512,
            ..EncoderConfig::bert_base()
        };
        vec![
            EncoderWorkload::paper(),
            EncoderWorkload::named("llm-distil", "LLMEnc-distil", EncoderConfig::distilbert()),
            EncoderWorkload::named("llm-large", "LLMEnc-large", EncoderConfig::bert_large()),
            EncoderWorkload::named("llm-seq512", "LLMEnc-s512", long),
        ]
    }

    /// The large-scale scenarios behind `make eval-large`: a BERT-large
    /// stack at a 4096-token context (the `seq²` attention blow-up) and
    /// a GPT-2-XL-scale 48-layer stack.
    pub fn large_scale() -> Vec<EncoderWorkload> {
        let bert_large_long = EncoderConfig {
            seq_len: 4096,
            ..EncoderConfig::bert_large()
        };
        vec![
            EncoderWorkload::named("llm-large-seq4096", "LLMEnc-L-s4096", bert_large_long),
            EncoderWorkload::named("llm-gpt2-xl", "GPT2-XL", EncoderConfig::gpt2_xl()),
        ]
    }
}

impl Workload for EncoderWorkload {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn label(&self) -> String {
        self.label.clone()
    }

    fn params(&self) -> Vec<(String, String)> {
        vec![
            ("d_model".into(), self.config.d_model.to_string()),
            ("heads".into(), self.config.heads.to_string()),
            ("d_ff".into(), self.config.d_ff.to_string()),
            ("seq_len".into(), self.config.seq_len.to_string()),
            ("layers".into(), self.config.layers.to_string()),
        ]
    }

    fn emit(&self, sink: &mut dyn TraceSink) {
        emit_encoder(&self.config, &self.name, sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darth_pum::trace::KernelSummary;

    fn bert_base() -> TraceSummary {
        TraceSummary::record(|r| emit_encoder(&EncoderConfig::bert_base(), "llm-encoder", r))
    }

    fn has_update(kernel: &KernelSummary) -> bool {
        kernel
            .runs
            .iter()
            .any(|run| matches!(run.op, KernelOp::WeightUpdate { .. }))
    }

    #[test]
    fn encoder_workload_sweep_varies_shape() {
        let sweep = EncoderWorkload::sweep();
        let [base, distil, _, long] =
            [0, 1, 2, 3].map(|i| TraceSummary::record(|r| sweep[i].emit(r)));
        assert_eq!(base, bert_base());
        assert_eq!(distil.name(), "llm-distil");
        assert!(distil.macs() < base.macs(), "6 layers < 12 layers");
        // seq² attention scaling: the long variant is vector-heavier.
        assert!(long.mvm_fraction() < base.mvm_fraction());
    }

    #[test]
    fn trace_covers_both_domains() {
        let t = bert_base();
        assert!(t.kernel("FFN").is_some());
        assert!(t.kernel("Attention").is_some());
        assert!(t.kernel("Softmax").is_some());
        assert!(t.macs() > 0, "ACE work present");
        assert!(t.element_ops() > 0, "DCE work present");
    }

    #[test]
    fn attention_dominates_element_ops() {
        // §7.1: 71% of LLMEnc time is non-MVM; at the op level the
        // seq^2-scaled attention work dwarfs the pointwise kernels.
        let t = bert_base();
        let attn = t.kernel("Attention").expect("exists").element_ops();
        let ln = t.kernel("LayerNorm").expect("exists").element_ops();
        assert!(attn > ln);
    }

    #[test]
    fn ffn_is_the_mvm_heavyweight() {
        let t = bert_base();
        let ffn = t.kernel("FFN").expect("exists").macs();
        let qkv = t.kernel("QKV-Proj").expect("exists").macs();
        assert!(ffn > qkv);
    }

    #[test]
    fn ace_attention_variant_pays_reprogramming() {
        let cfg = EncoderConfig::bert_base();
        let dce = bert_base();
        let ace = encoder_trace_attention_on_ace(&cfg);
        assert_eq!(ace.name(), "llm-encoder-attn-on-ace");
        assert!(has_update(ace.kernel("Attention").expect("exists")));
        assert!(!has_update(dce.kernel("Attention").expect("exists")));
        // Only the attention kernel changes.
        assert_eq!(ace.kernel("FFN"), dce.kernel("FFN"));
        assert_eq!(ace.kernel_count(), dce.kernel_count());
    }
}

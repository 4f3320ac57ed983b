//! The ResNet-20 workload stream (one inference).
//!
//! Each conv layer becomes one kernel named after its Figure 15 row: a
//! Toeplitz MVM (`rows = in_ch·k²`, `cols = out_ch`, one batch entry per
//! output position) plus the auxiliary vector work (bias, ReLU, residual
//! adds) the DCE absorbs. The classifier contributes the final
//! `Seq-b4-Seq` kernel.

use super::resnet::ResNet;
use darth_pum::eval::Workload;
use darth_pum::trace::{KernelOp, TraceMeta, TraceSink, VectorKind};

/// Streams one inference — one kernel per conv layer plus the
/// classifier — into `sink`, layer by layer as the conv plan is walked,
/// under the given work-item name.
pub fn emit_inference(net: &ResNet, name: &str, sink: &mut dyn TraceSink) {
    sink.begin_trace(
        // one inference is one item; batching replicates the whole model
        &TraceMeta::new(name)
            .with_pipelines_per_item(8)
            .with_parallel_items(1 << 20),
    );
    for (layer, in_size) in net.conv_plan() {
        let (rows, cols) = layer.weights.mvm_shape();
        let out_size = layer.out_size(in_size);
        let positions = (out_size * out_size) as u64;
        sink.begin_kernel(&layer.name);
        sink.op(&KernelOp::Mvm {
            rows: rows as u64,
            cols: cols as u64,
            input_bits: 8,
            weight_bits: 8,
            batch: positions,
        });
        // bias add + requantizing shift + ReLU per output element
        for kind in [VectorKind::Add, VectorKind::Shift, VectorKind::Compare] {
            sink.op(&KernelOp::Vector {
                kind,
                elements: cols as u64 * positions,
                bits: 8,
                count: 1,
            });
        }
    }
    // Global average pool + classifier.
    let feat = net.feature_dim() as u64;
    sink.begin_kernel("Seq-b4-Seq");
    sink.op(&KernelOp::Vector {
        kind: VectorKind::Add,
        elements: feat * 64,
        bits: 8,
        count: 1,
    });
    sink.op(&KernelOp::Mvm {
        rows: feat,
        cols: net.classes() as u64,
        input_bits: 8,
        weight_bits: 8,
        batch: 1,
    });
}

/// A CIFAR-style ResNet inference as a pluggable [`Workload`]: the depth
/// sweep axis of the evaluation matrix (ResNet-20/32/44/56/…, plus a
/// `base_width` knob for wide variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResNetWorkload {
    /// Residual blocks per stage (depth `6·blocks_per_stage + 2`).
    pub blocks_per_stage: usize,
    /// Stage-1 channel count (doubles per stage; 16 for the paper's
    /// ResNet-20).
    pub base_width: usize,
    /// Weight-synthesis seed.
    pub seed: u64,
}

impl ResNetWorkload {
    /// The paper's evaluation scenario: ResNet-20, 16 base channels.
    pub fn paper() -> Self {
        ResNetWorkload {
            blocks_per_stage: 3,
            base_width: 16,
            seed: 1,
        }
    }

    /// The classic CIFAR depth sweep at paper width: ResNet-20/32/44/56.
    pub fn depth_sweep() -> Vec<ResNetWorkload> {
        [3, 5, 7, 9]
            .into_iter()
            .map(|blocks_per_stage| ResNetWorkload {
                blocks_per_stage,
                ..ResNetWorkload::paper()
            })
            .collect()
    }

    /// The deep end of the CIFAR family: ResNet-110 (18 blocks per
    /// stage), the large-CNN scenario of the `eval-large` registry.
    pub fn resnet110() -> Self {
        ResNetWorkload {
            blocks_per_stage: 18,
            ..ResNetWorkload::paper()
        }
    }

    fn depth(&self) -> usize {
        6 * self.blocks_per_stage + 2
    }
}

impl Workload for ResNetWorkload {
    fn name(&self) -> String {
        if self.base_width == 16 {
            format!("resnet-{}", self.depth())
        } else {
            format!("resnet-{}-w{}", self.depth(), self.base_width)
        }
    }

    fn label(&self) -> String {
        format!("ResNet-{}", self.depth())
    }

    fn params(&self) -> Vec<(String, String)> {
        vec![
            ("blocks_per_stage".into(), self.blocks_per_stage.to_string()),
            ("base_width".into(), self.base_width.to_string()),
            ("seed".into(), self.seed.to_string()),
        ]
    }

    fn emit(&self, sink: &mut dyn TraceSink) {
        let net = ResNet::with_depth(32, self.base_width, 3, 10, self.blocks_per_stage, self.seed)
            .expect("CIFAR ResNet parameters are valid by construction");
        emit_inference(&net, &self.name(), sink);
    }
}

/// The Figure 15 layer-name row order for the full ResNet-20.
pub fn figure15_layer_order(net: &ResNet) -> Vec<String> {
    net.layer_names()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnn::resnet::ResNet;
    use darth_pum::trace::TraceSummary;

    fn resnet20_summary() -> TraceSummary {
        let net = ResNet::resnet20(1).expect("builds");
        TraceSummary::record(|r| emit_inference(&net, "resnet-20", r))
    }

    #[test]
    fn trace_covers_every_figure15_layer() {
        let net = ResNet::resnet20(1).expect("builds");
        let trace = resnet20_summary();
        for name in figure15_layer_order(&net) {
            assert!(trace.kernel(&name).is_some(), "missing layer {name}");
        }
        assert_eq!(trace.kernel_count(), 22);
    }

    #[test]
    fn resnet20_mac_count_is_roughly_40m() {
        // The CIFAR-10 ResNet-20 is ~40.5M MACs per inference.
        let trace = resnet20_summary();
        let macs = trace.macs();
        assert!(
            (30_000_000..60_000_000).contains(&macs),
            "MACs {macs} out of ResNet-20 range"
        );
    }

    #[test]
    fn trace_is_mvm_dominated() {
        // §7.2: ResNet is the MVM-heavy workload.
        let trace = resnet20_summary();
        assert!(trace.mvm_fraction() > 0.9, "{}", trace.mvm_fraction());
    }

    #[test]
    fn depth_sweep_scales_layer_count_and_names() {
        let sweep = ResNetWorkload::depth_sweep();
        let names: Vec<String> = sweep.iter().map(Workload::name).collect();
        assert_eq!(names, ["resnet-20", "resnet-32", "resnet-44", "resnet-56"]);
        let t20 = TraceSummary::record(|r| sweep[0].emit(r));
        let t32 = TraceSummary::record(|r| sweep[1].emit(r));
        assert_eq!(t20.name(), "resnet-20");
        assert_eq!(t32.name(), "resnet-32");
        // 6 extra residual blocks = 12 extra conv kernels.
        assert_eq!(t32.kernel_count(), t20.kernel_count() + 12);
        assert!(t32.macs() > t20.macs());
        // The paper workload streams the seed-1 ResNet-20 network.
        assert_eq!(t20, resnet20_summary());
    }

    #[test]
    fn stem_layer_shape() {
        let trace = resnet20_summary();
        let stem = trace.kernel("c1-Conv1").expect("exists");
        match stem.runs[0].op {
            KernelOp::Mvm {
                rows, cols, batch, ..
            } => {
                assert_eq!(rows, 27); // 3 channels x 3x3
                assert_eq!(cols, 16);
                assert_eq!(batch, 32 * 32);
            }
            ref other => panic!("stem op 0 should be an MVM, got {other:?}"),
        }
    }
}

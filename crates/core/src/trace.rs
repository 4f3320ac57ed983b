//! Architecture-neutral kernel op streams.
//!
//! Each application (`darth-apps`) lowers one *work item* — an AES block
//! encryption, a ResNet-20 inference, an LLM encoder pass — into a
//! sequence of named kernels made of coarse-grained [`KernelOp`]s. That
//! sequence only ever exists as a *stream*: the workload pushes op
//! events into a [`TraceSink`] and never materializes anything, so a
//! million-block bulk scenario prices in O(1) memory. Two kinds of sink
//! matter:
//!
//! * every architecture model is a streaming cost accumulator (the
//!   DARTH-PUM model in [`crate::model`], the CPU / GPU / analog-only /
//!   RACER / AppAccel models in `darth-baselines`) — see
//!   [`crate::eval::CostAccumulator`];
//! * [`SummaryRecorder`] compresses the stream into a run-length
//!   [`TraceSummary`], the one stored form: the evaluation engine caches
//!   it, tests inspect it, and — being a [`crate::eval::Workload`] — it
//!   replays into any sink.
//!
//! Figures 13–18 are all ratios of the resulting [`CostReport`]s, and
//! live and recorded pricing are bit-identical by construction: a
//! recorded [`TraceSummary`] reproduces the exact op sequence (and
//! therefore the exact `f64` accumulation order) of the original
//! emission.

use darth_digital::{BoolOp, MacroOp};
use serde::{Deserialize, Serialize};

/// The element-wise vector operation classes a kernel can request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VectorKind {
    /// Bitwise Boolean operation (XOR/AND/OR/NOT).
    Bool,
    /// Integer addition or subtraction.
    Add,
    /// Integer multiplication.
    Mul,
    /// Constant shift or rotate.
    Shift,
    /// Comparison / max / min (ReLU, pooling).
    Compare,
    /// Data copy between registers or buffers.
    Copy,
}

impl VectorKind {
    /// The DCE macro that digital cost models price one op of this class
    /// by, over `bits`-bit lanes: XOR stands for every Boolean op and a
    /// one-bit shift for every shift or rotate.
    pub fn macro_op(self, bits: u8) -> MacroOp {
        match self {
            VectorKind::Bool => MacroOp::Bool(BoolOp::Xor),
            VectorKind::Add => MacroOp::Add,
            VectorKind::Mul => MacroOp::Mul(bits),
            VectorKind::Shift => MacroOp::ShiftBits(1),
            VectorKind::Compare => MacroOp::CmpLt,
            VectorKind::Copy => MacroOp::CopyVr,
        }
    }
}

/// One coarse-grained operation inside a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum KernelOp {
    /// A dense matrix–vector multiply (`batch` independent input vectors
    /// against the same `rows × cols` matrix).
    Mvm {
        /// Matrix rows (input length).
        rows: u64,
        /// Matrix columns (output length).
        cols: u64,
        /// Input operand width in bits.
        input_bits: u8,
        /// Weight element width in bits.
        weight_bits: u8,
        /// Independent input vectors.
        batch: u64,
    },
    /// `count` element-wise vector operations over `elements` lanes of
    /// `bits`-bit values.
    Vector {
        /// Operation class.
        kind: VectorKind,
        /// Lanes per operation.
        elements: u64,
        /// Lane width in bits.
        bits: u8,
        /// Number of such operations.
        count: u64,
    },
    /// A gather through a lookup table (AES S-box, quantized LUTs).
    TableLookup {
        /// Elements gathered.
        elements: u64,
        /// Table entries.
        table_size: u64,
        /// Entry width in bits.
        bits: u8,
    },
    /// Bytes moved between the host and the accelerator (Baseline's
    /// CPU↔PUM traffic; zero-cost inside a single chip).
    HostMove {
        /// Bytes transferred.
        bytes: u64,
    },
    /// Bytes moved on-chip between tiles or pipelines.
    OnChipMove {
        /// Bytes transferred.
        bytes: u64,
    },
    /// Reprogramming of analog weights (attention matrices, §5.2).
    WeightUpdate {
        /// Matrix rows rewritten.
        rows: u64,
        /// Matrix columns rewritten.
        cols: u64,
        /// Weight element width in bits.
        weight_bits: u8,
    },
}

impl KernelOp {
    /// Whether the op is a matrix multiply (the analog-accelerable class).
    pub fn is_mvm(&self) -> bool {
        matches!(self, KernelOp::Mvm { .. })
    }

    /// Total multiply–accumulate count represented by this op (zero for
    /// non-MVM ops) — used for roofline-style CPU/GPU pricing.
    ///
    /// Saturating: bulk streamed scenarios legitimately reach op shapes
    /// whose `rows × cols × batch` product would overflow `u64`, and a
    /// saturated count is a better answer than a wrapped one.
    pub fn macs(&self) -> u64 {
        match *self {
            KernelOp::Mvm {
                rows, cols, batch, ..
            } => rows.saturating_mul(cols).saturating_mul(batch),
            _ => 0,
        }
    }

    /// Total element-operations (lanes × count) for vector work
    /// (saturating, like [`KernelOp::macs`]).
    pub fn element_ops(&self) -> u64 {
        match *self {
            KernelOp::Vector {
                elements, count, ..
            } => elements.saturating_mul(count),
            KernelOp::TableLookup { elements, .. } => elements,
            _ => 0,
        }
    }
}

/// Trace-level metadata, delivered to a [`TraceSink`] before any kernel:
/// the work-item name plus its placement hints.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Work item name (`"aes-128"`, `"resnet-110"`, …).
    pub name: String,
    /// How many independent copies of this item a chip may run in
    /// parallel given unlimited area (caps iso-area batching; e.g. AES is
    /// embarrassingly parallel, one CNN inference is one item).
    pub parallel_items: u64,
    /// DCE pipelines one in-flight item occupies (placement hint from the
    /// application mapping; bounds per-tile batching).
    pub pipelines_per_item: u64,
}

impl TraceMeta {
    /// Metadata with the defaults: unlimited parallel items, one
    /// pipeline per item.
    pub fn new(name: impl Into<String>) -> Self {
        TraceMeta {
            name: name.into(),
            parallel_items: u64::MAX,
            pipelines_per_item: 1,
        }
    }

    /// Sets the per-item pipeline footprint (builder style, clamped to
    /// ≥ 1).
    #[must_use]
    pub fn with_pipelines_per_item(mut self, pipelines: u64) -> Self {
        self.pipelines_per_item = pipelines.max(1);
        self
    }

    /// Caps the exploitable parallelism (builder style, clamped to
    /// ≥ 1).
    #[must_use]
    pub fn with_parallel_items(mut self, items: u64) -> Self {
        self.parallel_items = items.max(1);
        self
    }
}

/// An op-stream consumer: the other half of the streaming trace pipeline.
///
/// A workload emits one work item as a flat event stream — one
/// [`TraceSink::begin_trace`], then for each kernel a
/// [`TraceSink::begin_kernel`] followed by its ops in execution order —
/// and the sink prices or records the events as they arrive. Nothing is ever buffered by the protocol itself, so emission
/// is O(1) memory regardless of workload scale.
///
/// `op_run` is the primitive: `op_run(op, n)` means *the same op, `n`
/// times in a row*, and MUST be observationally identical to calling
/// [`TraceSink::op`] `n` times. Cost accumulators exploit the
/// equivalence by pricing the op once and folding the repeat in a tight
/// loop (bit-identical to op-by-op accumulation, since each repetition
/// adds the same addend in the same order).
pub trait TraceSink {
    /// Starts the work item. Emitters call this exactly once, before any
    /// kernel event.
    fn begin_trace(&mut self, meta: &TraceMeta);

    /// Starts the next kernel; subsequent ops belong to it until the next
    /// `begin_kernel`.
    fn begin_kernel(&mut self, name: &str);

    /// `repeat` consecutive occurrences of `op` inside the current
    /// kernel.
    fn op_run(&mut self, op: &KernelOp, repeat: u64);

    /// One occurrence of `op` (convenience over [`TraceSink::op_run`]).
    fn op(&mut self, op: &KernelOp) {
        self.op_run(op, 1);
    }
}

/// One run-length entry of a [`TraceSummary`]: `repeat` consecutive
/// occurrences of `op`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpRun {
    /// The repeated op.
    pub op: KernelOp,
    /// Consecutive occurrences.
    pub repeat: u64,
}

/// One kernel of a [`TraceSummary`]: a name plus run-length-encoded ops,
/// itself repeated `repeat` times when identical kernels arrive
/// back-to-back.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelSummary {
    /// Kernel display name.
    pub name: String,
    /// Run-length-encoded ops, in emission order.
    pub runs: Vec<OpRun>,
    /// Back-to-back repetitions of this whole kernel.
    pub repeat: u64,
}

impl KernelSummary {
    /// Total op events across all repetitions of this kernel
    /// (saturating).
    pub fn op_count(&self) -> u64 {
        self.total(|_| 1)
    }

    /// Total MACs across all repetitions of this kernel (saturating).
    pub fn macs(&self) -> u64 {
        self.total(KernelOp::macs)
    }

    /// Total element-ops across all repetitions of this kernel
    /// (saturating).
    pub fn element_ops(&self) -> u64 {
        self.total(KernelOp::element_ops)
    }

    /// Sums `per_op` over every op event of every repetition
    /// (saturating).
    fn total(&self, per_op: impl Fn(&KernelOp) -> u64) -> u64 {
        self.runs.iter().fold(0u64, |acc, run| {
            acc.saturating_add(
                per_op(&run.op)
                    .saturating_mul(run.repeat)
                    .saturating_mul(self.repeat),
            )
        })
    }
}

/// A run-length-compressed recording of one emitted op stream.
///
/// This is the one stored form of an op stream, and what the evaluation
/// engine caches: consecutive identical ops collapse into one [`OpRun`]
/// and consecutive identical kernels collapse into one
/// [`KernelSummary`] with a repeat count, so the regular bulk scenarios
/// (a million identical AES blocks) compress to a handful of entries. A
/// summary is itself a [`crate::eval::Workload`]: its `emit` reproduces
/// the *exact* original op sequence — same ops, same order, consecutive
/// repeats delivered as [`TraceSink::op_run`] batches, which the sink
/// contract makes observationally identical — into any sink, so it
/// prices bit-identically to the scenario it recorded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Trace-level metadata as emitted.
    pub meta: TraceMeta,
    /// Compressed kernels, in emission order.
    pub kernels: Vec<KernelSummary>,
}

impl TraceSummary {
    /// Records a full emission through a [`SummaryRecorder`].
    pub fn record(emit: impl FnOnce(&mut SummaryRecorder)) -> Self {
        let mut recorder = SummaryRecorder::new();
        emit(&mut recorder);
        recorder.finish()
    }

    /// Total op events across all kernels and repeats (saturating).
    pub fn op_count(&self) -> u64 {
        self.total(KernelSummary::op_count)
    }

    /// Total kernel events across repeats (saturating). Back-to-back
    /// identical kernels fold into one [`KernelSummary`], so this can
    /// exceed `kernels.len()`.
    pub fn kernel_count(&self) -> u64 {
        self.total(|k| k.repeat)
    }

    /// Total MACs across the stream (saturating).
    pub fn macs(&self) -> u64 {
        self.total(KernelSummary::macs)
    }

    /// Total element-ops across the stream (saturating).
    pub fn element_ops(&self) -> u64 {
        self.total(KernelSummary::element_ops)
    }

    /// The first kernel summary with the given name.
    pub fn kernel(&self, name: &str) -> Option<&KernelSummary> {
        self.kernels.iter().find(|k| k.name == name)
    }

    /// Fraction of MACs among (MACs + element ops) — a rough measure of
    /// how MVM-heavy the workload is.
    pub fn mvm_fraction(&self) -> f64 {
        let macs = self.macs() as f64;
        let eops = self.element_ops() as f64;
        if macs + eops == 0.0 {
            return 0.0;
        }
        macs / (macs + eops)
    }

    /// Sums `per_kernel` over the kernel summaries (saturating).
    fn total(&self, per_kernel: impl Fn(&KernelSummary) -> u64) -> u64 {
        self.kernels
            .iter()
            .fold(0u64, |acc, k| acc.saturating_add(per_kernel(k)))
    }
}

/// The sink behind [`TraceSummary`]: run-length-compresses an op stream
/// as it arrives (O(distinct consecutive events) memory).
#[derive(Debug, Default)]
pub struct SummaryRecorder {
    meta: Option<TraceMeta>,
    kernels: Vec<KernelSummary>,
    current: Option<KernelSummary>,
}

impl SummaryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        SummaryRecorder::default()
    }

    fn flush_kernel(&mut self) {
        if let Some(done) = self.current.take() {
            match self.kernels.last_mut() {
                // Identical back-to-back kernels fold into a repeat.
                Some(prev) if prev.name == done.name && prev.runs == done.runs => {
                    prev.repeat = prev.repeat.saturating_add(done.repeat);
                }
                _ => self.kernels.push(done),
            }
        }
    }

    /// The compressed summary.
    pub fn finish(mut self) -> TraceSummary {
        self.flush_kernel();
        TraceSummary {
            meta: self.meta.unwrap_or_else(|| TraceMeta::new("")),
            kernels: self.kernels,
        }
    }
}

impl TraceSink for SummaryRecorder {
    fn begin_trace(&mut self, meta: &TraceMeta) {
        self.meta = Some(meta.clone());
    }

    fn begin_kernel(&mut self, name: &str) {
        self.flush_kernel();
        self.current = Some(KernelSummary {
            name: name.to_owned(),
            runs: Vec::new(),
            repeat: 1,
        });
    }

    fn op_run(&mut self, op: &KernelOp, repeat: u64) {
        if repeat == 0 {
            return;
        }
        let kernel = self.current.as_mut().expect("begin_kernel precedes ops");
        match kernel.runs.last_mut() {
            Some(run) if run.op == *op => run.repeat = run.repeat.saturating_add(repeat),
            _ => kernel.runs.push(OpRun { op: *op, repeat }),
        }
    }
}

/// A priced trace: one architecture's cost for one work item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostReport {
    /// Architecture label.
    pub architecture: String,
    /// Work item name.
    pub workload: String,
    /// Latency of one item in seconds.
    pub latency_s: f64,
    /// Items completed per second at full chip utilisation.
    pub throughput_items_per_s: f64,
    /// Energy per item in joules.
    pub energy_per_item_j: f64,
    /// Per-kernel latency breakdown in seconds, in kernel order.
    pub kernel_latency_s: Vec<(String, f64)>,
}

impl CostReport {
    /// Throughput ratio vs another report (`self / other`).
    pub fn speedup_over(&self, other: &CostReport) -> f64 {
        self.throughput_items_per_s / other.throughput_items_per_s
    }

    /// Energy-savings ratio vs another report (`other / self`).
    pub fn energy_savings_over(&self, other: &CostReport) -> f64 {
        other.energy_per_item_j / self.energy_per_item_j
    }
}

/// Geometric mean of a set of ratios (used for the GeoMean columns and
/// the evaluation engine's summary rows).
///
/// A geometric mean is only defined over positive values, so zero,
/// negative, NaN and infinite entries (a workload with no measurable
/// throughput, a failed cell) are skipped rather than poisoning the whole
/// summary. Returns `0.0` when no valid ratio remains (including the
/// empty slice).
pub fn geomean(ratios: &[f64]) -> f64 {
    let mut log_sum = 0.0;
    let mut count = 0u32;
    for &r in ratios {
        if r.is_finite() && r > 0.0 {
            log_sum += r.ln();
            count += 1;
        }
    }
    if count == 0 {
        return 0.0;
    }
    (log_sum / f64::from(count)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Workload;

    const MIX: KernelOp = KernelOp::Mvm {
        rows: 16,
        cols: 4,
        input_bits: 1,
        weight_bits: 1,
        batch: 2,
    };

    const XOR: KernelOp = KernelOp::Vector {
        kind: VectorKind::Bool,
        elements: 16,
        bits: 8,
        count: 3,
    };

    fn sample_summary() -> TraceSummary {
        TraceSummary::record(|r| {
            r.begin_trace(&TraceMeta::new("sample"));
            r.begin_kernel("mix");
            r.op(&MIX);
            r.begin_kernel("xor");
            r.op(&XOR);
        })
    }

    /// A stream expanded op by op — every `op_run` unrolled — for
    /// exact-replay checks against the run-length summary.
    #[derive(Debug, Default, PartialEq)]
    struct Expanded {
        meta: Option<TraceMeta>,
        kernels: Vec<(String, Vec<KernelOp>)>,
    }

    impl Expanded {
        fn of(workload: &dyn Workload) -> Self {
            let mut expanded = Expanded::default();
            workload.emit(&mut expanded);
            expanded
        }

        fn replay(&self, sink: &mut dyn TraceSink) {
            sink.begin_trace(self.meta.as_ref().expect("begin_trace recorded"));
            for (name, ops) in &self.kernels {
                sink.begin_kernel(name);
                for op in ops {
                    sink.op(op);
                }
            }
        }

        fn total(&self, per_op: fn(&KernelOp) -> u64) -> u64 {
            self.kernels
                .iter()
                .flat_map(|(_, ops)| ops)
                .fold(0u64, |acc, op| acc.saturating_add(per_op(op)))
        }
    }

    impl TraceSink for Expanded {
        fn begin_trace(&mut self, meta: &TraceMeta) {
            self.meta = Some(meta.clone());
        }
        fn begin_kernel(&mut self, name: &str) {
            self.kernels.push((name.to_owned(), Vec::new()));
        }
        fn op_run(&mut self, op: &KernelOp, repeat: u64) {
            let (_, ops) = self.kernels.last_mut().expect("begin_kernel precedes ops");
            ops.extend((0..repeat).map(|_| *op));
        }
    }

    #[test]
    fn mac_and_element_counts() {
        let t = sample_summary();
        assert_eq!(t.macs(), 16 * 4 * 2);
        assert_eq!(t.element_ops(), 48);
        assert!(t.mvm_fraction() > 0.5);
    }

    #[test]
    fn kernel_lookup() {
        let t = sample_summary();
        assert_eq!(t.kernel("mix").map(KernelSummary::macs), Some(128));
        assert_eq!(t.kernel("xor").map(KernelSummary::element_ops), Some(48));
        assert!(t.kernel("nope").is_none());
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[8.0]) - 8.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn geomean_skips_degenerate_ratios() {
        // Zero, negative and non-finite entries are excluded, not fatal.
        assert!((geomean(&[4.0, 0.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[4.0, -3.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[4.0, f64::NAN, 1.0, f64::INFINITY]) - 2.0).abs() < 1e-12);
        // Nothing valid left: fall back to 0.0 rather than NaN.
        assert_eq!(geomean(&[0.0, -1.0, f64::NAN]), 0.0);
    }

    #[test]
    fn cost_report_ratios() {
        let fast = CostReport {
            architecture: "a".into(),
            workload: "w".into(),
            latency_s: 1e-6,
            throughput_items_per_s: 1e6,
            energy_per_item_j: 1e-9,
            kernel_latency_s: vec![],
        };
        let slow = CostReport {
            architecture: "b".into(),
            workload: "w".into(),
            latency_s: 1e-3,
            throughput_items_per_s: 1e3,
            energy_per_item_j: 1e-6,
            kernel_latency_s: vec![],
        };
        assert!((fast.speedup_over(&slow) - 1000.0).abs() < 1e-9);
        assert!((fast.energy_savings_over(&slow) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn mvm_fraction_empty_trace() {
        let t = TraceSummary::record(|r| r.begin_trace(&TraceMeta::new("empty")));
        assert_eq!(t.mvm_fraction(), 0.0);
        assert_eq!(t.kernel_count(), 0);
    }

    #[test]
    fn op_counts_saturate_instead_of_wrapping() {
        let huge_mvm = KernelOp::Mvm {
            rows: u64::MAX / 2,
            cols: 3,
            input_bits: 8,
            weight_bits: 8,
            batch: 5,
        };
        assert_eq!(huge_mvm.macs(), u64::MAX);
        let huge_vec = KernelOp::Vector {
            kind: VectorKind::Add,
            elements: u64::MAX,
            bits: 8,
            count: 2,
        };
        assert_eq!(huge_vec.element_ops(), u64::MAX);
        let t = TraceSummary::record(|r| {
            r.begin_trace(&TraceMeta::new("big"));
            for _ in 0..2 {
                r.begin_kernel("big");
                r.op_run(&huge_mvm, 2);
                r.op_run(&huge_vec, u64::MAX);
            }
        });
        let big = t.kernel("big").expect("recorded");
        assert_eq!(big.repeat, 2);
        assert_eq!(big.macs(), u64::MAX);
        assert_eq!(big.op_count(), u64::MAX);
        assert_eq!(t.macs(), u64::MAX);
        assert_eq!(t.element_ops(), u64::MAX);
        assert_eq!(t.op_count(), u64::MAX);
    }

    #[test]
    fn summary_compresses_runs_and_replays_exactly() {
        let op = KernelOp::TableLookup {
            elements: 16,
            table_size: 256,
            bits: 8,
        };
        let move_op = KernelOp::HostMove { bytes: 32 };
        let summary = TraceSummary::record(|r| {
            r.begin_trace(&TraceMeta::new("rle").with_pipelines_per_item(3));
            // Three identical kernels back to back, each 4 identical ops.
            for _ in 0..3 {
                r.begin_kernel("gather");
                for _ in 0..4 {
                    r.op(&op);
                }
            }
            // A different kernel breaks the kernel run.
            r.begin_kernel("move");
            r.op_run(&move_op, 5);
        });

        // Compression: 2 kernel summaries, 1 op run each.
        assert_eq!(summary.kernels.len(), 2);
        assert_eq!(summary.kernels[0].repeat, 3);
        assert_eq!(summary.kernels[0].runs.len(), 1);
        assert_eq!(summary.kernels[0].runs[0].repeat, 4);
        assert_eq!(summary.kernels[0].op_count(), 3 * 4);
        assert_eq!(summary.op_count(), 3 * 4 + 5);
        assert_eq!(summary.kernel_count(), 4);
        assert_eq!(summary.element_ops(), 3 * 4 * 16);

        // Replay expands back to the exact op-by-op stream…
        let expanded = Expanded::of(&summary);
        assert_eq!(summary.name(), "rle");
        assert_eq!(expanded.meta.map(|m| m.pipelines_per_item), Some(3));
        let lens: Vec<(&str, usize)> = expanded
            .kernels
            .iter()
            .map(|(name, ops)| (name.as_str(), ops.len()))
            .collect();
        assert_eq!(
            lens,
            [("gather", 4), ("gather", 4), ("gather", 4), ("move", 5)]
        );
        // …and recording the replay reproduces the summary, runs and all.
        assert_eq!(TraceSummary::record(|r| summary.emit(r)), summary);
    }

    #[test]
    fn collect_round_trips_a_materialized_trace() {
        // An op-by-op stream recorded into a summary replays op for op.
        let original = Expanded::of(&TraceSummary::record(|r| {
            r.begin_trace(
                &TraceMeta::new("mixed")
                    .with_pipelines_per_item(3)
                    .with_parallel_items(128),
            );
            r.begin_kernel("mix");
            r.op_run(&MIX, 3);
            r.op(&XOR);
            r.op(&MIX);
            r.begin_kernel("xor");
            r.op(&XOR);
        }));
        let summary = TraceSummary::record(|r| original.replay(r));
        assert_eq!(summary.kernels[0].runs.len(), 3);
        assert_eq!(Expanded::of(&summary), original);
    }

    #[test]
    fn summary_stats_match_materialized_totals() {
        let bulk = TraceSummary::record(|r| {
            r.begin_trace(&TraceMeta::new("bulk"));
            for _ in 0..3 {
                r.begin_kernel("step");
                r.op_run(&MIX, 5);
                r.op_run(&XOR, 2);
            }
            r.begin_kernel("tail");
            r.op(&KernelOp::HostMove { bytes: 64 });
        });
        for summary in [sample_summary(), bulk] {
            let expanded = Expanded::of(&summary);
            assert_eq!(summary.macs(), expanded.total(KernelOp::macs));
            assert_eq!(summary.element_ops(), expanded.total(KernelOp::element_ops));
            assert_eq!(summary.op_count(), expanded.total(|_| 1));
            assert_eq!(summary.kernel_count(), expanded.kernels.len() as u64);
        }
    }

    #[test]
    fn zero_repeat_runs_are_dropped() {
        let mut recorder = SummaryRecorder::new();
        recorder.begin_trace(&TraceMeta::new("z"));
        recorder.begin_kernel("k");
        recorder.op_run(&KernelOp::HostMove { bytes: 8 }, 0);
        let summary = recorder.finish();
        assert_eq!(summary.op_count(), 0);
        assert_eq!(summary.kernel_count(), 1);
    }
}

//! The open evaluation contract: pluggable workloads × architecture
//! models, wired together as a *streaming* pipeline.
//!
//! The paper's evaluation is a matrix — every workload priced on every
//! architecture — and this module defines the two axes as object-safe
//! traits so the matrix is *open* on both sides and *streamed* in the
//! middle:
//!
//! * a [`Workload`] emits one work item as an op stream into any
//!   [`TraceSink`] (the AES/ResNet/LLM scenarios in `darth_apps`, plus
//!   any user-defined scenario). A recorded [`TraceSummary`] is a
//!   workload too: it re-emits exactly the stream it recorded;
//! * an [`ArchModel`] prices the stream through a [`CostAccumulator`] —
//!   a sink that folds op events into latency/energy state and finishes
//!   into a [`CostReport`] (the DARTH-PUM model in [`crate::model`] and
//!   every comparison model in `darth_baselines`). The provided
//!   [`ArchModel::price`] streams one workload through a fresh
//!   accumulator, so a live scenario and its recording price
//!   bit-identically by construction.
//!
//! Because accumulators are independent sinks, one emission can feed
//! many of them at once: [`Fanout`] (and the [`price_on_all`]
//! convenience) prices a single op stream on every registered
//! architecture in one pass, never holding a trace. The `darth_eval`
//! crate's engine builds on exactly these pieces, caching compressed
//! [`TraceSummary`] recordings and fanning each into every model.

use crate::chip::SideChannel;
use crate::hct::HctConfig;
use crate::trace::{CostReport, TraceSink, TraceSummary};
use serde::{Deserialize, Serialize};

/// The FNV-1a folder behind [`JobSignature`] and the serving engine's
/// output digest, re-exported from `darth_isa` so every digest in the
/// workspace folds through one implementation.
pub use darth_isa::fnv::Fnv1a;

/// A workload scenario: anything that can emit itself as an op stream.
///
/// Implementations are registered with the `darth_eval` engine, which
/// records each emission once (as a compressed run-length summary) and
/// replays it into every registered [`ArchModel`]'s accumulator.
/// Emission may be expensive (synthesizing network weights, walking
/// layer plans), which is why the engine parallelizes it —
/// implementations must therefore be `Send + Sync`, and `emit` must be
/// deterministic for a given configuration.
///
/// Emission protocol: exactly one [`TraceSink::begin_trace`] (carrying
/// the name returned by [`Workload::name`]), then for each kernel one
/// [`TraceSink::begin_kernel`] followed by its ops in execution order.
pub trait Workload: Send + Sync {
    /// Stable identifier, unique within a registry (`"aes-128"`,
    /// `"resnet-56"`, `"gemm-512x512x512"`); also the trace name the
    /// emission carries in its [`crate::trace::TraceMeta`].
    fn name(&self) -> String;

    /// Human-readable figure label (`"AES"`, `"ResNet-20"`). Defaults to
    /// [`Workload::name`].
    fn label(&self) -> String {
        self.name()
    }

    /// The scenario's parameters as `(key, value)` pairs, for the JSON
    /// report. Defaults to none.
    fn params(&self) -> Vec<(String, String)> {
        Vec::new()
    }

    /// Streams the work item into `sink`, op by op, without
    /// materializing it.
    fn emit(&self, sink: &mut dyn TraceSink);
}

/// A recorded stream is itself a workload: `emit` replays the recording
/// in its original event order (kernel repeats replay as separate
/// kernels; op runs replay as the [`TraceSink::op_run`] batches that
/// were recorded), so any recorded stream prices like any scenario.
impl Workload for TraceSummary {
    fn name(&self) -> String {
        self.meta.name.clone()
    }

    fn emit(&self, sink: &mut dyn TraceSink) {
        sink.begin_trace(&self.meta);
        for kernel in &self.kernels {
            for _ in 0..kernel.repeat {
                sink.begin_kernel(&kernel.name);
                for run in &kernel.runs {
                    sink.op_run(&run.op, run.repeat);
                }
            }
        }
    }
}

/// A streaming cost model for one work item: a [`TraceSink`] that folds
/// the op stream into accumulated latency/energy state and finishes into
/// a [`CostReport`].
///
/// Accumulators are single-use: feed exactly one emission, then call
/// [`CostAccumulator::finish`] once. Feeding events after `finish`, or
/// finishing twice, is a logic error (implementations may return
/// nonsense but must not panic unsafely).
pub trait CostAccumulator: TraceSink {
    /// Finalizes the accumulated stream into a report.
    fn finish(&mut self) -> CostReport;
}

/// An architecture model: anything that can price an op stream.
///
/// The required method is [`ArchModel::accumulator`]: a fresh
/// per-work-item [`CostAccumulator`]. `accumulator` must be cheap and
/// pure — the engine calls it concurrently from multiple threads, once
/// per matrix cell.
pub trait ArchModel: Send + Sync {
    /// Stable identifier, unique within a registry (`"darth-sar"`,
    /// `"baseline-sar"`, `"gpu-rtx-4090"`).
    fn name(&self) -> String;

    /// Human-readable figure label (`"DARTH-PUM"`, `"DigitalPUM"`).
    /// Defaults to [`ArchModel::name`].
    fn label(&self) -> String {
        self.name()
    }

    /// A fresh streaming accumulator for one work item.
    fn accumulator(&self) -> Box<dyn CostAccumulator + '_>;

    /// Prices one work item on this architecture by streaming its
    /// emission through a fresh accumulator.
    fn price(&self, workload: &dyn Workload) -> CostReport {
        let mut acc = self.accumulator();
        workload.emit(&mut *acc);
        acc.finish()
    }
}

/// A readback location inside a finished job: which pipeline register to
/// read, how many elements, and whether the stored field decodes as
/// two's complement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Readback {
    /// Output name (`"ciphertext"`, `"row-2"`, `"pixel-0x1"`).
    pub label: String,
    /// Pipeline holding the output register.
    pub pipe: u16,
    /// The output vector register.
    pub vr: u8,
    /// Leading elements to read.
    pub elements: usize,
    /// Decode elements as signed two's complement.
    pub signed: bool,
}

/// One named output vector read back from an executed job.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecOutput {
    /// Output name, matching the job's [`Readback::label`].
    pub label: String,
    /// The output cells, in element order.
    pub cells: Vec<i64>,
}

/// A functionally executable work item: an *encoded* `darth_isa`
/// instruction stream plus everything a machine needs to run it — the
/// tile geometry, the host-staged bulk data the program references by
/// handle, and the registers to read outputs from afterwards.
///
/// Jobs carry encoded bytes rather than decoded instructions on purpose:
/// every execution exercises the fixed-width binary decode path, so the
/// encode layer is under differential test too.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecJob {
    /// Work item name (matches the paired priced workload where one
    /// exists).
    pub name: String,
    /// Functional tile geometry the program was compiled for.
    pub tile: HctConfig,
    /// The encoded instruction stream ([`darth_isa::encode`] records).
    pub program: Vec<u8>,
    /// Host-staged matrices and vectors referenced by handle.
    pub data: SideChannel,
    /// Output locations to read after the program halts.
    pub readbacks: Vec<Readback>,
}

impl ExecJob {
    /// Decodes the job's instruction stream.
    ///
    /// # Errors
    ///
    /// Returns ISA decode errors for malformed records.
    pub fn decoded_program(&self) -> crate::Result<darth_isa::instruction::Program> {
        darth_isa::encode::decode_program(&self.program).map_err(crate::Error::Isa)
    }

    /// Number of encoded instruction records.
    pub fn instruction_count(&self) -> usize {
        self.program.len() / darth_isa::encode::RECORD_SIZE
    }

    /// The job's stable [`JobSignature`]: two jobs share a signature
    /// exactly when they run the same encoded program on the same tile
    /// geometry over the same staged side-channel data with the same
    /// readbacks. The job *name* is deliberately excluded — per-request
    /// names must not defeat signature-keyed program caches.
    pub fn signature(&self) -> JobSignature {
        let mut h = Fnv1a::new();
        hash_shape(&mut h, &self.tile, &self.data, &self.readbacks);
        h.write(&self.program);
        JobSignature(h.finish())
    }
}

/// A stable 64-bit identity for "same resident program" work: the FNV-1a
/// hash of a job's tile geometry, encoded instruction stream(s), staged
/// side-channel data and readbacks — everything that determines the
/// compiled program and warmed machine state, and nothing that varies
/// per request.
///
/// The hash is computed with a fixed, explicitly coded FNV-1a so it is
/// deterministic across processes and worker threads (unlike
/// `DefaultHasher`, whose keys are randomized). Serving-layer program
/// caches key on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobSignature(pub u64);

impl std::fmt::Display for JobSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Folds the program-independent parts of a job's identity — tile
/// geometry, staged data, readbacks — into `h`. The tile enters through
/// its `Debug` rendering: every field participates automatically, and
/// the rendering is deterministic for a given build.
fn hash_shape(h: &mut Fnv1a, tile: &HctConfig, data: &SideChannel, readbacks: &[Readback]) {
    h.write(format!("{tile:?}").as_bytes());
    h.write_u64(data.matrices.len() as u64);
    for (&handle, matrix) in &data.matrices {
        h.write_u64(u64::from(handle));
        h.write_u64(matrix.len() as u64);
        for row in matrix {
            h.write_u64(row.len() as u64);
            for &cell in row {
                h.write_i64(cell);
            }
        }
    }
    h.write_u64(data.vectors.len() as u64);
    for (&handle, vector) in &data.vectors {
        h.write_u64(u64::from(handle));
        h.write_u64(vector.len() as u64);
        for &cell in vector {
            h.write_i64(cell);
        }
    }
    h.write_u64(readbacks.len() as u64);
    for rb in readbacks {
        h.write(rb.label.as_bytes());
        h.write_u64(u64::from(rb.pipe));
        h.write_u64(u64::from(rb.vr));
        h.write_u64(rb.elements as u64);
        h.write_u64(u64::from(rb.signed));
    }
}

/// An [`ExecJob`] factored for serving: the request-invariant parts
/// (setup + compute body) separated from the per-request input program.
///
/// A serving layer runs `setup` **once** per resident cache entry (it
/// stages weights/constants/round keys onto a prototype machine),
/// compiles `body` **once**, and per request only interprets the tiny
/// per-request input program before re-running the compiled body —
/// that is the ACE-style "keep the circuit resident, swap the inputs"
/// optimization.
///
/// Invariants the producer must uphold (pinned by the app-layer
/// concatenation tests):
///
/// * `setup` and every per-request input program are **halt-free** —
///   execution must fall through into the next section;
/// * `body` ends with `halt`;
/// * `setup` ‖ `input` ‖ `body` byte-concatenated is exactly the
///   monolithic program an [`ExecJob`] for the same request would carry
///   ([`SplitJob::full_job`] builds it, and the differential spot check
///   runs it on the reference executor).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitJob {
    /// Work item name (class-level, not per-request).
    pub name: String,
    /// Functional tile geometry all three program sections target.
    pub tile: HctConfig,
    /// Encoded request-invariant prologue: allocations, weight
    /// programming, constants. Halt-free.
    pub setup: Vec<u8>,
    /// Encoded request-invariant compute body; ends with `halt`.
    pub body: Vec<u8>,
    /// Host-staged data referenced by `setup` (weights, tables).
    pub data: SideChannel,
    /// Output locations to read after the body halts.
    pub readbacks: Vec<Readback>,
}

impl SplitJob {
    /// The split job's stable [`JobSignature`] — the program-cache key.
    /// Covers tile, both invariant program sections, staged data and
    /// readbacks; excludes the name and (by construction) anything
    /// per-request.
    pub fn signature(&self) -> JobSignature {
        let mut h = Fnv1a::new();
        hash_shape(&mut h, &self.tile, &self.data, &self.readbacks);
        h.write_u64(self.setup.len() as u64);
        h.write(&self.setup);
        h.write(&self.body);
        JobSignature(h.finish())
    }

    /// Decodes both invariant sections and checks the split-program
    /// contract: `setup` halt-free, `body` non-empty and ending with
    /// `halt`. Producers (the `darth_kir` lowering, hand-written split
    /// jobs) uphold this by construction; the check makes the invariant
    /// auditable on any serialized artifact.
    ///
    /// # Errors
    ///
    /// Returns a [`Shape`](crate::Error::Shape) error naming the
    /// violated invariant, or the decode error for corrupt sections.
    pub fn check_invariants(&self) -> crate::Result<()> {
        let setup = darth_isa::encode::decode_program(&self.setup)?;
        if !setup.is_halt_free() {
            return Err(crate::Error::Shape(format!(
                "split job `{}`: setup section contains a halt",
                self.name
            )));
        }
        let body = darth_isa::encode::decode_program(&self.body)?;
        if !body.ends_with_halt() {
            return Err(crate::Error::Shape(format!(
                "split job `{}`: body does not end with halt",
                self.name
            )));
        }
        Ok(())
    }

    /// Reassembles the monolithic [`ExecJob`] for one request: `setup` ‖
    /// `input` ‖ `body`, byte-concatenated (the encode layer is
    /// fixed-width records, so concatenation is itself a valid encoded
    /// program). This is what differential spot checks run on the
    /// reference executor to prove the resident serving path bit-exact.
    pub fn full_job(&self, input: &[u8]) -> ExecJob {
        let mut program = Vec::with_capacity(self.setup.len() + input.len() + self.body.len());
        program.extend_from_slice(&self.setup);
        program.extend_from_slice(input);
        program.extend_from_slice(&self.body);
        ExecJob {
            name: self.name.clone(),
            tile: self.tile.clone(),
            program,
            data: self.data.clone(),
            readbacks: self.readbacks.clone(),
        }
    }
}

/// The result of executing one [`ExecJob`]: its output cells plus basic
/// run statistics.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecRun {
    /// The job's outputs, in readback order.
    pub outputs: Vec<ExecOutput>,
    /// Instructions executed (including the halting instruction).
    pub instructions: u64,
    /// Analog instructions among them.
    pub analog_instructions: u64,
}

/// How a noisy run's outputs are scored against the golden ones: a
/// property of the work item, declared by its [`Executable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorMetric {
    /// XOR popcount over total output bits (byte cells, as AES reads back).
    BitError,
    /// Mean `|got − gold|` (reduction counts).
    Absolute,
    /// Mean `|got − gold| / max(1, |gold|)` (GEMM, conv).
    Relative,
}

/// The functional side of a workload: anything that can lower one work
/// item to an [`ExecJob`], state its golden (software-reference) outputs
/// and say how a noisy run's outputs are scored against them.
///
/// This is the execution counterpart of [`Workload`]: a scenario that
/// implements both can be *priced* (op-stream accumulators) and
/// *executed* (bit-accurate simulation) from the same registry entry,
/// which is exactly what the `darth_sim` differential harness does.
pub trait Executable: Send + Sync {
    /// Stable identifier, unique within a differential registry.
    fn exec_name(&self) -> String;

    /// Lowers the work item to an encoded program + data + readbacks.
    ///
    /// # Errors
    ///
    /// Returns mapping errors when the item does not fit the tile.
    fn job(&self) -> crate::Result<ExecJob>;

    /// The golden software-reference outputs, in the same order and
    /// shape as the job's readbacks.
    ///
    /// # Errors
    ///
    /// Returns reference-model errors.
    fn golden(&self) -> crate::Result<Vec<ExecOutput>>;

    /// How the Monte-Carlo engine scores a noisy run's outputs against
    /// [`Executable::golden`].
    fn error_metric(&self) -> ErrorMetric;
}

/// An execution backend: the functional counterpart of [`ArchModel`].
///
/// Where an [`ArchModel`] folds an op stream into latency/energy, an
/// `Executor` actually *runs* an encoded instruction stream over
/// bit-accurate machine state and returns the computed cells. The
/// `darth_sim` crate provides the reference implementation
/// (`SimExecutor`); the differential harness compares any executor's
/// outputs against [`Executable::golden`] cell by cell.
pub trait Executor: Send + Sync {
    /// Stable identifier (`"darth-sim"`).
    fn name(&self) -> String;

    /// Human-readable label. Defaults to [`Executor::name`].
    fn label(&self) -> String {
        self.name()
    }

    /// Executes one job to completion and reads its outputs.
    ///
    /// # Errors
    ///
    /// Returns decode or machine execution errors.
    fn execute(&self, job: &ExecJob) -> crate::Result<ExecRun>;
}

/// Fans one emitted op stream into many cost accumulators at once, so a
/// single pass over a workload prices it on every architecture without
/// the stream ever being stored.
pub struct Fanout<'m> {
    accumulators: Vec<Box<dyn CostAccumulator + 'm>>,
}

impl<'m> Fanout<'m> {
    /// A fanout over fresh accumulators from `models`, in order.
    pub fn new(models: impl IntoIterator<Item = &'m dyn ArchModel>) -> Self {
        Fanout {
            accumulators: models.into_iter().map(ArchModel::accumulator).collect(),
        }
    }

    /// Finalizes every accumulator, in model order.
    pub fn finish(mut self) -> Vec<CostReport> {
        self.accumulators
            .iter_mut()
            .map(|acc| acc.finish())
            .collect()
    }
}

impl TraceSink for Fanout<'_> {
    fn begin_trace(&mut self, meta: &crate::trace::TraceMeta) {
        for acc in &mut self.accumulators {
            acc.begin_trace(meta);
        }
    }

    fn begin_kernel(&mut self, name: &str) {
        for acc in &mut self.accumulators {
            acc.begin_kernel(name);
        }
    }

    fn op_run(&mut self, op: &crate::trace::KernelOp, repeat: u64) {
        for acc in &mut self.accumulators {
            acc.op_run(op, repeat);
        }
    }
}

/// Prices one workload on every model in a single streaming pass —
/// one emission, `models.len()` reports, no materialized trace.
pub fn price_on_all<'m>(
    workload: &dyn Workload,
    models: impl IntoIterator<Item = &'m dyn ArchModel>,
) -> Vec<CostReport> {
    let mut fanout = Fanout::new(models);
    workload.emit(&mut fanout);
    fanout.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{KernelOp, OpRun, TraceMeta};

    struct OneMove;

    impl Workload for OneMove {
        fn name(&self) -> String {
            "one-move".into()
        }
        fn emit(&self, sink: &mut dyn TraceSink) {
            sink.begin_trace(&TraceMeta::new(self.name()));
            sink.begin_kernel("mv");
            sink.op(&KernelOp::HostMove { bytes: 64 });
        }
    }

    struct FreeLunch;

    #[derive(Default)]
    struct FreeLunchAccumulator {
        workload: String,
    }

    impl TraceSink for FreeLunchAccumulator {
        fn begin_trace(&mut self, meta: &TraceMeta) {
            self.workload = meta.name.clone();
        }
        fn begin_kernel(&mut self, _name: &str) {}
        fn op_run(&mut self, _op: &KernelOp, _repeat: u64) {}
    }

    impl CostAccumulator for FreeLunchAccumulator {
        fn finish(&mut self) -> CostReport {
            CostReport {
                architecture: "free-lunch".into(),
                workload: std::mem::take(&mut self.workload),
                latency_s: 1.0,
                throughput_items_per_s: 1.0,
                energy_per_item_j: 1.0,
                kernel_latency_s: vec![],
            }
        }
    }

    impl ArchModel for FreeLunch {
        fn name(&self) -> String {
            "free-lunch".into()
        }
        fn accumulator(&self) -> Box<dyn CostAccumulator + '_> {
            Box::new(FreeLunchAccumulator::default())
        }
    }

    #[test]
    fn traits_are_object_safe() {
        let w: Box<dyn Workload> = Box::new(OneMove);
        let m: Box<dyn ArchModel> = Box::new(FreeLunch);
        assert_eq!(w.label(), "one-move");
        assert!(w.params().is_empty());
        let report = m.price(&*w);
        assert_eq!(report.workload, "one-move");
        assert_eq!(m.label(), "free-lunch");
    }

    #[test]
    fn streamed_and_recorded_pricing_agree() {
        let summary = TraceSummary::record(|r| OneMove.emit(r));
        assert_eq!(summary.name(), "one-move");
        assert_eq!(summary.kernels.len(), 1);
        assert_eq!(
            summary.kernels[0].runs,
            vec![OpRun {
                op: KernelOp::HostMove { bytes: 64 },
                repeat: 1
            }]
        );
        let model = FreeLunch;
        let recorded = model.price(&summary);
        let mut acc = model.accumulator();
        OneMove.emit(&mut *acc);
        let streamed = acc.finish();
        assert_eq!(recorded, streamed);
        assert_eq!(model.price(&OneMove), streamed);
    }

    #[test]
    fn exec_job_round_trips_through_the_encode_layer() {
        use darth_isa::instruction::{Instruction, PipelineId, Vr};
        let program: darth_isa::instruction::Program = [
            Instruction::WriteImm {
                pipe: PipelineId(0),
                vr: Vr(0),
                element: 0,
                value: 7,
            },
            Instruction::Halt,
        ]
        .into_iter()
        .collect();
        let job = ExecJob {
            name: "tiny".into(),
            tile: HctConfig::small_test(),
            program: darth_isa::encode::encode_program(&program),
            data: SideChannel::new(),
            readbacks: vec![Readback {
                label: "out".into(),
                pipe: 0,
                vr: 0,
                elements: 1,
                signed: false,
            }],
        };
        assert_eq!(job.instruction_count(), 2);
        assert_eq!(job.decoded_program().expect("decodes"), program);
    }

    #[test]
    fn signatures_are_stable_and_shape_sensitive() {
        use darth_isa::instruction::{Instruction, PipelineId, Vr};
        let program: darth_isa::instruction::Program = [
            Instruction::WriteImm {
                pipe: PipelineId(0),
                vr: Vr(0),
                element: 0,
                value: 7,
            },
            Instruction::Halt,
        ]
        .into_iter()
        .collect();
        let job = ExecJob {
            name: "tiny".into(),
            tile: HctConfig::small_test(),
            program: darth_isa::encode::encode_program(&program),
            data: SideChannel::new(),
            readbacks: vec![],
        };
        // Deterministic and name-independent…
        assert_eq!(job.signature(), job.signature());
        let mut renamed = job.clone();
        renamed.name = "request-194838".into();
        assert_eq!(job.signature(), renamed.signature());
        // …but sensitive to the program bytes, the tile and the data.
        let mut other_program = job.clone();
        other_program.program[8] ^= 1;
        assert_ne!(job.signature(), other_program.signature());
        let mut other_tile = job.clone();
        other_tile.tile.seed ^= 1;
        assert_ne!(job.signature(), other_tile.signature());
        let mut other_data = job.clone();
        other_data
            .data
            .stage_matrix(vec![vec![1, 2], vec![3, 4]])
            .expect("stages");
        assert_ne!(job.signature(), other_data.signature());
    }

    #[test]
    fn split_jobs_reassemble_and_sign_consistently() {
        use darth_isa::encode::encode_program;
        use darth_isa::instruction::{Instruction, PipelineId, Program, Vr};
        let wimm = |value: u64| -> Program {
            [Instruction::WriteImm {
                pipe: PipelineId(0),
                vr: Vr(0),
                element: 0,
                value,
            }]
            .into_iter()
            .collect()
        };
        let body: Program = [Instruction::Halt].into_iter().collect();
        let split = SplitJob {
            name: "split".into(),
            tile: HctConfig::small_test(),
            setup: encode_program(&wimm(1)),
            body: encode_program(&body),
            data: SideChannel::new(),
            readbacks: vec![],
        };
        let input = encode_program(&wimm(9));
        let full = split.full_job(&input);
        // Concatenation is a valid encoded program: setup ‖ input ‖ body.
        assert_eq!(full.instruction_count(), 3);
        let decoded = full.decoded_program().expect("decodes");
        assert_eq!(decoded.iter().count(), 3);
        // The split signature ignores the per-request input…
        let other_input = encode_program(&wimm(42));
        assert_eq!(split.signature(), split.signature());
        assert_ne!(
            split.full_job(&input).signature(),
            split.full_job(&other_input).signature()
        );
        // …and the section lengths are domain-separated: moving bytes
        // between setup and body changes the signature.
        let mut shifted = split.clone();
        shifted.body = [split.setup.clone(), split.body.clone()].concat();
        shifted.setup = Vec::new();
        assert_ne!(split.signature(), shifted.signature());
    }

    #[test]
    fn exec_job_rejects_malformed_records() {
        let job = ExecJob {
            name: "bad".into(),
            tile: HctConfig::small_test(),
            program: vec![0xFF; darth_isa::encode::RECORD_SIZE],
            data: SideChannel::new(),
            readbacks: vec![],
        };
        assert!(job.decoded_program().is_err());
    }

    #[test]
    fn executor_trait_is_object_safe() {
        struct NullExecutor;
        impl Executor for NullExecutor {
            fn name(&self) -> String {
                "null".into()
            }
            fn execute(&self, _job: &ExecJob) -> crate::Result<ExecRun> {
                Ok(ExecRun {
                    outputs: vec![],
                    instructions: 0,
                    analog_instructions: 0,
                })
            }
        }
        let e: Box<dyn Executor> = Box::new(NullExecutor);
        assert_eq!(e.label(), "null");
    }

    #[test]
    fn fanout_prices_one_stream_on_many_models() {
        let a = FreeLunch;
        let b = FreeLunch;
        let models: Vec<&dyn ArchModel> = vec![&a, &b];
        let reports = price_on_all(&OneMove, models);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0].workload, "one-move");
    }
}

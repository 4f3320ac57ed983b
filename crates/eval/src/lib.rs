//! The DARTH-PUM evaluation engine: pluggable workloads × architecture
//! models, priced as op streams in parallel.
//!
//! The paper's evaluation (Figures 13–18) is a cross product: every
//! workload priced on every architecture. This crate makes that matrix
//! *open*, *fast*, and *O(1)-memory per cell*:
//!
//! * [`engine::Engine`] holds registries of `Box<dyn Workload>` and
//!   `Box<dyn ArchModel>` (the traits live in [`darth_pum::eval`]),
//!   memoizes each workload's emission as a compressed run-length
//!   [`darth_pum::trace::TraceSummary`], and prices the full matrix
//!   ([`engine::Engine::run`]) by replaying each summary once into a
//!   fan-out over every model's streaming accumulator, with scoped
//!   workers over disjoint output slices
//!   ([`darth_pum::workers::scoped_map`]) — runs are bit-identical at any
//!   worker count, and no trace is ever materialized.
//! * [`engine::EvalMatrix`] is the structured result: addressable cells,
//!   ratio/geomean helpers for the figure summaries, and a JSON report
//!   ([`engine::EvalMatrix::to_json`]) so every run can drop a
//!   machine-readable `BENCH_*.json`.
//! * [`registry`] provides the standard registries — the paper's three
//!   workloads and five architecture columns, the extended scenario
//!   sweeps (AES key sizes, ResNet depths, encoder shapes, GEMM sizes),
//!   and the `eval-large` bulk scenarios
//!   ([`registry::large_workloads`]: ≥1M-block AES, seq-4096 and
//!   GPT-2-XL encoders, ResNet-110) — plus the two paper-policy wrappers
//!   ([`registry::PaperDarthModel`], [`registry::PaperAppAccel`]).
//! * [`dse`] is the design-space exploration layer: [`dse::ConfigSweep`]
//!   grids over `darth_pum::config::DarthConfig` (named axes: ADC kind ×
//!   resolution, crossbar geometry, slicing, array count, clock, plus
//!   custom axes), priced into a [`dse::SweepMatrix`] with
//!   Pareto-frontier extraction and best-config tables — one `Fanout`
//!   replay pass per workload prices every design point
//!   ([`engine::Engine::run`]).
//! * [`json`] is the tiny offline JSON writer behind the reports
//!   (borrowing: `JsonValue<'a>` keys and names are `Cow`s, so report
//!   trees reference the matrix instead of cloning it).
//!
//! # Example: price a custom streaming workload on the paper's
//! architectures
//!
//! ```
//! use darth_eval::{Engine, registry};
//! use darth_pum::eval::Workload;
//! use darth_pum::trace::{KernelOp, TraceMeta, TraceSink};
//!
//! /// A gigabyte-scale on-chip copy, streamed in 4 KiB chunks — note
//! /// there is no `Vec` of ops anywhere, just run-length op events.
//! struct MemCopy;
//!
//! impl Workload for MemCopy {
//!     fn name(&self) -> String {
//!         "memcopy-1g".into()
//!     }
//!     fn emit(&self, sink: &mut dyn TraceSink) {
//!         sink.begin_trace(&TraceMeta::new(self.name()));
//!         sink.begin_kernel("copy");
//!         sink.op_run(&KernelOp::OnChipMove { bytes: 4096 }, 1 << 18);
//!     }
//! }
//!
//! let mut engine = Engine::new();
//! engine.register_workload(Box::new(MemCopy));
//! for model in registry::all_models() {
//!     engine.register_model(model);
//! }
//! let matrix = engine.run();
//! let cell = matrix.cell("memcopy-1g", "darth-sar").expect("priced");
//! assert!(cell.latency_s > 0.0);
//! ```

pub mod dse;
pub mod engine;
pub mod json;
pub mod mc;
pub mod registry;

pub use dse::{frontier_fleet, ConfigSweep, DesignPoint, FleetPoint, SweepAxis, SweepMatrix};
pub use engine::{Engine, EvalMatrix, ModelSummary, Threading, WorkloadSummary};
pub use json::JsonValue;
pub use mc::{attach_accuracy, measure_accuracy, McConfig, PointAccuracy, WorkloadAccuracy};
pub use registry::{PaperAppAccel, PaperDarthModel};

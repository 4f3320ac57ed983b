//! `darth_sim`: the functional DARTH-PUM ISA simulator and its
//! golden-model differential harness.
//!
//! The evaluation stack built in earlier layers *prices* DARTH-PUM
//! programs analytically (`darth_pum::eval::ArchModel` accumulators, the
//! `darth_eval` engine) but never executes them. This crate is the
//! second backend: it **runs** encoded [`darth_isa`] instruction streams
//! over bit-accurate machine state — decode, IIU-assisted dispatch,
//! ACE/DCE array ops, shift/transpose/arbiter data movement — and proves
//! the results correct against golden software references.
//!
//! * [`machine::Machine`] — the simulator: encoded bytes in, output
//!   cells out, with per-mnemonic execution histograms and energy/cycle
//!   accounting. [`machine::SimMachine`] runs it over cell-accurate
//!   pipelines and [`machine::FastMachine`] over packed ones.
//!   [`machine::MachineExecutor`] is the one
//!   [`darth_pum::eval::Executor`] over a machine:
//!   [`machine::SimExecutor`] (the reference backend) and
//!   [`machine::FastExecutor`] are its two pipeline flavours. Every job
//!   they run, and every request a resident program serves, goes
//!   through one machine call.
//! * [`diff`] — the differential harness: a registry of
//!   [`darth_pum::eval::Executable`] jobs (each paired with the priced
//!   [`darth_pum::eval::Workload`] twin the analytical models already
//!   consume), compared **cell by cell** against golden references. The
//!   standard registry covers AES-128/192/256 on FIPS-197 vectors, a
//!   deterministic integer GEMM, and a convolution layer.
//!   [`DiffHarness::verify_pair`] runs the registry through *two*
//!   executors and demands bit-identical outputs **and** identical
//!   statistics; [`diff::bulk_aes_cases`] scales the registry to
//!   thousands of AES blocks.
//! * [`fast`] — the fast execution path: packed `u64` bit-planes
//!   ([`darth_digital::PackedPipeline`]) and batches sharded over the
//!   stack's one scoped fan-out ([`darth_pum::workers::scoped_map`]).
//!   Both executors run compiled programs
//!   ([`darth_pum::chip::CompiledProgram`]) through the chip's one
//!   instruction dispatch; [`machine::FastExecutor`] is proven bit-exact
//!   against [`machine::SimExecutor`] by the pair harness.
//! * [`cache`] — resident compiled programs for request serving:
//!   [`cache::ResidentProgram`] runs a split job's setup once onto a
//!   warmed prototype machine and precompiles its body, so serving a
//!   request costs one clone + a tiny input stub + one compiled run;
//!   [`cache::ProgramCache`] bounds the warm set with LRU eviction,
//!   keyed by [`darth_pum::eval::JobSignature`].
//!
//! # Example: FIPS-197 through the simulator
//!
//! ```
//! use darth_apps::aes::program::AesExec;
//! use darth_pum::eval::{Executable, Executor};
//! use darth_sim::SimExecutor;
//!
//! # fn main() -> Result<(), darth_pum::Error> {
//! // The Appendix B worked example, compiled to one ISA stream.
//! let case = AesExec::fips197_appendix_b();
//! let run = SimExecutor::new().execute(&case.job()?)?;
//! assert_eq!(run.outputs, case.golden()?);
//! assert_eq!(
//!     run.outputs[0].cells[..4],
//!     [0x39, 0x25, 0x84, 0x1d]
//! );
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod diff;
pub mod fast;
pub mod machine;

pub use cache::{CacheStats, ProgramCache, ResidentProgram};
pub use diff::{
    bulk_aes_cases, standard_cases, DiffCase, DiffHarness, DiffReport, PairCaseReport, PairReport,
};
pub use machine::{
    FastExecutor, FastMachine, MachineExecutor, PreparedJob, ServedRun, SimExecutor, SimMachine,
    SimStats, StatExecutor,
};

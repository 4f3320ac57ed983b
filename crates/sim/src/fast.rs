//! The fast execution path: packed bit-planes and sharded tiles.
//!
//! Two independent speedups compose here, both pinned to the reference
//! executor by the differential suite:
//!
//! 1. **Packed bit-planes** — [`FastMachine`] is the
//!    [`Machine`](crate::machine::Machine) over a
//!    [`darth_pum::chip::FastChip`], whose DCE pipelines store each
//!    bit-plane column as `u64` words
//!    ([`darth_digital::PackedPipeline`]), so a gate program evaluates 64
//!    cells per bitwise op instead of one. Instruction dispatch is the
//!    reference chip's own: both chips run compiled programs
//!    ([`darth_pum::chip::GenericChip::compile`]) through one `match`.
//! 2. **Sharded tiles** — [`FastExecutor::execute_batch`] spreads
//!    independent tile jobs across `std::thread::scope` workers over
//!    disjoint output slices (no locks, no shared mutable state), reusing
//!    the eval engine's worker convention: an explicit
//!    [`FastExecutor::with_workers`] override, else `DARTH_EVAL_THREADS`
//!    ([`darth_pum::workers::forced_workers`]), else one worker per
//!    available core. Results are bit-identical at any worker count.

use crate::machine::{FastMachine, SimStats, StatExecutor};
use darth_digital::PackedPipeline;
use darth_pum::chip::CompiledProgram;
use darth_pum::eval::{ExecJob, ExecRun, Executor};
use darth_pum::hct::HctConfig;
use darth_pum::workers::forced_workers;
use std::thread;

/// An [`ExecJob`] decoded, precompiled **and** tile-constructed exactly
/// once by [`FastExecutor::prepare`]; reusable across runs.
///
/// Besides the compiled program, the handle carries a never-run
/// prototype [`FastMachine`] for the job's tile config:
/// [`FastExecutor::run_prepared`] clones it instead of rebuilding the
/// tile per call, the same trick the batch path's per-worker prototype
/// cache uses ([`FastMachine::constructions`] pins it).
#[derive(Debug)]
pub struct PreparedFastJob<'j> {
    job: &'j ExecJob,
    compiled: CompiledProgram<PackedPipeline>,
    prototype: FastMachine,
}

impl PreparedFastJob<'_> {
    /// The compiled program.
    pub fn compiled(&self) -> &CompiledProgram<PackedPipeline> {
        &self.compiled
    }

    /// The never-run prototype machine runs are cloned from.
    pub fn prototype(&self) -> &FastMachine {
        &self.prototype
    }
}

/// The fast-path [`Executor`]: packed pipelines and batch sharding —
/// bit-identical to [`crate::SimExecutor`] (the differential suite
/// enforces it).
#[derive(Debug, Clone, Default)]
pub struct FastExecutor {
    workers: Option<usize>,
}

impl FastExecutor {
    /// An executor using the default worker selection
    /// (`DARTH_EVAL_THREADS`, else available parallelism).
    pub fn new() -> Self {
        FastExecutor::default()
    }

    /// Forces a fixed worker count for [`FastExecutor::execute_batch`],
    /// overriding the environment (determinism tests pin {1, 2, …} this
    /// way without racing on the process environment).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// The worker count a batch of `jobs` runs on: the explicit override,
    /// else `DARTH_EVAL_THREADS`, else one per available core — never
    /// more than there are jobs.
    fn worker_count(&self, jobs: usize) -> usize {
        self.workers
            .or_else(|| forced_workers("DARTH_EVAL_THREADS"))
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, usize::from))
            .max(1)
            .min(jobs.max(1))
    }

    /// Decodes and compiles `job`'s instruction stream — the compile-only
    /// half of [`FastExecutor::prepare`], shared with the batch path so
    /// batch jobs never build a per-job prototype machine.
    ///
    /// # Errors
    ///
    /// Returns decode errors for malformed records.
    fn compile_job(job: &ExecJob) -> darth_pum::Result<CompiledProgram<PackedPipeline>> {
        Ok(FastMachine::compile(&job.decoded_program()?))
    }

    /// Decodes, compiles and tile-constructs `job` once into a
    /// reusable handle; repeated [`FastExecutor::run_prepared`] calls
    /// clone the handle's prototype machine instead of rebuilding the
    /// tile.
    ///
    /// # Errors
    ///
    /// Returns decode errors for malformed records and tile construction
    /// errors.
    pub fn prepare<'j>(&self, job: &'j ExecJob) -> darth_pum::Result<PreparedFastJob<'j>> {
        Ok(PreparedFastJob {
            job,
            compiled: Self::compile_job(job)?,
            prototype: FastMachine::new(job.tile.clone())?,
        })
    }

    /// Runs a prepared job on a machine cloned from the handle's
    /// prototype — no re-decode, no re-compile, no tile re-construction —
    /// returning outputs and the run's statistics. A clone of a never-run
    /// machine is identical to a newly built one, so results match a
    /// fresh-machine run bit for bit.
    ///
    /// # Errors
    ///
    /// Returns the first execution or readback error.
    pub fn run_prepared(
        &self,
        prepared: &PreparedFastJob<'_>,
    ) -> darth_pum::Result<(ExecRun, SimStats)> {
        prepared
            .prototype
            .clone()
            .run_job(&prepared.compiled, prepared.job)
    }

    fn run_one(&self, job: &ExecJob) -> darth_pum::Result<(ExecRun, SimStats)> {
        let prepared = self.prepare(job)?;
        self.run_prepared(&prepared)
    }

    /// [`FastExecutor::run_one`] with a per-worker prototype machine:
    /// when consecutive jobs share a tile config (the bulk-sweep common
    /// case), the fresh machine is cloned from the prototype instead of
    /// rebuilt, skipping tile construction. A clone of a never-run
    /// machine is identical to a newly built one, so results don't
    /// change.
    fn run_one_cached(
        &self,
        job: &ExecJob,
        proto: &mut Option<(HctConfig, FastMachine)>,
    ) -> darth_pum::Result<(ExecRun, SimStats)> {
        let compiled = Self::compile_job(job)?;
        if !proto.as_ref().is_some_and(|(cfg, _)| *cfg == job.tile) {
            *proto = Some((job.tile.clone(), FastMachine::new(job.tile.clone())?));
        }
        let mut machine = proto.as_ref().expect("prototype was just set").1.clone();
        machine.run_job(&compiled, job)
    }

    /// Executes a batch of independent tile jobs, sharded across
    /// `std::thread::scope` workers over disjoint output chunks. Every
    /// job gets its own fresh machine, so there is no shared mutable
    /// state and results (outputs *and* statistics) are byte-identical
    /// at any worker count. Results come back in job order.
    ///
    /// # Errors
    ///
    /// Returns the first failing job's error, in job order.
    pub fn execute_batch_with_stats(
        &self,
        jobs: &[ExecJob],
    ) -> darth_pum::Result<Vec<(ExecRun, SimStats)>> {
        let workers = self.worker_count(jobs.len());
        let mut results: Vec<Option<darth_pum::Result<(ExecRun, SimStats)>>> =
            jobs.iter().map(|_| None).collect();
        let chunk = jobs.len().div_ceil(workers).max(1);
        thread::scope(|scope| {
            for (job_chunk, out_chunk) in jobs.chunks(chunk).zip(results.chunks_mut(chunk)) {
                scope.spawn(move || {
                    let mut proto = None;
                    for (slot, job) in out_chunk.iter_mut().zip(job_chunk) {
                        *slot = Some(self.run_one_cached(job, &mut proto));
                    }
                });
            }
        });
        results
            .into_iter()
            .map(|slot| slot.expect("every job chunk was executed"))
            .collect()
    }

    /// [`FastExecutor::execute_batch_with_stats`] without the statistics.
    ///
    /// # Errors
    ///
    /// As [`FastExecutor::execute_batch_with_stats`].
    pub fn execute_batch(&self, jobs: &[ExecJob]) -> darth_pum::Result<Vec<ExecRun>> {
        Ok(self
            .execute_batch_with_stats(jobs)?
            .into_iter()
            .map(|(run, _)| run)
            .collect())
    }
}

impl Executor for FastExecutor {
    fn name(&self) -> String {
        "darth-sim-fast".into()
    }

    fn label(&self) -> String {
        "DARTH-PUM fast-path simulator (packed bit-planes)".into()
    }

    fn execute(&self, job: &ExecJob) -> darth_pum::Result<ExecRun> {
        self.run_one(job).map(|(run, _)| run)
    }
}

impl StatExecutor for FastExecutor {
    fn execute_with_stats(&self, job: &ExecJob) -> darth_pum::Result<(ExecRun, SimStats)> {
        self.run_one(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::SimExecutor;
    use darth_isa::asm::assemble;
    use darth_isa::encode::encode_program;
    use darth_pum::chip::SideChannel;
    use darth_pum::eval::Readback;

    fn digital_job(value: u64) -> ExecJob {
        let program = assemble(&format!(
            "wimm p0 v0 0 {value}\n\
             wimm p0 v1 0 17\n\
             add p0 v2 v0 v1\n\
             xor p0 v3 v0 v1\n\
             halt\n"
        ))
        .expect("parses");
        ExecJob {
            name: format!("digital-{value}"),
            tile: HctConfig::small_test(),
            program: encode_program(&program),
            data: SideChannel::new(),
            readbacks: vec![
                Readback {
                    label: "sum".into(),
                    pipe: 0,
                    vr: 2,
                    elements: 1,
                    signed: false,
                },
                Readback {
                    label: "xor".into(),
                    pipe: 0,
                    vr: 3,
                    elements: 1,
                    signed: false,
                },
            ],
        }
    }

    #[test]
    fn fast_executor_matches_reference_outputs_and_stats() {
        let job = digital_job(25);
        let (ref_run, ref_stats) = SimExecutor::new()
            .execute_with_stats(&job)
            .expect("reference runs");
        let (fast_run, fast_stats) = FastExecutor::new()
            .execute_with_stats(&job)
            .expect("fast runs");
        assert_eq!(ref_run, fast_run);
        assert_eq!(ref_stats, fast_stats);
        assert_eq!(fast_run.outputs[0].cells, vec![42]);
        assert_eq!(fast_run.outputs[1].cells, vec![25 ^ 17]);
    }

    #[test]
    fn prepared_fast_jobs_rerun_identically() {
        let job = digital_job(9);
        let executor = FastExecutor::new();
        let prepared = executor.prepare(&job).expect("compiles");
        let (first_run, first_stats) = executor.run_prepared(&prepared).expect("runs");
        let (second_run, second_stats) = executor.run_prepared(&prepared).expect("runs");
        assert_eq!(first_run, second_run);
        assert_eq!(first_stats, second_stats);
    }

    #[test]
    fn batch_results_preserve_job_order() {
        let jobs: Vec<ExecJob> = (0..5).map(|i| digital_job(i + 1)).collect();
        let runs = FastExecutor::new()
            .with_workers(2)
            .execute_batch(&jobs)
            .expect("runs");
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.outputs[0].cells, vec![i as i64 + 1 + 17], "job {i}");
        }
    }

    #[test]
    fn batch_surfaces_the_first_error() {
        let mut bad = digital_job(1);
        bad.program = vec![0xEE; 16];
        let jobs = vec![digital_job(2), bad];
        let err = FastExecutor::new()
            .with_workers(2)
            .execute_batch(&jobs)
            .unwrap_err();
        assert!(matches!(err, darth_pum::Error::Isa(_)));
    }
}

//! The fast execution path: packed bit-planes and sharded batches.
//!
//! Two independent speedups compose here, both pinned to the reference
//! executor by the differential suite:
//!
//! 1. **Packed bit-planes** — [`FastMachine`] is the [`Machine`] over a
//!    [`darth_pum::chip::FastChip`], whose DCE pipelines store each
//!    bit-plane column as `u64` words
//!    ([`darth_digital::PackedPipeline`]), so a gate program evaluates 64
//!    cells per bitwise op instead of one. Instruction dispatch is the
//!    reference chip's own: both chips run compiled programs
//!    ([`darth_pum::chip::GenericChip::compile`]) through one `match`,
//!    and [`FastExecutor`] is the one executor
//!    ([`MachineExecutor`]) over the packed machine.
//! 2. **Sharded batches** — [`MachineExecutor::execute_batch_with_stats`]
//!    spreads independent tile jobs over the stack's one scoped fan-out
//!    ([`darth_pum::workers::scoped_map`]) with the one worker rule
//!    ([`darth_pum::workers::worker_count`]): an explicit
//!    [`MachineExecutor::with_workers`] override, else
//!    `DARTH_EVAL_THREADS`, else one worker per available core — the
//!    same rule the eval, Monte-Carlo and serving engines use. Results
//!    are bit-identical at any worker count.
//!
//! [`FastMachine`]: crate::machine::FastMachine
//! [`FastExecutor`]: crate::machine::FastExecutor

use crate::machine::{run_on, Machine, MachineExecutor, SimStats};
use darth_digital::DcePipeline;
use darth_pum::eval::{ExecJob, ExecRun};
use darth_pum::hct::HctConfig;
use darth_pum::workers::{scoped_map, worker_count};

impl<P: DcePipeline> MachineExecutor<P> {
    /// Executes a batch of independent tile jobs, sharded across scoped
    /// workers over disjoint output chunks. Every job gets its own
    /// machine, so there is no shared mutable state and results (outputs
    /// *and* statistics) are byte-identical at any worker count. Each
    /// worker keeps a prototype machine for the tile config it last saw:
    /// consecutive jobs on one config (the bulk-sweep common case) clone
    /// it instead of rebuilding the tile. Results come back in job order.
    ///
    /// # Errors
    ///
    /// Returns the first failing job's error, in job order.
    pub fn execute_batch_with_stats(
        &self,
        jobs: &[ExecJob],
    ) -> darth_pum::Result<Vec<(ExecRun, SimStats)>> {
        let workers = worker_count(self.workers, jobs.len());
        scoped_map(
            jobs,
            workers,
            || None::<(HctConfig, Machine<P>)>,
            |proto, job| {
                let compiled = self.compile(job)?;
                if !proto.as_ref().is_some_and(|(tile, _)| *tile == job.tile) {
                    *proto = Some((job.tile.clone(), Machine::new(job.tile.clone())?));
                }
                let (_, prototype) = proto.as_ref().expect("prototype was just set");
                run_on(prototype, &compiled, job)
            },
        )
        .into_iter()
        .collect()
    }

    /// [`MachineExecutor::execute_batch_with_stats`] without the
    /// statistics.
    ///
    /// # Errors
    ///
    /// As [`MachineExecutor::execute_batch_with_stats`].
    pub fn execute_batch(&self, jobs: &[ExecJob]) -> darth_pum::Result<Vec<ExecRun>> {
        Ok(self
            .execute_batch_with_stats(jobs)?
            .into_iter()
            .map(|(run, _)| run)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{FastExecutor, SimExecutor, StatExecutor};
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
        assert_eq!(first_run.outputs[0].cells, vec![9 + 17]);
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

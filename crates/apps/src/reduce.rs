//! A PrIM-style vector reduction compiled through the kernel-IR
//! compiler.
//!
//! Reduction is the canonical bandwidth-bound PIM primitive (PrIM's
//! `RED` kernel): every element is touched once and the arithmetic is a
//! single running sum. On DARTH-PUM the whole reduction is one analog
//! MVM against an all-ones column vector — the crossbar's current
//! summing does the addition for free — followed by one DCE `copy` to
//! park the scalar for readback. The module carries both halves of the
//! usual pairing: [`ReduceExec`], a concrete compiled job checked
//! against a software golden sum, and [`ReduceWorkload`], its
//! analytically priced twin for the evaluation matrix.

use darth_kir::{CompiledKernel, KernelIr, KirBuilder};
use darth_pum::eval::{ErrorMetric, ExecJob, ExecOutput, Executable, SplitJob, Workload};
use darth_pum::hct::HctConfig;
use darth_pum::trace::{KernelOp, TraceMeta, TraceSink};

/// Pipeline roles of the compiled reduction job.
const P_RED_IN: u16 = 0;
const P_RED_LAND: u16 = 1;
const RED_DEPTH: usize = 16;

/// The analytically priced reduction scenario: sum `n` 8-bit values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReduceWorkload {
    /// Elements reduced.
    pub n: u64,
}

impl ReduceWorkload {
    /// A size sweep at PrIM-benchmark scales.
    pub fn sweep() -> Vec<ReduceWorkload> {
        [1 << 8, 1 << 12, 1 << 16]
            .into_iter()
            .map(|n| ReduceWorkload { n })
            .collect()
    }
}

impl Workload for ReduceWorkload {
    fn name(&self) -> String {
        format!("reduce-{}", self.n)
    }

    fn label(&self) -> String {
        format!("Reduce {}", self.n)
    }

    fn params(&self) -> Vec<(String, String)> {
        vec![("n".into(), self.n.to_string())]
    }

    fn emit(&self, sink: &mut dyn TraceSink) {
        sink.begin_trace(
            // A reduction occupies one input pipeline and one landing
            // pipeline; independent reductions tile freely.
            &TraceMeta::new(Workload::name(self))
                .with_pipelines_per_item(2)
                .with_parallel_items(1 << 20),
        );
        sink.begin_kernel("Reduce");
        sink.op(&KernelOp::Mvm {
            rows: self.n,
            cols: 1,
            input_bits: 8,
            weight_bits: 2,
            batch: 1,
        });
    }
}

/// A concrete integer reduction compiled to an ISA job: deterministic
/// 8-bit values summed by one analog MVM against an all-ones column —
/// the differential twin of [`ReduceWorkload`]'s analytical pricing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReduceExec {
    /// Elements reduced (at most one array, 64).
    pub n: usize,
    /// Data-synthesis seed.
    pub seed: u64,
}

impl ReduceExec {
    /// The standard differential case: a 48-element reduction.
    pub fn standard() -> Self {
        ReduceExec { n: 48, seed: 7 }
    }

    /// The priced twin of this job.
    pub fn workload(&self) -> ReduceWorkload {
        ReduceWorkload { n: self.n as u64 }
    }

    /// Deterministic input values (small signed range; the sum of 64
    /// such values stays well inside the 16-bit field).
    pub fn values(&self) -> Vec<i64> {
        self.synth_values(self.seed)
    }

    /// Deterministic per-request values.
    pub fn synth_values(&self, request_seed: u64) -> Vec<i64> {
        let s = request_seed as i64;
        (0..self.n).map(|i| ((i as i64 * 7 + s) % 17) - 8).collect()
    }

    /// The tile geometry the compiled program targets.
    pub fn tile_config() -> HctConfig {
        HctConfig {
            functional_pipelines: 2,
            functional_depth: RED_DEPTH,
            functional_elements: 64,
            functional_vrs: 40,
            functional_ace_arrays: 2,
            ..HctConfig::small_test()
        }
    }

    fn validate(&self) -> darth_pum::Result<()> {
        if self.n == 0 || self.n > 64 {
            return Err(darth_pum::Error::Shape(format!(
                "reduce length {} must be in 1..=64 (one array)",
                self.n
            )));
        }
        Ok(())
    }

    /// Builds the reduction as a kernel IR: an `n×1` all-ones vACore,
    /// the values as input slot `values`, one MVM, and a `copy` parking
    /// the sum for readback.
    pub fn build_ir(&self) -> KernelIr {
        let mut b = KirBuilder::new(self.exec_name(), ReduceExec::tile_config());
        let ones = b.vacore(vec![vec![1]; self.n], 2, 2, 8, true);
        let values = b.input(P_RED_IN, "values", true, &self.values());
        let sum = b.slot(P_RED_LAND, "sum");
        let acc = b.mvm(ones, values, P_RED_LAND);
        b.mov(sum, acc);
        b.readback("sum", sum, 1, true);
        b.finish()
    }

    /// Compiles the kernel through the `darth_kir` pipeline.
    ///
    /// # Errors
    ///
    /// Returns shape errors for oversized lengths and compiler
    /// diagnostics.
    pub fn compiled(&self) -> darth_pum::Result<CompiledKernel> {
        self.validate()?;
        Ok(self.build_ir().compile()?)
    }

    /// The split form for serving: resident all-ones matrix, per-request
    /// value loads, two-instruction body.
    ///
    /// # Errors
    ///
    /// Returns shape errors for oversized lengths and compiler
    /// diagnostics.
    pub fn split_job(&self) -> darth_pum::Result<SplitJob> {
        Ok(self.compiled()?.into_split_job())
    }

    /// The encoded per-request input section: the `n` values as `wimm`s
    /// into the parked input register. Halt-free.
    ///
    /// # Errors
    ///
    /// Returns shape errors on a length mismatch and range errors for
    /// values outside the 16-bit two's-complement field.
    pub fn input_program(&self, values: &[i64]) -> darth_pum::Result<Vec<u8>> {
        self.compiled()?
            .input_program(&[values.to_vec()])
            .map_err(darth_pum::Error::from)
    }

    /// Golden output for arbitrary values (shape-matched to the job's
    /// readback): the plain sum.
    pub fn golden_for(&self, values: &[i64]) -> Vec<ExecOutput> {
        vec![ExecOutput {
            label: "sum".into(),
            cells: vec![values.iter().sum()],
        }]
    }
}

impl Executable for ReduceExec {
    fn exec_name(&self) -> String {
        Workload::name(&self.workload())
    }

    fn job(&self) -> darth_pum::Result<ExecJob> {
        Ok(self.compiled()?.exec_job())
    }

    fn golden(&self) -> darth_pum::Result<Vec<ExecOutput>> {
        Ok(self.golden_for(&self.values()))
    }

    fn error_metric(&self) -> ErrorMetric {
        ErrorMetric::Absolute
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::execute_job;

    #[test]
    fn compiled_reduce_matches_the_software_sum() {
        let exec = ReduceExec::standard();
        let job = exec.job().expect("compiles");
        let golden = exec.golden().expect("golden");
        assert_eq!(execute_job(&job), golden);
        // The synthesized case exercises a nontrivial (nonzero) sum.
        assert_ne!(golden[0].cells[0], 0);
    }

    #[test]
    fn split_reduce_serves_arbitrary_values_bit_exact() {
        let exec = ReduceExec::standard();
        let split = exec.split_job().expect("splits");
        split.check_invariants().expect("invariants hold");
        for request_seed in [0u64, 5, 31] {
            let values = exec.synth_values(request_seed);
            let stub = exec.input_program(&values).expect("encodes");
            let full = split.full_job(&stub);
            assert_eq!(
                execute_job(&full),
                exec.golden_for(&values),
                "seed {request_seed}"
            );
        }
        // Length mismatches are rejected at encode time.
        assert!(exec.input_program(&[1, 2, 3]).is_err());
    }

    #[test]
    fn reduce_exec_pairs_with_its_priced_workload() {
        let exec = ReduceExec::standard();
        assert_eq!(exec.exec_name(), "reduce-48");
        let workload = exec.workload();
        let summary = darth_pum::TraceSummary::record(|r| workload.emit(r));
        assert_eq!(summary.macs(), 48);
    }

    #[test]
    fn oversized_reduce_exec_is_rejected() {
        assert!(ReduceExec { n: 65, seed: 0 }.job().is_err());
        assert!(ReduceExec { n: 0, seed: 0 }.job().is_err());
    }
}

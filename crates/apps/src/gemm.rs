//! A standalone dense GEMM workload.
//!
//! The three paper applications exercise the chip through fixed kernel
//! mixes; this scenario isolates the analog substrate's bread-and-butter
//! operation — a dense `m×k · k×n` matrix multiply with a vector epilogue
//! (bias + requantize) — so the evaluation matrix can sweep arbitrary
//! shapes and operand widths without inventing an application around
//! them. The MVM convention matches [`darth_pum::trace::KernelOp::Mvm`]:
//! `rows = k` (input length), `cols = n` (output length), one batch entry
//! per left-hand-side row.

use darth_kir::{CompiledKernel, KernelIr, KirBuilder};
use darth_pum::eval::{ErrorMetric, ExecJob, ExecOutput, Executable, SplitJob, Workload};
use darth_pum::hct::HctConfig;
use darth_pum::trace::{KernelOp, TraceMeta, TraceSink, VectorKind};

/// A dense GEMM scenario: `C[m×n] = A[m×k] · B[k×n]`, plus a bias-add and
/// requantizing shift over the output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmWorkload {
    /// Left-hand-side rows (output rows; the MVM batch).
    pub m: u64,
    /// Inner (contraction) dimension.
    pub k: u64,
    /// Right-hand-side columns (output columns).
    pub n: u64,
    /// Activation width in bits.
    pub input_bits: u8,
    /// Weight width in bits.
    pub weight_bits: u8,
}

impl GemmWorkload {
    /// A square 8-bit GEMM.
    pub fn square(dim: u64) -> Self {
        GemmWorkload {
            m: dim,
            k: dim,
            n: dim,
            input_bits: 8,
            weight_bits: 8,
        }
    }

    /// A size sweep of square 8-bit GEMMs (transformer-layer scale).
    pub fn sweep() -> Vec<GemmWorkload> {
        [256, 1024, 4096].into_iter().map(Self::square).collect()
    }
}

impl Workload for GemmWorkload {
    fn name(&self) -> String {
        if self.input_bits == 8 && self.weight_bits == 8 {
            format!("gemm-{}x{}x{}", self.m, self.k, self.n)
        } else {
            format!(
                "gemm-{}x{}x{}-i{}w{}",
                self.m, self.k, self.n, self.input_bits, self.weight_bits
            )
        }
    }

    fn label(&self) -> String {
        format!("GEMM {}×{}×{}", self.m, self.k, self.n)
    }

    fn params(&self) -> Vec<(String, String)> {
        vec![
            ("m".into(), self.m.to_string()),
            ("k".into(), self.k.to_string()),
            ("n".into(), self.n.to_string()),
            ("input_bits".into(), self.input_bits.to_string()),
            ("weight_bits".into(), self.weight_bits.to_string()),
        ]
    }

    fn emit(&self, sink: &mut dyn TraceSink) {
        let outputs = self.m.saturating_mul(self.n);
        sink.begin_trace(
            // One GEMM occupies a landing pipeline per weight slice plus
            // the epilogue pipeline; items beyond the batch are
            // independent.
            &TraceMeta::new(Workload::name(self))
                .with_pipelines_per_item(4)
                .with_parallel_items(1 << 20),
        );
        sink.begin_kernel("GEMM");
        sink.op(&KernelOp::Mvm {
            rows: self.k,
            cols: self.n,
            input_bits: self.input_bits,
            weight_bits: self.weight_bits,
            batch: self.m,
        });
        sink.begin_kernel("Epilogue");
        for kind in [VectorKind::Add, VectorKind::Shift] {
            sink.op(&KernelOp::Vector {
                kind,
                elements: outputs,
                bits: self.input_bits,
                count: 1,
            });
        }
    }
}

/// Pipeline roles of the compiled GEMM job.
const P_GEMM_IN: u16 = 0;
const P_GEMM_LAND: u16 = 1;
const GEMM_DEPTH: usize = 16;
/// Batch rows the job shape supports (one parked input register and one
/// result register per row, clear of the MVM landing cluster).
const GEMM_MAX_M: usize = 8;

/// A concrete integer GEMM compiled to an ISA job: deterministic 4-bit
/// weights and 8-bit activations, `C = A·B + bias`, one analog MVM per
/// left-hand-side row with the bias added by a DCE `add` — the
/// differential twin of [`GemmWorkload`]'s analytical pricing. The
/// program is built as a `darth_kir` kernel IR; register placement is the
/// compiler's problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmExec {
    /// Left-hand-side rows (MVM batch; at most 8).
    pub m: usize,
    /// Contraction dimension (at most one array, 64).
    pub k: usize,
    /// Output columns (at most one array, 64).
    pub n: usize,
    /// Data-synthesis seed.
    pub seed: u64,
}

impl GemmExec {
    /// The standard differential case: a 4×12×10 GEMM.
    pub fn standard() -> Self {
        GemmExec {
            m: 4,
            k: 12,
            n: 10,
            seed: 5,
        }
    }

    /// The priced twin of this job.
    pub fn workload(&self) -> GemmWorkload {
        GemmWorkload {
            m: self.m as u64,
            k: self.k as u64,
            n: self.n as u64,
            input_bits: 8,
            weight_bits: 4,
        }
    }

    /// Deterministic 4-bit weight matrix (`k × n`, magnitudes ≤ 7).
    pub fn weights(&self) -> Vec<Vec<i64>> {
        (0..self.k)
            .map(|r| {
                (0..self.n)
                    .map(|c| ((r as i64 * 31 + c as i64 * 7 + self.seed as i64) % 15) - 7)
                    .collect()
            })
            .collect()
    }

    /// Deterministic activations (`m × k`, 8-bit signed range).
    pub fn activations(&self) -> Vec<Vec<i64>> {
        self.synth_activations(self.seed)
    }

    /// Deterministic per-column bias.
    pub fn bias(&self) -> Vec<i64> {
        (0..self.n)
            .map(|c| ((c as i64 * 11 + self.seed as i64) % 9) - 4)
            .collect()
    }

    /// The tile geometry the compiled program targets.
    pub fn tile_config() -> HctConfig {
        HctConfig {
            functional_pipelines: 2,
            functional_depth: GEMM_DEPTH,
            functional_elements: 64,
            functional_vrs: 40,
            functional_ace_arrays: 2,
            ..HctConfig::small_test()
        }
    }

    fn validate(&self) -> darth_pum::Result<()> {
        if self.m == 0 || self.k == 0 || self.n == 0 {
            return Err(darth_pum::Error::Shape("GEMM dims must be nonzero".into()));
        }
        if self.m > GEMM_MAX_M || self.k > 64 || self.n > 64 {
            return Err(darth_pum::Error::Shape(format!(
                "GEMM {}x{}x{} exceeds the single-array job shape (m ≤ {GEMM_MAX_M}, k/n ≤ 64)",
                self.m, self.k, self.n
            )));
        }
        Ok(())
    }

    /// Builds the GEMM as a kernel IR: the weight matrix as one vACore,
    /// the bias as a landing-pipe constant, row `i`'s activations as
    /// input slot `row-{i}`, and per row an analog MVM folded into a
    /// parked result register by a bias `add`.
    pub fn build_ir(&self) -> KernelIr {
        let mut b = KirBuilder::new(self.exec_name(), GemmExec::tile_config());
        let weights = b.vacore(self.weights(), 4, 2, 8, true);
        let bias_cells: Vec<(u8, i64)> = self
            .bias()
            .iter()
            .enumerate()
            .map(|(e, &v)| (e as u8, v))
            .collect();
        let bias = b.const_s(P_GEMM_LAND, "bias", &bias_cells);
        let rows: Vec<darth_kir::Value> = self
            .activations()
            .iter()
            .enumerate()
            .map(|(i, row)| b.input(P_GEMM_IN, format!("row-{i}"), true, row))
            .collect();
        for (i, &row) in rows.iter().enumerate() {
            let out = b.slot(P_GEMM_LAND, format!("out-{i}"));
            let acc = b.mvm(weights, row, P_GEMM_LAND);
            // Fold the bias in and park the row so the landing cluster is
            // free for the next batch row.
            b.add_into(out, acc, bias);
            b.readback(format!("row-{i}"), out, self.n, true);
        }
        b.finish()
    }

    /// Compiles the kernel through the `darth_kir` pipeline.
    ///
    /// # Errors
    ///
    /// Returns shape errors for oversized dims and compiler diagnostics.
    pub fn compiled(&self) -> darth_pum::Result<CompiledKernel> {
        self.validate()?;
        Ok(self.build_ir().compile()?)
    }

    /// The split form for serving: the weight/bias setup is resident,
    /// every per-request activation load lives in the input section, and
    /// the body is pure compute (`m` MVM+bias pairs, then `halt`).
    ///
    /// # Errors
    ///
    /// Returns shape errors for oversized dims and compiler diagnostics.
    pub fn split_job(&self) -> darth_pum::Result<SplitJob> {
        Ok(self.compiled()?.into_split_job())
    }

    /// The encoded per-request input section: row `i`'s activations as
    /// `wimm`s into its parked input register. Halt-free. The shape must
    /// be `m × k`.
    ///
    /// # Errors
    ///
    /// Returns shape errors on an activation shape mismatch and range
    /// errors for values outside the 16-bit two's-complement field.
    pub fn input_program(&self, activations: &[Vec<i64>]) -> darth_pum::Result<Vec<u8>> {
        self.compiled()?
            .input_program(activations)
            .map_err(darth_pum::Error::from)
    }

    /// Deterministic per-request activations (`m × k`, small signed
    /// range so outputs stay well inside the 16-bit field for any legal
    /// shape).
    pub fn synth_activations(&self, request_seed: u64) -> Vec<Vec<i64>> {
        let s = request_seed as i64;
        (0..self.m)
            .map(|i| {
                (0..self.k)
                    .map(|r| ((i as i64 * 13 + r as i64 * 5 + s) % 21) - 10)
                    .collect()
            })
            .collect()
    }

    /// Golden outputs for arbitrary activations under this job's weights
    /// and bias (shape-matched to the job's readbacks).
    pub fn golden_for(&self, activations: &[Vec<i64>]) -> Vec<ExecOutput> {
        let w = self.weights();
        let bias = self.bias();
        activations
            .iter()
            .enumerate()
            .map(|(i, row)| ExecOutput {
                label: format!("row-{i}"),
                cells: (0..self.n)
                    .map(|c| (0..self.k).map(|r| row[r] * w[r][c]).sum::<i64>() + bias[c])
                    .collect(),
            })
            .collect()
    }
}

impl Executable for GemmExec {
    fn exec_name(&self) -> String {
        Workload::name(&self.workload())
    }

    fn job(&self) -> darth_pum::Result<ExecJob> {
        Ok(self.compiled()?.exec_job())
    }

    fn golden(&self) -> darth_pum::Result<Vec<ExecOutput>> {
        Ok(self.golden_for(&self.activations()))
    }

    fn error_metric(&self) -> ErrorMetric {
        ErrorMetric::Relative
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::execute_job;
    use darth_pum::trace::TraceSummary;

    #[test]
    fn gemm_trace_counts_macs() {
        let g = GemmWorkload::square(64);
        let t = TraceSummary::record(|r| g.emit(r));
        assert_eq!(t.name(), "gemm-64x64x64");
        assert_eq!(t.macs(), 64 * 64 * 64);
        assert_eq!(t.element_ops(), 2 * 64 * 64);
        assert!(t.mvm_fraction() > 0.9);
    }

    #[test]
    fn narrow_operands_get_their_own_name() {
        let mut g = GemmWorkload::square(32);
        g.input_bits = 1;
        g.weight_bits = 1;
        assert_eq!(Workload::name(&g), "gemm-32x32x32-i1w1");
    }

    #[test]
    fn sweep_scales_work() {
        let sweep = GemmWorkload::sweep();
        assert_eq!(sweep.len(), 3);
        let macs: Vec<u64> = sweep
            .iter()
            .map(|g| TraceSummary::record(|r| g.emit(r)).macs())
            .collect();
        assert!(macs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn compiled_gemm_matches_golden_on_the_chip() {
        let exec = GemmExec::standard();
        let job = exec.job().expect("compiles");
        let golden = exec.golden().expect("golden");
        assert_eq!(execute_job(&job), golden);
    }

    #[test]
    fn split_gemm_serves_arbitrary_activations_bit_exact() {
        let exec = GemmExec::standard();
        let split = exec.split_job().expect("splits");
        split.check_invariants().expect("invariants hold");
        for request_seed in [0u64, 3, 19] {
            let activations = exec.synth_activations(request_seed);
            let input = exec.input_program(&activations).expect("encodes");
            let full = split.full_job(&input);
            let golden = exec.golden_for(&activations);
            assert_eq!(execute_job(&full), golden, "seed {request_seed}");
        }
        // Shape mismatches are rejected at encode time.
        assert!(exec.input_program(&[vec![0; exec.k]]).is_err());
    }

    #[test]
    fn gemm_exec_pairs_with_its_priced_workload() {
        let exec = GemmExec::standard();
        assert_eq!(exec.exec_name(), Workload::name(&exec.workload()));
        assert_eq!(exec.workload().m, exec.m as u64);
    }

    #[test]
    fn oversized_gemm_exec_is_rejected() {
        let mut exec = GemmExec::standard();
        exec.m = 9;
        assert!(exec.job().is_err());
        let mut exec = GemmExec::standard();
        exec.k = 65;
        assert!(exec.job().is_err());
        let mut exec = GemmExec::standard();
        exec.n = 0;
        assert!(exec.job().is_err());
    }
}

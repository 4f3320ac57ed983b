//! The golden-model differential harness.
//!
//! Real PIM evaluation stacks pair cost models with functional
//! simulation and host-reference cross-checks; this module is that
//! cross-check for the whole repro. A [`DiffCase`] bundles an
//! [`Executable`] (the encoded-ISA job plus its golden outputs) with the
//! *priced twin* — the [`Workload`] the analytical models already price —
//! so one registry entry is simultaneously executed on an [`Executor`]
//! and priced on an [`ArchModel`]. [`DiffHarness::verify`] compares
//! executor outputs against the golden reference **cell by cell** and
//! reports every mismatch; [`DiffHarness::verify_priced`] additionally
//! prices each twin, proving the two backends stay wired to the same
//! scenarios.
//!
//! [`standard_cases`] is the registry the tier-1 gate runs: AES-128/192/
//! 256 on FIPS-197 vectors (Appendix B and C), a deterministic integer
//! GEMM, a convolution layer against the im2col `conv2d` reference, and
//! a PrIM-style vector reduction against a software sum.

use crate::machine::{SimExecutor, SimStats, StatExecutor};
use darth_apps::aes::golden::KeySize;
use darth_apps::aes::program::AesExec;
use darth_apps::cnn::program::ConvExec;
use darth_apps::gemm::GemmExec;
use darth_apps::reduce::ReduceExec;
use darth_pum::eval::{ArchModel, ExecOutput, Executable, Executor, Workload};
use darth_pum::trace::CostReport;

/// One differential registry entry: the executable job and, where one
/// exists, the priced twin scenario.
pub struct DiffCase {
    /// The functionally executable side.
    pub executable: Box<dyn Executable>,
    /// The analytically priced side (op-stream emitter), if paired.
    pub priced: Option<Box<dyn Workload>>,
}

impl DiffCase {
    /// A case with both sides.
    pub fn paired(executable: impl Executable + 'static, priced: impl Workload + 'static) -> Self {
        DiffCase {
            executable: Box::new(executable),
            priced: Some(Box::new(priced)),
        }
    }

    /// An execution-only case.
    pub fn exec_only(executable: impl Executable + 'static) -> Self {
        DiffCase {
            executable: Box::new(executable),
            priced: None,
        }
    }
}

/// One cell that differed between the executor and the golden model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellMismatch {
    /// The output the cell belongs to.
    pub output: String,
    /// Element index within the output.
    pub index: usize,
    /// Golden reference value.
    pub expected: i64,
    /// Executor value.
    pub got: i64,
}

/// The verdict for one case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseReport {
    /// Case name.
    pub name: String,
    /// Total cells compared.
    pub cells: usize,
    /// Every differing cell (empty = bit-exact).
    pub mismatches: Vec<CellMismatch>,
    /// Instructions the executor ran.
    pub instructions: u64,
    /// Analog instructions among them.
    pub analog_instructions: u64,
    /// The priced twin's cost report, when the case is paired and a
    /// model was supplied.
    pub cost: Option<CostReport>,
}

impl CaseReport {
    /// Whether every cell matched.
    pub fn is_exact(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// The harness verdict across all cases.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Executor label the cases ran on.
    pub executor: String,
    /// Per-case verdicts, in registry order.
    pub cases: Vec<CaseReport>,
}

impl DiffReport {
    /// Whether every case matched its golden model bit-exactly.
    pub fn all_exact(&self) -> bool {
        self.cases.iter().all(CaseReport::is_exact)
    }

    /// Total cells compared across all cases.
    pub fn total_cells(&self) -> usize {
        self.cases.iter().map(|c| c.cells).sum()
    }

    /// Total mismatching cells across all cases.
    pub fn total_mismatches(&self) -> usize {
        self.cases.iter().map(|c| c.mismatches.len()).sum()
    }

    /// A one-line-per-case summary for logs and panic messages.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for case in &self.cases {
            let verdict = if case.is_exact() {
                "exact".to_owned()
            } else {
                format!("{} MISMATCHED CELLS", case.mismatches.len())
            };
            out.push_str(&format!(
                "{}: {} cells, {} ({} instructions, {} analog)\n",
                case.name, case.cells, verdict, case.instructions, case.analog_instructions
            ));
        }
        out
    }
}

/// The verdict for one case run through an executor *pair*
/// ([`DiffHarness::verify_pair`]): cell-by-cell output comparison plus
/// full statistics equality — mnemonic histograms, cycle counts and
/// energy must all agree, not just the readbacks.
#[derive(Debug, Clone, PartialEq)]
pub struct PairCaseReport {
    /// Case name.
    pub name: String,
    /// Total cells compared.
    pub cells: usize,
    /// Every differing cell — `expected` is the reference executor,
    /// `got` the candidate (empty = bit-exact outputs).
    pub mismatches: Vec<CellMismatch>,
    /// Whether the two executors reported identical statistics.
    pub stats_match: bool,
    /// Statistics from the reference executor.
    pub reference_stats: SimStats,
    /// Statistics from the candidate executor.
    pub candidate_stats: SimStats,
}

impl PairCaseReport {
    /// Whether outputs *and* statistics matched exactly.
    pub fn is_exact(&self) -> bool {
        self.mismatches.is_empty() && self.stats_match
    }
}

/// The verdict across all cases of an executor-pair run.
#[derive(Debug, Clone, PartialEq)]
pub struct PairReport {
    /// Reference executor name.
    pub reference: String,
    /// Candidate executor name.
    pub candidate: String,
    /// Per-case verdicts, in registry order.
    pub cases: Vec<PairCaseReport>,
}

impl PairReport {
    /// Whether every case matched outputs and statistics exactly.
    pub fn all_exact(&self) -> bool {
        self.cases.iter().all(PairCaseReport::is_exact)
    }

    /// Total cells compared across all cases.
    pub fn total_cells(&self) -> usize {
        self.cases.iter().map(|c| c.cells).sum()
    }

    /// A one-line-per-case summary for logs and panic messages.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for case in &self.cases {
            let verdict = if case.is_exact() {
                "exact".to_owned()
            } else if case.mismatches.is_empty() {
                "STATS DIVERGED".to_owned()
            } else {
                format!("{} MISMATCHED CELLS", case.mismatches.len())
            };
            out.push_str(&format!("{}: {} cells, {verdict}\n", case.name, case.cells));
        }
        out
    }
}

/// The differential harness: a registry of cases plus the executor to
/// run them on.
pub struct DiffHarness {
    cases: Vec<DiffCase>,
    executor: Box<dyn Executor>,
}

impl DiffHarness {
    /// An empty harness over the reference simulator.
    pub fn new() -> Self {
        DiffHarness {
            cases: Vec::new(),
            executor: Box::new(SimExecutor::new()),
        }
    }

    /// The standard registry ([`standard_cases`]) over the reference
    /// simulator.
    pub fn standard() -> Self {
        DiffHarness {
            cases: standard_cases(),
            executor: Box::new(SimExecutor::new()),
        }
    }

    /// Replaces the executor backend.
    #[must_use]
    pub fn with_executor(mut self, executor: impl Executor + 'static) -> Self {
        self.executor = Box::new(executor);
        self
    }

    /// Adds a case (builder style).
    #[must_use]
    pub fn with_case(mut self, case: DiffCase) -> Self {
        self.cases.push(case);
        self
    }

    /// Registered cases.
    pub fn cases(&self) -> &[DiffCase] {
        &self.cases
    }

    /// Executes every case and compares outputs cell by cell.
    ///
    /// # Errors
    ///
    /// Returns the first job-compilation or execution error; comparison
    /// differences are *not* errors — they land in the report.
    pub fn verify(&self) -> darth_pum::Result<DiffReport> {
        self.run(None)
    }

    /// Executes every case and prices each paired twin on `model`.
    ///
    /// # Errors
    ///
    /// As [`DiffHarness::verify`].
    pub fn verify_priced(&self, model: &dyn ArchModel) -> darth_pum::Result<DiffReport> {
        self.run(Some(model))
    }

    /// Runs every case on *both* executors and demands equivalence:
    /// bit-identical outputs cell by cell, plus identical statistics
    /// (instruction counts, per-mnemonic histograms, busy cycles,
    /// energy). This is the fast-path acceptance gate — a candidate
    /// backend that is merely *numerically* right but executes a
    /// different instruction mix fails here.
    ///
    /// # Errors
    ///
    /// Returns the first job-compilation or execution error from either
    /// executor; divergences are *not* errors — they land in the report.
    pub fn verify_pair(
        &self,
        reference: &dyn StatExecutor,
        candidate: &dyn StatExecutor,
    ) -> darth_pum::Result<PairReport> {
        let mut cases = Vec::with_capacity(self.cases.len());
        for case in &self.cases {
            let name = case.executable.exec_name();
            let job = case.executable.job()?;
            let (ref_run, reference_stats) = reference.execute_with_stats(&job)?;
            let (cand_run, candidate_stats) = candidate.execute_with_stats(&job)?;
            let (cells, mismatches) = compare_cells(
                &ref_run.outputs,
                &cand_run.outputs,
                ("reference", "candidate"),
            );
            let stats_match = reference_stats == candidate_stats;
            cases.push(PairCaseReport {
                name,
                cells,
                mismatches,
                stats_match,
                reference_stats,
                candidate_stats,
            });
        }
        Ok(PairReport {
            reference: reference.name(),
            candidate: candidate.name(),
            cases,
        })
    }

    fn run(&self, model: Option<&dyn ArchModel>) -> darth_pum::Result<DiffReport> {
        let mut cases = Vec::with_capacity(self.cases.len());
        for case in &self.cases {
            let name = case.executable.exec_name();
            let job = case.executable.job()?;
            let golden = case.executable.golden()?;
            let run = self.executor.execute(&job)?;
            let (cells, mismatches) = compare_cells(&golden, &run.outputs, ("golden", "executor"));
            let cost = match (model, &case.priced) {
                (Some(m), Some(w)) => {
                    // The priced twin streams through the model's
                    // accumulator while the same scenario just executed
                    // functionally — both backends from one registry row.
                    let mut acc = m.accumulator();
                    w.emit(&mut *acc);
                    Some(acc.finish())
                }
                _ => None,
            };
            cases.push(CaseReport {
                name,
                cells,
                mismatches,
                instructions: run.instructions,
                analog_instructions: run.analog_instructions,
                cost,
            });
        }
        Ok(DiffReport {
            executor: self.executor.name(),
            cases,
        })
    }
}

/// Compares two output lists cell by cell, returning the cells compared
/// and every mismatch. Shape differences surface as mismatches at the
/// missing indices rather than silently truncating the check, and a
/// differing output count is one more `output-count` mismatch; `sides`
/// names the expected and the actual side in that entry's label.
fn compare_cells(
    expected: &[ExecOutput],
    actual: &[ExecOutput],
    sides: (&str, &str),
) -> (usize, Vec<CellMismatch>) {
    let mut mismatches = Vec::new();
    let mut cells = 0usize;
    for (want_out, got_out) in expected.iter().zip(actual) {
        let len = want_out.cells.len().max(got_out.cells.len());
        cells += len;
        for i in 0..len {
            let want = want_out.cells.get(i).copied();
            let got = got_out.cells.get(i).copied();
            if want != got {
                mismatches.push(CellMismatch {
                    output: want_out.label.clone(),
                    index: i,
                    expected: want.unwrap_or(i64::MIN),
                    got: got.unwrap_or(i64::MIN),
                });
            }
        }
    }
    if expected.len() != actual.len() {
        let (want_side, got_side) = sides;
        mismatches.push(CellMismatch {
            output: format!(
                "output-count ({want_side} {}, {got_side} {})",
                expected.len(),
                actual.len()
            ),
            index: 0,
            expected: expected.len() as i64,
            got: actual.len() as i64,
        });
    }
    (cells, mismatches)
}

impl Default for DiffHarness {
    fn default() -> Self {
        DiffHarness::new()
    }
}

/// The standard differential registry: AES-128 (FIPS-197 Appendix B),
/// AES-128/192/256 (Appendix C), the standard integer GEMM, the standard
/// convolution layer, and the standard PrIM-style reduction — each
/// paired with its priced twin.
pub fn standard_cases() -> Vec<DiffCase> {
    use darth_apps::aes::workload::{AesVariant, AesWorkload};
    let aes_twin = |variant| AesWorkload { variant };
    let gemm = GemmExec::standard();
    let conv = ConvExec::standard();
    let reduce = ReduceExec::standard();
    vec![
        DiffCase::paired(AesExec::fips197_appendix_b(), aes_twin(AesVariant::Aes128)),
        DiffCase::paired(
            AesExec::fips197_appendix_c(KeySize::Aes128),
            aes_twin(AesVariant::Aes128),
        ),
        DiffCase::paired(
            AesExec::fips197_appendix_c(KeySize::Aes192),
            aes_twin(AesVariant::Aes192),
        ),
        DiffCase::paired(
            AesExec::fips197_appendix_c(KeySize::Aes256),
            aes_twin(AesVariant::Aes256),
        ),
        DiffCase::paired(gemm, gemm.workload()),
        DiffCase::paired(conv, conv.workload()),
        DiffCase::paired(reduce, reduce.workload()),
    ]
}

/// A scaled bulk-encryption registry: `blocks` AES-128 cases under one
/// fixed key, block `i` encrypting a counter plaintext (big-endian
/// counter in bytes 8..16). Deterministic by construction, so any block
/// count produces a reproducible workload for throughput and
/// equivalence runs at scale (`make sim-verify` uses 1000+).
pub fn bulk_aes_cases(blocks: usize) -> Vec<DiffCase> {
    let key: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];
    (0..blocks)
        .map(|i| {
            let mut plaintext = [0u8; 16];
            plaintext[8..16].copy_from_slice(&(i as u64).to_be_bytes());
            DiffCase::exec_only(AesExec::aes128(format!("bulk-aes-{i}"), &key, plaintext))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use darth_pum::eval::{ExecJob, ExecOutput};

    #[test]
    fn standard_registry_covers_the_acceptance_surface() {
        let names: Vec<String> = standard_cases()
            .iter()
            .map(|c| c.executable.exec_name())
            .collect();
        assert!(names.iter().any(|n| n.contains("aes-128")));
        assert!(names.iter().any(|n| n.contains("aes-192")));
        assert!(names.iter().any(|n| n.contains("aes-256")));
        assert!(names.iter().any(|n| n.starts_with("gemm-")));
        assert!(names.iter().any(|n| n.starts_with("conv-")));
        assert!(names.iter().any(|n| n.starts_with("reduce-")));
        assert!(standard_cases().iter().all(|c| c.priced.is_some()));
    }

    /// An executable whose golden deliberately disagrees with the job.
    struct Corrupt;

    impl Executable for Corrupt {
        fn exec_name(&self) -> String {
            "corrupt".into()
        }
        fn job(&self) -> darth_pum::Result<ExecJob> {
            GemmExec::standard().job()
        }
        fn golden(&self) -> darth_pum::Result<Vec<ExecOutput>> {
            let mut golden = GemmExec::standard().golden()?;
            golden[0].cells[2] += 1;
            golden[1].cells.pop();
            Ok(golden)
        }
    }

    #[test]
    fn mismatches_are_reported_cell_by_cell() {
        let report = DiffHarness::new()
            .with_case(DiffCase::exec_only(Corrupt))
            .verify()
            .expect("runs");
        assert!(!report.all_exact());
        let case = &report.cases[0];
        // One corrupted value plus one missing trailing cell.
        assert_eq!(case.mismatches.len(), 2);
        assert_eq!(case.mismatches[0].output, "row-0");
        assert_eq!(case.mismatches[0].index, 2);
        assert_eq!(case.mismatches[0].expected, case.mismatches[0].got + 1);
        assert!(report.summary().contains("MISMATCHED"));
        assert_eq!(report.total_mismatches(), 2);
    }
}

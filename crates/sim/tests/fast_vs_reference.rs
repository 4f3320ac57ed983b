//! The fast-path acceptance gate: [`FastExecutor`] must be **fully
//! equivalent** to the reference [`SimExecutor`] — bit-identical output
//! cells *and* identical statistics (instruction counts, per-mnemonic
//! histograms, busy cycles, energy) — on the complete standard registry
//! and on a scaled bulk-AES workload.
//!
//! `make sim-verify` runs this file in release mode with the bulk block
//! count raised to 1000+ (`DARTH_SIM_BULK_BLOCKS`); under plain
//! `cargo test` (debug) the count drops so the reference interpreter
//! stays within budget. Negative controls prove the pair harness can
//! actually fail, on corrupted outputs and on corrupted statistics.

use darth_sim::{bulk_aes_cases, DiffHarness, FastExecutor, SimExecutor, SimStats, StatExecutor};

use darth_pum::eval::{ExecJob, ExecRun, Executor};

/// Bulk-AES block count: env override, else scaled to the build profile
/// (the reference interpreter is the bottleneck in debug builds).
fn bulk_blocks() -> usize {
    blocks_from(std::env::var("DARTH_SIM_BULK_BLOCKS").ok().as_deref())
}

/// [`bulk_blocks`] for a given `DARTH_SIM_BULK_BLOCKS` value. Zero is
/// rejected like any other non-positive value: it would compare no cases
/// and no cells and still pass.
fn blocks_from(raw: Option<&str>) -> usize {
    match raw {
        Some(raw) => raw
            .trim()
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .expect("DARTH_SIM_BULK_BLOCKS must be a positive integer"),
        None if cfg!(debug_assertions) => 16,
        None => 1000,
    }
}

#[test]
#[should_panic(expected = "DARTH_SIM_BULK_BLOCKS must be a positive integer")]
fn zero_bulk_blocks_are_rejected() {
    blocks_from(Some("0"));
}

#[test]
fn fast_executor_is_equivalent_on_the_full_standard_registry() {
    let report = DiffHarness::standard()
        .verify_pair(&SimExecutor::new(), &FastExecutor::new())
        .expect("pair harness runs");
    assert_eq!(report.reference, "darth-sim");
    assert_eq!(report.candidate, "darth-sim-fast");
    assert_eq!(
        report.cases.len(),
        7,
        "registry shrank:\n{}",
        report.summary()
    );
    assert!(
        report.all_exact(),
        "fast path diverged from the reference:\n{}\n{:#?}",
        report.summary(),
        report
            .cases
            .iter()
            .filter(|c| !c.is_exact())
            .collect::<Vec<_>>()
    );
    // Statistics comparison must have real content: every case executed
    // instructions and produced a non-empty histogram on both sides.
    for case in &report.cases {
        assert!(case.reference_stats.run.instructions > 0, "{}", case.name);
        assert!(!case.reference_stats.histogram.is_empty(), "{}", case.name);
        assert_eq!(case.reference_stats, case.candidate_stats, "{}", case.name);
    }
}

#[test]
fn fast_executor_matches_the_golden_models_directly() {
    // Not just reference-equivalent: the fast path must also match the
    // golden software references on its own.
    let report = DiffHarness::standard()
        .with_executor(FastExecutor::new())
        .verify()
        .expect("harness runs");
    assert_eq!(report.executor, "darth-sim-fast");
    assert!(
        report.all_exact(),
        "fast path diverged from golden:\n{}",
        report.summary()
    );
}

#[test]
fn bulk_aes_blocks_are_equivalent_at_scale() {
    let blocks = bulk_blocks();
    let mut harness = DiffHarness::new();
    for case in bulk_aes_cases(blocks) {
        harness = harness.with_case(case);
    }
    let report = harness
        .verify_pair(&SimExecutor::new(), &FastExecutor::new())
        .expect("pair harness runs");
    assert_eq!(report.cases.len(), blocks);
    // 16 ciphertext bytes per block, all compared.
    assert_eq!(report.total_cells(), blocks * 16);
    assert!(
        report.all_exact(),
        "bulk AES diverged ({blocks} blocks):\n{}",
        report.summary()
    );
}

/// A deliberately broken fast path: outputs with one cell flipped.
struct CorruptedOutputs(FastExecutor);

impl Executor for CorruptedOutputs {
    fn name(&self) -> String {
        "corrupted-outputs".into()
    }
    fn execute(&self, job: &ExecJob) -> darth_pum::Result<ExecRun> {
        self.0.execute(job)
    }
}

impl StatExecutor for CorruptedOutputs {
    fn execute_with_stats(&self, job: &ExecJob) -> darth_pum::Result<(ExecRun, SimStats)> {
        let (mut run, stats) = self.0.execute_with_stats(job)?;
        run.outputs[0].cells[0] ^= 0x1;
        Ok((run, stats))
    }
}

/// A fast path that computes the right cells but misreports what it
/// executed: the histogram drops one op.
struct CorruptedStats(FastExecutor);

impl Executor for CorruptedStats {
    fn name(&self) -> String {
        "corrupted-stats".into()
    }
    fn execute(&self, job: &ExecJob) -> darth_pum::Result<ExecRun> {
        self.0.execute(job)
    }
}

impl StatExecutor for CorruptedStats {
    fn execute_with_stats(&self, job: &ExecJob) -> darth_pum::Result<(ExecRun, SimStats)> {
        let (run, mut stats) = self.0.execute_with_stats(job)?;
        let key = *stats
            .histogram
            .keys()
            .next()
            .expect("ran at least one instruction");
        stats.histogram.remove(key);
        Ok((run, stats))
    }
}

#[test]
fn a_corrupted_fast_path_is_caught() {
    let mut harness = DiffHarness::new();
    for case in bulk_aes_cases(1) {
        harness = harness.with_case(case);
    }

    // Flipped output cell: cells mismatch even though stats agree.
    let report = harness
        .verify_pair(&SimExecutor::new(), &CorruptedOutputs(FastExecutor::new()))
        .expect("pair harness runs");
    assert!(!report.all_exact());
    assert_eq!(report.cases[0].mismatches.len(), 1);
    assert!(report.cases[0].stats_match);
    assert!(report.summary().contains("MISMATCHED"));

    // Dropped histogram entry: outputs agree but stats diverge.
    let report = harness
        .verify_pair(&SimExecutor::new(), &CorruptedStats(FastExecutor::new()))
        .expect("pair harness runs");
    assert!(!report.all_exact());
    assert!(report.cases[0].mismatches.is_empty());
    assert!(!report.cases[0].stats_match);
    assert!(report.summary().contains("STATS DIVERGED"));
}

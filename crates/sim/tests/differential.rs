//! The tier-1 differential gate: every standard case — AES-128/192/256
//! on FIPS-197 vectors, the integer GEMM, the convolution layer, the
//! PrIM-style reduction — must execute on the functional simulator and
//! match its golden software reference **bit-exactly, cell by cell**,
//! while the paired priced twin flows through the analytical cost model
//! from the same registry row.
//!
//! `make sim-verify` (part of `make verify`) runs exactly this file; a
//! single differing cell fails the build with the full mismatch list.

use darth_analog::adc::AdcKind;
use darth_apps::aes::golden::KeySize;
use darth_apps::aes::program::AesExec;
use darth_pum::eval::{Executable, Executor};
use darth_pum::model::DarthModel;
use darth_sim::{DiffCase, DiffHarness, SimExecutor};

#[test]
fn standard_registry_is_bit_exact_on_the_simulator() {
    let report = DiffHarness::standard().verify().expect("harness runs");
    assert_eq!(report.executor, "darth-sim");
    assert_eq!(
        report.cases.len(),
        7,
        "registry shrank:\n{}",
        report.summary()
    );
    assert!(
        report.all_exact(),
        "golden-model mismatch:\n{}\n{:#?}",
        report.summary(),
        report
            .cases
            .iter()
            .flat_map(|c| c.mismatches.iter())
            .collect::<Vec<_>>()
    );
    // The comparison must actually cover cells: 4 AES ciphertexts of 16
    // bytes each, GEMM is 4×10, conv is 4 pixels × 3 channels, reduce is
    // one scalar sum.
    assert_eq!(report.total_cells(), 4 * 16 + 40 + 12 + 1);
    // Every case really executed instructions, and every job crossed the
    // analog domain (`progm` + at least one `mvm`).
    for case in &report.cases {
        assert!(case.instructions > 0, "{} ran nothing", case.name);
        assert!(
            case.analog_instructions >= 2,
            "{} never touched the ACE",
            case.name
        );
    }
}

#[test]
fn every_case_is_simultaneously_priced_and_executed() {
    let model = DarthModel::paper(AdcKind::Sar);
    let report = DiffHarness::standard()
        .verify_priced(&model)
        .expect("harness runs");
    assert!(report.all_exact(), "{}", report.summary());
    for case in &report.cases {
        let cost = case
            .cost
            .as_ref()
            .unwrap_or_else(|| panic!("{} has no priced twin", case.name));
        assert!(
            cost.latency_s > 0.0 && cost.energy_per_item_j > 0.0,
            "{} priced to nothing",
            case.name
        );
    }
}

#[test]
fn aes_fips197_appendix_c_ciphertexts_are_the_published_ones() {
    // Belt and braces: check the simulator's bytes against the FIPS-197
    // constants directly, independent of the golden model.
    let expected: [(KeySize, [u8; 4]); 3] = [
        (KeySize::Aes128, [0x69, 0xc4, 0xe0, 0xd8]),
        (KeySize::Aes192, [0xdd, 0xa9, 0x7c, 0xa4]),
        (KeySize::Aes256, [0x8e, 0xa2, 0xb7, 0xca]),
    ];
    for (size, head) in expected {
        let run = SimExecutor::new()
            .execute(&AesExec::fips197_appendix_c(size).job().expect("compiles"))
            .expect("executes");
        let got: Vec<i64> = run.outputs[0].cells[..4].to_vec();
        let want: Vec<i64> = head.iter().map(|&b| i64::from(b)).collect();
        assert_eq!(got, want, "{size:?}");
    }
}

#[test]
fn a_corrupted_golden_model_is_caught() {
    // Negative control: the harness must be able to fail.
    struct Corrupt;
    impl Executable for Corrupt {
        fn exec_name(&self) -> String {
            "corrupt-aes".into()
        }
        fn job(&self) -> darth_pum::Result<darth_pum::eval::ExecJob> {
            AesExec::fips197_appendix_b().job()
        }
        fn golden(&self) -> darth_pum::Result<Vec<darth_pum::eval::ExecOutput>> {
            let mut golden = AesExec::fips197_appendix_b().golden()?;
            golden[0].cells[0] ^= 0xFF;
            Ok(golden)
        }
        fn error_metric(&self) -> darth_pum::eval::ErrorMetric {
            AesExec::fips197_appendix_b().error_metric()
        }
    }
    let report = DiffHarness::new()
        .with_case(DiffCase::exec_only(Corrupt))
        .verify()
        .expect("harness runs");
    assert!(!report.all_exact());
    assert_eq!(report.total_mismatches(), 1);
    assert_eq!(report.cases[0].mismatches[0].index, 0);
}

//! Workspace-wiring smoke test.
//!
//! Exercises every member crate *through the umbrella re-exports*
//! (`darth_pum_repro::{reram, digital, analog, isa, pum, apps,
//! baselines}`), so a manifest regression that drops a crate from the
//! workspace — or a re-export that silently disappears from `src/lib.rs` —
//! fails tier-1 loudly with the crate's name in the failing test.

use darth_pum_repro::{analog, apps, baselines, digital, isa, pum, reram, sim};

#[test]
fn reram_substrate_is_reachable() {
    let mut rng = reram::NoiseRng::seed_from(1);
    let mut array = reram::ReramArray::new(8, 8, reram::DeviceParams::slc()).expect("array builds");
    array.program_level(0, 0, 1, &mut rng).expect("programs");
    assert_eq!(array.levels()[0], 1);
}

#[test]
fn digital_pipeline_is_reachable() {
    use digital::DcePipeline;
    let mut pipe = digital::Pipeline::new(digital::PipelineConfig {
        depth: 8,
        family: digital::LogicFamily::Oscar,
        ..digital::PipelineConfig::default()
    })
    .expect("pipeline builds");
    pipe.write_value(0, 0, 25).expect("fits");
    pipe.write_value(1, 0, 17).expect("fits");
    pipe.add(2, 0, 1).expect("runs");
    assert_eq!(pipe.read_value(2, 0).expect("reads"), 42);
}

#[test]
fn analog_crossbar_is_reachable() {
    use analog::crossbar::{Crossbar, CrossbarConfig};
    let mut rng = reram::NoiseRng::seed_from(7);
    let mut xbar = Crossbar::new(CrossbarConfig::ideal(2, 2)).expect("crossbar builds");
    xbar.program(&[vec![2, 3], vec![-1, 0]], &mut rng)
        .expect("programs");
    assert_eq!(xbar.mvm_exact(&[true, true]).expect("runs"), vec![1, 3]);
}

#[test]
fn isa_codec_is_reachable() {
    let inst = isa::Instruction::Add {
        pipe: isa::PipelineId(3),
        dst: isa::Vr(2),
        a: isa::Vr(0),
        b: isa::Vr(1),
    };
    let bytes = isa::encode::encode(&inst);
    assert_eq!(isa::encode::decode(&bytes).expect("decodes"), inst);
}

#[test]
fn pum_runtime_is_reachable() {
    let mut rt = pum::runtime::Runtime::new(pum::runtime::RuntimeConfig::small_test())
        .expect("runtime builds");
    let handle = rt
        .set_matrix(&[vec![2, -1], vec![3, 4]], 4, 1)
        .expect("stores");
    let result = rt.exec_mvm(handle, &[1, 2]).expect("runs");
    assert_eq!(result, vec![2 + 3 * 2, -1 + 4 * 2]);
}

#[test]
fn apps_workloads_are_reachable() {
    use pum::eval::{Executable, Executor};
    let key = [0u8; 16];
    let block = *b"smoke-test-block";
    let golden = apps::aes::golden::Aes::new_128(&key).encrypt_block(&block);
    let job = apps::aes::AesExec::aes128("aes-128/smoke", &key, block)
        .job()
        .expect("compiles");
    let run = sim::FastExecutor::new().execute(&job).expect("executes");
    let ciphertext: Vec<u8> = run.outputs[0].cells.iter().map(|&c| c as u8).collect();
    assert_eq!(ciphertext, golden);
}

#[test]
fn functional_simulator_is_reachable() {
    use pum::eval::{Executable, Executor};
    let case = apps::gemm::GemmExec::standard();
    let run = sim::SimExecutor::new()
        .execute(&case.job().expect("compiles"))
        .expect("executes");
    assert_eq!(run.outputs, case.golden().expect("golden"));
}

#[test]
fn baseline_models_are_reachable() {
    use pum::eval::ArchModel;
    let workload = apps::aes::workload::AesWorkload::paper();
    let report = baselines::BaselineModel::paper(analog::AdcKind::Sar).price(&workload);
    assert!(report.latency_s > 0.0);
    assert!(report.energy_per_item_j > 0.0);
}

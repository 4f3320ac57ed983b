//! Cross-crate integration tests: the full stack from ISA text through the
//! chip, the runtime, and the applications.

use darth_apps::aes::golden::Aes;
use darth_apps::aes::AesExec;
use darth_digital::DcePipeline;
use darth_isa::asm::assemble;
use darth_pum::chip::{DarthPumChip, SideChannel};
use darth_pum::eval::{ExecJob, Executable, Executor};
use darth_pum::hct::HctConfig;
use darth_pum::params::ChipParams;
use darth_pum::runtime::{Runtime, RuntimeConfig};
use darth_sim::FastExecutor;

/// Runs `job` on the fast-path executor and returns its ciphertext.
fn ciphertext(job: &ExecJob) -> [u8; 16] {
    let run = FastExecutor::new().execute(job).expect("job runs");
    assert_eq!(run.outputs[0].label, "ciphertext");
    core::array::from_fn(|i| run.outputs[0].cells[i] as u8)
}

#[test]
fn isa_program_drives_hybrid_mvm() {
    let mut chip =
        DarthPumChip::new(ChipParams::default(), HctConfig::small_test()).expect("chip builds");
    let mut data = SideChannel::new();
    let handle = data
        .stage_matrix(vec![vec![3, -4], vec![5, 6]])
        .expect("stages");
    let program = assemble(&format!(
        "valloc ac0 4 2 4 1\n\
         progm ac0 {handle}\n\
         wimm p0 v0 0 3\n\
         wimm p0 v0 1 2\n\
         mvm ac0 p0 v0 p1 v2 0\n\
         halt\n"
    ))
    .expect("assembles");
    chip.execute(&program, &data).expect("executes");
    let pipe = chip.tile_mut().pipeline_mut(1).expect("exists");
    assert_eq!(pipe.read_value_signed(2, 0).expect("reads"), 3 * 3 + 2 * 5);
    assert_eq!(pipe.read_value_signed(2, 1).expect("reads"), 3 * -4 + 2 * 6);
}

#[test]
fn runtime_matches_software_mvm_over_many_shapes() {
    let mut rt = Runtime::new(RuntimeConfig::small_test()).expect("runtime builds");
    for (rows, cols, seed) in [(3usize, 5usize, 1u64), (8, 2, 2), (16, 16, 3)] {
        let matrix: Vec<Vec<i64>> = (0..rows)
            .map(|r| {
                (0..cols)
                    .map(|c| ((r as i64 * 7 + c as i64 * 3 + seed as i64) % 15) - 7)
                    .collect()
            })
            .collect();
        let handle = rt.set_matrix(&matrix, 4, 1).expect("stores");
        let input: Vec<i64> = (0..rows).map(|r| ((r as i64 * 5) % 11) - 5).collect();
        let expected: Vec<i64> = (0..cols)
            .map(|c| (0..rows).map(|r| input[r] * matrix[r][c]).sum())
            .collect();
        assert_eq!(
            rt.exec_mvm(handle, &input).expect("executes"),
            expected,
            "{rows}x{cols} seed {seed}"
        );
    }
}

#[test]
fn hybrid_aes_counter_mode_stream() {
    // Encrypt a short CTR-mode stream on the tile and verify against the
    // golden model — one compiled job per counter block.
    let key = *b"integration-key!";
    let golden = Aes::new_128(&key);
    let mut counter = [0u8; 16];
    for i in 0..4u8 {
        counter[15] = i;
        let job = AesExec::aes128("aes-128/ctr", &key, counter)
            .job()
            .expect("compiles");
        assert_eq!(
            ciphertext(&job),
            golden.encrypt_block(&counter),
            "block {i}"
        );
    }
}

#[test]
fn tile_energy_flows_into_chip_meter() {
    let mut chip =
        DarthPumChip::new(ChipParams::default(), HctConfig::small_test()).expect("chip builds");
    let program = assemble(
        "wimm p0 v0 0 3\n\
         wimm p0 v1 0 4\n\
         add p0 v2 v0 v1\n\
         halt\n",
    )
    .expect("assembles");
    chip.execute(&program, &SideChannel::new())
        .expect("executes");
    let meter = chip.energy_meter();
    assert!(meter.component("dce.array").get() > 0.0);
    assert!(meter.component("front_end").get() > 0.0);
}

#[test]
fn aes_is_bit_exact_on_a_noisy_tile() {
    // The raw 0/1 SLC MixColumns under programming noise, read noise and
    // IR drop (the `small_test` sigmas): every bitline count must keep its
    // parity, so each ciphertext still equals the golden model.
    let key = *b"noise-proof key!";
    let golden = Aes::new_128(&key);
    for i in 0..3u8 {
        let block: [u8; 16] = core::array::from_fn(|j| (j as u8).wrapping_mul(29) ^ i);
        let mut job = AesExec::aes128("aes-128/noisy", &key, block)
            .job()
            .expect("compiles");
        job.tile.noisy = true;
        job.tile.seed = 0xC0FFEE;
        assert_eq!(
            ciphertext(&job),
            golden.encrypt_block(&block),
            "noisy tile must stay bit-exact (block {i})"
        );
    }
}

#[test]
fn runtime_survives_tiling_boundaries() {
    // exact powers of the array dimension exercise the tiling edge cases
    let mut rt = Runtime::new(RuntimeConfig::small_test()).expect("runtime builds");
    let dim = 64;
    for rows in [dim - 1, dim, dim + 1] {
        let matrix: Vec<Vec<i64>> = (0..rows).map(|r| vec![(r % 7) as i64 - 3]).collect();
        let handle = rt.set_matrix(&matrix, 4, 1).expect("stores");
        let input: Vec<i64> = (0..rows).map(|r| (r % 3) as i64).collect();
        let expected: i64 = (0..rows).map(|r| input[r] * matrix[r][0]).sum();
        assert_eq!(
            rt.exec_mvm(handle, &input).expect("executes"),
            vec![expected],
            "rows = {rows}"
        );
    }
}

//! The full extended evaluation matrix in one run: every scenario sweep
//! (AES key sizes, ResNet depths, encoder shapes, GEMM sizes) priced on
//! every architecture column, serially and in parallel.
//!
//! The serial pass is the reference: the parallel pass must produce a
//! bit-identical matrix (the engine only ever writes disjoint slices),
//! and on a multi-core host it should be measurably faster. The priced
//! matrix lands in `BENCH_eval.json` (`make eval`).

use darth_bench::{emit_json, print_table, Engine, JsonValue, Threading};
use darth_eval::registry::{all_models, extended_workloads};
use std::time::Instant;

fn build_engine() -> Engine {
    let mut engine = Engine::new();
    for workload in extended_workloads() {
        engine.register_workload(workload);
    }
    for model in all_models() {
        engine.register_model(model);
    }
    engine
}

fn main() {
    let mut serial_engine = build_engine();
    serial_engine.set_threading(Threading::Serial);
    let start = Instant::now();
    let serial_matrix = serial_engine.run();
    let serial_s = start.elapsed().as_secs_f64();

    // The default `Threading::Parallel` follows the one worker rule:
    // `DARTH_EVAL_THREADS` (e.g. to exercise the multi-threaded path on
    // a single-core CI box), else one worker per available core.
    let mut parallel_engine = build_engine();
    let start = Instant::now();
    let matrix = parallel_engine.run();
    let parallel_s = start.elapsed().as_secs_f64();

    assert_eq!(
        matrix, serial_matrix,
        "parallel and serial runs must be bit-identical"
    );
    // The pool the parallel run drew from, before each phase's cap at
    // its own item count.
    let threads = darth_pum::workers::worker_count(None, usize::MAX);
    println!(
        "priced {} workloads x {} models = {} cells",
        matrix.workloads.len(),
        matrix.models.len(),
        matrix.cells.len()
    );
    println!(
        "serial: {serial_s:.3} s; parallel ({threads} threads): {parallel_s:.3} s; speedup {:.2}x",
        serial_s / parallel_s
    );

    // Summary view: throughput and energy vs the SAR Baseline.
    let mut thr_rows: Vec<(String, Vec<f64>)> = Vec::new();
    let mut eng_rows: Vec<(String, Vec<f64>)> = Vec::new();
    let columns = ["digitalpum-oscar", "darth-sar", "appaccel", "gpu-rtx-4090"];
    for (w, workload) in matrix.workloads.iter().enumerate() {
        let baseline = matrix
            .cell(&workload.name, "baseline-sar")
            .expect("baseline column present");
        let mut thr = Vec::new();
        let mut eng = Vec::new();
        for column in columns {
            let m = matrix.model_index(column).expect("column present");
            thr.push(matrix.cell_at(w, m).speedup_over(baseline));
            eng.push(matrix.cell_at(w, m).energy_savings_over(baseline));
        }
        thr_rows.push((workload.name.clone(), thr));
        eng_rows.push((workload.name.clone(), eng));
    }
    thr_rows.push((
        "GeoMean".to_owned(),
        columns
            .iter()
            .map(|c| matrix.geomean_speedup(c, "baseline-sar"))
            .collect(),
    ));
    eng_rows.push((
        "GeoMean".to_owned(),
        columns
            .iter()
            .map(|c| matrix.geomean_energy_savings(c, "baseline-sar"))
            .collect(),
    ));
    let header = ["DigitalPUM", "DARTH-PUM", "AppAccel", "GPU"];
    print_table(
        "Extended matrix: throughput vs Baseline(SAR)",
        &header,
        &thr_rows,
    );
    print_table(
        "Extended matrix: energy savings vs Baseline(SAR)",
        &header,
        &eng_rows,
    );

    emit_json(
        "eval",
        &JsonValue::object(vec![
            ("schema", JsonValue::from("darth-bench-figure/v1")),
            ("figure", JsonValue::from("eval")),
            ("serial_seconds", JsonValue::from(serial_s)),
            ("parallel_seconds", JsonValue::from(parallel_s)),
            ("threads", JsonValue::from(threads)),
            ("matrix", matrix.to_json()),
        ]),
    );
}

//! `make eval-large`: the bulk scenarios the streaming trace pipeline
//! exists for, priced under a memory ceiling.
//!
//! Prices the [`large_workloads`] registry — ≥1M-block bulk AES, a
//! BERT-large encoder at a 4096-token context, a GPT-2-XL-scale stack,
//! ResNet-110 — on every architecture column: the engine records each
//! emission as a run-length summary and replays it into every model's
//! accumulator, cross-checked against a fused single-pass
//! [`price_on_all`]. Peak memory stays flat no matter how many blocks
//! stream by, which is why the `make eval-large` target runs this under
//! `ulimit -v`.
//!
//! Results land in `BENCH_eval_large.json` together with per-workload
//! stream statistics (op and kernel events, stored summary runs) and
//! the process's peak resident set.

use darth_bench::{emit_json, print_table, Engine, JsonValue, Threading};
use darth_eval::registry::{all_models, large_workloads};
use darth_pum::eval::{price_on_all, ArchModel};
use darth_pum::trace::TraceSummary;
use std::time::Instant;

/// Peak resident set (`VmHWM`) in kilobytes, or 0 when `/proc` is
/// unavailable.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Stored run-length entries across a summary's kernels.
fn summary_runs(summary: &TraceSummary) -> usize {
    summary.kernels.iter().map(|k| k.runs.len()).sum()
}

fn main() {
    let workloads = large_workloads();
    let models = all_models();
    let model_refs: Vec<&dyn ArchModel> = models.iter().map(AsRef::as_ref).collect();

    let start = Instant::now();
    // Each emission recorded once into the run-length summary cache and
    // replayed into every model…
    let mut engine = Engine::new();
    engine.set_threading(Threading::Parallel);
    for workload in large_workloads() {
        engine.register_workload(workload);
    }
    for model in all_models() {
        engine.register_model(model);
    }
    let matrix = engine.run();
    for workload in &workloads {
        // …with the stream statistics read back from that same cache (no
        // re-emission)…
        let summary = engine
            .summary(&workload.name())
            .expect("run() cached every registered stream");
        println!(
            "{:<22} {:>12} op events, {:>6} summary runs",
            workload.name(),
            summary.op_count(),
            summary_runs(summary),
        );
        // …and cross-checked against the fused single-pass fanout.
        let fused = price_on_all(workload.as_ref(), model_refs.iter().copied());
        for (report, model) in fused.iter().zip(&models) {
            let cell = matrix
                .cell(&workload.name(), &model.name())
                .expect("cell priced");
            assert_eq!(
                report,
                cell,
                "fused pass diverged from summary replay ({}, {})",
                workload.name(),
                model.name()
            );
        }
    }
    let priced_s = start.elapsed().as_secs_f64();
    println!(
        "\npriced {} workloads x {} models in {priced_s:.3} s; peak RSS {:.1} MB",
        workloads.len(),
        models.len(),
        peak_rss_kb() as f64 / 1024.0
    );

    // Summary view: throughput and energy vs the SAR Baseline.
    let columns = ["digitalpum-oscar", "darth-sar", "appaccel", "gpu-rtx-4090"];
    let mut thr_rows: Vec<(String, Vec<f64>)> = Vec::new();
    let mut eng_rows: Vec<(String, Vec<f64>)> = Vec::new();
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
    let header = ["DigitalPUM", "DARTH-PUM", "AppAccel", "GPU"];
    print_table(
        "Bulk scenarios: throughput vs Baseline(SAR)",
        &header,
        &thr_rows,
    );
    print_table(
        "Bulk scenarios: energy savings vs Baseline(SAR)",
        &header,
        &eng_rows,
    );

    let streams = workloads
        .iter()
        .map(|workload| {
            let name = workload.name();
            let summary = engine
                .summary(&name)
                .expect("run() cached every registered stream");
            JsonValue::object(vec![
                ("workload", JsonValue::from(name)),
                ("op_events", JsonValue::from(summary.op_count())),
                ("kernel_events", JsonValue::from(summary.kernel_count())),
                ("summary_runs", JsonValue::from(summary_runs(summary))),
            ])
        })
        .collect();
    emit_json(
        "eval_large",
        &JsonValue::object(vec![
            ("schema", JsonValue::from("darth-bench-figure/v1")),
            ("figure", JsonValue::from("eval_large")),
            ("priced_seconds", JsonValue::from(priced_s)),
            ("peak_rss_kb", JsonValue::from(peak_rss_kb())),
            ("streams", JsonValue::Array(streams)),
            ("matrix", matrix.to_json()),
        ]),
    );
}

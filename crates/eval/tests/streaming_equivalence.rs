//! The streaming equivalence regression: for every `(workload, model)`
//! cell of the extended registry (plus small bulk scenarios), pricing
//! the live op stream, replaying the engine's run-length summary, the
//! fused one-pass fanout (`price_on_all`), and the engine's own runs at
//! every worker count must all be **bit-identical**.
//!
//! This is the guarantee the engine's summary cache rests on: the
//! figure pipeline prices recordings, not live emissions, so any
//! divergence between the paths would silently change published
//! numbers.

use darth_apps::aes::workload::{AesVariant, BulkAesWorkload};
use darth_eval::registry::{all_models, extended_workloads, large_workloads};
use darth_eval::{Engine, Threading};
use darth_pum::eval::{price_on_all, ArchModel, Workload};
use darth_pum::trace::TraceSummary;

/// The equivalence corpus: every extended-registry scenario plus bulk
/// AES streams.
fn workloads() -> Vec<Box<dyn Workload>> {
    let mut workloads = extended_workloads();
    workloads.push(Box::new(BulkAesWorkload {
        variant: AesVariant::Aes128,
        blocks: 64,
    }));
    workloads.push(Box::new(BulkAesWorkload {
        variant: AesVariant::Aes256,
        blocks: 1000,
    }));
    workloads
}

/// `price(live stream)` == `price(recorded summary)`, for every cell.
#[test]
fn streamed_and_replayed_pricing_are_bit_identical() {
    let models = all_models();
    for workload in workloads() {
        let summary = TraceSummary::record(|r| workload.emit(r));
        for model in &models {
            let streamed = model.price(workload.as_ref());
            let replayed = model.price(&summary);
            let cell = format!("({}, {})", workload.name(), model.name());
            assert_eq!(streamed, replayed, "stream vs summary replay {cell}");
        }
    }
}

/// The engine's matrices agree at every worker count, and every cell
/// matches both the fused fanout (one emission, all models at once) and
/// per-model live streaming.
#[test]
fn engine_cells_match_direct_streaming_serial_and_parallel() {
    let matrices: Vec<_> = [
        Threading::Serial,
        Threading::Parallel,
        Threading::Workers(3),
    ]
    .into_iter()
    .map(|threading| {
        let mut engine = Engine::new();
        for workload in workloads() {
            engine.register_workload(workload);
        }
        for model in all_models() {
            engine.register_model(model);
        }
        engine.set_threading(threading);
        (threading, engine.run())
    })
    .collect();
    let serial_matrix = &matrices[0].1;
    for (threading, matrix) in &matrices[1..] {
        assert_eq!(serial_matrix, matrix, "serial vs {threading:?} run");
    }

    let models = all_models();
    let model_refs: Vec<&dyn ArchModel> = models.iter().map(AsRef::as_ref).collect();
    for workload in workloads() {
        let fused = price_on_all(workload.as_ref(), model_refs.iter().copied());
        assert_eq!(fused.len(), models.len());
        for (report, model) in fused.iter().zip(&models) {
            let cell = serial_matrix
                .cell(&workload.name(), &model.name())
                .expect("cell priced");
            assert_eq!(report, cell, "fanout vs engine ({})", workload.name());
            assert_eq!(
                &model.price(workload.as_ref()),
                cell,
                "stream vs engine ({}, {})",
                workload.name(),
                model.name()
            );
        }
    }
}

/// The large registry streams and prices without materializing; its
/// scenarios are the documented ones and their recorded summaries stay
/// compact even at million-op scale.
#[test]
fn large_registry_prices_by_replay_without_materializing() {
    let workloads = large_workloads();
    let names: Vec<String> = workloads.iter().map(|w| w.name()).collect();
    assert_eq!(
        names,
        [
            "aes-128-bulk1048576",
            "llm-large-seq4096",
            "llm-gpt2-xl",
            "resnet-110",
        ]
    );
    let models = all_models();
    for workload in &workloads {
        let summary = TraceSummary::record(|r| workload.emit(r));
        // Compact: far fewer stored runs than streamed events.
        let stored_runs: usize = summary.kernels.iter().map(|k| k.runs.len()).sum();
        assert!(
            stored_runs as u64 <= summary.op_count(),
            "{}: {} runs for {} ops",
            workload.name(),
            stored_runs,
            summary.op_count()
        );
        assert!(
            stored_runs < 1000,
            "{}: summary not compact",
            workload.name()
        );
        for model in &models {
            let report = model.price(&summary);
            assert!(
                report.latency_s > 0.0 && report.latency_s.is_finite(),
                "({}, {}) latency {}",
                workload.name(),
                model.name(),
                report.latency_s
            );
            assert!(report.energy_per_item_j > 0.0);
            assert!(report.throughput_items_per_s > 0.0);
        }
    }
    // The headline scenario really is ≥ 1M blocks: 71 op events per
    // AES-128 block (1 move, 10 S-box, 20 ShiftRows, 18 MixColumns and
    // 22 AddRoundKey ops), all folded into a handful of summary runs.
    let bulk = TraceSummary::record(|r| workloads[0].emit(r));
    assert!(bulk.op_count() >= 71 << 20, "{}", bulk.op_count());
}

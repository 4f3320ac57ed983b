//! The serving smoke suite (`make serve-smoke`, part of `make verify`):
//! a small bursty trace served on a fleet drawn from the real DSE
//! smoke-sweep frontier, asserting the engine's core contracts —
//! resident-program cache hits, sustained ≥ offered at low load with
//! zero rejections, bit-exact outputs against the reference executor
//! and software goldens, batching under overload, and bounded
//! admission.

use darth_eval::dse::{frontier_fleet, price_sweep, smoke_sweep};
use darth_eval::registry::paper_workloads;
use darth_eval::Threading;
use darth_serve::{
    fleet_from_frontier, measure_warm_vs_cold, standard_classes, trace, FleetChip, ServeEngine,
    TraceSpec,
};

#[test]
fn low_load_serving_on_the_frontier_fleet_meets_the_contracts() {
    // The real DSE → serving pipeline: price the smoke grid, extract
    // the aggregate Pareto frontier, replicate it into a 4-chip fleet.
    let points = smoke_sweep().generate().expect("smoke grid is valid");
    let matrix =
        price_sweep(&points, paper_workloads(), Threading::Serial).expect("smoke grid prices");
    let frontier = frontier_fleet(&points, &matrix);
    assert!(!frontier.is_empty(), "smoke frontier is empty");
    let fleet: Vec<FleetChip> = fleet_from_frontier(&frontier, 4)
        .into_iter()
        .map(|chip| chip.with_cache_capacity(8))
        .collect();
    assert_eq!(fleet.len(), 4);

    let classes = standard_classes().expect("classes compile");
    let class_count = classes.len();
    let spec = TraceSpec::bursty(11, 1500, 50_000.0);
    let requests = trace::generate(&spec, class_count);

    let engine = ServeEngine::new(classes, fleet)
        .expect("engine builds")
        .with_spot_interval(127);
    let report = engine.serve(&requests).expect("trace serves");

    // Everything admitted and served at low load.
    assert_eq!(report.requests, 1500);
    assert_eq!(report.rejected, 0, "low-load serving rejected requests");
    assert_eq!(report.served, 1500);

    // The resident-program cache is doing its job: with more requests
    // than programs, almost every dispatch hits.
    assert!(
        report.cache_hit_rate() > 0.5,
        "cache hit rate {} too low",
        report.cache_hit_rate()
    );
    assert!(report.cache.hits > 0);

    // Sustained throughput keeps up with offered load (the serving span
    // exceeds the arrival span only by the last requests' drain time).
    assert!(
        report.sustained_rps >= 0.95 * report.offered_rps,
        "sustained {} fell behind offered {}",
        report.sustained_rps,
        report.offered_rps
    );

    // Bit-exactness: sampled requests re-executed monolithically on the
    // reference executor and checked against software goldens, cell for
    // cell.
    assert!(report.spot_checks.checked > 0, "no spot checks sampled");
    assert_eq!(
        report.spot_checks.mismatches, 0,
        "served outputs diverged from the reference executor"
    );

    // Latency sanity: percentiles are ordered and positive.
    assert!(report.latency.p50_ns > 0);
    assert!(report.latency.p50_ns <= report.latency.p99_ns);
    assert!(report.latency.p99_ns <= report.latency.p999_ns);
    assert!(report.latency.p999_ns <= report.latency.max_ns);

    // Utilization is a real fraction on every chip, and busy_fraction —
    // measured over the chip's own window, never a longer span than the
    // fleet's — can only meet or exceed it.
    for chip in &report.chips {
        assert!(
            (0.0..=1.0).contains(&chip.utilization),
            "{}: utilization {}",
            chip.name,
            chip.utilization
        );
        assert!(
            (0.0..=1.0).contains(&chip.busy_fraction),
            "{}: busy_fraction {}",
            chip.name,
            chip.busy_fraction
        );
        if chip.served > 0 {
            assert!(
                chip.busy_fraction >= chip.utilization - 1e-12,
                "{}: busy_fraction {} fell below fleet-span utilization {}",
                chip.name,
                chip.busy_fraction,
                chip.utilization
            );
        }
    }

    // The JSON report carries the schema and the headline sections.
    let json = report.to_json().pretty();
    for needle in [
        "darth-serve/v1",
        "sustained_rps",
        "p999",
        "histogram",
        "hit_rate",
        "utilization",
        "busy_fraction",
        "output_digest",
    ] {
        assert!(json.contains(needle), "BENCH_serve.json missing {needle}");
    }
}

#[test]
fn overload_forms_batches_and_bounded_queues_reject() {
    let classes = standard_classes().expect("classes compile");
    let class_count = classes.len();

    // One slow chip, tiny queue, trace far above capacity: batches must
    // form (same-signature coalescing) and admission must reject.
    let fleet = vec![FleetChip::new("tiny/0", 1.0e9)
        .with_queue_capacity(24)
        .with_cache_capacity(8)];
    let mut spec = TraceSpec::bursty(23, 900, 50_000_000.0);
    // Narrow the mix so same-signature requests are adjacent often.
    spec.class_weights = vec![6.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
    let requests = trace::generate(&spec, class_count);

    let engine = ServeEngine::new(classes, fleet)
        .expect("engine builds")
        .with_spot_interval(0);
    let report = engine.serve(&requests).expect("trace serves");

    assert_eq!(report.served + report.rejected, 900);
    assert!(report.rejected > 0, "bounded queue never rejected");
    assert!(report.served > 0, "everything was rejected");
    assert!(
        report.batch_histogram.keys().any(|&size| size > 1),
        "overload never coalesced a batch: {:?}",
        report.batch_histogram
    );
    assert!(report.mean_batch_size() > 1.0);
    // Under sustained overload the chip never idles between batches.
    assert!(report.chips[0].utilization > 0.9);
}

#[test]
fn warm_and_cold_serving_arms_agree_on_every_request() {
    let classes = standard_classes().expect("classes compile");
    let aes = &classes[0];
    // `measure_warm_vs_cold` errors when any request's warm (resident
    // program) and cold (per-request prepare) outputs differ.
    let report = measure_warm_vs_cold(aes, 20).expect("warm/cold arms agree");
    assert_eq!(report.requests, 20);
    assert!(report.cold_s > 0.0 && report.warm_s > 0.0);
    // The warm-vs-cold speedup is wall-clock, so it is recorded by
    // `make serve` (BENCH_serve.json), not asserted here.
}

//! The serving benchmark (`make serve`): a ≥1M-request deterministic
//! bursty trace, mixed over the standard class registry (AES key sizes,
//! GEMM shapes, convolution layers), served on a fleet drawn from the
//! default DSE sweep's aggregate Pareto frontier. Emits
//! `BENCH_serve.json` (`darth-serve/v1`): offered vs. sustained
//! throughput, p50/p99/p999 latency, batch-size histogram, cache hit
//! rates, per-chip utilization, differential spot-check totals, and the
//! warm-vs-cold resident-program comparison.
//!
//! Environment knobs:
//!
//! * `DARTH_SERVE_REQUESTS` — trace length (default 1,000,000);
//! * `DARTH_SERVE_SEED` — trace seed (default 20260809);
//! * `DARTH_SERVE_LOAD` — offered load in requests/s (default 500,000);
//! * `DARTH_EVAL_THREADS` — execution worker count (default: one per
//!   core), identical results at any value.
//!
//! An unset `DARTH_SERVE_*` knob takes its default; a set but unusable
//! one (empty, garbage, `1e6` for a count) stops the run with an error
//! naming the variable and the value.

use darth_bench::{any_u64, emit_json, knob, positive_count, positive_rate, JsonValue, Threading};
use darth_eval::dse::{default_sweep, frontier_fleet, price_sweep};
use darth_eval::registry::paper_workloads;
use darth_serve::{
    fleet_from_frontier, measure_warm_vs_cold, standard_classes, trace, FleetChip, ServeEngine,
    TraceSpec,
};
use std::time::Instant;

fn main() {
    let requests = knob("DARTH_SERVE_REQUESTS", 1_000_000, positive_count);
    let seed = knob("DARTH_SERVE_SEED", 20_260_809, any_u64);
    let offered_rps = knob("DARTH_SERVE_LOAD", 500_000.0, positive_rate);

    // Fleet: the default sweep's aggregate Pareto frontier, replicated
    // to 8 chips with serving-sized caches.
    let points = default_sweep().generate().expect("default grid is valid");
    let sweep =
        price_sweep(&points, paper_workloads(), Threading::Parallel).expect("default grid builds");
    let frontier = frontier_fleet(&points, &sweep);
    assert!(!frontier.is_empty(), "the priced sweep has no frontier");
    let fleet: Vec<FleetChip> = fleet_from_frontier(&frontier, 8)
        .into_iter()
        .map(|chip| chip.with_cache_capacity(8).with_queue_capacity(512))
        .collect();
    println!(
        "fleet ({} chips from {} frontier points):",
        fleet.len(),
        frontier.len()
    );
    for chip in &fleet {
        println!("  {:<44} {:.2} GHz", chip.name, chip.clock_hz / 1e9);
    }

    let classes = standard_classes().expect("classes compile");
    let class_count = classes.len();
    let spec = TraceSpec::bursty(seed, requests, offered_rps);
    let start = Instant::now();
    let stream = trace::generate(&spec, class_count);
    println!(
        "\ntrace: {} requests over {} classes, seed {seed}, offered {offered_rps:.0} rps \
         (generated in {:.2} s)",
        stream.len(),
        class_count,
        start.elapsed().as_secs_f64()
    );

    let engine = ServeEngine::new(classes.clone(), fleet).expect("engine builds");
    let start = Instant::now();
    let mut report = engine.serve(&stream).expect("trace serves");
    let wall_s = start.elapsed().as_secs_f64();

    // Hard invariants: every sampled request is bit-exact against the
    // monolithic reference execution and the software golden.
    assert!(report.spot_checks.checked > 0, "no spot checks sampled");
    assert_eq!(
        report.spot_checks.mismatches, 0,
        "served outputs diverged from the reference executor"
    );
    assert_eq!(report.served + report.rejected, stream.len() as u64);

    // Warm vs. cold on the heaviest class (AES-256): what the resident
    // program cache buys over per-request preparation.
    let aes256 = classes
        .iter()
        .find(|class| class.name() == "aes256")
        .expect("standard classes include aes256");
    let warm_cold = measure_warm_vs_cold(aes256, 200).expect("warm/cold arms agree");
    assert!(
        warm_cold.speedup > 1.0,
        "resident serving did not beat cold per-request prepare"
    );
    report.warm_vs_cold = Some(warm_cold);

    println!(
        "\n=== serving ({} requests, {:.1} s wall) ===",
        report.requests, wall_s
    );
    println!(
        "  served {} / rejected {}  offered {:>12.0} rps  sustained {:>12.0} rps",
        report.served, report.rejected, report.offered_rps, report.sustained_rps
    );
    println!(
        "  latency p50 {:>10} ns  p99 {:>10} ns  p999 {:>10} ns  max {:>10} ns",
        report.latency.p50_ns, report.latency.p99_ns, report.latency.p999_ns, report.latency.max_ns
    );
    println!(
        "  batches {}  mean batch size {:.2}  cache hit rate {:.4}  ({} hits / {} misses / {} evictions)",
        report.batches(),
        report.mean_batch_size(),
        report.cache_hit_rate(),
        report.cache.hits,
        report.cache.misses,
        report.cache.evictions
    );
    println!(
        "  spot checks {} (0 mismatches)  wall throughput {:>10.0} req/s",
        report.spot_checks.checked,
        report.served as f64 / wall_s.max(1e-12)
    );
    println!("\n=== per-chip utilization ===");
    for chip in &report.chips {
        println!(
            "  {:<44} served {:>8}  batches {:>8}  util {:>6.3}",
            chip.name, chip.served, chip.batches, chip.utilization
        );
    }
    let wc = report.warm_vs_cold.expect("just set");
    println!(
        "\nwarm vs cold ({} requests): cold {:.3} s, warm {:.3} s, speedup {:.1}x",
        wc.requests, wc.cold_s, wc.warm_s, wc.speedup
    );

    // Wrap the serving report with the trace spec so BENCH_serve.json
    // is self-describing and exactly reproducible.
    let mut json = report.to_json();
    if let JsonValue::Object(pairs) = &mut json {
        pairs.insert(
            1,
            (
                "trace".into(),
                JsonValue::object(vec![
                    ("seed", JsonValue::from(seed)),
                    ("requests", JsonValue::from(requests)),
                    ("offered_rps", JsonValue::from(offered_rps)),
                    ("classes", JsonValue::from(class_count)),
                    ("wall_seconds", JsonValue::from(wall_s)),
                ]),
            ),
        );
    }
    emit_json("serve", &json);
}

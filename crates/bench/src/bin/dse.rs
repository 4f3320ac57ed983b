//! The design-space exploration sweep: the default 48-configuration
//! grid (ADC kind × resolution × crossbar geometry × slicing × clock)
//! priced on the full extended workload registry, with the paper's SAR
//! and ramp design points asserted to reproduce the Figure 13 pricing
//! byte-for-byte inside the sweep.
//!
//! The serial pass is the reference: the parallel pass must produce a
//! bit-identical sweep (each workload row replays once into a fanout
//! over all design-point columns; workers own disjoint rows). Results —
//! the priced matrix, Pareto frontiers over (latency, energy, tile
//! area) and the per-workload best-config table — land in
//! `BENCH_dse.json` (`make dse`).

use darth_analog::adc::AdcKind;
use darth_bench::{all_reports, emit_json, knob, positive_count, Threading};
use darth_eval::dse::{default_sweep, price_sweep, Metric};
use darth_eval::mc::{attach_accuracy, McConfig};
use darth_eval::registry::extended_workloads;
use darth_pum::config::DarthConfig;
use std::time::Instant;

fn main() {
    let trials = knob("DARTH_MC_TRIALS", 4, positive_count);
    let sweep_def = default_sweep();
    let points = sweep_def.generate().expect("default grid is valid");
    assert!(points.len() >= 48, "default grid shrank below 48 configs");

    let start = Instant::now();
    let serial =
        price_sweep(&points, extended_workloads(), Threading::Serial).expect("default grid builds");
    let serial_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut sweep = price_sweep(&points, extended_workloads(), Threading::Parallel)
        .expect("default grid builds");
    let parallel_s = start.elapsed().as_secs_f64();
    assert_eq!(
        sweep, serial,
        "parallel and serial sweeps must be bit-identical"
    );
    println!(
        "priced {} configs x {} workloads = {} cells (serial {serial_s:.3} s, parallel {parallel_s:.3} s)",
        sweep.points.len(),
        sweep.matrix.workloads.len(),
        sweep.matrix.cells.len()
    );

    // The paper's design points, byte-identical inside the sweep: each
    // sweep cell equals the Figure 13–18 engine pricing (CostReport
    // equality), and the rendered figure numbers — the Figure 13
    // throughput-vs-Baseline ratios — match as strings.
    for adc in [AdcKind::Sar, AdcKind::Ramp] {
        let paper = DarthConfig::paper(adc);
        let point = sweep
            .points
            .iter()
            .find(|p| p.config_params == paper.params())
            .unwrap_or_else(|| panic!("paper {adc:?} point missing from the sweep"));
        for report in all_reports(adc) {
            let cell = sweep
                .cell(&report.name, &point.name)
                .expect("paper workload is in the sweep");
            assert_eq!(
                cell, &report.darth,
                "{}: sweep cell diverged from the figure pricing",
                report.name
            );
            let figure_number = format!("{}", report.darth.speedup_over(&report.baseline));
            let sweep_number = format!("{}", cell.speedup_over(&report.baseline));
            assert_eq!(figure_number, sweep_number, "{}", report.name);
        }
        println!(
            "paper design point reproduced byte-identically: {}",
            point.name
        );
    }

    // Aggregate Pareto frontier over (geomean latency, geomean energy,
    // tile area).
    println!("\n=== Aggregate Pareto frontier (latency / energy / tile area) ===");
    for p in sweep.pareto_frontier_aggregate() {
        let (latency, energy) = sweep.aggregate(p);
        println!(
            "  {:<44} {latency:>12.3e} s {energy:>12.3e} J {:>12.0} um2",
            sweep.points[p].name, sweep.points[p].tile_area_um2
        );
    }

    println!("\n=== Per-workload best configs ===");
    println!(
        "  {:<20}{:<40}{:<40}{:<40}",
        "workload", "best latency", "best energy", "best throughput"
    );
    for (workload, [latency, energy, throughput]) in sweep.best_table() {
        let name = |p: Option<usize>| p.map_or("-".to_owned(), |p| sweep.points[p].name.clone());
        println!(
            "  {workload:<20}{:<40}{:<40}{:<40}",
            name(latency),
            name(energy),
            name(throughput)
        );
    }
    // Every row of a fully-priced sweep has a winner under every metric.
    for workload in &sweep.matrix.workloads {
        for metric in [Metric::Latency, Metric::Energy, Metric::Throughput] {
            assert!(
                sweep.best_for(&workload.name, metric).is_some(),
                "{}: no finite cell under {metric:?}",
                workload.name
            );
        }
    }

    // Monte-Carlo accuracy: executed noise-injected trials of the
    // standard functional workloads at every design point attach the
    // 4th (accuracy) Pareto axis to each row. Trial count per
    // (point, workload): `trials` (DARTH_MC_TRIALS, default 4).
    let mc = McConfig::evaluation().with_trials(trials);
    let start = Instant::now();
    attach_accuracy(&mut sweep, &points, &mc).expect("Monte-Carlo campaign runs");
    assert!(
        sweep.points.iter().all(|p| p.accuracy.is_some()),
        "a sweep row is missing its Monte-Carlo accuracy"
    );
    println!(
        "\nMonte-Carlo accuracy attached: {} points x {} trials/workload in {:.2} s",
        sweep.points.len(),
        trials,
        start.elapsed().as_secs_f64()
    );

    emit_json("dse", &sweep.to_json());
}

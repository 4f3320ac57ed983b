//! The Monte-Carlo accuracy campaign at the paper's design points
//! (`make mc`): executed noise-injected trials of the standard
//! functional workloads (AES-128 FIPS-197, integer GEMM, conv, reduce)
//! on the SAR and ramp paper configurations, reporting per-workload
//! error statistics and trial throughput to `BENCH_mc.json`
//! (schema `darth-mc/v1`).
//!
//! Before the noisy campaign, a zero-sigma pass asserts the
//! noise-injected execution path reproduces the golden outputs
//! bit-exactly — noise-off and ideal are the same machine. Trial count:
//! `DARTH_MC_TRIALS` (default 32; a set value must be a positive integer).

use darth_analog::adc::AdcKind;
use darth_bench::{emit_json, knob, positive_count, JsonValue};
use darth_eval::dse::DesignPoint;
use darth_eval::mc::{measure_accuracy, standard_workloads, McConfig};
use darth_pum::config::DarthConfig;
use std::time::Instant;

fn paper_points() -> Vec<DesignPoint> {
    [AdcKind::Sar, AdcKind::Ramp]
        .iter()
        .map(|&adc| DesignPoint {
            name: format!("paper-{}", adc.slug()),
            axis_values: vec![("adc".to_owned(), adc.slug().to_owned())],
            config: DarthConfig::paper(adc),
        })
        .collect()
}

fn main() {
    let trials = knob("DARTH_MC_TRIALS", 32, positive_count);
    let points = paper_points();
    let workloads = standard_workloads();

    // Zero-sigma gate: all noise sources zeroed, still on the noisy
    // code path, must match the golden outputs bit-exactly.
    let exact = measure_accuracy(&points, &workloads, &McConfig::zero_sigma().with_trials(1))
        .expect("zero-sigma campaign runs");
    for (point, accuracy) in points.iter().zip(&exact) {
        assert_eq!(
            accuracy.mean_error, 0.0,
            "{}: zero-sigma trials diverged from the golden outputs",
            point.name
        );
    }
    println!("zero-sigma campaign reproduced the golden outputs bit-exactly");

    let mc = McConfig::evaluation().with_trials(trials);
    let start = Instant::now();
    let accuracies = measure_accuracy(&points, &workloads, &mc).expect("campaign runs");
    let elapsed = start.elapsed().as_secs_f64();
    let trials = points.len() * workloads.len() * mc.trials;
    let trials_per_second = trials as f64 / elapsed.max(1e-12);

    println!(
        "\n=== Monte-Carlo accuracy (sigma_w = {}, sigma_r = {}, {} trials/workload) ===",
        mc.program_sigma, mc.read_sigma, mc.trials
    );
    for (point, accuracy) in points.iter().zip(&accuracies) {
        println!("{}:", point.name);
        for w in &accuracy.workloads {
            println!(
                "  {:<24} mean {:>10.3e}  worst {:>10.3e}  exact {}/{}",
                w.workload, w.mean_error, w.worst_error, w.exact_trials, w.trials
            );
        }
    }
    println!("\n{trials} trials in {elapsed:.2} s = {trials_per_second:.1} trials/s");

    emit_json(
        "mc",
        &JsonValue::object(vec![
            ("schema", JsonValue::from("darth-mc/v1")),
            ("trials_per_workload", JsonValue::from(mc.trials)),
            ("root_seed", JsonValue::from(mc.root_seed)),
            ("program_sigma", JsonValue::from(mc.program_sigma)),
            ("read_sigma", JsonValue::from(mc.read_sigma)),
            ("ir_drop_alpha", JsonValue::from(mc.ir_drop_alpha)),
            ("trials_per_second", JsonValue::from(trials_per_second)),
            (
                "points",
                JsonValue::array(
                    points
                        .iter()
                        .zip(&accuracies)
                        .map(|(p, a)| {
                            JsonValue::object(vec![
                                ("name", JsonValue::from(&p.name)),
                                ("accuracy", a.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    );
}

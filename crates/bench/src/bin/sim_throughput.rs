//! Self-timed throughput report for the two functional-simulator
//! backends (`make bench`): the reference interpreter (`SimExecutor`)
//! and the fast path (`FastExecutor`: packed bit-planes, sharded tiles).
//!
//! A bulk-AES batch runs through both backends — fast at 1 worker and at
//! one worker per core — and the simulated-instructions-per-second points
//! land in `BENCH_sim.json` (schema `darth-bench-sim/v1`). Block count:
//! `DARTH_SIM_BENCH_BLOCKS` (default 64; the reference interpreter is
//! the budget constraint; a set value must be a positive integer).

use darth_bench::{emit_json, knob, positive_count, JsonValue};
use darth_sim::{bulk_aes_cases, FastExecutor, SimExecutor, StatExecutor};
use std::time::{Duration, Instant};

/// One measured configuration of the throughput sweep.
struct Point {
    executor: &'static str,
    workers: usize,
    instructions: u64,
    elapsed: Duration,
}

impl Point {
    fn instr_per_sec(&self) -> f64 {
        self.instructions as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }

    fn json(&self) -> JsonValue<'_> {
        JsonValue::object(vec![
            ("executor", JsonValue::from(self.executor)),
            ("workers", JsonValue::from(self.workers)),
            ("instructions", JsonValue::from(self.instructions)),
            ("seconds", JsonValue::from(self.elapsed.as_secs_f64())),
            ("instr_per_sec", JsonValue::from(self.instr_per_sec())),
        ])
    }
}

fn main() {
    let blocks = knob("DARTH_SIM_BENCH_BLOCKS", 64, positive_count);
    let jobs: Vec<_> = bulk_aes_cases(blocks)
        .iter()
        .map(|case| case.executable.job().expect("compiles"))
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut points = Vec::new();

    // Reference interpreter, serial (it has no batch mode by design).
    let reference = SimExecutor::new();
    let start = Instant::now();
    let mut instructions = 0u64;
    for job in &jobs {
        let (_, stats) = reference.execute_with_stats(job).expect("reference runs");
        instructions += stats.run.instructions;
    }
    points.push(Point {
        executor: "darth-sim",
        workers: 1,
        instructions,
        elapsed: start.elapsed(),
    });

    // Fast path at 1 worker (packed planes alone)
    // and at one worker per core (sharding on top).
    for workers in [1, cores] {
        let fast = FastExecutor::new().with_workers(workers);
        let start = Instant::now();
        let stats = fast.execute_batch_with_stats(&jobs).expect("fast runs");
        let elapsed = start.elapsed();
        points.push(Point {
            executor: "darth-sim-fast",
            workers,
            instructions: stats.iter().map(|(_, s)| s.run.instructions).sum(),
            elapsed,
        });
        if workers == cores {
            break; // cores == 1: don't measure the same point twice
        }
    }

    let reference_rate = points[0].instr_per_sec();
    println!("\n=== sim_throughput ({blocks} AES blocks) ===");
    for p in &points {
        println!(
            "{:<14} workers={:<3} {:>12} instructions in {:>8.3}s = {:>12.0} instr/s ({:>6.1}x)",
            p.executor,
            p.workers,
            p.instructions,
            p.elapsed.as_secs_f64(),
            p.instr_per_sec(),
            p.instr_per_sec() / reference_rate,
        );
    }

    let best = points
        .iter()
        .map(Point::instr_per_sec)
        .fold(0.0f64, f64::max);
    let report = JsonValue::object(vec![
        ("schema", JsonValue::from("darth-bench-sim/v1")),
        ("blocks", JsonValue::from(blocks)),
        (
            "points",
            JsonValue::array(points.iter().map(Point::json).collect()),
        ),
        (
            "fast_speedup_1_worker",
            JsonValue::from(points[1].instr_per_sec() / reference_rate),
        ),
        ("fast_speedup_best", JsonValue::from(best / reference_rate)),
    ]);
    emit_json("sim", &report);
}

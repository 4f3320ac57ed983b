//! Criterion bench + machine-readable throughput report for the two
//! functional-simulator backends: the reference interpreter
//! (`SimExecutor`) and the fast path (`FastExecutor`: packed bit-planes,
//! sharded tiles).
//!
//! Criterion covers per-block latency; the self-timed section then runs
//! a bulk-AES batch through both backends — fast at 1 worker and at one
//! worker per core — and writes simulated-instructions-per-second points
//! to `BENCH_sim.json` (schema `darth-bench-sim/v1`). Block count:
//! `DARTH_SIM_BENCH_BLOCKS` (default 64; the reference interpreter is
//! the budget constraint).

use criterion::{criterion_group, Criterion};
use darth_bench::{emit_json, JsonValue};
use darth_pum::eval::ExecJob;
use darth_sim::{bulk_aes_cases, FastExecutor, SimExecutor, StatExecutor};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bulk_jobs(blocks: usize) -> Vec<ExecJob> {
    bulk_aes_cases(blocks)
        .iter()
        .map(|case| case.executable.job().expect("compiles"))
        .collect()
}

fn bench_block_latency(c: &mut Criterion) {
    let job = &bulk_jobs(1)[0];
    let reference = SimExecutor::new();
    c.bench_function("sim_reference_aes_block", |b| {
        b.iter(|| black_box(reference.execute_with_stats(black_box(job)).expect("runs")))
    });
    let fast = FastExecutor::new();
    c.bench_function("sim_fast_aes_block", |b| {
        b.iter(|| black_box(fast.execute_with_stats(black_box(job)).expect("runs")))
    });
}

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

fn throughput_report() {
    let blocks: usize = std::env::var("DARTH_SIM_BENCH_BLOCKS")
        .ok()
        .and_then(|raw| raw.trim().parse().ok())
        .unwrap_or(64);
    let jobs = bulk_jobs(blocks);
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_block_latency
}

fn main() {
    benches();
    throughput_report();
}

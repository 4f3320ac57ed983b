//! Host wall-time benchmark of the DARTH-PUM simulator stack.
//!
//! ```text
//! hostbench --workload <serve-aes|serve-mvm|serve-thrash|mc-paper>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs on one execution worker. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` adds a traced replay and prints the
//! per-layer metrics instead. The metric table goes to standard error;
//! the last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md` next
//! to this package for what each metric measures.

mod analog;
mod mc;
mod serve;
mod util;

use std::process::ExitCode;

/// End-to-end metrics (`--trace 0`): name and unit. Host metrics are wall
/// time of the machine running the benchmark; simulated metrics are
/// deterministic for a seed and must not move when only the simulator gets
/// faster.
const END_TO_END: &[(&str, &str)] = &[
    ("host_ops_per_s", "1/s"),       // host: ops per second, fastest call
    ("setup_s", "s"),                // host: median set-up time
    ("peak_rss_mb", "MiB"),          // host: VmHWM of the process
    ("exact_share", "share"),        // simulated: share of outputs equal to the golden
    ("sim_cycles_per_op", "cycles"), // simulated: busy cycles per request or trial
    // simulated: virtual latency (µs of the modelled chip's time, not host
    // time), median and 99th percentile
    ("virt_p50_us", "virt_us"),
    ("virt_p99_us", "virt_us"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A workload that does
/// not exercise a layer reports 0 for it (see `README.md`).
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.trace_gen_ms", "ms"),
    ("serve.stub_us", "us"),
    ("serve.engine_self_us", "us"),
    ("serve.uncovered_us", "us"),
    ("serve.batch_mean", "count"),
    ("serve.rejected", "count"),
    ("trace.overhead_us", "us"),
    ("sim.clone_us", "us"),
    ("sim.resident_build_us", "us"),
    ("sim.resident_build_share", "share"),
    ("sim.readback_us", "us"),
    ("sim.energy_us", "us"),
    ("sim.prepare_us", "us"),
    ("sim.run_prepared_us", "us"),
    ("sim.cache_hit_rate", "share"),
    ("sim.cache_misses", "count"),
    ("core.tile_build_us", "us"),
    ("core.setup_exec_us", "us"),
    ("core.input_exec_us", "us"),
    ("core.body_share", "share"),
    ("core.body_us_p50", "us"),
    ("core.body_us_p99", "us"),
    ("core.sim_instr_per_s", "1/s"),
    ("analog.mvms_per_op", "count"),
    ("analog.mvm_1b_us", "us"),
    ("analog.mvm_8b_us", "us"),
    ("analog.mvm_noisy_us", "us"),
    ("analog.program_ideal_us", "us"),
    ("analog.program_noisy_us", "us"),
    ("reram.saturated_writes", "count"),
    ("digital.dce_instr_per_op", "count"),
    ("kir.compile_ms", "ms"),
    ("eval.price_sweep_ms", "ms"),
    ("eval.mc_trial_us", "us"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("hostbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.workload == "mc-paper" {
        mc::run(args.seed, args.seconds, args.trace)
    } else if let Some(spec) = serve::workload(&args.workload) {
        serve::run(&spec, args.seed, args.seconds, args.trace)
    } else {
        eprintln!("hostbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("hostbench: {} failed: {err}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let sheet = if args.trace { PER_LAYER } else { END_TO_END };
    if let Some((name, _)) = outcome
        .metrics
        .0
        .iter()
        .find(|(name, _)| !sheet.iter().any(|(n, _)| n == name))
    {
        eprintln!("hostbench: {name} is not a metric of this sheet");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "{} seed {}: attempted {} failed {} correct {}",
        args.workload, args.seed, outcome.attempted, outcome.failed, outcome.correct
    );
    let mut json = Vec::with_capacity(sheet.len());
    for &(name, unit) in sheet {
        // Non-finite values only come from a broken run; 0 keeps the
        // line valid JSON.
        let value = outcome
            .metrics
            .get(name)
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        eprintln!("  {name:<26} {value:>16.4} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        json.join(", ")
    );
    ExitCode::SUCCESS
}

//! The `mc-paper` workload: the noise-aware Monte-Carlo accuracy campaign
//! (`McConfig::evaluation`) at the paper's SAR and ramp design points over
//! `mc::standard_workloads`, on one worker — the only path through noisy
//! f64 crossbars and cold per-trial `FastExecutor::prepare`.
//!
//! * **Set-up** (`setup_s`): build the two paper design points, price them
//!   (the rows the accuracy attaches to), and stage the workloads.
//! * **Timed phase**: nothing but `mc::measure_accuracy` on a campaign of
//!   [`CALL_TRIALS`] trials per (point, workload), repeated with the same
//!   seed until the time budget is spent; the headline is the trials per
//!   host second of the fastest call.
//! * **Verification**: every timed campaign must equal the first; a
//!   zero-sigma campaign must reproduce the goldens bit-exactly; and a
//!   replay of a [`TRIALS`]-trial campaign through `FastExecutor::prepare`
//!   and `run_prepared` must reproduce both that campaign's and the timed
//!   campaign's exact-trial counts (trial seeds depend only on the trial's
//!   indices, so the timed trials are the first trials of the longer
//!   campaign). The longer campaign gives the simulated metrics.
//! * **Traced run** (`--trace 1`): the replay's spans — `sim.prepare`
//!   and `sim.run_prepared` per trial, plus an excluded decomposition of
//!   each run — give the per-layer numbers.
//!
//! [`layers`] runs the same replay on a small campaign inside the traced
//! run of every serving workload.

use crate::analog::{median_times, time_ace, AceTimes};
use crate::serve::Outcome;
use crate::util::{median, peak_rss_mb, percentile, secs, Metrics, Span, Tracer};
use darth_analog::adc::AdcKind;
use darth_eval::dse::{price_sweep, DesignPoint};
use darth_eval::mc::{measure_accuracy, standard_workloads, trial_seed, McConfig, PointAccuracy};
use darth_eval::registry::paper_workloads;
use darth_eval::Threading;
use darth_pum::config::DarthConfig;
use darth_pum::eval::{ExecJob, ExecOutput, Executable};
use darth_pum::Error;
use darth_sim::{FastExecutor, FastMachine};
use std::time::Instant;

/// Trials per (design point, workload) in one timed campaign, and in the
/// small campaign of the serving workloads' traced runs.
const CALL_TRIALS: usize = 2;
/// Trials per (design point, workload) in the campaign the simulated
/// metrics come from.
const TRIALS: usize = 24;
/// Minimum timed campaigns per run, whatever the time budget.
const MIN_CALLS: usize = 3;

/// The paper's SAR and ramp design points (as `make mc` builds them).
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

struct Setup {
    points: Vec<DesignPoint>,
    workloads: Vec<Box<dyn Executable>>,
}

#[derive(Clone, Copy)]
struct SetupTimes {
    price_sweep_ms: f64,
    total_s: f64,
}

fn setup() -> darth_pum::Result<(Setup, SetupTimes)> {
    let start = Instant::now();
    let points = paper_points();
    price_sweep(&points, paper_workloads(), Threading::Serial)?;
    let price_sweep_ms = secs(start) * 1e3;
    let workloads = standard_workloads();
    let times = SetupTimes {
        price_sweep_ms,
        total_s: secs(start),
    };
    Ok((Setup { points, workloads }, times))
}

/// A campaign for `seed`: evaluation sigmas, one worker.
fn campaign(seed: u64, trials: usize) -> McConfig {
    McConfig::evaluation()
        .with_trials(trials)
        .with_workers(1)
        .with_root_seed(seed)
}

/// Runs `mc-paper`.
pub fn run(seed: u64, seconds: f64, traced: bool) -> darth_pum::Result<Outcome> {
    // Set-up once before the timed phase and again after every timed call
    // (results discarded); `setup_s` is the median, as in the serving
    // workloads.
    let (Setup { points, workloads }, first_setup) = setup()?;
    let mut setups = vec![first_setup];
    let mc = campaign(seed, CALL_TRIALS);
    let per_call = (points.len() * workloads.len() * CALL_TRIALS) as u64;

    // Timed phase: only the call into the program.
    let mut call_s = Vec::new();
    let mut results = Vec::new();
    let start = Instant::now();
    while call_s.len() < MIN_CALLS || secs(start) < seconds {
        let call = Instant::now();
        let result = measure_accuracy(&points, &workloads, &mc);
        call_s.push(secs(call));
        results.push(result);
        setups.push(setup()?.1);
    }
    let setup_s = median(&setups.iter().map(|t| t.total_s).collect::<Vec<_>>());
    let timed_s = secs(start);
    let peak_rss = peak_rss_mb();

    // Verification, outside the timed region.
    let verify = Instant::now();
    let mut attempted = per_call * results.len() as u64;
    let mut failed = 0u64;
    let mut rates = Vec::new();
    let mut first: Option<&Vec<PointAccuracy>> = None;
    for (result, &dt) in results.iter().zip(&call_s) {
        let accuracies = match result {
            Ok(accuracies) => accuracies,
            Err(err) => {
                eprintln!("campaign failed: {err}");
                failed += per_call;
                continue;
            }
        };
        rates.push(per_call as f64 / dt);
        if accuracies != *first.get_or_insert(accuracies) {
            eprintln!("campaign differs between calls with the same seed");
            failed += per_call;
        }
    }
    let zero = McConfig::zero_sigma().with_trials(1).with_workers(1);
    let zero_exact = measure_accuracy(&points, &workloads, &zero).is_ok_and(|acc| {
        acc.iter()
            .flat_map(|p| &p.workloads)
            .all(|w| w.mean_error == 0.0 && w.exact_trials == w.trials)
    });
    if !zero_exact {
        eprintln!("zero-sigma campaign did not reproduce the goldens bit-exactly");
    }
    let long = campaign(seed, TRIALS);
    let long_trials = (points.len() * workloads.len() * TRIALS) as u64;
    attempted += long_trials;
    let accuracies = measure_accuracy(&points, &workloads, &long)?;
    let mut tracer = Tracer::new();
    let replay = replay(&points, &workloads, &long, traced, &mut tracer)?;
    let replay_ok = replay.matches(&accuracies, TRIALS)
        && first.is_some_and(|acc| replay.matches(acc, CALL_TRIALS));
    if !replay_ok {
        eprintln!("trial replay disagrees with measure_accuracy's exact-trial counts");
        failed += long_trials;
    }
    let verify_s = secs(verify);
    let correct = failed == 0 && zero_exact && replay_ok;
    let best = rates.iter().copied().fold(0.0, f64::max);
    eprintln!(
        "timed phase: {} campaigns x {per_call} trials in {timed_s:.2} s, best {best:.1} / \
         median {:.1} trials/s; verification {verify_s:.2} s (not in host_ops_per_s); \
         simulated metrics over {} trials",
        call_s.len(),
        median(&rates),
        replay.cycles.len()
    );

    let mut metrics = Metrics::default();
    let trials = replay.cycles.len().max(1) as f64;
    if !traced {
        let exact: usize = replay.exact_counts(TRIALS).iter().flatten().sum();
        let virt_us: Vec<f64> = replay.virt_ns.iter().map(|ns| ns / 1e3).collect();
        // The fastest call: the host's contention phases only ever slow a
        // call down.
        metrics.put("host_ops_per_s", best);
        metrics.put("setup_s", setup_s);
        metrics.put("peak_rss_mb", peak_rss);
        metrics.put("exact_share", exact as f64 / trials);
        metrics.put(
            "sim_cycles_per_op",
            replay.cycles.iter().sum::<u64>() as f64 / trials,
        );
        metrics.put("virt_p50_us", percentile(&virt_us, 0.50));
        metrics.put("virt_p99_us", percentile(&virt_us, 0.99));
        return Ok(Outcome {
            attempted,
            failed,
            correct,
            metrics,
        });
    }

    let per_trial = |name: &str| tracer.total_us(name) / trials;
    let body = tracer.durations_us("core.body");
    let ideal = median_times(&replay.ideal_ace);
    let noisy = median_times(&replay.noisy_ace);
    // Untraced reference next to the replay: the same campaign once more,
    // right after it.
    let again = Instant::now();
    measure_accuracy(&points, &workloads, &long)?;
    let untraced_us_per_op = secs(again) * 1e6 / long_trials as f64;
    let overhead_us = replay.wall_s * 1e6 / trials - untraced_us_per_op;
    eprintln!(
        "coverage: untraced {untraced_us_per_op:.2} us/trial; traced trial spans {:.2} us/trial; \
         tracing overhead {overhead_us:.2} us/trial",
        per_trial("eval.mc_trial")
    );
    metrics.put("trace.overhead_us", overhead_us);
    metrics.put("sim.clone_us", per_trial("sim.clone"));
    metrics.put("sim.readback_us", per_trial("sim.readback"));
    metrics.put("sim.prepare_us", per_trial("sim.prepare"));
    metrics.put("sim.run_prepared_us", per_trial("sim.run_prepared"));
    metrics.put("core.tile_build_us", per_trial("core.tile_build"));
    metrics.put(
        "core.body_share",
        per_trial("core.body") / untraced_us_per_op,
    );
    metrics.put("core.body_us_p50", percentile(&body, 0.50));
    metrics.put("core.body_us_p99", percentile(&body, 0.99));
    metrics.put(
        "core.sim_instr_per_s",
        replay.instructions as f64 / (tracer.total_us("core.body") / 1e6).max(1e-12),
    );
    metrics.put(
        "analog.mvms_per_op",
        replay.analog_instructions as f64 / trials,
    );
    metrics.put("analog.mvm_1b_us", ideal.mvm_1b_us);
    metrics.put("analog.mvm_8b_us", ideal.mvm_8b_us);
    metrics.put("analog.mvm_noisy_us", noisy.mvm_8b_us);
    metrics.put("analog.program_ideal_us", ideal.program_us);
    metrics.put("analog.program_noisy_us", noisy.program_us);
    metrics.put("reram.saturated_writes", replay.saturated_writes as f64);
    metrics.put(
        "digital.dce_instr_per_op",
        (replay.instructions - replay.analog_instructions) as f64 / trials,
    );
    metrics.put("kir.compile_ms", replay.compile_ms);
    metrics.put(
        "eval.price_sweep_ms",
        median(&setups.iter().map(|t| t.price_sweep_ms).collect::<Vec<_>>()),
    );
    metrics.put("eval.mc_trial_us", per_trial("eval.mc_trial"));

    let path = std::path::Path::new(".bench_out").join(format!("spans-mc-paper-{seed}.json"));
    if let Err(err) = tracer.write_chrome(&path) {
        eprintln!("could not write {}: {err}", path.display());
    }
    Ok(Outcome {
        attempted,
        failed,
        correct,
        metrics,
    })
}

/// Host µs per trial of each Monte-Carlo layer, plus counts, from the
/// small campaign inside a serving workload's traced run.
pub struct McLayers {
    pub prepare_us: f64,
    pub run_prepared_us: f64,
    pub trial_us: f64,
    pub mvm_noisy_us: f64,
    pub program_noisy_us: f64,
    pub saturated_writes: u64,
    /// Whether the replay reproduced `measure_accuracy`'s exact-trial
    /// counts.
    pub faithful: bool,
}

/// Runs a [`CALL_TRIALS`]-trial campaign for `seed` through the program
/// and the replay.
pub fn layers(seed: u64, tr: &mut Tracer) -> darth_pum::Result<McLayers> {
    let points = paper_points();
    let workloads = standard_workloads();
    let mc = campaign(seed, CALL_TRIALS);
    let accuracies = measure_accuracy(&points, &workloads, &mc)?;
    let replay = replay(&points, &workloads, &mc, true, tr)?;
    let trials = replay.cycles.len().max(1) as f64;
    let noisy = median_times(&replay.noisy_ace);
    Ok(McLayers {
        prepare_us: tr.total_us("sim.prepare") / trials,
        run_prepared_us: tr.total_us("sim.run_prepared") / trials,
        trial_us: tr.total_us("eval.mc_trial") / trials,
        mvm_noisy_us: noisy.mvm_8b_us,
        program_noisy_us: noisy.program_us,
        saturated_writes: replay.saturated_writes,
        faithful: replay.matches(&accuracies, CALL_TRIALS),
    })
}

/// What the trial replay observed.
struct Replay {
    /// Whether each trial was exact, per (point, workload), in campaign
    /// order.
    exact: Vec<Vec<Vec<bool>>>,
    /// Simulated busy cycles of each trial.
    cycles: Vec<u64>,
    /// Each trial's busy cycles at its design point's clock, in ns.
    virt_ns: Vec<f64>,
    instructions: u64,
    analog_instructions: u64,
    saturated_writes: u64,
    /// Host ms to stage (compile) every workload's job and golden.
    compile_ms: f64,
    /// Host seconds of the replay without its excluded decomposition.
    wall_s: f64,
    ideal_ace: Vec<AceTimes>,
    noisy_ace: Vec<AceTimes>,
}

impl Replay {
    /// Exact trials among the first `trials` of each (point, workload).
    fn exact_counts(&self, trials: usize) -> Vec<Vec<usize>> {
        self.exact
            .iter()
            .map(|row| {
                row.iter()
                    .map(|flags| flags.iter().take(trials).filter(|&&e| e).count())
                    .collect()
            })
            .collect()
    }

    /// Whether a campaign of `trials` trials per (point, workload) has the
    /// exact-trial counts the replay saw on its first `trials` trials.
    fn matches(&self, accuracies: &[PointAccuracy], trials: usize) -> bool {
        let counts = self.exact_counts(trials);
        accuracies.len() == counts.len()
            && accuracies.iter().zip(&counts).all(|(point, counts)| {
                point.workloads.len() == counts.len()
                    && point
                        .workloads
                        .iter()
                        .zip(counts)
                        .all(|(w, &e)| w.exact_trials == e && w.trials == trials)
            })
    }
}

/// The noise-injected tile of one trial, built as `measure_accuracy`
/// builds it: the workload's tile with the campaign's sigmas, the trial
/// seed and the design point's ADC.
fn trial_job(base: &ExecJob, point: &DesignPoint, mc: &McConfig, seed: u64) -> ExecJob {
    let mut job = base.clone();
    job.tile.noisy = true;
    job.tile.seed = seed;
    job.tile.program_sigma = mc.program_sigma;
    job.tile.read_sigma = mc.read_sigma;
    job.tile.ir_drop_alpha = mc.ir_drop_alpha;
    job.tile.params.adc_kind = point.config.ace.adc_kind;
    job.tile.functional_adc_bits = point.config.ace.adc_bits;
    job
}

/// Re-runs every trial of one campaign through `FastExecutor::prepare` +
/// `run_prepared` (spans `sim.prepare`, `sim.run_prepared` under
/// `eval.mc_trial`). With `decompose` it also — excluded from
/// `Replay::wall_s` — splits each run into `core.tile_build`, `sim.clone`,
/// `core.body` and `sim.readback`, checks that is bit-equal to
/// `run_prepared`, and times the ACE kernels on ideal and noisy tiles.
fn replay(
    points: &[DesignPoint],
    workloads: &[Box<dyn Executable>],
    mc: &McConfig,
    decompose: bool,
    tr: &mut Tracer,
) -> darth_pum::Result<Replay> {
    let start = Instant::now();
    let mut excluded_s = 0.0;
    let executor = FastExecutor::new().with_workers(1);
    let mismatch = |what: String| Error::InvalidConfig(format!("decomposed trial differs: {what}"));

    let stage = Instant::now();
    let mut staged = Vec::with_capacity(workloads.len());
    for workload in workloads {
        staged.push((workload.job()?, workload.golden()?));
    }
    let compile_ms = secs(stage) * 1e3;

    let mut out = Replay {
        exact: Vec::new(),
        cycles: Vec::new(),
        virt_ns: Vec::new(),
        instructions: 0,
        analog_instructions: 0,
        saturated_writes: 0,
        compile_ms,
        wall_s: 0.0,
        ideal_ace: Vec::new(),
        noisy_ace: Vec::new(),
    };

    // Ideal-tile ACE microbenchmarks, one per workload (excluded).
    let ideal_start = Instant::now();
    for (base, _) in staged.iter().filter(|_| decompose) {
        let prepared = executor.prepare(base)?;
        let mut machine = prepared.prototype().clone();
        machine.run_compiled(prepared.compiled(), &base.data)?;
        if let Some(times) = time_ace(machine.chip().tile().ace(), 1) {
            out.ideal_ace.push(times);
        }
    }
    excluded_s += secs(ideal_start);

    let mut op = 0u64;
    for (p, point) in points.iter().enumerate() {
        let clock_hz = point.config.dce.clock_ghz * 1e9;
        let mut exact_row = Vec::with_capacity(staged.len());
        for (w, (base, golden)) in staged.iter().enumerate() {
            let mut exact = Vec::with_capacity(mc.trials);
            for t in 0..mc.trials {
                op += 1;
                let trial_start = tr.now();
                let job = trial_job(base, point, mc, trial_seed(mc.root_seed, p, w, t));
                let (prepared, prep_span) =
                    tr.span("sim.prepare", op, None, || executor.prepare(&job));
                let prepared = prepared?;
                let (run, run_span) = tr.span("sim.run_prepared", op, None, || {
                    executor.run_prepared(&prepared)
                });
                let (run, stats) = run?;
                exact.push(run.outputs == *golden);
                tr.spans.push(Span {
                    name: "eval.mc_trial",
                    start_ns: trial_start,
                    end_ns: tr.now(),
                    op,
                    parent: None,
                });
                let trial_span = tr.spans.len() - 1;
                tr.spans[prep_span].parent = Some(trial_span);
                tr.spans[run_span].parent = Some(trial_span);
                out.cycles.push(stats.busy_cycles.get());
                out.virt_ns
                    .push(stats.busy_cycles.get() as f64 * 1e9 / clock_hz);
                out.instructions += stats.run.instructions;
                out.analog_instructions += stats.run.analog_instructions;

                if !decompose {
                    continue;
                }
                // Decomposition of the same trial (excluded).
                let decomposition = Instant::now();
                let (tile, _) = tr.span("core.tile_build", op, Some(trial_span), || {
                    FastMachine::new(job.tile.clone())
                });
                tile?;
                let (mut machine, _) = tr.span("sim.clone", op, Some(trial_span), || {
                    prepared.prototype().clone()
                });
                let (body, _) = tr.span("core.body", op, Some(trial_span), || {
                    machine.run_compiled(prepared.compiled(), &job.data)
                });
                body?;
                let (outputs, _) = tr.span("sim.readback", op, Some(trial_span), || {
                    job.readbacks
                        .iter()
                        .map(|rb| machine.read_output(rb))
                        .collect::<darth_pum::Result<Vec<ExecOutput>>>()
                });
                if outputs? != run.outputs {
                    return Err(mismatch(format!("trial ({p},{w},{t})")));
                }
                out.saturated_writes += machine.chip().tile().ace().saturated_writes();
                if t == 0 {
                    if let Some(times) = time_ace(machine.chip().tile().ace(), op) {
                        out.noisy_ace.push(times);
                    }
                }
                excluded_s += secs(decomposition);
            }
            exact_row.push(exact);
        }
        out.exact.push(exact_row);
    }
    out.wall_s = secs(start) - excluded_s;
    Ok(out)
}

//! The serving workloads: an offline replay of a Poisson trace
//! through `ServeEngine::serve` on a one-worker engine.
//!
//! * **Set-up** (`setup_s`): price the default DSE sweep, take its
//!   aggregate Pareto frontier as the fleet, compile the serving classes
//!   and generate the trace from the seed.
//! * **Timed phase**: nothing but `ServeEngine::serve`, called on
//!   consecutive 300-request windows of the trace, round robin, until the
//!   time budget is spent; the headline is the served requests per host
//!   second of the fastest call.
//! * **Verification** (after the timed phase, timed separately): every
//!   report of a window must equal the window's first, its output digest
//!   must equal the digest of the software goldens and nothing may be
//!   rejected. Then the whole trace is served once, checked the same way;
//!   its report gives the simulated metrics. The engine's own spot checks
//!   are switched off so no check runs inside the timed call; instead the
//!   first request of every class is run on the reference `SimExecutor`
//!   here and must match its golden.
//! * **Traced run** (`--trace 1`): [`replay`] re-serves the trace through
//!   the public pieces `ResidentProgram::serve` is made of, timing each
//!   from outside, and checks each piece's output against the program.

use crate::analog::{median_times, time_ace, AceTimes};
use crate::util::{digest, hash_outputs, median, peak_rss_mb, percentile, secs, Metrics, Tracer};
use darth_eval::dse::{default_sweep, frontier_fleet, price_sweep};
use darth_eval::registry::paper_workloads;
use darth_eval::Threading;
use darth_isa::encode::decode_program;
use darth_pum::chip::CompiledProgram;
use darth_pum::eval::{Executor, JobSignature};
use darth_pum::Error;
use darth_serve::trace::{self, Request, TraceSpec};
use darth_serve::{
    fleet_from_frontier, standard_classes, FleetChip, ServeClass, ServeEngine, ServeReport,
};
use darth_sim::{FastMachine, ProgramCache, SimExecutor};
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// `ServeEngine` defaults the replay mirrors: batch limit and per-batch
/// dispatch overhead in cycles. The replay's digest, cache and batch
/// counters must equal the engine's report, so a change to these defaults
/// shows up as a failed traced run, not as wrong numbers.
const BATCH_LIMIT: usize = 32;
const DISPATCH_OVERHEAD_CYCLES: u64 = 2000;

/// Chips in the frontier fleet, and each chip's admission queue bound.
const CHIPS: usize = 8;
const QUEUE_CAPACITY: usize = 512;

/// Minimum timed `serve` calls per run, whatever the time budget (and at
/// least one per window).
const MIN_CALLS: usize = 3;

/// The timed phase serves the trace in consecutive windows of this many
/// requests, one window per call. Short calls let the fastest call catch
/// the host's quiet moments, which can last well under a second (see
/// `README.md`).
const WINDOW: usize = 300;

/// One serving workload.
pub struct ServeWorkload {
    /// Workload name (`serve-*`).
    pub name: &'static str,
    /// Class names kept from `standard_classes()`.
    pub classes: &'static [&'static str],
    /// Per-chip resident-program cache slots.
    pub cache_capacity: usize,
    /// Offered load in requests per virtual second.
    pub offered_rps: f64,
    /// Requests per trace (served in windows by the timed calls, whole by
    /// the verification and the traced run).
    pub requests: usize,
}

const AES: &[&str] = &["aes128", "aes192", "aes256"];
const MVM: &[&str] = &[
    "gemm-4x12x10",
    "gemm-8x32x24",
    "conv-2c4x4-o3k3",
    "conv-2c4x4-o5k3",
];
const ALL: &[&str] = &[
    "aes128",
    "aes192",
    "aes256",
    "gemm-4x12x10",
    "gemm-8x32x24",
    "conv-2c4x4-o3k3",
    "conv-2c4x4-o5k3",
];

/// The serving workload called `name`, if any.
pub fn workload(name: &str) -> Option<ServeWorkload> {
    match name {
        "serve-aes" => Some(ServeWorkload {
            name: "serve-aes",
            classes: AES,
            cache_capacity: 8,
            offered_rps: 50_000.0,
            requests: 3000,
        }),
        "serve-mvm" => Some(ServeWorkload {
            name: "serve-mvm",
            classes: MVM,
            cache_capacity: 8,
            offered_rps: 25_000.0,
            requests: 4000,
        }),
        "serve-thrash" => Some(ServeWorkload {
            name: "serve-thrash",
            classes: ALL,
            cache_capacity: 1,
            offered_rps: 50_000.0,
            requests: 2000,
        }),
        _ => None,
    }
}

/// Everything the set-up phase builds.
struct Setup {
    classes: Vec<ServeClass>,
    fleet: Vec<FleetChip>,
    trace: Vec<Request>,
}

/// Host milliseconds of each set-up step, and the whole set-up in s.
#[derive(Clone, Copy, Default)]
struct SetupTimes {
    price_sweep_ms: f64,
    compile_ms: f64,
    trace_gen_ms: f64,
    total_s: f64,
}

fn setup(spec: &ServeWorkload, seed: u64) -> darth_pum::Result<(Setup, SetupTimes)> {
    let start = Instant::now();
    let points = default_sweep().generate()?;
    let sweep = price_sweep(&points, paper_workloads(), Threading::Serial)?;
    let frontier = frontier_fleet(&points, &sweep);
    let fleet: Vec<FleetChip> = fleet_from_frontier(&frontier, CHIPS)
        .into_iter()
        .map(|chip| {
            chip.with_cache_capacity(spec.cache_capacity)
                .with_queue_capacity(QUEUE_CAPACITY)
        })
        .collect();
    let price_sweep_ms = secs(start) * 1e3;

    let step = Instant::now();
    let classes: Vec<ServeClass> = standard_classes()?
        .into_iter()
        .filter(|class| spec.classes.contains(&class.name()))
        .collect();
    if classes.len() != spec.classes.len() {
        return Err(Error::InvalidConfig(format!(
            "standard_classes() lacks some of {:?}",
            spec.classes
        )));
    }
    let compile_ms = secs(step) * 1e3;

    let step = Instant::now();
    // Poisson arrivals (no bursts): bursty traces put the p99 of
    // virtual latency on either side of the cache-miss cluster depending
    // on the seed, which makes it useless as a regression signal.
    let mut tspec = TraceSpec::bursty(seed, spec.requests, spec.offered_rps);
    tspec.burst_factor = 1.0;
    tspec.quiet_factor = 1.0;
    let trace = trace::generate(&tspec, classes.len());
    let trace_gen_ms = secs(step) * 1e3;
    let times = SetupTimes {
        price_sweep_ms,
        compile_ms,
        trace_gen_ms,
        total_s: secs(start),
    };
    Ok((
        Setup {
            classes,
            fleet,
            trace,
        },
        times,
    ))
}

/// The outcome of one workload run: counts for the result line and the
/// metric sheet.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Metrics,
}

/// Runs one serving workload: set-up, timed phase, verification and, with
/// `traced`, the traced replay.
pub fn run(
    spec: &ServeWorkload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> darth_pum::Result<Outcome> {
    // Set-up once before the timed phase; it is repeated after every timed
    // call (results discarded) so `setup_s`, their median, samples the
    // same stretch of machine time as `host_ops_per_s`.
    let (built, first_setup) = setup(spec, seed)?;
    let mut setups = vec![first_setup];
    let Setup {
        classes,
        fleet,
        trace,
    } = built;
    let engine = ServeEngine::new(classes.clone(), fleet.clone())?
        .with_workers(1)
        .with_spot_interval(0);
    let windows: Vec<&[Request]> = trace.chunks(WINDOW).collect();

    // Timed phase: only the call into the program, one window per call,
    // round robin.
    let mut calls: Vec<(usize, f64, darth_pum::Result<ServeReport>)> = Vec::new();
    let start = Instant::now();
    while calls.len() < MIN_CALLS.max(windows.len()) || secs(start) < seconds {
        let window = calls.len() % windows.len();
        let call = Instant::now();
        let report = engine.serve(windows[window]);
        calls.push((window, secs(call), report));
        setups.push(setup(spec, seed)?.1);
    }
    let setup_s = median(&setups.iter().map(|t| t.total_s).collect::<Vec<_>>());
    let timed_s = secs(start);
    // Before verification, whose reference executions are not the program.
    let peak_rss = peak_rss_mb();

    // Verification, outside the timed region.
    let verify = Instant::now();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut exact = 0u64;
    let mut rates = Vec::with_capacity(calls.len());
    // Each window's first report and how many of its requests were exact.
    let mut firsts: Vec<Option<(&ServeReport, u64)>> = vec![None; windows.len()];
    for (window, dt, report) in &calls {
        let requests = windows[*window];
        let n = requests.len() as u64;
        attempted += n;
        let report = match report {
            Ok(report) => report,
            Err(err) => {
                eprintln!("serve call failed: {err}");
                failed += n;
                continue;
            }
        };
        rates.push(report.served as f64 / dt);
        // Every call on a window serves the same requests, so every report
        // must equal the window's first; a difference is non-determinism
        // and fails the call.
        let (reference, good) = *firsts[*window]
            .get_or_insert_with(|| (report, exact_served(&classes, &fleet, requests, report)));
        if report != reference {
            eprintln!("serve report differs between calls on the same window");
            failed += n;
            continue;
        }
        exact += good;
        failed += n - good;
    }
    let window_hits: u64 = firsts.iter().flatten().map(|(r, _)| r.cache.hits).sum();
    let window_misses: u64 = firsts.iter().flatten().map(|(r, _)| r.cache.misses).sum();

    // The whole trace in one call, untimed: the simulated metrics come
    // from its report, and it is the traced run's untraced reference.
    let n = trace.len() as u64;
    attempted += n;
    let full_call = Instant::now();
    let report = match engine.serve(&trace) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("serve call on the whole trace failed: {err}");
            return Ok(Outcome {
                attempted,
                failed: failed + n,
                correct: false,
                metrics: Metrics::default(),
            });
        }
    };
    let full_s = secs(full_call);
    let good = exact_served(&classes, &fleet, &trace, &report);
    exact += good;
    failed += n - good;

    let spot_mismatches = spot_check(&classes, &trace)?;
    failed += spot_mismatches;
    let verify_s = secs(verify);

    let mut metrics = Metrics::default();
    let correct = failed == 0;
    let busy: u64 = report.chips.iter().map(|c| c.busy_cycles).sum();
    // The fastest call: the host's contention phases only ever slow a call
    // down.
    let best = rates.iter().copied().fold(0.0, f64::max);
    eprintln!(
        "timed phase: {} calls on {} windows of {} requests in {timed_s:.2} s, best {:.1} / \
         median {:.1} requests/s, window cache hit rate {:.4}; verification {verify_s:.2} s \
         (not in host_ops_per_s); latency sample {} requests",
        calls.len(),
        windows.len(),
        windows[0].len(),
        best,
        median(&rates),
        window_hits as f64 / (window_hits + window_misses).max(1) as f64,
        report.served
    );

    if !traced {
        metrics.put("host_ops_per_s", best);
        metrics.put("setup_s", setup_s);
        metrics.put("peak_rss_mb", peak_rss);
        metrics.put("exact_share", exact as f64 / attempted as f64);
        metrics.put(
            "sim_cycles_per_op",
            busy as f64 / report.served.max(1) as f64,
        );
        metrics.put("virt_p50_us", report.latency.p50_ns as f64 / 1e3);
        metrics.put("virt_p99_us", report.latency.p99_ns as f64 / 1e3);
        return Ok(Outcome {
            attempted,
            failed,
            correct,
            metrics,
        });
    }

    // Traced run: the same trace through the program's public pieces.
    let mut tracer = Tracer::new();
    let replay = replay(&classes, &fleet, &trace, &mut tracer)?;
    let faithful = replay.matches(&report);
    if !faithful {
        eprintln!("traced replay diverged from ServeEngine::serve");
        failed += n;
    }
    let served = replay.served.max(1) as f64;
    let per_op = |name: &str| tracer.total_us(name) / served;
    let per_build = |name: &str| tracer.total_us(name) / replay.misses.max(1) as f64;
    let program_us: f64 = [
        "serve.stub",
        "sim.resident_build",
        "sim.cache_lookup",
        "sim.clone",
        "core.input_exec",
        "core.body",
        "sim.readback",
        "sim.energy",
    ]
    .iter()
    .map(|name| per_op(name))
    .sum();
    let engine_spans_us: f64 = [
        "serve.calibrate",
        "serve.admission",
        "serve.hash",
        "serve.merge",
    ]
    .iter()
    .map(|name| per_op(name))
    .sum();
    // The untraced reference is the whole trace served next to the replay
    // (the verification call before it and one more call right after it),
    // so a change in machine speed between the timed phase and the replay
    // does not leak into the coverage figures.
    let after = Instant::now();
    engine.serve(&trace)?;
    let local_s = (full_s + secs(after)) / 2.0;
    let untraced_us_per_op = local_s * 1e6 / report.served.max(1) as f64;
    let engine_self_us = untraced_us_per_op - program_us;
    let uncovered_us = engine_self_us - engine_spans_us;
    let overhead_us = replay.wall_s * 1e6 / served - untraced_us_per_op;
    eprintln!(
        "coverage: untraced {untraced_us_per_op:.2} us/op = program spans {program_us:.2} + \
         engine spans {engine_spans_us:.2} + uncovered {uncovered_us:.2} \
         ({:.1}% uncovered); tracing overhead {overhead_us:.2} us/op",
        100.0 * uncovered_us / untraced_us_per_op
    );
    let times = median_times(&replay.ace_times);
    // The layers the serving path never reaches (noisy crossbars, cold
    // per-job preparation) come from a small Monte-Carlo campaign.
    let mut mc_tracer = Tracer::new();
    let mc = crate::mc::layers(seed, &mut mc_tracer)?;
    if !mc.faithful {
        eprintln!("Monte-Carlo replay disagrees with measure_accuracy's exact-trial counts");
    }
    let exec_s = (tracer.total_us("core.input_exec") + tracer.total_us("core.body")) / 1e6;
    let body = tracer.durations_us("core.body");
    let setup_ms = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    metrics.put("serve.trace_gen_ms", setup_ms(|t| t.trace_gen_ms));
    metrics.put("serve.stub_us", per_op("serve.stub"));
    metrics.put("serve.engine_self_us", engine_self_us);
    metrics.put("serve.uncovered_us", uncovered_us);
    metrics.put("serve.batch_mean", report.mean_batch_size());
    metrics.put("serve.rejected", report.rejected as f64);
    metrics.put("trace.overhead_us", overhead_us);
    metrics.put("sim.clone_us", per_op("sim.clone"));
    metrics.put("sim.resident_build_us", per_build("sim.resident_build"));
    metrics.put(
        "sim.resident_build_share",
        per_op("sim.resident_build") / untraced_us_per_op,
    );
    metrics.put("sim.readback_us", per_op("sim.readback"));
    metrics.put("sim.energy_us", per_op("sim.energy"));
    metrics.put("sim.cache_hit_rate", report.cache_hit_rate());
    metrics.put("sim.cache_misses", report.cache.misses as f64);
    metrics.put("core.tile_build_us", per_build("core.tile_build"));
    metrics.put("core.setup_exec_us", per_build("core.setup_exec"));
    metrics.put("core.input_exec_us", per_op("core.input_exec"));
    metrics.put("core.body_share", per_op("core.body") / untraced_us_per_op);
    metrics.put("core.body_us_p50", percentile(&body, 0.50));
    metrics.put("core.body_us_p99", percentile(&body, 0.99));
    metrics.put(
        "core.sim_instr_per_s",
        replay.instructions as f64 / exec_s.max(1e-12),
    );
    metrics.put(
        "analog.mvms_per_op",
        replay.analog_instructions as f64 / served,
    );
    metrics.put("analog.mvm_1b_us", times.mvm_1b_us);
    metrics.put("analog.mvm_8b_us", times.mvm_8b_us);
    metrics.put("analog.program_ideal_us", times.program_us);
    metrics.put("reram.saturated_writes", mc.saturated_writes as f64);
    metrics.put("sim.prepare_us", mc.prepare_us);
    metrics.put("sim.run_prepared_us", mc.run_prepared_us);
    metrics.put("eval.mc_trial_us", mc.trial_us);
    metrics.put("analog.mvm_noisy_us", mc.mvm_noisy_us);
    metrics.put("analog.program_noisy_us", mc.program_noisy_us);
    metrics.put(
        "digital.dce_instr_per_op",
        (replay.instructions - replay.analog_instructions) as f64 / served,
    );
    metrics.put("kir.compile_ms", setup_ms(|t| t.compile_ms));
    metrics.put("eval.price_sweep_ms", setup_ms(|t| t.price_sweep_ms));

    for (tracer, suffix) in [(&tracer, ""), (&mc_tracer, "-mc")] {
        let path = std::path::Path::new(".bench_out")
            .join(format!("spans-{}-{seed}{suffix}.json", spec.name));
        if let Err(err) = tracer.write_chrome(&path) {
            eprintln!("could not write {}: {err}", path.display());
        }
    }
    Ok(Outcome {
        attempted,
        failed,
        correct: correct && faithful && mc.faithful,
        metrics,
    })
}

/// How many of `report`'s requests were served with their golden outputs:
/// all of them when nothing was rejected and the digest equals the
/// goldens' digest, otherwise as attributed request by request.
fn exact_served(
    classes: &[ServeClass],
    fleet: &[FleetChip],
    requests: &[Request],
    report: &ServeReport,
) -> u64 {
    let n = requests.len() as u64;
    if report.rejected == 0
        && report.served == n
        && report.output_digest == expected_digest(classes, requests)
    {
        n
    } else {
        exact_requests(classes, fleet, requests, report)
    }
}

/// The digest `ServeEngine::serve` must report when every request is
/// served with exactly its software golden outputs.
fn expected_digest(classes: &[ServeClass], trace: &[Request]) -> u64 {
    let mut pairs: Vec<(u64, u64)> = trace
        .iter()
        .map(|r| {
            let golden = classes[r.class].golden(r.input_seed);
            (r.id, golden.map_or(0, |g| hash_outputs(&g)))
        })
        .collect();
    digest(&mut pairs)
}

/// Runs the first request of every class as one monolithic job on the
/// reference `SimExecutor` and returns how many differ from their golden
/// (the served outputs equal the goldens when the digest matches, so this
/// ties fast path, reference path and golden together).
fn spot_check(classes: &[ServeClass], trace: &[Request]) -> darth_pum::Result<u64> {
    let reference = SimExecutor::new();
    let mut mismatches = 0;
    for (index, class) in classes.iter().enumerate() {
        if let Some(request) = trace.iter().find(|r| r.class == index) {
            let run = reference.execute(&class.full_job(request.input_seed)?)?;
            if run.outputs != class.golden(request.input_seed)? {
                eprintln!(
                    "reference executor differs from the golden on request {}",
                    request.id
                );
                mismatches += 1;
            }
        }
    }
    Ok(mismatches)
}

/// How many of `report`'s requests were served with golden outputs,
/// attributed request by request through the replay. Only trusted when
/// the replay reproduces the report's digest; otherwise none count.
fn exact_requests(
    classes: &[ServeClass],
    fleet: &[FleetChip],
    trace: &[Request],
    report: &ServeReport,
) -> u64 {
    let mut tracer = Tracer::new();
    match replay(classes, fleet, trace, &mut tracer) {
        Ok(replay) if replay.digest == report.output_digest => replay.exact,
        _ => 0,
    }
}

/// A resident program rebuilt from public pieces, so the per-request
/// steps of `ResidentProgram::serve` can be timed one by one.
struct Mirror {
    warmed: FastMachine,
    compiled: CompiledProgram<darth_digital::PackedPipeline>,
}

/// What the traced replay observed.
struct Replay {
    served: u64,
    rejected: u64,
    misses: u64,
    hits: u64,
    batches: u64,
    digest: u64,
    exact: u64,
    instructions: u64,
    analog_instructions: u64,
    /// Host seconds of the replay, without the time spent on the
    /// bit-equality checks and the mirror builds.
    wall_s: f64,
    ace_times: Vec<AceTimes>,
}

impl Replay {
    /// Whether the replay reproduced the engine's report exactly.
    fn matches(&self, report: &ServeReport) -> bool {
        self.served == report.served
            && self.rejected == report.rejected
            && self.misses == report.cache.misses
            && self.hits == report.cache.hits
            && self.batches == report.batches()
            && self.digest == report.output_digest
    }
}

/// Pass 1 of the engine, mirrored: earliest-estimated-finish admission
/// with bounded queues.
fn assign(chips: &[FleetChip], trace: &[Request], est_cycles: &[u64]) -> (Vec<Vec<Request>>, u64) {
    let cycles_to_ns = |cycles: u64, clock_hz: f64| (cycles as f64 * 1e9 / clock_hz) as u64;
    let mut inflight: Vec<VecDeque<u64>> = chips.iter().map(|_| VecDeque::new()).collect();
    let mut free_ns = vec![0u64; chips.len()];
    let mut assigned: Vec<Vec<Request>> = chips.iter().map(|_| Vec::new()).collect();
    let mut rejected = 0u64;
    for request in trace {
        let mut best: Option<(u64, usize)> = None;
        for (i, chip) in chips.iter().enumerate() {
            while inflight[i]
                .front()
                .is_some_and(|&done| done <= request.arrival_ns)
            {
                inflight[i].pop_front();
            }
            if inflight[i].len() >= chip.queue_capacity {
                continue;
            }
            let finish = free_ns[i].max(request.arrival_ns)
                + cycles_to_ns(est_cycles[request.class], chip.clock_hz);
            if best.is_none_or(|(t, _)| finish < t) {
                best = Some((finish, i));
            }
        }
        match best {
            None => rejected += 1,
            Some((finish, i)) => {
                free_ns[i] = finish;
                inflight[i].push_back(finish);
                assigned[i].push(*request);
            }
        }
    }
    (assigned, rejected)
}

/// Replays `trace` the way `ServeEngine::serve` serves it — calibration,
/// admission, per-chip same-signature batching over an LRU
/// `ProgramCache`, digest — with every request decomposed
/// into the steps of `ResidentProgram::serve`, each in its own span:
///
/// `serve.stub` (`ServeClass::input_program`), `sim.clone` (clone of the
/// warmed machine), `core.input_exec` (decode + `chip_mut().execute`),
/// `core.body` (`FastMachine::run_compiled`), `sim.readback`
/// (`read_output`) and `sim.energy` (the two energy-meter reads `serve`
/// takes its energy delta from). Cache lookups are `sim.resident_build` on a miss and
/// `sim.cache_lookup` on a hit; each miss also gets child spans
/// `core.tile_build` (`FastMachine::new`), `core.setup_exec` and
/// `sim.body_compile` from a mirror build that is excluded from
/// `Replay::wall_s`. Every request's decomposed outputs, cycles and
/// instruction counts must equal `ResidentProgram::serve` on the same
/// input.
fn replay(
    classes: &[ServeClass],
    chips: &[FleetChip],
    trace: &[Request],
    tr: &mut Tracer,
) -> darth_pum::Result<Replay> {
    let start = Instant::now();
    let mut excluded_s = 0.0;
    let mismatch = |what: &str| Error::InvalidConfig(format!("decomposed serve differs: {what}"));

    let mut est_cycles = Vec::with_capacity(classes.len());
    for class in classes {
        let (probe, _) = tr.span("serve.calibrate", 0, None, || {
            darth_sim::ResidentProgram::for_split(class.split().clone())
                .and_then(|r| Ok(r.serve(&class.input_program(0)?)?.busy_cycles.get()))
        });
        est_cycles.push(probe? + DISPATCH_OVERHEAD_CYCLES);
    }
    let ((assigned, rejected), _) = tr.span("serve.admission", 0, None, || {
        assign(chips, trace, &est_cycles)
    });

    let mut out = Replay {
        served: 0,
        rejected,
        misses: 0,
        hits: 0,
        batches: 0,
        digest: 0,
        exact: 0,
        instructions: 0,
        analog_instructions: 0,
        wall_s: 0.0,
        ace_times: Vec::new(),
    };
    let mut hashes = Vec::with_capacity(trace.len());
    let mut timed_aces = std::collections::BTreeSet::new();
    // The engine executes every chip on a scoped worker thread (one worker
    // here), with that thread's allocator state; the replay does the same
    // so the two are timed under the same conditions.
    let execution = std::thread::scope(|scope| {
        scope
            .spawn(|| -> darth_pum::Result<()> {
                for (chip, list) in chips.iter().zip(&assigned) {
                    let mut cache = ProgramCache::new(chip.cache_capacity);
                    let mut mirrors: BTreeMap<JobSignature, Mirror> = BTreeMap::new();
                    let mut served = vec![false; list.len()];
                    let mut now_ns = 0u64;
                    let mut head = 0usize;
                    while head < list.len() {
                        if served[head] {
                            head += 1;
                            continue;
                        }
                        let lead = &list[head];
                        let class = &classes[lead.class];
                        let signature = class.signature();
                        let batch_start_ns = now_ns.max(lead.arrival_ns);
                        let mut batch = vec![head];
                        let mut next = head + 1;
                        while next < list.len() && batch.len() < BATCH_LIMIT {
                            let candidate = &list[next];
                            if candidate.arrival_ns > batch_start_ns {
                                break;
                            }
                            if !served[next] && classes[candidate.class].signature() == signature {
                                batch.push(next);
                            }
                            next += 1;
                        }

                        let misses_before = cache.stats().misses;
                        let (resident, lookup) = tr.span("sim.cache_lookup", lead.id, None, || {
                            cache.get_or_build_split(class.split()).map(|_| ())
                        });
                        resident?;
                        let missed = cache.stats().misses > misses_before;
                        // Borrow the resident again for the equality checks; this
                        // second lookup is a hit the replay does not count or time.
                        let relookup = Instant::now();
                        let resident = cache.get_or_build_split(class.split())?;
                        excluded_s += secs(relookup);
                        if missed {
                            tr.spans[lookup].name = "sim.resident_build";
                            out.misses += 1;
                            let mirror_start = Instant::now();
                            let split = class.split();
                            let (warmed, _) =
                                tr.span("core.tile_build", lead.id, Some(lookup), || {
                                    FastMachine::new(split.tile.clone())
                                });
                            let mut warmed = warmed?;
                            let (setup, _) =
                                tr.span("core.setup_exec", lead.id, Some(lookup), || {
                                    decode_program(&split.setup)
                                        .map_err(Error::Isa)
                                        .and_then(|p| warmed.chip_mut().execute(&p, &split.data))
                                });
                            setup?;
                            let (compiled, _) =
                                tr.span("sim.body_compile", lead.id, Some(lookup), || {
                                    decode_program(&split.body).map(|p| FastMachine::compile(&p))
                                });
                            let compiled = compiled.map_err(Error::Isa)?;
                            if warmed.chip().tile().busy_cycles() != resident.setup_cycles() {
                                return Err(mismatch("setup cycles"));
                            }
                            if timed_aces.insert(signature) {
                                if let Some(times) = time_ace(warmed.chip().tile().ace(), lead.id) {
                                    out.ace_times.push(times);
                                }
                            }
                            mirrors.insert(signature, Mirror { warmed, compiled });
                            excluded_s += secs(mirror_start);
                        } else {
                            out.hits += 1;
                        }
                        let mirror = mirrors
                            .get(&signature)
                            .ok_or_else(|| mismatch("mirror missing"))?;
                        let setup_cycles = resident.setup_cycles().get();

                        let mut elapsed =
                            DISPATCH_OVERHEAD_CYCLES + if missed { setup_cycles } else { 0 };
                        for &idx in &batch {
                            let request = &list[idx];
                            let id = request.id;
                            let (input, root) = tr.span("serve.stub", id, None, || {
                                class.input_program(request.input_seed)
                            });
                            let input = input?;
                            let (mut machine, _) =
                                tr.span("sim.clone", id, Some(root), || mirror.warmed.clone());
                            let busy_before = machine.chip().tile().busy_cycles();
                            let (energy_before, _) = tr.span("sim.energy", id, Some(root), || {
                                machine.chip().energy_meter().total()
                            });
                            let (input_stats, _) =
                                tr.span("core.input_exec", id, Some(root), || {
                                    decode_program(&input).map_err(Error::Isa).and_then(|p| {
                                        machine.chip_mut().execute(&p, &class.split().data)
                                    })
                                });
                            let input_stats = input_stats?;
                            let (body, _) = tr.span("core.body", id, Some(root), || {
                                machine.run_compiled(&mirror.compiled, &class.split().data)
                            });
                            let body = body?;
                            let (outputs, _) = tr.span("sim.readback", id, Some(root), || {
                                class
                                    .split()
                                    .readbacks
                                    .iter()
                                    .map(|rb| machine.read_output(rb))
                                    .collect::<darth_pum::Result<Vec<_>>>()
                            });
                            let outputs = outputs?;
                            let busy = machine
                                .chip()
                                .tile()
                                .busy_cycles()
                                .saturating_sub(busy_before);
                            let (energy, _) = tr.span("sim.energy", id, Some(root), || {
                                machine.chip().energy_meter().total() - energy_before
                            });
                            let (hash, _) =
                                tr.span("serve.hash", id, Some(root), || hash_outputs(&outputs));
                            let instructions = input_stats.instructions + body.run.instructions;
                            let analog =
                                input_stats.analog_instructions + body.run.analog_instructions;

                            // Bit-equality against the program's own serve (excluded).
                            let check = Instant::now();
                            let served_run = resident.serve(&input)?;
                            if served_run.run.outputs != outputs
                                || served_run.busy_cycles != busy
                                || served_run.energy != energy
                                || served_run.run.instructions != instructions
                                || served_run.run.analog_instructions != analog
                            {
                                return Err(mismatch(&format!("request {id}")));
                            }
                            if class.golden(request.input_seed)? == outputs {
                                out.exact += 1;
                            }
                            excluded_s += secs(check);

                            elapsed += busy.get();
                            out.instructions += instructions;
                            out.analog_instructions += analog;
                            out.served += 1;
                            hashes.push((id, hash));
                            served[idx] = true;
                        }
                        out.batches += 1;
                        now_ns = batch_start_ns + (elapsed as f64 * 1e9 / chip.clock_hz) as u64;
                    }
                }
                Ok(())
            })
            .join()
    });
    execution.map_err(|_| mismatch("execution thread panicked"))??;
    let (merged, _) = tr.span("serve.merge", 0, None, || digest(&mut hashes));
    out.digest = merged;
    out.wall_s = secs(start) - excluded_s;
    Ok(out)
}

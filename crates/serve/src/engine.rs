//! The serving engine: admission + scheduling over a heterogeneous
//! chip fleet, same-signature batch formation, and per-chip execution
//! against resident compiled programs.
//!
//! A serving run is three deterministic passes:
//!
//! 1. **Admission** (sequential): requests are walked in arrival order
//!    through a discrete-event model of every chip's backlog. Each
//!    request goes to the chip with the earliest *estimated* finish
//!    (per-class cycle estimates calibrated once, at engine
//!    construction, on a scratch resident program, scaled by each
//!    chip's clock); chips whose bounded admission queue is full drop
//!    out, and a request rejected by every chip is dropped.
//! 2. **Execution** (parallel over whole chips): each chip replays its
//!    assignment list on a virtual timeline. At each dispatch the head
//!    request is coalesced with every already-arrived pending request
//!    sharing its program signature (up to the batch limit), the
//!    resident program is fetched from the chip's LRU
//!    [`ProgramCache`] — a miss charges the one-time setup cycles — and
//!    each batch member runs as one input stub + compiled body on a
//!    clone of the warmed prototype. Worker threads shard *whole
//!    chips*, so every chip's timeline, outputs and counters are
//!    byte-identical at any worker count.
//! 3. **Merge** (sequential): per-chip records fold into fleet-wide
//!    percentiles, throughput, batch histograms, cache totals,
//!    utilization and an order-independent output digest.
//!
//! Time is *virtual* — cycle counts from the functional simulation
//! divided by each chip's frontier clock — so latency percentiles are
//! exactly reproducible, never a function of host scheduling.

use std::collections::VecDeque;
use std::time::Instant;

use darth_pum::eval::{ExecOutput, Executor, Fnv1a};
use darth_pum::workers::{scoped_map, worker_count};
use darth_pum::Error;
use darth_sim::{FastExecutor, ProgramCache, ResidentProgram, SimExecutor};

use crate::class::ServeClass;
use crate::fleet::FleetChip;
use crate::report::{ChipReport, LatencyStats, ServeReport, SpotChecks, WarmColdReport};
use crate::trace::Request;

/// Hashes a served request's outputs (labels + cells, in order).
fn hash_outputs(outputs: &[ExecOutput]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(outputs.len() as u64);
    for out in outputs {
        h.write(out.label.as_bytes());
        h.write_u64(out.cells.len() as u64);
        for &cell in &out.cells {
            h.write_i64(cell);
        }
    }
    h.finish()
}

/// Most requests coalesced into one batch.
const BATCH_LIMIT: usize = 32;

/// Cycles each batch dispatch costs (host dispatch + DMA setup).
const DISPATCH_OVERHEAD_CYCLES: u64 = 2000;

/// Converts a cycle count on a chip's clock to nanoseconds of virtual
/// time.
fn cycles_to_ns(cycles: u64, clock_hz: f64) -> u64 {
    (cycles as f64 * 1e9 / clock_hz) as u64
}

/// One served request's record, produced by its chip's timeline.
#[derive(Debug, Clone, Copy)]
struct RequestRecord {
    id: u64,
    arrival_ns: u64,
    completion_ns: u64,
    output_hash: u64,
}

/// Everything one chip produced in the execution pass.
#[derive(Debug, Clone)]
struct ChipOutcome {
    records: Vec<RequestRecord>,
    busy_cycles: u64,
    batch_histogram: Vec<(usize, u64)>,
    cache: darth_sim::CacheStats,
    spot: SpotChecks,
}

/// The batched multi-chip serving engine.
///
/// Construction takes the class registry (resident programs) and the
/// fleet; builder methods tune batching, spot-check sampling and the
/// execution worker count. [`ServeEngine::serve`] runs a trace.
#[derive(Debug, Clone)]
pub struct ServeEngine {
    classes: Vec<ServeClass>,
    /// Per-class probe cycles (one scratch resident program and one
    /// probe serve each, measured at construction); admission adds the
    /// dispatch overhead.
    probe_cycles: Vec<u64>,
    chips: Vec<FleetChip>,
    workers: Option<usize>,
    spot_interval: u64,
}

impl ServeEngine {
    /// Creates an engine over the given classes and fleet, calibrating
    /// each class's admission estimate once: one scratch resident
    /// program and one probe serve per class.
    ///
    /// Batches hold at most 32 requests, and each batch pays 2000
    /// dispatch cycles (host dispatch + DMA setup). Defaults: spot-check
    /// every 8192nd request, workers from `DARTH_EVAL_THREADS` else
    /// available parallelism.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an empty class registry, an
    /// empty fleet, or a chip without a positive clock, and the
    /// calibration's compile/execution errors.
    pub fn new(classes: Vec<ServeClass>, chips: Vec<FleetChip>) -> darth_pum::Result<Self> {
        if classes.is_empty() {
            return Err(Error::InvalidConfig(
                "serving needs at least one class".into(),
            ));
        }
        if chips.is_empty() {
            return Err(Error::InvalidConfig(
                "serving needs at least one chip".into(),
            ));
        }
        for chip in &chips {
            let clock_valid = chip.clock_hz.is_finite() && chip.clock_hz > 0.0;
            if !clock_valid {
                return Err(Error::InvalidConfig(format!(
                    "chip {} has non-positive clock {}",
                    chip.name, chip.clock_hz
                )));
            }
        }
        let probe_cycles = classes
            .iter()
            .map(|class| {
                let resident = ResidentProgram::for_split(class.split().clone())?;
                Ok(resident.serve(&class.input_program(0)?)?.busy_cycles.get())
            })
            .collect::<darth_pum::Result<_>>()?;
        Ok(ServeEngine {
            classes,
            probe_cycles,
            chips,
            workers: None,
            spot_interval: 8192,
        })
    }

    /// Forces a fixed execution worker count, overriding the
    /// environment (determinism tests pin {1, 2, 64} this way).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Sets the spot-check sampling interval: every `interval`-th
    /// request id is re-executed monolithically on the reference
    /// executor and compared against the software golden. `0` disables
    /// spot checks.
    #[must_use]
    pub fn with_spot_interval(mut self, interval: u64) -> Self {
        self.spot_interval = interval;
        self
    }

    /// The registered classes.
    pub fn classes(&self) -> &[ServeClass] {
        &self.classes
    }

    /// The fleet.
    pub fn chips(&self) -> &[FleetChip] {
        &self.chips
    }

    /// Pass 1: walks the trace in arrival order, assigning each request
    /// to the chip with the earliest estimated finish (ties go to the
    /// lowest fleet index): a request's estimate is its class's probe
    /// cycles plus the dispatch overhead. Returns per-chip assignment
    /// lists and the rejected-request count.
    fn assign(&self, trace: &[Request]) -> (Vec<Vec<Request>>, u64) {
        struct ChipQueue {
            // Estimated completion times of admitted, unfinished work.
            inflight: VecDeque<u64>,
            // Estimated time the chip drains everything admitted so far.
            free_ns: u64,
        }
        let mut queues: Vec<ChipQueue> = self
            .chips
            .iter()
            .map(|_| ChipQueue {
                inflight: VecDeque::new(),
                free_ns: 0,
            })
            .collect();
        let mut assigned: Vec<Vec<Request>> = self.chips.iter().map(|_| Vec::new()).collect();
        let mut rejected = 0u64;

        for request in trace {
            let mut best: Option<(u64, usize)> = None;
            for (i, (chip, queue)) in self.chips.iter().zip(&mut queues).enumerate() {
                while queue
                    .inflight
                    .front()
                    .is_some_and(|&done| done <= request.arrival_ns)
                {
                    queue.inflight.pop_front();
                }
                if queue.inflight.len() >= chip.queue_capacity {
                    continue;
                }
                let est_cycles = self.probe_cycles[request.class] + DISPATCH_OVERHEAD_CYCLES;
                let finish =
                    queue.free_ns.max(request.arrival_ns) + cycles_to_ns(est_cycles, chip.clock_hz);
                if best.is_none_or(|(t, _)| finish < t) {
                    best = Some((finish, i));
                }
            }
            match best {
                None => rejected += 1,
                Some((finish, i)) => {
                    queues[i].free_ns = finish;
                    queues[i].inflight.push_back(finish);
                    assigned[i].push(*request);
                }
            }
        }
        (assigned, rejected)
    }

    /// Pass 2 (one chip): replays the chip's assignment list on its
    /// virtual timeline with batch coalescing and the resident-program
    /// cache.
    fn run_chip(&self, chip: &FleetChip, assigned: &[Request]) -> darth_pum::Result<ChipOutcome> {
        let mut cache = ProgramCache::new(chip.cache_capacity);
        let reference = SimExecutor::new();
        let mut served = vec![false; assigned.len()];
        let mut records = Vec::with_capacity(assigned.len());
        let mut histogram = std::collections::BTreeMap::<usize, u64>::new();
        let mut busy_cycles = 0u64;
        let mut spot = SpotChecks::default();
        let mut now_ns = 0u64;
        let mut head = 0usize;

        while head < assigned.len() {
            if served[head] {
                head += 1;
                continue;
            }
            let lead = &assigned[head];
            let class = &self.classes[lead.class];
            let signature = class.signature();
            let batch_start_ns = now_ns.max(lead.arrival_ns);

            // Coalesce every pending same-signature request that has
            // already arrived (the list is arrival-sorted, so the scan
            // stops at the first future arrival).
            let mut batch = vec![head];
            let mut next = head + 1;
            while next < assigned.len() && batch.len() < BATCH_LIMIT {
                let candidate = &assigned[next];
                if candidate.arrival_ns > batch_start_ns {
                    break;
                }
                if !served[next] && self.classes[candidate.class].signature() == signature {
                    batch.push(next);
                }
                next += 1;
            }

            let misses_before = cache.stats().misses;
            let mut batch_runs = Vec::with_capacity(batch.len());
            let setup_cycles;
            {
                let resident = cache.get_or_build(signature, class.split())?;
                setup_cycles = resident.setup_cycles().get();
                for &idx in &batch {
                    let input = class.input_program(assigned[idx].input_seed)?;
                    batch_runs.push(resident.serve(&input)?);
                }
            }
            let missed = cache.stats().misses > misses_before;

            // Timeline: dispatch overhead (plus setup on a cache miss)
            // lands before the first member; members then complete in
            // batch order as their cycles accumulate.
            let mut elapsed = DISPATCH_OVERHEAD_CYCLES + if missed { setup_cycles } else { 0 };
            for (&idx, run) in batch.iter().zip(&batch_runs) {
                elapsed += run.busy_cycles.get();
                let request = &assigned[idx];
                let record = RequestRecord {
                    id: request.id,
                    arrival_ns: request.arrival_ns,
                    completion_ns: batch_start_ns + cycles_to_ns(elapsed, chip.clock_hz),
                    output_hash: hash_outputs(&run.run.outputs),
                };
                records.push(record);
                served[idx] = true;

                if self.spot_interval > 0 && request.id.is_multiple_of(self.spot_interval) {
                    spot.checked += 1;
                    let monolithic = reference.execute(&class.full_job(request.input_seed)?)?;
                    let golden = class.golden(request.input_seed)?;
                    if monolithic.outputs != run.run.outputs || golden != run.run.outputs {
                        spot.mismatches += 1;
                    }
                }
            }
            busy_cycles += elapsed;
            now_ns = batch_start_ns + cycles_to_ns(elapsed, chip.clock_hz);
            *histogram.entry(batch.len()).or_insert(0) += 1;
        }

        Ok(ChipOutcome {
            records,
            busy_cycles,
            batch_histogram: histogram.into_iter().collect(),
            cache: cache.stats(),
            spot,
        })
    }

    /// Serves a trace end to end.
    ///
    /// Deterministic: the same engine configuration and trace produce a
    /// byte-identical [`ServeReport`] (per-request outputs, counters,
    /// and percentiles) at **any** worker count, because worker threads
    /// shard whole chips and every chip's timeline is virtual.
    ///
    /// # Errors
    ///
    /// Returns the first compile/execution error; an empty trace is an
    /// [`Error::InvalidConfig`].
    pub fn serve(&self, trace: &[Request]) -> darth_pum::Result<ServeReport> {
        if trace.is_empty() {
            return Err(Error::InvalidConfig("cannot serve an empty trace".into()));
        }
        for request in trace {
            if request.class >= self.classes.len() {
                return Err(Error::InvalidConfig(format!(
                    "request {} names class {} but only {} are registered",
                    request.id,
                    request.class,
                    self.classes.len()
                )));
            }
        }

        let (assigned, rejected) = self.assign(trace);

        // Execution: shard whole chips across workers.
        let work: Vec<_> = self.chips.iter().zip(&assigned).collect();
        let workers = worker_count(self.workers, work.len());
        let outcomes = scoped_map(
            &work,
            workers,
            || (),
            |_, (chip, list)| self.run_chip(chip, list),
        )
        .into_iter()
        .collect::<darth_pum::Result<Vec<ChipOutcome>>>()?;

        Ok(self.merge(trace, rejected, outcomes))
    }

    /// Pass 3: folds per-chip outcomes into the fleet-wide report.
    fn merge(&self, trace: &[Request], rejected: u64, outcomes: Vec<ChipOutcome>) -> ServeReport {
        let served: u64 = outcomes.iter().map(|o| o.records.len() as u64).sum();
        let first_arrival = trace.first().map_or(0, |r| r.arrival_ns);
        let last_arrival = trace.last().map_or(0, |r| r.arrival_ns);
        let arrival_span_s = ((last_arrival - first_arrival).max(1)) as f64 / 1e9;
        let offered_rps = (trace.len().saturating_sub(1)) as f64 / arrival_span_s;

        let last_completion = outcomes
            .iter()
            .flat_map(|o| o.records.iter().map(|r| r.completion_ns))
            .max()
            .unwrap_or(first_arrival);
        let serve_span_s = ((last_completion - first_arrival).max(1)) as f64 / 1e9;
        let sustained_rps = served as f64 / serve_span_s;

        // Latency percentiles over every served request.
        let mut latencies: Vec<u64> = outcomes
            .iter()
            .flat_map(|o| o.records.iter().map(|r| r.completion_ns - r.arrival_ns))
            .collect();
        latencies.sort_unstable();
        let percentile = |q: f64| nearest_rank(&latencies, q);
        let latency = LatencyStats {
            p50_ns: percentile(0.50),
            p99_ns: percentile(0.99),
            p999_ns: percentile(0.999),
            max_ns: latencies.last().copied().unwrap_or(0),
            mean_ns: if latencies.is_empty() {
                0.0
            } else {
                latencies.iter().map(|&l| l as f64).sum::<f64>() / latencies.len() as f64
            },
        };

        // Order-independent digest: (id, output hash) in id order.
        let mut hashes: Vec<(u64, u64)> = outcomes
            .iter()
            .flat_map(|o| o.records.iter().map(|r| (r.id, r.output_hash)))
            .collect();
        hashes.sort_unstable();
        let mut digest = Fnv1a::new();
        for (id, hash) in &hashes {
            digest.write_u64(*id);
            digest.write_u64(*hash);
        }

        let mut batch_histogram = std::collections::BTreeMap::new();
        let mut cache = darth_sim::CacheStats::default();
        let mut spot = SpotChecks::default();
        let mut chips = Vec::with_capacity(self.chips.len());
        for (chip, outcome) in self.chips.iter().zip(&outcomes) {
            for &(size, count) in &outcome.batch_histogram {
                *batch_histogram.entry(size).or_insert(0) += count;
            }
            cache.hits += outcome.cache.hits;
            cache.misses += outcome.cache.misses;
            cache.evictions += outcome.cache.evictions;
            spot.checked += outcome.spot.checked;
            spot.mismatches += outcome.spot.mismatches;
            chips.push(ChipReport {
                name: chip.name.clone(),
                clock_hz: chip.clock_hz,
                served: outcome.records.len() as u64,
                batches: outcome.batch_histogram.iter().map(|&(_, n)| n).sum(),
                busy_cycles: outcome.busy_cycles,
                utilization: (outcome.busy_cycles as f64 / chip.clock_hz) / serve_span_s,
                busy_fraction: busy_fraction(
                    outcome.busy_cycles as f64 / chip.clock_hz,
                    &outcome.records,
                ),
                cache: outcome.cache,
            });
        }

        ServeReport {
            requests: trace.len() as u64,
            served,
            rejected,
            offered_rps,
            sustained_rps,
            latency,
            batch_histogram,
            cache,
            chips,
            spot_checks: spot,
            output_digest: digest.finish(),
            warm_vs_cold: None,
        }
    }
}

/// Measures what the resident-program cache buys: the same `requests`
/// synthetic requests of one class run **cold** (a fresh
/// [`FastExecutor::prepare`] per request — decode, compile, tile
/// build, then run) and **warm** (one [`ResidentProgram`], then a
/// clone + input stub + compiled body per request), wall-clock timed.
///
/// Both arms must produce bit-identical outputs per request; a
/// divergence is an error, not a report.
///
/// # Errors
///
/// Returns compile/execution errors, and [`Error::InvalidConfig`] if
/// `requests` is zero or the arms diverge.
pub fn measure_warm_vs_cold(
    class: &ServeClass,
    requests: usize,
) -> darth_pum::Result<WarmColdReport> {
    if requests == 0 {
        return Err(Error::InvalidConfig(
            "warm/cold comparison needs at least one request".into(),
        ));
    }
    let executor = FastExecutor::new();

    let cold_start = Instant::now();
    let mut cold_hashes = Vec::with_capacity(requests);
    for seed in 0..requests as u64 {
        let job = class.full_job(seed)?;
        let prepared = executor.prepare(&job)?;
        let (run, _) = executor.run_prepared(&prepared)?;
        cold_hashes.push(hash_outputs(&run.outputs));
    }
    let cold_s = cold_start.elapsed().as_secs_f64();

    let resident = ResidentProgram::for_split(class.split().clone())?;
    let warm_start = Instant::now();
    for seed in 0..requests as u64 {
        let served = resident.serve(&class.input_program(seed)?)?;
        if hash_outputs(&served.run.outputs) != cold_hashes[seed as usize] {
            return Err(Error::InvalidConfig(format!(
                "warm/cold outputs diverged for {} request seed {seed}",
                class.name()
            )));
        }
    }
    let warm_s = warm_start.elapsed().as_secs_f64();

    Ok(WarmColdReport {
        requests: requests as u64,
        cold_s,
        warm_s,
        speedup: cold_s / warm_s.max(1e-12),
    })
}

/// Nearest-rank percentile over an ascending-sorted sample: the smallest
/// sample with at least `ceil(q·n)` values at or below it (1-based rank
/// `ceil(q·n)`, clamped into the sample). For `n = 100` and `q = 0.99`
/// that is rank 99 exactly — no interpolation and no rounding toward a
/// neighbouring rank.
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Fraction of the chip's **own** serving window — first arrival it
/// served to its last completion — spent executing. Unlike
/// `ChipReport::utilization`, which divides by the fleet-wide span, a
/// chip that burned through an early burst and then sat idle scores its
/// burst density here, not the fleet's tail.
fn busy_fraction(busy_s: f64, records: &[RequestRecord]) -> f64 {
    let first = records.iter().map(|r| r.arrival_ns).min();
    let last = records.iter().map(|r| r.completion_ns).max();
    match (first, last) {
        (Some(first), Some(last)) => busy_s / (((last.saturating_sub(first)).max(1)) as f64 / 1e9),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_small_samples() {
        // n = 100, values 1..=100: rank(q·n) picks the value equal to
        // ceil(q·100).
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&hundred, 0.50), 50);
        assert_eq!(nearest_rank(&hundred, 0.99), 99);
        assert_eq!(nearest_rank(&hundred, 0.999), 100);
        assert_eq!(nearest_rank(&hundred, 1.0), 100);

        // n = 4: the median is the 2nd value (ceil(0.5·4) = 2), not the
        // 3rd that index-rounding `round(3·0.5) = 2` used to pick.
        let four = [10, 20, 30, 40];
        assert_eq!(nearest_rank(&four, 0.25), 10);
        assert_eq!(nearest_rank(&four, 0.50), 20);
        assert_eq!(nearest_rank(&four, 0.75), 30);
        assert_eq!(nearest_rank(&four, 0.99), 40);

        // Degenerate samples.
        assert_eq!(nearest_rank(&[], 0.99), 0);
        assert_eq!(nearest_rank(&[7], 0.5), 7);
        assert_eq!(nearest_rank(&[7], 0.999), 7);
    }

    #[test]
    fn nearest_rank_clamps_out_of_range_quantiles() {
        let sample = [1, 2, 3];
        assert_eq!(nearest_rank(&sample, 0.0), 1);
        assert_eq!(nearest_rank(&sample, 2.0), 3);
    }

    #[test]
    fn busy_fraction_uses_the_chips_own_window_not_the_fleet_span() {
        let record = |arrival_ns, completion_ns| RequestRecord {
            id: 0,
            arrival_ns,
            completion_ns,
            output_hash: 0,
        };
        // The chip worked 0.5 s solid inside its own 1 s window, then
        // idled while the rest of a 10 s fleet span played out: its
        // busy_fraction is 0.5 even though fleet-span utilization would
        // report 0.05.
        let records = vec![record(0, 400_000_000), record(500_000_000, 1_000_000_000)];
        let busy_s = 0.5;
        assert!((busy_fraction(busy_s, &records) - 0.5).abs() < 1e-12);
        let fleet_span_utilization = busy_s / 10.0;
        assert!(busy_fraction(busy_s, &records) > fleet_span_utilization);

        // A chip that served nothing has no window.
        assert_eq!(busy_fraction(0.0, &[]), 0.0);
    }
}

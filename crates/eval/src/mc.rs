//! Noise-aware Monte-Carlo accuracy engine for the DSE sweep.
//!
//! Each design point is evaluated by *executing* the standard functional
//! workloads (AES-128, GEMM, conv, reduce) on a noise-injected
//! [`FastMachine`](darth_sim::FastMachine) tile N times and comparing every
//! trial against the workload's golden output. The resulting per-workload
//! error statistics attach to the sweep's [`SweepMatrix`] rows, giving the
//! Pareto frontier a fourth (accuracy) axis next to latency, energy and
//! area.
//!
//! # Seed derivation
//!
//! Trial seeds come from a deterministic fork tree rooted at
//! [`McConfig::root_seed`]:
//!
//! ```text
//! root ──fork(point_index)──► point ──fork(workload_index)──► workload
//!      ──fork(trial_index)──► leaf ──next_u64()──► tile.seed
//! ```
//!
//! where `fork(i)` clones the parent stream and takes the `i+1`-th fork.
//! The seed for trial `(p, w, t)` therefore depends only on the root seed
//! and the three indices — never on scheduling order or worker count — so
//! the whole Monte-Carlo run is bit-reproducible under any parallelism,
//! the same contract the serving engine pins in
//! `crates/serve/tests/determinism.rs`.
//!
//! # Error metrics
//!
//! * `aes*` workloads report **bit-error rate**: XOR popcount between the
//!   trial's ciphertext bytes and the FIPS-197 golden, over total bits.
//! * `reduce*` workloads report **mean absolute error** (outputs are small
//!   counts where relative error degenerates).
//! * Everything else (GEMM, conv) reports **mean relative error**
//!   `|got − gold| / max(1, |gold|)`.

use crate::dse::{DesignPoint, SweepMatrix};
use crate::json::JsonValue;
use darth_apps::aes::program::AesExec;
use darth_apps::cnn::program::ConvExec;
use darth_apps::gemm::GemmExec;
use darth_apps::reduce::ReduceExec;
use darth_pum::hct::HctConfig;
use darth_pum::{ErrorMetric, ExecOutput, Executable};
use darth_reram::NoiseRng;
use darth_sim::FastExecutor;
use std::sync::Arc;

/// Monte-Carlo campaign parameters: trial count, root seed, the injected
/// device-noise magnitudes, and the worker pool size.
#[derive(Debug, Clone, PartialEq)]
pub struct McConfig {
    /// Trials per (design point, workload) pair.
    pub trials: usize,
    /// Root of the deterministic seed fork tree.
    pub root_seed: u64,
    /// Per-write lognormal conductance sigma injected into trial tiles.
    pub program_sigma: f64,
    /// Per-read Gaussian conductance sigma injected into trial tiles.
    pub read_sigma: f64,
    /// IR-drop attenuation coefficient injected into trial tiles.
    pub ir_drop_alpha: f64,
    /// Worker threads for the trial fan-out (`None` = executor default).
    pub workers: Option<usize>,
}

impl McConfig {
    /// Paper-evaluation noise magnitudes (§6 device model) at a modest
    /// default trial count.
    #[must_use]
    pub fn evaluation() -> Self {
        Self {
            trials: 8,
            root_seed: 0xDA27_ACC0,
            program_sigma: 0.02,
            read_sigma: 0.005,
            ir_drop_alpha: 0.0008,
            workers: None,
        }
    }

    /// All noise sources zeroed. Trial tiles are built exactly as noisy
    /// ones (`noisy = true`), but with every device sigma at zero their
    /// crossbars are level-exact, so the MVMs take the integer bitline
    /// path and must reproduce the ideal golden outputs bit-exactly —
    /// pinned by `tests/mc_smoke.rs`. The f64 crossbar path at zero noise
    /// is pinned separately, by the 2,000-crossbar oracle
    /// `integer_codes_match_the_f64_model_on_level_exact_crossbars` in
    /// `darth_analog::ace`.
    #[must_use]
    pub fn zero_sigma() -> Self {
        Self {
            program_sigma: 0.0,
            read_sigma: 0.0,
            ir_drop_alpha: 0.0,
            ..Self::evaluation()
        }
    }

    /// Sets the trial count per (point, workload) pair.
    #[must_use]
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Sets the fan-out worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Sets the root seed of the fork tree.
    #[must_use]
    pub fn with_root_seed(mut self, root_seed: u64) -> Self {
        self.root_seed = root_seed;
        self
    }
}

/// Error statistics for one workload at one design point.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadAccuracy {
    /// Workload name (the executable's `exec_name`), one allocation shared
    /// by every design point of a campaign: callers that keep many
    /// campaign results hold no per-point copies.
    pub workload: Arc<str>,
    /// Trials executed.
    pub trials: usize,
    /// Mean per-trial error under the workload's metric.
    pub mean_error: f64,
    /// Worst single-trial error.
    pub worst_error: f64,
    /// Trials whose outputs matched the golden bit-exactly.
    pub exact_trials: usize,
}

impl WorkloadAccuracy {
    /// JSON object for the sweep report.
    #[must_use]
    pub fn to_json(&self) -> JsonValue<'_> {
        JsonValue::object(vec![
            ("workload", JsonValue::from(&*self.workload)),
            ("trials", JsonValue::from(self.trials)),
            ("mean_error", JsonValue::from(self.mean_error)),
            ("worst_error", JsonValue::from(self.worst_error)),
            ("exact_trials", JsonValue::from(self.exact_trials)),
        ])
    }
}

/// Aggregated Monte-Carlo accuracy for one design point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointAccuracy {
    /// Trials per workload.
    pub trials: usize,
    /// Per-workload error statistics.
    pub workloads: Vec<WorkloadAccuracy>,
    /// Mean of the per-workload mean errors — the point's accuracy
    /// coordinate on the 4-D Pareto frontier (lower is better).
    pub mean_error: f64,
}

impl PointAccuracy {
    /// JSON object for the sweep report.
    #[must_use]
    pub fn to_json(&self) -> JsonValue<'_> {
        JsonValue::object(vec![
            ("trials", JsonValue::from(self.trials)),
            ("mean_error", JsonValue::from(self.mean_error)),
            (
                "workloads",
                JsonValue::array(
                    self.workloads
                        .iter()
                        .map(WorkloadAccuracy::to_json)
                        .collect(),
                ),
            ),
        ])
    }
}

/// The standard functional workload set every design point is scored on.
#[must_use]
pub fn standard_workloads() -> Vec<Box<dyn Executable>> {
    vec![
        Box::new(AesExec::fips197_appendix_b()),
        Box::new(GemmExec::standard()),
        Box::new(ConvExec::standard()),
        Box::new(ReduceExec::standard()),
    ]
}

/// Clones `parent` and takes its `index + 1`-th fork, giving each child a
/// statistically independent stream at a position determined only by
/// `index`.
fn fork_child(parent: &NoiseRng, index: usize) -> NoiseRng {
    let mut stream = parent.clone();
    let mut child = stream.fork();
    for _ in 0..index {
        child = stream.fork();
    }
    child
}

/// The tile seed for trial `(point_index, workload_index, trial_index)`
/// under `root_seed`. Depends only on the four arguments.
#[must_use]
pub fn trial_seed(
    root_seed: u64,
    point_index: usize,
    workload_index: usize,
    trial_index: usize,
) -> u64 {
    let root = NoiseRng::seed_from(root_seed);
    let point = fork_child(&root, point_index);
    let workload = fork_child(&point, workload_index);
    let mut leaf = fork_child(&workload, trial_index);
    leaf.next_u64()
}

/// A noise-injected copy of `base` carrying the design point's ADC choice
/// and the campaign's noise magnitudes.
fn trial_tile(base: &HctConfig, point: &DesignPoint, mc: &McConfig, seed: u64) -> HctConfig {
    let mut tile = base.clone();
    tile.noisy = true;
    tile.seed = seed;
    tile.program_sigma = mc.program_sigma;
    tile.read_sigma = mc.read_sigma;
    tile.ir_drop_alpha = mc.ir_drop_alpha;
    // Couple the point's ADC design axes into the functional tile: a
    // narrower ADC clips larger bit-plane sums, so resolution shows up as
    // accuracy loss even at zero sigma. Cell density is deliberately NOT
    // coupled — workload weight ranges are part of the app mapping, not
    // the sweep.
    tile.params.adc_kind = point.config.ace.adc_kind;
    tile.functional_adc_bits = point.config.ace.adc_bits;
    tile
}

/// One trial's error versus the golden outputs.
///
/// # Errors
///
/// Returns [`darth_pum::Error::Shape`] when the trial's outputs differ
/// from the golden in count, labels or cell lengths — shape drift is an
/// error, never scored on the matching prefix.
fn trial_error(
    metric: ErrorMetric,
    golden: &[ExecOutput],
    got: &[ExecOutput],
) -> darth_pum::Result<f64> {
    let same_shape = golden.len() == got.len()
        && golden
            .iter()
            .zip(got)
            .all(|(g, o)| g.label == o.label && g.cells.len() == o.cells.len());
    if !same_shape {
        let shape = |outputs: &[ExecOutput]| -> Vec<(String, usize)> {
            outputs
                .iter()
                .map(|o| (o.label.clone(), o.cells.len()))
                .collect()
        };
        return Err(darth_pum::Error::Shape(format!(
            "trial outputs {:?} do not match the golden {:?}",
            shape(got),
            shape(golden)
        )));
    }
    let gold_cells = golden.iter().flat_map(|o| o.cells.iter().copied());
    let got_cells = got.iter().flat_map(|o| o.cells.iter().copied());
    let mut cells = 0_usize;
    let mut accum = 0.0_f64;
    for (gold, got) in gold_cells.zip(got_cells) {
        cells += 1;
        accum += match metric {
            ErrorMetric::BitError => f64::from((gold ^ got).count_ones()),
            ErrorMetric::Absolute => (got - gold).abs() as f64,
            ErrorMetric::Relative => (got - gold).abs() as f64 / (gold.abs().max(1)) as f64,
        };
    }
    if cells == 0 {
        return Ok(0.0);
    }
    Ok(match metric {
        // Cells are bytes for AES readbacks: normalise popcount to bits.
        ErrorMetric::BitError => accum / (8.0 * cells as f64),
        ErrorMetric::Absolute | ErrorMetric::Relative => accum / cells as f64,
    })
}

/// Runs the full Monte-Carlo campaign: `points × workloads × trials`
/// noise-injected executions fanned out over the fast executor's scoped
/// worker pool, folded into one [`PointAccuracy`] per design point.
///
/// # Errors
///
/// Returns job-construction or execution errors from the functional
/// machine (e.g. an invalid tile geometry in a design point), and
/// [`darth_pum::Error::Shape`] when any trial's outputs differ from the
/// workload's golden in labels or lengths.
pub fn measure_accuracy(
    points: &[DesignPoint],
    workloads: &[Box<dyn Executable>],
    mc: &McConfig,
) -> darth_pum::Result<Vec<PointAccuracy>> {
    // Stage the per-workload base job + golden once; trials only vary the
    // tile's seed and noise knobs.
    let mut staged = Vec::with_capacity(workloads.len());
    for workload in workloads {
        staged.push((
            Arc::<str>::from(workload.exec_name()),
            workload.error_metric(),
            workload.job()?,
            workload.golden()?,
        ));
    }

    // Flatten the whole campaign into one batch so the executor's sharding
    // spans every (point, workload, trial) triple.
    let mut jobs = Vec::with_capacity(points.len() * staged.len() * mc.trials);
    for (p, point) in points.iter().enumerate() {
        for (w, (_, _, base, _)) in staged.iter().enumerate() {
            for t in 0..mc.trials {
                let mut job = base.clone();
                job.tile = trial_tile(&base.tile, point, mc, trial_seed(mc.root_seed, p, w, t));
                jobs.push(job);
            }
        }
    }

    let executor = mc
        .workers
        .map_or_else(FastExecutor::new, |n| FastExecutor::new().with_workers(n));
    let outputs = executor.execute_batch(&jobs)?;

    let mut accuracies = Vec::with_capacity(points.len());
    let mut cursor = outputs.chunks_exact(mc.trials.max(1));
    for _ in points {
        let mut per_workload = Vec::with_capacity(staged.len());
        for (name, metric, _, golden) in &staged {
            let trials = cursor.next().map_or(&[][..], |c| c);
            let mut mean_error = 0.0_f64;
            let mut worst_error = 0.0_f64;
            let mut exact_trials = 0_usize;
            for run in trials {
                let err = trial_error(*metric, golden, &run.outputs)
                    .map_err(|e| darth_pum::Error::Shape(format!("{name}: {e}")))?;
                mean_error += err;
                worst_error = worst_error.max(err);
                if run.outputs == *golden {
                    exact_trials += 1;
                }
            }
            if !trials.is_empty() {
                mean_error /= trials.len() as f64;
            }
            per_workload.push(WorkloadAccuracy {
                workload: Arc::clone(name),
                trials: trials.len(),
                mean_error,
                worst_error,
                exact_trials,
            });
        }
        let mean_error = if per_workload.is_empty() {
            0.0
        } else {
            per_workload.iter().map(|w| w.mean_error).sum::<f64>() / per_workload.len() as f64
        };
        accuracies.push(PointAccuracy {
            trials: mc.trials,
            workloads: per_workload,
            mean_error,
        });
    }
    Ok(accuracies)
}

/// Measures Monte-Carlo accuracy for `points` on the standard workload
/// set and attaches the results to the matching [`SweepMatrix`] rows
/// (matched by point name).
///
/// # Errors
///
/// Propagates [`measure_accuracy`] failures.
pub fn attach_accuracy(
    matrix: &mut SweepMatrix,
    points: &[DesignPoint],
    mc: &McConfig,
) -> darth_pum::Result<()> {
    let workloads = standard_workloads();
    let accuracies = measure_accuracy(points, &workloads, mc)?;
    for (point, accuracy) in points.iter().zip(accuracies) {
        if let Some(row) = matrix.points.iter_mut().find(|r| r.name == point.name) {
            row.accuracy = Some(accuracy);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_seeds_are_unique_and_order_independent() {
        let mut seen = std::collections::HashSet::new();
        for p in 0..3 {
            for w in 0..4 {
                for t in 0..5 {
                    assert!(
                        seen.insert(trial_seed(7, p, w, t)),
                        "seed collision at ({p},{w},{t})"
                    );
                }
            }
        }
        // Pure function of the indices: recomputing any leaf out of order
        // gives the same seed.
        assert_eq!(trial_seed(7, 2, 3, 4), trial_seed(7, 2, 3, 4));
        assert_ne!(trial_seed(7, 0, 0, 0), trial_seed(8, 0, 0, 0));
    }

    #[test]
    fn standard_workloads_declare_their_metric_families() {
        let metrics: Vec<ErrorMetric> = standard_workloads()
            .iter()
            .map(|w| w.error_metric())
            .collect();
        assert_eq!(
            metrics,
            [
                ErrorMetric::BitError,
                ErrorMetric::Relative,
                ErrorMetric::Relative,
                ErrorMetric::Absolute,
            ]
        );
    }

    #[test]
    fn bit_error_rate_counts_flipped_bits_over_total_bits() {
        let gold = vec![ExecOutput {
            label: "ct".into(),
            cells: vec![0x00, 0xFF, 0x0F, 0xF0],
        }];
        let got = vec![ExecOutput {
            label: "ct".into(),
            cells: vec![0x01, 0xFF, 0x0F, 0xF0],
        }];
        let ber = trial_error(ErrorMetric::BitError, &gold, &got).expect("same shape");
        assert!((ber - 1.0 / 32.0).abs() < 1e-12, "ber = {ber}");
        assert_eq!(
            trial_error(ErrorMetric::BitError, &gold, &gold).expect("same shape"),
            0.0
        );
    }

    #[test]
    fn relative_error_floors_the_denominator_at_one() {
        let gold = vec![ExecOutput {
            label: "y".into(),
            cells: vec![0, 100],
        }];
        let got = vec![ExecOutput {
            label: "y".into(),
            cells: vec![3, 90],
        }];
        let err = trial_error(ErrorMetric::Relative, &gold, &got).expect("same shape");
        // (|3-0|/1 + |90-100|/100) / 2 = (3 + 0.1) / 2
        assert!((err - 1.55).abs() < 1e-12, "err = {err}");
    }

    #[test]
    fn absolute_error_averages_magnitudes() {
        let gold = vec![ExecOutput {
            label: "y".into(),
            cells: vec![10, -4],
        }];
        let got = vec![ExecOutput {
            label: "y".into(),
            cells: vec![12, -4],
        }];
        let err = trial_error(ErrorMetric::Absolute, &gold, &got).expect("same shape");
        assert!((err - 1.0).abs() < 1e-12, "err = {err}");
    }

    #[test]
    fn shape_drift_is_an_error_not_a_prefix_score() {
        let output = |label: &str, cells: Vec<i64>| ExecOutput {
            label: label.into(),
            cells,
        };
        let gold = vec![output("y", vec![1, 2, 3]), output("z", vec![4])];
        let drifted = [
            // Truncated cells: the prefix matches exactly.
            vec![output("y", vec![1, 2]), output("z", vec![4])],
            // A missing output.
            vec![output("y", vec![1, 2, 3])],
            // An extra output.
            vec![
                output("y", vec![1, 2, 3]),
                output("z", vec![4]),
                output("w", vec![0]),
            ],
            // Extra cells.
            vec![output("y", vec![1, 2, 3, 9]), output("z", vec![4])],
            // A relabelled output.
            vec![output("y", vec![1, 2, 3]), output("q", vec![4])],
        ];
        for metric in [
            ErrorMetric::BitError,
            ErrorMetric::Absolute,
            ErrorMetric::Relative,
        ] {
            for got in &drifted {
                let result = trial_error(metric, &gold, got);
                assert!(
                    matches!(result, Err(darth_pum::Error::Shape(_))),
                    "{metric:?} scored {got:?} as {result:?}"
                );
            }
        }
    }

    /// The standard reduction job paired with a golden one cell too long,
    /// so every trial's (exact) output is a truncation of it.
    struct LongGolden(ReduceExec);

    impl Executable for LongGolden {
        fn exec_name(&self) -> String {
            self.0.exec_name()
        }
        fn job(&self) -> darth_pum::Result<darth_pum::ExecJob> {
            self.0.job()
        }
        fn golden(&self) -> darth_pum::Result<Vec<ExecOutput>> {
            let mut golden = self.0.golden()?;
            golden[0].cells.push(0);
            Ok(golden)
        }
        fn error_metric(&self) -> ErrorMetric {
            self.0.error_metric()
        }
    }

    #[test]
    fn measure_accuracy_rejects_truncated_trial_outputs() {
        let points = crate::dse::smoke_sweep().generate().expect("valid grid");
        let workloads: Vec<Box<dyn Executable>> =
            vec![Box::new(LongGolden(ReduceExec::standard()))];
        let mc = McConfig::zero_sigma().with_trials(1).with_workers(1);
        let result = measure_accuracy(&points[..1], &workloads, &mc);
        assert!(
            matches!(result, Err(darth_pum::Error::Shape(_))),
            "{result:?}"
        );
    }

    #[test]
    fn zero_sigma_config_zeroes_every_noise_source() {
        let mc = McConfig::zero_sigma();
        assert_eq!(mc.program_sigma, 0.0);
        assert_eq!(mc.read_sigma, 0.0);
        assert_eq!(mc.ir_drop_alpha, 0.0);
        assert_eq!(mc.trials, McConfig::evaluation().trials);
    }
}

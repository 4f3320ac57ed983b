//! The evaluation engine: registries crossed into a priced matrix,
//! streamed end to end.
//!
//! An [`Engine`] owns two registries — `Box<dyn Workload>` scenarios and
//! `Box<dyn ArchModel>` architectures — and prices the full cross product
//! into an [`EvalMatrix`] without ever materializing a trace. Work is
//! split in two phases, both fanned out over the stack's one scoped map
//! ([`darth_pum::workers::scoped_map`]: disjoint output slices, no
//! locks, no shared mutable state, and therefore bit-identical results
//! at any worker count):
//!
//! 1. **Stream recording**, once per workload: each emission is
//!    compressed into a run-length [`TraceSummary`] and memoized, so
//!    repeated `run()` calls (e.g. after registering more models) only
//!    record the scenarios they have not seen. The summary is compact —
//!    a million-block bulk scenario collapses to a handful of op runs.
//! 2. **Pricing**, once per workload row: the cached summary replays
//!    once into a [`Fanout`] over a fresh accumulator from every model
//!    ([`ArchModel::accumulator`]), reproducing the exact original op
//!    sequence in each, so every cell is bit-identical to pricing the
//!    live workload on its own.
//!
//! To price a one-off scenario on a set of models without a cache entry,
//! use [`darth_pum::eval::price_on_all`].

use crate::json::JsonValue;
use darth_pum::eval::{ArchModel, Fanout, Workload};
use darth_pum::trace::{geomean, CostReport, TraceSummary};
use darth_pum::workers::{scoped_map, worker_count};
use std::collections::HashMap;

/// How [`Engine::run`] schedules its work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threading {
    /// One worker: every phase runs its items in order on a single
    /// scoped thread (reference mode).
    Serial,
    /// The stack's one worker rule ([`darth_pum::workers::worker_count`]):
    /// `DARTH_EVAL_THREADS`, else one worker per available core, capped
    /// by the number of work items.
    #[default]
    Parallel,
    /// A fixed worker count, independent of the host's core count
    /// (`Workers(0)` behaves like `Workers(1)`).
    Workers(usize),
}

impl Threading {
    /// The worker count for a phase over `items` work items.
    fn worker_count(self, items: usize) -> usize {
        let explicit = match self {
            Threading::Serial => Some(1),
            Threading::Parallel => None,
            Threading::Workers(n) => Some(n),
        };
        worker_count(explicit, items)
    }
}

/// One workload row of the matrix: identity plus trace statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSummary {
    /// Registry name (`Workload::name`).
    pub name: String,
    /// Figure label (`Workload::label`).
    pub label: String,
    /// Scenario parameters (`Workload::params`).
    pub params: Vec<(String, String)>,
    /// Total multiply–accumulates in the trace.
    pub macs: u64,
    /// Total element-ops in the trace.
    pub element_ops: u64,
    /// MVM share of the work (see [`TraceSummary::mvm_fraction`]).
    pub mvm_fraction: f64,
}

/// One model column of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSummary {
    /// Registry name (`ArchModel::name`).
    pub name: String,
    /// Figure label (`ArchModel::label`).
    pub label: String,
}

/// The priced workload × architecture matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalMatrix {
    /// Row descriptors, in registration order.
    pub workloads: Vec<WorkloadSummary>,
    /// Column descriptors, in registration order.
    pub models: Vec<ModelSummary>,
    /// Priced cells, row-major (`cells[w * models.len() + m]`).
    pub cells: Vec<CostReport>,
}

impl EvalMatrix {
    /// Index of a workload row by registry name.
    pub fn workload_index(&self, workload: &str) -> Option<usize> {
        self.workloads.iter().position(|w| w.name == workload)
    }

    /// Index of a model column by registry name.
    pub fn model_index(&self, model: &str) -> Option<usize> {
        self.models.iter().position(|m| m.name == model)
    }

    /// The cell at `(row, column)` indices.
    pub fn cell_at(&self, workload: usize, model: usize) -> &CostReport {
        &self.cells[workload * self.models.len() + model]
    }

    /// The cell for `(workload, model)` registry names.
    pub fn cell(&self, workload: &str, model: &str) -> Option<&CostReport> {
        let w = self.workload_index(workload)?;
        let m = self.model_index(model)?;
        Some(self.cell_at(w, m))
    }

    /// All cells of one workload row, in model order.
    pub fn row(&self, workload: &str) -> Option<&[CostReport]> {
        let w = self.workload_index(workload)?;
        let m = self.models.len();
        Some(&self.cells[w * m..(w + 1) * m])
    }

    /// Per-workload throughput ratios `model / baseline`, in row order.
    pub fn speedups(&self, model: &str, baseline: &str) -> Vec<f64> {
        self.ratios(model, baseline, CostReport::speedup_over)
    }

    /// Per-workload energy-savings ratios `baseline energy / model
    /// energy`, in row order.
    pub fn energy_savings(&self, model: &str, baseline: &str) -> Vec<f64> {
        self.ratios(model, baseline, CostReport::energy_savings_over)
    }

    /// Geometric mean of [`EvalMatrix::speedups`] — the summary row under
    /// the figures.
    pub fn geomean_speedup(&self, model: &str, baseline: &str) -> f64 {
        geomean(&self.speedups(model, baseline))
    }

    /// Geometric mean of [`EvalMatrix::energy_savings`].
    pub fn geomean_energy_savings(&self, model: &str, baseline: &str) -> f64 {
        geomean(&self.energy_savings(model, baseline))
    }

    fn ratios(
        &self,
        model: &str,
        baseline: &str,
        ratio: impl Fn(&CostReport, &CostReport) -> f64,
    ) -> Vec<f64> {
        let (Some(m), Some(b)) = (self.model_index(model), self.model_index(baseline)) else {
            return Vec::new();
        };
        (0..self.workloads.len())
            .map(|w| ratio(self.cell_at(w, m), self.cell_at(w, b)))
            .collect()
    }

    /// The whole matrix as a JSON document (`darth-eval-matrix/v1`).
    ///
    /// Every workload, model, architecture and kernel name is *borrowed*
    /// into the tree (`JsonValue<'_>`), so serializing even a large
    /// matrix allocates no string copies — only the tree nodes
    /// themselves.
    pub fn to_json(&self) -> JsonValue<'_> {
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                JsonValue::object(vec![
                    ("name", JsonValue::from(&w.name)),
                    ("label", JsonValue::from(&w.label)),
                    (
                        "params",
                        JsonValue::Object(
                            w.params
                                .iter()
                                .map(|(k, v)| (k.as_str().into(), JsonValue::from(v)))
                                .collect(),
                        ),
                    ),
                    ("macs", JsonValue::from(w.macs)),
                    ("element_ops", JsonValue::from(w.element_ops)),
                    ("mvm_fraction", JsonValue::from(w.mvm_fraction)),
                ])
            })
            .collect();
        let models = self
            .models
            .iter()
            .map(|m| {
                JsonValue::object(vec![
                    ("name", JsonValue::from(&m.name)),
                    ("label", JsonValue::from(&m.label)),
                ])
            })
            .collect();
        let cells = self
            .workloads
            .iter()
            .enumerate()
            .flat_map(|(w, workload)| {
                self.models.iter().enumerate().map(move |(m, model)| {
                    let report = self.cell_at(w, m);
                    JsonValue::object(vec![
                        ("workload", JsonValue::from(&workload.name)),
                        ("model", JsonValue::from(&model.name)),
                        ("architecture", JsonValue::from(&report.architecture)),
                        ("latency_s", JsonValue::from(report.latency_s)),
                        (
                            "throughput_items_per_s",
                            JsonValue::from(report.throughput_items_per_s),
                        ),
                        (
                            "energy_per_item_j",
                            JsonValue::from(report.energy_per_item_j),
                        ),
                        (
                            "kernels",
                            JsonValue::array(
                                report
                                    .kernel_latency_s
                                    .iter()
                                    .map(|(name, latency)| {
                                        JsonValue::object(vec![
                                            ("name", JsonValue::from(name)),
                                            ("latency_s", JsonValue::from(*latency)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
            })
            .collect();
        JsonValue::object(vec![
            ("schema", JsonValue::from("darth-eval-matrix/v1")),
            ("workloads", JsonValue::Array(workloads)),
            ("models", JsonValue::Array(models)),
            ("cells", JsonValue::Array(cells)),
        ])
    }
}

/// The evaluation engine. See the [module docs](self) for the phases.
#[derive(Default)]
pub struct Engine {
    workloads: Vec<Box<dyn Workload>>,
    models: Vec<Box<dyn ArchModel>>,
    threading: Threading,
    summary_cache: HashMap<String, TraceSummary>,
}

impl Engine {
    /// An empty engine (parallel by default).
    pub fn new() -> Self {
        Engine::default()
    }

    /// Sets the scheduling mode for subsequent [`Engine::run`] calls.
    pub fn set_threading(&mut self, threading: Threading) {
        self.threading = threading;
    }

    /// Registers a workload scenario (builder style).
    ///
    /// # Panics
    ///
    /// Panics when a workload with the same [`Workload::name`] is already
    /// registered — every row of the matrix must be addressable by name.
    pub fn register_workload(&mut self, workload: Box<dyn Workload>) -> &mut Self {
        let name = workload.name();
        assert!(
            !self.workloads.iter().any(|w| w.name() == name),
            "duplicate workload '{name}'"
        );
        self.workloads.push(workload);
        self
    }

    /// Registers an architecture model (builder style).
    ///
    /// # Panics
    ///
    /// Panics when a model with the same [`ArchModel::name`] is already
    /// registered.
    pub fn register_model(&mut self, model: Box<dyn ArchModel>) -> &mut Self {
        let name = model.name();
        assert!(
            !self.models.iter().any(|m| m.name() == name),
            "duplicate model '{name}'"
        );
        self.models.push(model);
        self
    }

    /// Registered workload count.
    pub fn workload_count(&self) -> usize {
        self.workloads.len()
    }

    /// Prices the full workload × model matrix.
    ///
    /// Each workload's cached summary replays **once** into a [`Fanout`]
    /// over every registered model, so a row costs one replay pass
    /// however many columns there are (hundreds, in a design sweep).
    /// Rows are sharded across scoped workers over disjoint output
    /// slices. Streams recorded by earlier runs are
    /// reused (memoized by workload name); rows and columns appear in
    /// registration order.
    pub fn run(&mut self) -> EvalMatrix {
        self.record_missing_summaries();
        let summaries: Vec<&TraceSummary> = self
            .workloads
            .iter()
            .map(|w| &self.summary_cache[&w.name()])
            .collect();

        let models = &self.models;
        let workers = self.threading.worker_count(summaries.len());
        let cells = scoped_map(
            &summaries,
            workers,
            || (),
            |_, summary| {
                let mut fanout = Fanout::new(models.iter().map(AsRef::as_ref));
                summary.emit(&mut fanout);
                fanout.finish()
            },
        )
        .into_iter()
        .flatten()
        .collect();
        let (workloads, models) = self.descriptors(&summaries);
        EvalMatrix {
            workloads,
            models,
            cells,
        }
    }

    /// Row and column descriptors for a matrix over the current
    /// registries, in registration order.
    fn descriptors(
        &self,
        summaries: &[&TraceSummary],
    ) -> (Vec<WorkloadSummary>, Vec<ModelSummary>) {
        let workloads = self
            .workloads
            .iter()
            .zip(summaries)
            .map(|(w, summary)| WorkloadSummary {
                name: w.name(),
                label: w.label(),
                params: w.params(),
                macs: summary.macs(),
                element_ops: summary.element_ops(),
                mvm_fraction: summary.mvm_fraction(),
            })
            .collect();
        let models = self
            .models
            .iter()
            .map(|m| ModelSummary {
                name: m.name(),
                label: m.label(),
            })
            .collect();
        (workloads, models)
    }

    /// The cached run-length summary of a workload's recorded stream —
    /// present after an [`Engine::run`] that included the workload.
    /// Useful for stream statistics (op and kernel counts) without
    /// re-emitting.
    pub fn summary(&self, workload: &str) -> Option<&TraceSummary> {
        self.summary_cache.get(workload)
    }

    /// Records (in parallel) every registered workload's op stream not
    /// yet in the summary cache.
    fn record_missing_summaries(&mut self) {
        let missing: Vec<&dyn Workload> = self
            .workloads
            .iter()
            .map(AsRef::as_ref)
            .filter(|w| !self.summary_cache.contains_key(&w.name()))
            .collect();
        let workers = self.threading.worker_count(missing.len());
        let recorded = scoped_map(
            &missing,
            workers,
            || (),
            |_, workload| TraceSummary::record(|r| workload.emit(r)),
        );
        for (workload, summary) in missing.iter().zip(recorded) {
            self.summary_cache.insert(workload.name(), summary);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darth_pum::eval::CostAccumulator;
    use darth_pum::trace::{KernelOp, TraceMeta, TraceSink};

    struct Moves(u64);

    impl Workload for Moves {
        fn name(&self) -> String {
            format!("moves-{}", self.0)
        }
        fn emit(&self, sink: &mut dyn TraceSink) {
            sink.begin_trace(&TraceMeta::new(self.name()));
            sink.begin_kernel("mv");
            sink.op(&KernelOp::HostMove { bytes: self.0 });
        }
    }

    struct PerByte(f64);

    struct PerByteAccumulator {
        architecture: String,
        rate: f64,
        workload: String,
        bytes: u64,
    }

    impl TraceSink for PerByteAccumulator {
        fn begin_trace(&mut self, meta: &TraceMeta) {
            self.workload = meta.name.clone();
        }
        fn begin_kernel(&mut self, _name: &str) {}
        fn op_run(&mut self, op: &KernelOp, repeat: u64) {
            if let KernelOp::HostMove { bytes } = *op {
                self.bytes += bytes * repeat;
            }
        }
    }

    impl CostAccumulator for PerByteAccumulator {
        fn finish(&mut self) -> CostReport {
            let latency_s = self.rate * self.bytes as f64;
            CostReport {
                architecture: self.architecture.clone(),
                workload: std::mem::take(&mut self.workload),
                latency_s,
                throughput_items_per_s: 1.0 / latency_s,
                energy_per_item_j: latency_s,
                kernel_latency_s: vec![("mv".into(), latency_s)],
            }
        }
    }

    impl ArchModel for PerByte {
        fn name(&self) -> String {
            format!("per-byte-{}", self.0)
        }
        fn accumulator(&self) -> Box<dyn CostAccumulator + '_> {
            Box::new(PerByteAccumulator {
                architecture: self.name(),
                rate: self.0,
                workload: String::new(),
                bytes: 0,
            })
        }
    }

    fn engine() -> Engine {
        let mut e = Engine::new();
        e.register_workload(Box::new(Moves(8)))
            .register_workload(Box::new(Moves(64)))
            .register_model(Box::new(PerByte(1.0)))
            .register_model(Box::new(PerByte(4.0)));
        e
    }

    #[test]
    fn matrix_is_row_major_and_addressable() {
        let matrix = engine().run();
        assert_eq!(matrix.workloads.len(), 2);
        assert_eq!(matrix.models.len(), 2);
        assert_eq!(matrix.cells.len(), 4);
        let cell = matrix.cell("moves-64", "per-byte-4").expect("exists");
        assert_eq!(cell.latency_s, 256.0);
        assert_eq!(matrix.cell("moves-64", "nope"), None);
        let row = matrix.row("moves-8").expect("exists");
        assert_eq!(row.len(), 2);
        assert_eq!(row[1].latency_s, 32.0);
    }

    #[test]
    fn ratios_and_geomeans() {
        let matrix = engine().run();
        let speedups = matrix.speedups("per-byte-1", "per-byte-4");
        assert_eq!(speedups, vec![4.0, 4.0]);
        assert!((matrix.geomean_speedup("per-byte-1", "per-byte-4") - 4.0).abs() < 1e-12);
        assert!((matrix.geomean_energy_savings("per-byte-1", "per-byte-4") - 4.0).abs() < 1e-12);
        assert!(matrix.speedups("per-byte-1", "nope").is_empty());
    }

    #[test]
    fn summary_cache_survives_reruns() {
        let mut e = engine();
        let first = e.run();
        e.register_model(Box::new(PerByte(2.0)));
        let second = e.run();
        assert_eq!(second.models.len(), 3);
        // The first two columns are unchanged by the wider rerun.
        for w in ["moves-8", "moves-64"] {
            for m in ["per-byte-1", "per-byte-4"] {
                assert_eq!(first.cell(w, m), second.cell(w, m));
            }
        }
    }

    #[test]
    fn price_streamed_matches_matrix_cells() {
        let matrix = engine().run();
        let models: [&dyn ArchModel; 2] = [&PerByte(1.0), &PerByte(4.0)];
        for workload in [Moves(8), Moves(64)] {
            let streamed = darth_pum::eval::price_on_all(&workload, models);
            assert_eq!(streamed.len(), 2);
            for (report, model) in streamed.iter().zip(["per-byte-1", "per-byte-4"]) {
                assert_eq!(Some(report), matrix.cell(&workload.name(), model));
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate workload")]
    fn duplicate_workload_names_are_rejected() {
        let mut e = Engine::new();
        e.register_workload(Box::new(Moves(8)))
            .register_workload(Box::new(Moves(8)));
    }

    #[test]
    fn json_report_names_every_cell() {
        let matrix = engine().run();
        let text = matrix.to_json().pretty();
        assert!(text.contains("darth-eval-matrix/v1"));
        for name in ["moves-8", "moves-64", "per-byte-1", "per-byte-4"] {
            assert!(text.contains(name), "missing {name}");
        }
    }

    #[test]
    fn empty_engine_prices_an_empty_matrix() {
        let matrix = Engine::new().run();
        assert!(matrix.cells.is_empty());
        assert!(matrix.workloads.is_empty());
    }

    #[test]
    fn run_is_bit_identical_at_any_worker_count() {
        let mut serial = engine();
        serial.set_threading(Threading::Serial);
        let reference = serial.run();
        for threading in [Threading::Parallel, Threading::Workers(3)] {
            let mut sharded = engine();
            sharded.set_threading(threading);
            assert_eq!(sharded.run(), reference, "{threading:?}");
        }
    }

    #[test]
    fn run_handles_degenerate_registries() {
        assert!(Engine::new().run().cells.is_empty());
        // Workloads but no models: rows exist, zero columns.
        let mut rows_only = Engine::new();
        rows_only.register_workload(Box::new(Moves(8)));
        let matrix = rows_only.run();
        assert_eq!(matrix.workloads.len(), 1);
        assert!(matrix.models.is_empty());
        assert!(matrix.cells.is_empty());
    }
}

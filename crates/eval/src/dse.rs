//! Design-space exploration: parameterized config sweeps over the
//! DARTH-PUM design space.
//!
//! The paper's figures price a handful of fixed design points (8-bit
//! SAR/ramp ADCs, 64×64 crossbars, 4-bit cells at 1 GHz). This module
//! turns those points into a *space*: a [`ConfigSweep`] walks named axes
//! (ADC kind and resolution, crossbar geometry, bits-per-cell slicing,
//! ACE array count, clock — plus arbitrary [`SweepAxis::custom`] axes)
//! over a base [`DarthConfig`], producing one validated [`DesignPoint`]
//! per grid cell, and [`price_sweep`] prices every point on every
//! workload through the streaming [`Engine`]:
//!
//! * each workload's op stream is recorded once into the engine's
//!   summary cache (sharded across `std::thread::scope` workers);
//! * each row then replays once into a `Fanout` over *all* design
//!   points ([`Engine::run`]) — one emission pass prices every config
//!   cell, and results are bit-identical at any worker count;
//! * every design point is wrapped in the paper's evaluation policy
//!   ([`crate::registry::PaperDarthModel`]), so ramp-ADC points apply
//!   the §7.3 AES early termination and the paper's own design points
//!   reproduce the figure numbers byte-for-byte inside the sweep.
//!
//! The result is a [`SweepMatrix`]: the priced workload × config matrix
//! plus per-point area/sizing, Pareto-frontier extraction over
//! (latency, energy, tile area), and per-workload best-config tables.

use crate::engine::{Engine, EvalMatrix, Threading};
use crate::json::JsonValue;
use crate::mc::PointAccuracy;
use crate::registry::PaperDarthModel;
use darth_analog::adc::AdcKind;
use darth_pum::config::DarthConfig;
use darth_pum::eval::{ArchModel, CostAccumulator, Workload};
use darth_pum::trace::{geomean, CostReport};
use std::collections::HashSet;
use std::sync::Arc;

/// How one axis point edits a config (the closed set of named knobs,
/// plus an open escape hatch for user-defined axes).
#[derive(Clone)]
enum AxisApply {
    AdcKind(AdcKind),
    AdcBits(u8),
    Crossbar(usize, usize),
    BitsPerCell(u8),
    AceArrays(usize),
    ClockGhz(f64),
    Custom(Arc<dyn Fn(&mut DarthConfig) + Send + Sync>),
}

/// One value of a sweep axis: a slug for the design-point name, a
/// human-readable value for reports, and the config edit itself.
#[derive(Clone)]
pub struct AxisPoint {
    slug: String,
    value: String,
    apply: AxisApply,
}

impl AxisPoint {
    /// A user-defined axis point: `slug` names the point inside design
    /// names, `value` is the report form, and `apply` edits the config.
    pub fn custom(
        slug: impl Into<String>,
        value: impl Into<String>,
        apply: impl Fn(&mut DarthConfig) + Send + Sync + 'static,
    ) -> Self {
        AxisPoint {
            slug: slug.into(),
            value: value.into(),
            apply: AxisApply::Custom(Arc::new(apply)),
        }
    }

    fn apply_to(&self, config: &mut DarthConfig) {
        match &self.apply {
            AxisApply::AdcKind(kind) => config.ace.adc_kind = *kind,
            AxisApply::AdcBits(bits) => config.ace.adc_bits = *bits,
            AxisApply::Crossbar(rows, cols) => {
                config.ace.crossbar_rows = *rows;
                config.ace.crossbar_cols = *cols;
            }
            AxisApply::BitsPerCell(bits) => config.ace.bits_per_cell = *bits,
            AxisApply::AceArrays(arrays) => config.ace.ace_arrays = *arrays,
            AxisApply::ClockGhz(ghz) => config.dce.clock_ghz = *ghz,
            AxisApply::Custom(f) => f(config),
        }
    }
}

/// One named sweep axis: an ordered set of [`AxisPoint`]s.
#[derive(Clone)]
pub struct SweepAxis {
    name: String,
    points: Vec<AxisPoint>,
}

impl SweepAxis {
    /// The ADC architecture axis.
    pub fn adc_kinds(kinds: &[AdcKind]) -> Self {
        SweepAxis {
            name: "adc".into(),
            points: kinds
                .iter()
                .map(|&k| AxisPoint {
                    slug: k.slug().to_owned(),
                    value: k.slug().to_owned(),
                    apply: AxisApply::AdcKind(k),
                })
                .collect(),
        }
    }

    /// The ADC resolution axis (bits).
    pub fn adc_bits(bits: &[u8]) -> Self {
        SweepAxis {
            name: "adc_bits".into(),
            points: bits
                .iter()
                .map(|&b| AxisPoint {
                    slug: format!("b{b}"),
                    value: b.to_string(),
                    apply: AxisApply::AdcBits(b),
                })
                .collect(),
        }
    }

    /// The crossbar geometry axis (`(rows, cols)` pairs).
    pub fn crossbars(shapes: &[(usize, usize)]) -> Self {
        SweepAxis {
            name: "crossbar".into(),
            points: shapes
                .iter()
                .map(|&(r, c)| AxisPoint {
                    slug: format!("xb{r}x{c}"),
                    value: format!("{r}x{c}"),
                    apply: AxisApply::Crossbar(r, c),
                })
                .collect(),
        }
    }

    /// The weight-slicing axis (bits stored per device).
    pub fn bits_per_cell(bits: &[u8]) -> Self {
        SweepAxis {
            name: "bits_per_cell".into(),
            points: bits
                .iter()
                .map(|&b| AxisPoint {
                    slug: format!("bpc{b}"),
                    value: b.to_string(),
                    apply: AxisApply::BitsPerCell(b),
                })
                .collect(),
        }
    }

    /// The ACE array count axis.
    pub fn ace_arrays(counts: &[usize]) -> Self {
        SweepAxis {
            name: "ace_arrays".into(),
            points: counts
                .iter()
                .map(|&n| AxisPoint {
                    slug: format!("ace{n}"),
                    value: n.to_string(),
                    apply: AxisApply::AceArrays(n),
                })
                .collect(),
        }
    }

    /// The tile clock axis (GHz). Slugs use the full `{}` rendering of
    /// the value (`clk1`, `clk1.25`, `clk1.011`), not a rounded form —
    /// two distinct clocks must never collide into one design-point
    /// name.
    pub fn clock_ghz(clocks: &[f64]) -> Self {
        SweepAxis {
            name: "clock_ghz".into(),
            points: clocks
                .iter()
                .map(|&g| AxisPoint {
                    slug: format!("clk{g}"),
                    value: format!("{g}"),
                    apply: AxisApply::ClockGhz(g),
                })
                .collect(),
        }
    }

    /// A user-defined axis from explicit [`AxisPoint::custom`] points —
    /// the extension hook for knobs this module does not name (schedule
    /// flags, area budgets, combined edits, …). See the README's
    /// "custom sweep axis" example.
    pub fn custom(name: impl Into<String>, points: Vec<AxisPoint>) -> Self {
        SweepAxis {
            name: name.into(),
            points,
        }
    }

    /// The axis name as it appears in reports.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of points on this axis.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the axis has no points (an empty axis empties the grid).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// One generated design point: a unique name, the axis coordinates that
/// produced it, and the validated config.
#[derive(Clone)]
pub struct DesignPoint {
    /// Unique sweep-registry name (`"darth-sar-b8-xb64x64-bpc4-clk1"`).
    pub name: String,
    /// `(axis name, value)` coordinates, in axis order.
    pub axis_values: Vec<(String, String)>,
    /// The validated configuration.
    pub config: DarthConfig,
}

/// A grid generator: a base config crossed with named axes.
#[derive(Clone, Default)]
pub struct ConfigSweep {
    base: DarthConfig,
    axes: Vec<SweepAxis>,
}

impl ConfigSweep {
    /// A sweep around `base` with no axes yet (generates just the base).
    pub fn new(base: DarthConfig) -> Self {
        ConfigSweep {
            base,
            axes: Vec::new(),
        }
    }

    /// Adds an axis (builder style); the grid is the cartesian product
    /// of all axes, in registration order.
    #[must_use]
    pub fn axis(mut self, axis: SweepAxis) -> Self {
        self.axes.push(axis);
        self
    }

    /// Number of grid cells the sweep will generate.
    pub fn cell_count(&self) -> usize {
        self.axes.iter().map(SweepAxis::len).product()
    }

    /// Generates and validates every design point of the grid.
    ///
    /// # Errors
    ///
    /// Returns the underlying config error for any invalid grid cell,
    /// and [`darth_pum::Error::InvalidConfig`] when two cells collide on
    /// the same name (e.g. a custom axis with duplicate slugs).
    pub fn generate(&self) -> darth_pum::Result<Vec<DesignPoint>> {
        let mut points = vec![DesignPoint {
            name: "darth".to_owned(),
            axis_values: Vec::new(),
            config: self.base,
        }];
        for axis in &self.axes {
            let mut next = Vec::with_capacity(points.len() * axis.points.len());
            for partial in &points {
                for point in &axis.points {
                    let mut config = partial.config;
                    point.apply_to(&mut config);
                    let mut axis_values = partial.axis_values.clone();
                    axis_values.push((axis.name.clone(), point.value.clone()));
                    next.push(DesignPoint {
                        name: format!("{}-{}", partial.name, point.slug),
                        axis_values,
                        config,
                    });
                }
            }
            points = next;
        }
        let mut names = HashSet::new();
        for point in &points {
            point.config.validate()?;
            if !names.insert(point.name.as_str()) {
                return Err(darth_pum::Error::InvalidConfig(format!(
                    "duplicate design-point name '{}' (axis slugs must be unique)",
                    point.name
                )));
            }
        }
        Ok(points)
    }
}

/// The default design-space grid: 48 configurations spanning both ADC
/// kinds, two resolutions, two crossbar geometries, two slicing
/// policies and three clocks — with the paper's SAR and ramp design
/// points among the cells (`sar-b8-xb64x64-bpc4-clk1` and its ramp
/// twin).
pub fn default_sweep() -> ConfigSweep {
    ConfigSweep::new(DarthConfig::paper(AdcKind::Sar))
        .axis(SweepAxis::adc_kinds(&[AdcKind::Sar, AdcKind::Ramp]))
        .axis(SweepAxis::adc_bits(&[6, 8]))
        .axis(SweepAxis::crossbars(&[(64, 64), (128, 128)]))
        .axis(SweepAxis::bits_per_cell(&[2, 4]))
        .axis(SweepAxis::clock_ghz(&[1.0, 1.25, 1.5]))
}

/// The `make verify` smoke grid: both ADC kinds × both slicing policies
/// (4 configs), which still contains both paper design points.
pub fn smoke_sweep() -> ConfigSweep {
    ConfigSweep::new(DarthConfig::paper(AdcKind::Sar))
        .axis(SweepAxis::adc_kinds(&[AdcKind::Sar, AdcKind::Ramp]))
        .axis(SweepAxis::bits_per_cell(&[2, 4]))
}

/// The architecture column a design point registers as: the built
/// [`darth_pum::model::DarthModel`] under the paper's evaluation policy
/// (ramp-ADC AES early termination), renamed to the design point's
/// unique sweep name.
struct SweepModel {
    name: String,
    label: String,
    inner: PaperDarthModel,
}

impl ArchModel for SweepModel {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn label(&self) -> String {
        self.label.clone()
    }

    fn accumulator(&self) -> Box<dyn CostAccumulator + '_> {
        self.inner.accumulator()
    }
}

/// Per-point sizing facts carried next to the priced matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSummary {
    /// Design-point name (matrix column name).
    pub name: String,
    /// `(axis name, value)` coordinates.
    pub axis_values: Vec<(String, String)>,
    /// Full config parameters (`(key, value)` pairs).
    pub config_params: Vec<(String, String)>,
    /// Die area of one HCT including its front-end share, in µm² — the
    /// area coordinate of the Pareto frontier.
    pub tile_area_um2: f64,
    /// Iso-area tile count under the config's area budget.
    pub hct_count: usize,
    /// Measured Monte-Carlo accuracy at this design point
    /// ([`crate::mc::attach_accuracy`] fills it; `None` until trials
    /// have run). Its aggregate mean error is the fourth Pareto
    /// coordinate — an unattached point contributes `0.0` (perfect), so
    /// pricing-only sweeps keep their pre-accuracy frontiers.
    pub accuracy: Option<PointAccuracy>,
}

/// Selection metric for [`SweepMatrix::best_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Minimize single-item latency.
    Latency,
    /// Minimize energy per item.
    Energy,
    /// Maximize chip throughput.
    Throughput,
}

/// The priced design space: one matrix column per design point, plus
/// per-point sizing, Pareto extraction and best-config selection.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepMatrix {
    /// Per-point sizing facts, in matrix column order.
    pub points: Vec<DesignSummary>,
    /// The priced workload × design-point matrix (design points are the
    /// model columns).
    pub matrix: EvalMatrix,
}

impl SweepMatrix {
    /// Index of a design point by name.
    pub fn point_index(&self, name: &str) -> Option<usize> {
        self.points.iter().position(|p| p.name == name)
    }

    /// The cell for `(workload, design point)` names.
    pub fn cell(&self, workload: &str, point: &str) -> Option<&CostReport> {
        self.matrix.cell(workload, point)
    }

    /// The measured-error Pareto coordinate of design point `p`: the
    /// Monte-Carlo aggregate mean error, or `0.0` before trials attach.
    fn error_coord(&self, point_index: usize) -> f64 {
        self.points[point_index]
            .accuracy
            .as_ref()
            .map_or(0.0, |a| a.mean_error)
    }

    /// The per-workload cost coordinates of design point `p`, joined
    /// with its area and measured error:
    /// `(latency_s, energy_per_item_j, tile_area_um2, mean_error)`.
    fn coords(&self, workload_index: usize, point_index: usize) -> (f64, f64, f64, f64) {
        let report = self.matrix.cell_at(workload_index, point_index);
        (
            report.latency_s,
            report.energy_per_item_j,
            self.points[point_index].tile_area_um2,
            self.error_coord(point_index),
        )
    }

    /// Geometric-mean latency and energy of one design point across all
    /// workload rows (the aggregate Pareto coordinates). Non-finite and
    /// non-positive cells are skipped — an empty or fully-skipped column
    /// aggregates to `(0.0, 0.0)`, never NaN (see
    /// [`darth_pum::trace::geomean`]).
    pub fn aggregate(&self, point_index: usize) -> (f64, f64) {
        let rows = self.matrix.workloads.len();
        let latencies: Vec<f64> = (0..rows)
            .map(|w| self.matrix.cell_at(w, point_index).latency_s)
            .collect();
        let energies: Vec<f64> = (0..rows)
            .map(|w| self.matrix.cell_at(w, point_index).energy_per_item_j)
            .collect();
        (geomean(&latencies), geomean(&energies))
    }

    /// Indices of the design points on one workload's Pareto frontier
    /// over (latency, energy, tile area, measured error), all minimized.
    /// Points with a non-finite coordinate are never on the frontier;
    /// ties survive (two identical points both stay).
    pub fn pareto_frontier(&self, workload: &str) -> Vec<usize> {
        let Some(w) = self.matrix.workload_index(workload) else {
            return Vec::new();
        };
        let coords: Vec<(f64, f64, f64, f64)> =
            (0..self.points.len()).map(|p| self.coords(w, p)).collect();
        pareto_indices(&coords)
    }

    /// Indices of the design points on the aggregate (geomean across
    /// workloads) Pareto frontier over (latency, energy, tile area,
    /// measured error). A degenerate aggregate (no priceable cells,
    /// geomean 0.0) is excluded from the frontier.
    pub fn pareto_frontier_aggregate(&self) -> Vec<usize> {
        let coords: Vec<(f64, f64, f64, f64)> = (0..self.points.len())
            .map(|p| {
                let (latency, energy) = self.aggregate(p);
                let area = self.points[p].tile_area_um2;
                if latency > 0.0 && energy > 0.0 {
                    (latency, energy, area, self.error_coord(p))
                } else {
                    (f64::INFINITY, f64::INFINITY, f64::INFINITY, f64::INFINITY)
                }
            })
            .collect();
        pareto_indices(&coords)
    }

    /// The best design point for one workload under a metric, skipping
    /// non-finite cells; `None` for an unknown workload or when no cell
    /// is finite. Ties resolve to the lowest index (registration order),
    /// deterministically.
    pub fn best_for(&self, workload: &str, metric: Metric) -> Option<usize> {
        let w = self.matrix.workload_index(workload)?;
        let mut best: Option<(usize, f64)> = None;
        for p in 0..self.points.len() {
            let report = self.matrix.cell_at(w, p);
            let value = match metric {
                Metric::Latency => report.latency_s,
                Metric::Energy => report.energy_per_item_j,
                Metric::Throughput => report.throughput_items_per_s,
            };
            if !value.is_finite() {
                continue;
            }
            let better = match (metric, best) {
                (_, None) => true,
                (Metric::Throughput, Some((_, incumbent))) => value > incumbent,
                (_, Some((_, incumbent))) => value < incumbent,
            };
            if better {
                best = Some((p, value));
            }
        }
        best.map(|(p, _)| p)
    }

    /// The per-workload best-config table: for every workload row, the
    /// winning design point under each metric (`None` entries for rows
    /// with no finite cells).
    pub fn best_table(&self) -> Vec<(String, [Option<usize>; 3])> {
        self.matrix
            .workloads
            .iter()
            .map(|w| {
                (
                    w.name.clone(),
                    [
                        self.best_for(&w.name, Metric::Latency),
                        self.best_for(&w.name, Metric::Energy),
                        self.best_for(&w.name, Metric::Throughput),
                    ],
                )
            })
            .collect()
    }

    /// The whole sweep as a JSON document (`darth-dse-sweep/v2`):
    /// per-point sizing and axis coordinates, the full priced matrix,
    /// per-workload and aggregate Pareto frontiers, the best-config
    /// table, and — v2 — each point's measured Monte-Carlo accuracy
    /// (`null` until [`crate::mc::attach_accuracy`] runs trials).
    pub fn to_json(&self) -> JsonValue<'_> {
        let points = self
            .points
            .iter()
            .map(|p| {
                let accuracy = match &p.accuracy {
                    None => JsonValue::Null,
                    Some(a) => a.to_json(),
                };
                JsonValue::object(vec![
                    ("name", JsonValue::from(&p.name)),
                    (
                        "axes",
                        JsonValue::Object(
                            p.axis_values
                                .iter()
                                .map(|(k, v)| (k.as_str().into(), JsonValue::from(v)))
                                .collect(),
                        ),
                    ),
                    (
                        "config",
                        JsonValue::Object(
                            p.config_params
                                .iter()
                                .map(|(k, v)| (k.as_str().into(), JsonValue::from(v)))
                                .collect(),
                        ),
                    ),
                    ("tile_area_um2", JsonValue::from(p.tile_area_um2)),
                    ("hct_count", JsonValue::from(p.hct_count)),
                    ("accuracy", accuracy),
                ])
            })
            .collect();
        let frontier_names = |indices: Vec<usize>| {
            JsonValue::array(
                indices
                    .into_iter()
                    .map(|p| JsonValue::from(&self.points[p].name))
                    .collect(),
            )
        };
        let per_workload = self
            .matrix
            .workloads
            .iter()
            .map(|w| {
                JsonValue::object(vec![
                    ("workload", JsonValue::from(&w.name)),
                    ("frontier", frontier_names(self.pareto_frontier(&w.name))),
                ])
            })
            .collect();
        let best = self
            .best_table()
            .into_iter()
            .map(|(workload, [latency, energy, throughput])| {
                let name = |p: Option<usize>| match p {
                    Some(p) => JsonValue::from(self.points[p].name.clone()),
                    None => JsonValue::Null,
                };
                JsonValue::object(vec![
                    ("workload", JsonValue::from(workload)),
                    ("by_latency", name(latency)),
                    ("by_energy", name(energy)),
                    ("by_throughput", name(throughput)),
                ])
            })
            .collect();
        JsonValue::object(vec![
            ("schema", JsonValue::from("darth-dse-sweep/v2")),
            ("config_count", JsonValue::from(self.points.len())),
            (
                "workload_count",
                JsonValue::from(self.matrix.workloads.len()),
            ),
            ("points", JsonValue::Array(points)),
            (
                "pareto",
                JsonValue::object(vec![
                    (
                        "aggregate",
                        frontier_names(self.pareto_frontier_aggregate()),
                    ),
                    ("per_workload", JsonValue::Array(per_workload)),
                ]),
            ),
            ("best", JsonValue::Array(best)),
            ("matrix", self.matrix.to_json()),
        ])
    }
}

/// Indices not dominated by any other point (all coordinates minimized;
/// non-finite coordinates exclude a point outright).
fn pareto_indices(coords: &[(f64, f64, f64, f64)]) -> Vec<usize> {
    let finite = |&(l, e, a, x): &(f64, f64, f64, f64)| {
        l.is_finite() && e.is_finite() && a.is_finite() && x.is_finite()
    };
    let dominates = |a: &(f64, f64, f64, f64), b: &(f64, f64, f64, f64)| {
        a.0 <= b.0
            && a.1 <= b.1
            && a.2 <= b.2
            && a.3 <= b.3
            && (a.0 < b.0 || a.1 < b.1 || a.2 < b.2 || a.3 < b.3)
    };
    (0..coords.len())
        .filter(|&i| {
            finite(&coords[i])
                && !coords
                    .iter()
                    .enumerate()
                    .any(|(j, other)| j != i && finite(other) && dominates(other, &coords[i]))
        })
        .collect()
}

/// Prices every design point on every workload through the streaming
/// engine: summaries recorded once per workload (sharded across scoped
/// workers), then one `Fanout` replay pass per workload row prices all
/// config columns at once. Serial and parallel runs are bit-identical.
///
/// # Errors
///
/// Propagates config build errors (the points of a
/// [`ConfigSweep::generate`] grid are already validated, so this only
/// fires for hand-made invalid points).
pub fn price_sweep(
    points: &[DesignPoint],
    workloads: Vec<Box<dyn Workload>>,
    threading: Threading,
) -> darth_pum::Result<SweepMatrix> {
    let mut engine = Engine::new();
    engine.set_threading(threading);
    for workload in workloads {
        engine.register_workload(workload);
    }
    let mut summaries = Vec::with_capacity(points.len());
    for point in points {
        let model = point.config.build()?;
        summaries.push(DesignSummary {
            name: point.name.clone(),
            axis_values: point.axis_values.clone(),
            config_params: point.config.params(),
            tile_area_um2: model.chip.hct.tile_area_with_front_end_share().get(),
            hct_count: model.chip.hct_count(),
            accuracy: None,
        });
        engine.register_model(Box::new(SweepModel {
            name: point.name.clone(),
            label: format!("DARTH-PUM [{}]", point.name),
            inner: PaperDarthModel { model },
        }));
    }
    Ok(SweepMatrix {
        points: summaries,
        matrix: engine.run(),
    })
}

/// One serving chip drawn from the DSE frontier: the design point's
/// name, its clock (the serving timeline's cycle→seconds conversion),
/// and the full validated config. The serving layer (`darth_serve`)
/// replicates these into a heterogeneous fleet.
#[derive(Debug, Clone)]
pub struct FleetPoint {
    /// Design-point name (`"darth-sar-b8-xb64x64-bpc4-clk1"`).
    pub name: String,
    /// DCE clock in GHz.
    pub clock_ghz: f64,
    /// The validated configuration.
    pub config: DarthConfig,
}

/// Extracts a priced sweep's aggregate-Pareto-frontier design points as
/// serving-fleet configs, matching the matrix columns back to the
/// generator's [`DesignPoint`]s by name. Frontier order is registration
/// order ([`SweepMatrix::pareto_frontier_aggregate`] returns ascending
/// indices), so the fleet is deterministic for a given sweep. Frontier
/// entries whose name is missing from `points` are skipped — passing the
/// same grid that was priced never drops any.
pub fn frontier_fleet(points: &[DesignPoint], matrix: &SweepMatrix) -> Vec<FleetPoint> {
    matrix
        .pareto_frontier_aggregate()
        .into_iter()
        .filter_map(|i| {
            let summary = &matrix.points[i];
            points
                .iter()
                .find(|p| p.name == summary.name)
                .map(|p| FleetPoint {
                    name: p.name.clone(),
                    clock_ghz: p.config.dce.clock_ghz,
                    config: p.config,
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_is_48_unique_configs_with_paper_points() {
        let sweep = default_sweep();
        assert_eq!(sweep.cell_count(), 48);
        let points = sweep.generate().expect("grid is valid");
        assert_eq!(points.len(), 48);
        for adc in [AdcKind::Sar, AdcKind::Ramp] {
            let paper = DarthConfig::paper(adc);
            assert!(
                points.iter().any(|p| p.config == paper),
                "paper {adc:?} point missing from the default grid"
            );
        }
    }

    #[test]
    fn smoke_grid_contains_both_paper_points() {
        let points = smoke_sweep().generate().expect("grid is valid");
        assert_eq!(points.len(), 4);
        for adc in [AdcKind::Sar, AdcKind::Ramp] {
            assert!(points.iter().any(|p| p.config == DarthConfig::paper(adc)));
        }
    }

    #[test]
    fn fine_grained_clock_sweeps_do_not_collide() {
        // Clocks 11 ms-decimals apart must keep distinct names — a
        // rounded slug (`{:.2}`) would collapse them into a spurious
        // duplicate-name error.
        let sweep = ConfigSweep::new(DarthConfig::paper(AdcKind::Sar))
            .axis(SweepAxis::clock_ghz(&[1.011, 1.014]));
        let points = sweep.generate().expect("fine-grained clocks are valid");
        assert_eq!(points.len(), 2);
        assert_ne!(points[0].name, points[1].name);
        assert!(points[0].name.ends_with("clk1.011"), "{}", points[0].name);
    }

    #[test]
    fn invalid_grid_cells_fail_generation() {
        let sweep =
            ConfigSweep::new(DarthConfig::paper(AdcKind::Sar)).axis(SweepAxis::adc_bits(&[8, 0]));
        assert!(sweep.generate().is_err());
    }

    #[test]
    fn duplicate_point_names_are_rejected() {
        let sweep = ConfigSweep::new(DarthConfig::paper(AdcKind::Sar)).axis(SweepAxis::custom(
            "dup",
            vec![
                AxisPoint::custom("same", "1", |_| {}),
                AxisPoint::custom("same", "2", |_| {}),
            ],
        ));
        assert!(matches!(
            sweep.generate(),
            Err(darth_pum::Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn custom_axes_edit_the_config() {
        let sweep = ConfigSweep::new(DarthConfig::paper(AdcKind::Sar)).axis(SweepAxis::custom(
            "schedule",
            vec![
                AxisPoint::custom("opt", "figure-10b", |c| c.optimized_schedule = true),
                AxisPoint::custom("serial", "figure-10a", |c| c.optimized_schedule = false),
            ],
        ));
        let points = sweep.generate().expect("valid");
        assert_eq!(points.len(), 2);
        assert!(points[0].config.optimized_schedule);
        assert!(!points[1].config.optimized_schedule);
        assert_eq!(
            points[1].axis_values,
            vec![("schedule".to_owned(), "figure-10a".to_owned())]
        );
    }

    #[test]
    fn pareto_indices_drop_dominated_and_nonfinite_points() {
        let coords = [
            (1.0, 1.0, 1.0, 0.0),           // frontier
            (2.0, 2.0, 2.0, 0.0),           // dominated by 0
            (0.5, 3.0, 1.0, 0.0),           // frontier (best latency)
            (1.0, 1.0, 1.0, 0.0),           // tie with 0: both stay
            (f64::NAN, 0.1, 0.1, 0.0),      // excluded
            (0.1, f64::INFINITY, 0.1, 0.0), // excluded
            (2.0, 2.0, 2.0, f64::NAN),      // excluded (bad error coord)
        ];
        assert_eq!(pareto_indices(&coords), vec![0, 2, 3]);
        assert!(pareto_indices(&[]).is_empty());
    }

    #[test]
    fn accuracy_coordinate_rescues_slower_but_exact_points() {
        // A point dominated on (latency, energy, area) survives on the
        // 4-D frontier when its measured error is strictly lower — the
        // precision/accuracy trade-off the Monte-Carlo axis adds.
        let coords = [
            (1.0, 1.0, 1.0, 0.25), // fast but errorful: frontier
            (2.0, 2.0, 2.0, 0.0),  // slower but exact: frontier too
            (3.0, 3.0, 3.0, 0.25), // dominated by 0 on every axis
        ];
        assert_eq!(pareto_indices(&coords), vec![0, 1]);
    }
}

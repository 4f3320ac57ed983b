//! Shared harness code for regenerating every table and figure of the
//! DARTH-PUM paper.
//!
//! Since the trait-based evaluation engine landed, this crate is a *view*
//! layer with one binary per report. `figures` asks `darth_eval` for the
//! priced workload × architecture matrix (op streams recorded once, cells
//! priced in parallel through streaming accumulators) and renders every
//! paper artefact from its cells next to the paper's reference numbers,
//! dropping one machine-readable `BENCH_<figure>.json` per artefact via
//! [`emit_json`]. `eval` prices the full extended matrix
//! (`BENCH_eval.json`), `eval_large` the bulk scenarios under a memory cap
//! (`BENCH_eval_large.json`), `dse` the design-space sweep, `mc` the
//! Monte-Carlo accuracy campaign, `serve` the serving benchmark and
//! `sim_throughput` the reference-vs-fast simulator rates
//! (`BENCH_sim.json`). Their environment knobs parse through [`knob`].

use darth_analog::adc::AdcKind;
use darth_eval::registry::{paper_models, paper_workloads};
use darth_pum::trace::{geomean, CostReport};
use std::path::PathBuf;
use std::str::FromStr;

pub use darth_eval::{Engine, EvalMatrix, JsonValue, Threading};

/// All architecture reports for one workload — one row of the paper
/// matrix, named the way the figure code reads.
#[derive(Debug, Clone)]
pub struct WorkloadReports {
    /// Workload registry name (`"aes-128"`, …).
    pub name: String,
    /// Figure label (`"AES"`, `"ResNet-20"`, `"LLMEnc"`).
    pub label: String,
    /// CPU + analog accelerator (the normalisation baseline).
    pub baseline: CostReport,
    /// Iso-area RACER chip.
    pub digital: CostReport,
    /// DARTH-PUM.
    pub darth: CostReport,
    /// The per-application accelerator.
    pub app_accel: CostReport,
    /// The RTX-4090 model.
    pub gpu: CostReport,
}

impl WorkloadReports {
    /// Extracts one workload's row from a paper-matrix run (the paper
    /// workloads on the five paper columns with ADC `adc`).
    ///
    /// Returns `None` when the workload or any of the five paper columns
    /// is missing from the matrix.
    pub fn from_matrix(matrix: &EvalMatrix, workload: &str, adc: AdcKind) -> Option<Self> {
        let slug = adc.slug();
        let w = matrix.workload_index(workload)?;
        Some(WorkloadReports {
            name: matrix.workloads[w].name.clone(),
            label: matrix.workloads[w].label.clone(),
            baseline: matrix.cell(workload, &format!("baseline-{slug}"))?.clone(),
            digital: matrix.cell(workload, "digitalpum-oscar")?.clone(),
            darth: matrix.cell(workload, &format!("darth-{slug}"))?.clone(),
            app_accel: matrix.cell(workload, "appaccel")?.clone(),
            gpu: matrix.cell(workload, "gpu-rtx-4090")?.clone(),
        })
    }

    /// Throughput of each architecture normalised to the Baseline
    /// (Figure 13's bars): `(digital, darth, app_accel)`.
    pub fn fig13_row(&self) -> (f64, f64, f64) {
        (
            self.digital.speedup_over(&self.baseline),
            self.darth.speedup_over(&self.baseline),
            self.app_accel.speedup_over(&self.baseline),
        )
    }

    /// Energy savings vs Baseline (Figure 16's bars).
    pub fn fig16_row(&self) -> (f64, f64, f64) {
        (
            self.digital.energy_savings_over(&self.baseline),
            self.darth.energy_savings_over(&self.baseline),
            self.app_accel.energy_savings_over(&self.baseline),
        )
    }
}

/// Prices the paper's three workloads on the five figure columns
/// (Baseline, DigitalPUM, DARTH-PUM, AppAccel, GPU) through the engine,
/// with the chosen ADC for the analog-bearing chips, and returns one
/// [`WorkloadReports`] row per workload.
pub fn all_reports(adc: AdcKind) -> Vec<WorkloadReports> {
    let mut engine = Engine::new();
    for workload in paper_workloads() {
        engine.register_workload(workload);
    }
    for model in paper_models(adc) {
        engine.register_model(model);
    }
    let matrix = engine.run();
    matrix
        .workloads
        .iter()
        .map(|w| {
            WorkloadReports::from_matrix(&matrix, &w.name, adc)
                .expect("paper matrix has all five columns")
        })
        .collect()
}

/// Geometric mean across workloads of a per-workload ratio.
pub fn geomean_of<F: Fn(&WorkloadReports) -> f64>(reports: &[WorkloadReports], f: F) -> f64 {
    let ratios: Vec<f64> = reports.iter().map(f).collect();
    geomean(&ratios)
}

/// Pretty-prints an aligned table: header plus rows of labelled values.
pub fn print_table(title: &str, header: &[&str], rows: &[(String, Vec<f64>)]) {
    println!("\n=== {title} ===");
    print!("{:<14}", "");
    for h in header {
        print!("{h:>14}");
    }
    println!();
    for (label, values) in rows {
        print!("{label:<14}");
        for v in values {
            if *v >= 100.0 {
                print!("{v:>14.1}");
            } else {
                print!("{v:>14.2}");
            }
        }
        println!();
    }
}

/// A printed table as JSON: `{title, columns, rows: [{label, values}]}`.
/// The title and headers are borrowed into the tree; the rows move in.
pub fn table_json<'a>(
    title: &'a str,
    header: &[&'a str],
    rows: Vec<(String, Vec<f64>)>,
) -> JsonValue<'a> {
    JsonValue::object(vec![
        ("title", JsonValue::from(title)),
        (
            "columns",
            JsonValue::array(header.iter().map(|&h| JsonValue::from(h)).collect()),
        ),
        (
            "rows",
            JsonValue::array(
                rows.into_iter()
                    .map(|(label, values)| {
                        JsonValue::object(vec![
                            ("label", JsonValue::from(label)),
                            (
                                "values",
                                JsonValue::array(values.into_iter().map(JsonValue::from).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The `darth-bench-figure/v1` envelope: `schema` and `figure` keys,
/// then `fields` in order.
pub fn figure_envelope<'a>(
    figure: &'a str,
    fields: Vec<(&'a str, JsonValue<'a>)>,
) -> JsonValue<'a> {
    let mut pairs = vec![
        ("schema", JsonValue::from("darth-bench-figure/v1")),
        ("figure", JsonValue::from(figure)),
    ];
    pairs.extend(fields);
    JsonValue::object(pairs)
}

/// Wraps a figure's tables in the `darth-bench-figure/v1` envelope.
pub fn figure_json<'a>(figure: &'a str, tables: Vec<JsonValue<'a>>) -> JsonValue<'a> {
    figure_envelope(figure, vec![("tables", JsonValue::array(tables))])
}

/// Writes `BENCH_<name>.json` into `$DARTH_BENCH_DIR` (default: the
/// current directory), returning the path written.
///
/// # Errors
///
/// Propagates the filesystem error when the directory is not writable.
pub fn write_json(name: &str, value: &JsonValue) -> std::io::Result<PathBuf> {
    let dir = std::env::var_os("DARTH_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, value.pretty())?;
    Ok(path)
}

/// [`write_json`], reporting the outcome on stdout/stderr instead of
/// failing — report binaries should still print their tables on a
/// read-only filesystem.
pub fn emit_json(name: &str, value: &JsonValue) {
    match write_json(name, value) {
        Ok(path) => println!("\n[machine-readable report: {}]", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_{name}.json: {e}"),
    }
}

/// A knob's strict parser: surrounding whitespace is tolerated; an empty
/// value, or one that does not parse as a `T` satisfying `usable`, is
/// refused (`expected` says what a usable value looks like).
///
/// # Errors
///
/// `"empty value"` for a blank value, else `expected`.
pub fn parse_knob<T: FromStr>(
    raw: &str,
    expected: &'static str,
    usable: fn(&T) -> bool,
) -> Result<T, &'static str> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err("empty value");
    }
    trimmed.parse().ok().filter(usable).ok_or(expected)
}

/// A positive count: `DARTH_SERVE_REQUESTS`, `DARTH_MC_TRIALS`,
/// `DARTH_SIM_BENCH_BLOCKS`.
///
/// # Errors
///
/// Refuses zero, negatives, fractions and exponent forms such as `1e3`.
pub fn positive_count(raw: &str) -> Result<usize, &'static str> {
    parse_knob(raw, "not a positive integer", |&n| n > 0)
}

/// Any 64-bit seed: `DARTH_SERVE_SEED`.
///
/// # Errors
///
/// Refuses anything that is not an unsigned 64-bit integer.
pub fn any_u64(raw: &str) -> Result<u64, &'static str> {
    parse_knob(raw, "not an unsigned 64-bit integer", |_| true)
}

/// A positive, finite rate: `DARTH_SERVE_LOAD`.
///
/// # Errors
///
/// Refuses zero, negatives, `NaN` and infinities.
pub fn positive_rate(raw: &str) -> Result<f64, &'static str> {
    parse_knob(raw, "not a positive finite number", |&r: &f64| {
        r.is_finite() && r > 0.0
    })
}

/// Knob `var`: `default` when unset, else its value under `parse`. A set
/// but unusable value exits non-zero with a message naming the variable
/// and the value.
pub fn knob<T>(var: &str, default: T, parse: fn(&str) -> Result<T, &'static str>) -> T {
    let Some(raw) = std::env::var_os(var) else {
        return default;
    };
    let parsed = raw.to_str().ok_or("not valid unicode").and_then(parse);
    parsed.unwrap_or_else(|why| {
        eprintln!("error: {var}={raw:?} is unusable ({why})");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use darth_apps::aes::workload::AesWorkload;
    use darth_apps::cnn::workload::ResNetWorkload;
    use darth_apps::llm::workload::EncoderWorkload;
    use darth_baselines::analog_only::BaselineModel;
    use darth_baselines::app_accel::AppAccelModel;
    use darth_baselines::digital_only::DigitalPumModel;
    use darth_baselines::gpu::GpuModel;
    use darth_digital::logic::LogicFamily;
    use darth_pum::eval::{ArchModel, Workload};
    use darth_pum::model::DarthModel;

    #[test]
    fn reports_build_for_all_workloads() {
        for reports in all_reports(AdcKind::Sar) {
            assert!(reports.baseline.latency_s > 0.0);
            assert!(reports.darth.latency_s > 0.0);
            let (d, h, a) = reports.fig13_row();
            assert!(d.is_finite() && h.is_finite() && a.is_finite());
            assert!(h > 0.0);
        }
    }

    #[test]
    fn darth_beats_baseline_everywhere() {
        // The headline claim's direction: DARTH-PUM > Baseline on all
        // three workloads, in both throughput and energy.
        for reports in all_reports(AdcKind::Sar) {
            let (_, speedup, _) = reports.fig13_row();
            let (_, savings, _) = reports.fig16_row();
            assert!(speedup > 1.0, "{}: speedup {speedup}", reports.label);
            assert!(savings > 1.0, "{}: savings {savings}", reports.label);
        }
    }

    /// The engine path reproduces the pre-engine figure numbers: price
    /// each workload by direct model calls exactly the way the old
    /// `WorkloadReports::build` did, and compare cell by cell.
    #[test]
    fn engine_reports_match_direct_model_pricing() {
        for adc in [AdcKind::Sar, AdcKind::Ramp] {
            let reports = all_reports(adc);
            assert_eq!(reports.len(), 3);
            let workloads: [&dyn Workload; 3] = [
                &AesWorkload::paper(),
                &ResNetWorkload::paper(),
                &EncoderWorkload::paper(),
            ];
            for (report, workload) in reports.iter().zip(workloads) {
                let name = workload.name();
                assert_eq!(report.name, name);
                assert_eq!(report.baseline, BaselineModel::paper(adc).price(workload));
                assert_eq!(
                    report.digital,
                    DigitalPumModel::paper(LogicFamily::Oscar).price(workload)
                );
                let mut darth_model = DarthModel::paper(adc);
                if name == "aes-128" && adc == AdcKind::Ramp {
                    darth_model.early_levels = Some(4);
                }
                assert_eq!(report.darth, darth_model.price(workload));
                let accel = match name.as_str() {
                    "aes-128" => AppAccelModel::aes_ni(),
                    "llm-encoder" => AppAccelModel::llm(AdcKind::Sar),
                    _ => AppAccelModel::cnn(AdcKind::Ramp),
                };
                assert_eq!(report.app_accel, accel.price(workload));
                assert_eq!(report.gpu, GpuModel::rtx_4090().price(workload));
            }
        }
    }

    #[test]
    fn table_json_round_trip_shape() {
        let rows = vec![("AES".to_owned(), vec![1.0, 2.0])];
        let json = table_json("t", &["a", "b"], rows);
        let text = json.pretty();
        assert!(text.contains("\"label\": \"AES\""));
        assert!(text.contains("\"columns\""));
    }

    #[test]
    fn knobs_parse_strictly() {
        assert_eq!(positive_count("20000"), Ok(20_000));
        assert_eq!(positive_count(" 7 "), Ok(7));
        assert_eq!(positive_count(""), Err("empty value"));
        assert_eq!(positive_count("   "), Err("empty value"));
        assert_eq!(positive_count("1e6"), Err("not a positive integer"));
        assert_eq!(positive_count("lots"), Err("not a positive integer"));
        assert_eq!(positive_count("0"), Err("not a positive integer"));
        assert_eq!(positive_count("-5"), Err("not a positive integer"));
        // DARTH_MC_TRIALS: `1e3` used to run the default 32 trials.
        assert_eq!(positive_count("1e3"), Err("not a positive integer"));
        assert_eq!(positive_count("2.5"), Err("not a positive integer"));
        // DARTH_SIM_BENCH_BLOCKS: zero blocks used to divide by a zero
        // reference rate.
        assert_eq!(positive_count(" 0 "), Err("not a positive integer"));
        assert_eq!(positive_count("64"), Ok(64));
        assert_eq!(any_u64("0"), Ok(0));
        assert_eq!(any_u64("seed"), Err("not an unsigned 64-bit integer"));
        assert_eq!(positive_rate("250000"), Ok(250_000.0));
        assert_eq!(positive_rate("2.5e5"), Ok(250_000.0));
        assert_eq!(positive_rate("fast"), Err("not a positive finite number"));
        assert_eq!(positive_rate("0"), Err("not a positive finite number"));
        assert_eq!(positive_rate("NaN"), Err("not a positive finite number"));
        assert_eq!(positive_rate("inf"), Err("not a positive finite number"));
    }
}

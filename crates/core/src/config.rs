//! Config-driven construction of the analytical DARTH-PUM model.
//!
//! The paper evaluates a handful of fixed design points; the design-space
//! sweeps (`darth_eval::dse`) price hundreds. [`DarthConfig`] is the
//! parameter space those sweeps walk: an analog design point
//! ([`AceDesign`]: ADC kind × resolution, crossbar rows/cols,
//! bits-per-cell slicing, ACE array count), a digital design point
//! ([`DceDesign`]: pipelines × depth, logic family, clock), and the
//! schedule knobs (§4.1/§4.2). [`DarthConfig::build`] validates the point
//! against the analog and digital crate validators and constructs the
//! [`DarthModel`] — the paper constructors ([`DarthModel::paper`]) are
//! now just [`DarthConfig::paper`] points passed through this builder.

use crate::model::DarthModel;
use crate::params::{ChipParams, HctParams, ISO_AREA_CM2};
use darth_analog::adc::AdcKind;
use darth_analog::design::AceDesign;
use darth_digital::design::DceDesign;
use darth_reram::SquareMicrons;
use serde::{Deserialize, Serialize};

/// One point of the DARTH-PUM design space: everything needed to build a
/// priced [`DarthModel`], in validated, sweepable form.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DarthConfig {
    /// Analog compute element design (ADC, crossbar geometry, slicing,
    /// array count).
    pub ace: AceDesign,
    /// Digital compute element design (pipelines, depth, logic family,
    /// clock).
    pub dce: DceDesign,
    /// Reductions injected by the IIU (§4.2).
    pub use_iiu: bool,
    /// Figure 10b overlapped schedule (§4.1).
    pub optimized_schedule: bool,
    /// Iso-area budget in cm² (the paper sizes against the i7-13700's
    /// 2.57 cm²).
    pub area_budget_cm2: f64,
}

impl DarthConfig {
    /// The paper's design point with the chosen ADC — building it yields
    /// exactly [`DarthModel::paper`].
    pub fn paper(adc_kind: AdcKind) -> Self {
        DarthConfig {
            ace: AceDesign::paper(adc_kind),
            dce: DceDesign::paper(),
            use_iiu: true,
            optimized_schedule: true,
            area_budget_cm2: ISO_AREA_CM2,
        }
    }

    /// Replaces the ADC resolution (builder style).
    #[must_use]
    pub fn with_adc_bits(mut self, bits: u8) -> Self {
        self.ace.adc_bits = bits;
        self
    }

    /// Replaces the crossbar geometry (builder style).
    #[must_use]
    pub fn with_crossbar(mut self, rows: usize, cols: usize) -> Self {
        self.ace.crossbar_rows = rows;
        self.ace.crossbar_cols = cols;
        self
    }

    /// Replaces the weight-slicing policy (builder style).
    #[must_use]
    pub fn with_bits_per_cell(mut self, bits: u8) -> Self {
        self.ace.bits_per_cell = bits;
        self
    }

    /// Replaces the ACE array count (builder style).
    #[must_use]
    pub fn with_ace_arrays(mut self, arrays: usize) -> Self {
        self.ace.ace_arrays = arrays;
        self
    }

    /// Replaces the tile clock (builder style).
    #[must_use]
    pub fn with_clock_ghz(mut self, ghz: f64) -> Self {
        self.dce.clock_ghz = ghz;
        self
    }

    /// Validates the full design point through the analog and digital
    /// crate validators plus the chip-level checks.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Analog`] / [`crate::Error::Digital`] for
    /// out-of-range component values and [`crate::Error::InvalidConfig`]
    /// for a non-positive area budget.
    pub fn validate(&self) -> crate::Result<()> {
        self.ace.validate()?;
        self.dce.validate()?;
        if !(self.area_budget_cm2.is_finite() && self.area_budget_cm2 > 0.0) {
            return Err(crate::Error::InvalidConfig(
                "area budget must be positive and finite".into(),
            ));
        }
        Ok(())
    }

    /// Builds the analytical cost model for this design point.
    ///
    /// # Errors
    ///
    /// Propagates [`DarthConfig::validate`] errors.
    pub fn build(&self) -> crate::Result<DarthModel> {
        self.validate()?;
        Ok(DarthModel {
            chip: ChipParams {
                hct: HctParams {
                    dce_pipelines: self.dce.pipelines,
                    dce_pipeline_depth: self.dce.pipeline_depth,
                    array_dim: self.dce.array_dim,
                    ace_arrays: self.ace.ace_arrays,
                    ace_rows: self.ace.crossbar_rows,
                    ace_cols: self.ace.crossbar_cols,
                    adc_kind: self.ace.adc_kind,
                    adc_bits: self.ace.adc_bits,
                },
                area_budget: SquareMicrons::from_cm2(self.area_budget_cm2),
            },
            family: self.dce.family,
            use_iiu: self.use_iiu,
            optimized_schedule: self.optimized_schedule,
            early_levels: None,
            bits_per_cell: self.ace.bits_per_cell,
            clock_hz: self.dce.clock_hz(),
        })
    }

    /// The design point as `(key, value)` pairs for JSON reports.
    pub fn params(&self) -> Vec<(String, String)> {
        let mut params = self.ace.params();
        params.extend(self.dce.params());
        params.push(("use_iiu".to_owned(), self.use_iiu.to_string()));
        params.push((
            "optimized_schedule".to_owned(),
            self.optimized_schedule.to_string(),
        ));
        params.push((
            "area_budget_cm2".to_owned(),
            format!("{}", self.area_budget_cm2),
        ));
        params
    }

    /// Die area of one HCT under this design (including its front-end
    /// share) — the area coordinate of the DSE Pareto frontier, in µm².
    ///
    /// # Errors
    ///
    /// Propagates [`DarthConfig::validate`] errors.
    pub fn tile_area_um2(&self) -> crate::Result<f64> {
        Ok(self
            .build()?
            .chip
            .hct
            .tile_area_with_front_end_share()
            .get())
    }
}

impl Default for DarthConfig {
    fn default() -> Self {
        DarthConfig::paper(AdcKind::Sar)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_builds_the_paper_model() {
        for adc in [AdcKind::Sar, AdcKind::Ramp] {
            let built = DarthConfig::paper(adc).build().expect("paper is valid");
            assert_eq!(built, DarthModel::paper(adc));
        }
    }

    #[test]
    fn builder_knobs_land_in_the_model() {
        let model = DarthConfig::paper(AdcKind::Ramp)
            .with_adc_bits(6)
            .with_crossbar(128, 32)
            .with_bits_per_cell(2)
            .with_ace_arrays(16)
            .with_clock_ghz(1.5)
            .build()
            .expect("valid");
        assert_eq!(model.chip.hct.adc_bits, 6);
        assert_eq!(
            (model.chip.hct.ace_rows, model.chip.hct.ace_cols),
            (128, 32)
        );
        assert_eq!(model.bits_per_cell, 2);
        assert_eq!(model.chip.hct.ace_arrays, 16);
        assert!((model.clock_hz - 1.5e9).abs() < 1e-3);
    }

    #[test]
    fn invalid_points_fail_to_build() {
        assert!(matches!(
            DarthConfig::paper(AdcKind::Sar).with_adc_bits(0).build(),
            Err(crate::Error::Analog(_))
        ));
        assert!(matches!(
            DarthConfig::paper(AdcKind::Sar).with_clock_ghz(0.0).build(),
            Err(crate::Error::Digital(_))
        ));
        let mut bad_area = DarthConfig::paper(AdcKind::Sar);
        bad_area.area_budget_cm2 = 0.0;
        assert!(matches!(
            bad_area.build(),
            Err(crate::Error::InvalidConfig(_))
        ));
    }

    #[test]
    fn params_distinguish_design_points() {
        // `params()` is what the sweep layer keys paper-point lookup on,
        // so every knob must be visible in it.
        let a = DarthConfig::paper(AdcKind::Sar);
        let b = a.with_adc_bits(6);
        let c = a.with_clock_ghz(1.25);
        assert_ne!(a.params(), b.params());
        assert_ne!(a.params(), c.params());
        let mut d = a;
        d.area_budget_cm2 = 5.0;
        assert_ne!(a.params(), d.params());
    }

    #[test]
    fn ramp_tiles_are_bigger_than_sar_tiles() {
        let sar = DarthConfig::paper(AdcKind::Sar).tile_area_um2().unwrap();
        let ramp = DarthConfig::paper(AdcKind::Ramp).tile_area_um2().unwrap();
        assert!(ramp > sar);
    }
}

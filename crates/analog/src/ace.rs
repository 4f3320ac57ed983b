//! The analog compute element (ACE): a bank of crossbars with shared
//! peripherals.
//!
//! Table 2: each hybrid compute tile's ACE holds 64 ReRAM arrays of 64×64
//! devices, input buffers, row periphery, sample-and-hold, and an ADC group
//! (two SAR units or one ramp unit). An MVM proceeds as in the Figure 9
//! walkthrough: the input vector is bit-sliced, one bit per cycle is applied
//! to the wordlines, and each cycle's bitline currents are digitized into a
//! *partial-product vector* that is handed to the digital side for
//! shift-and-add reduction.

use crate::adc::{Adc, AdcKind};
use crate::crossbar::{Crossbar, CrossbarConfig};
use crate::dac::InputDriver;
use crate::{Error, Result};
use darth_reram::{Cycles, EnergyMeter, NoiseRng, PicoJoules};
use serde::{Deserialize, Serialize};

/// Row-periphery power in mW (Table 3).
const ROW_PERIPHERY_POWER_MW: f64 = 0.7;
/// Sample-and-hold power in mW (Table 3).
const SAMPLE_HOLD_POWER_MW: f64 = 2.1e-5;

/// Configuration of an analog compute element.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AceConfig {
    /// Number of crossbar arrays (Table 2: 64).
    pub arrays: usize,
    /// Per-array crossbar configuration.
    pub crossbar: CrossbarConfig,
    /// Converter architecture for the shared ADC group.
    pub adc_kind: AdcKind,
    /// ADC resolution in bits.
    pub adc_bits: u8,
    /// ADC LSB in weight units (1.0 digitizes exact integers).
    pub adc_lsb_units: f64,
    /// Cycles to drive one input bit onto the wordlines and settle.
    pub dac_apply_cycles: u64,
    /// Write–verify programming cost per matrix row (devices on a wordline
    /// program in parallel; the verify loop dominates).
    pub program_cycles_per_row: u64,
}

impl AceConfig {
    /// The paper's evaluation ACE: 64 arrays, noisy devices, chosen ADC.
    ///
    /// # Errors
    ///
    /// Propagates crossbar configuration errors.
    pub fn evaluation(adc_kind: AdcKind, bits_per_cell: u8) -> Result<Self> {
        Ok(AceConfig {
            arrays: 64,
            crossbar: CrossbarConfig::evaluation(bits_per_cell)?,
            adc_kind,
            adc_bits: 8,
            adc_lsb_units: 1.0,
            dac_apply_cycles: 1,
            program_cycles_per_row: 1000,
        })
    }

    /// A small noise-free ACE for functional tests.
    pub fn ideal(arrays: usize, rows: usize, cols: usize) -> Self {
        AceConfig {
            arrays,
            crossbar: CrossbarConfig::ideal(rows, cols),
            adc_kind: AdcKind::Sar,
            adc_bits: 10,
            adc_lsb_units: 1.0,
            dac_apply_cycles: 1,
            program_cycles_per_row: 1000,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for zero arrays plus any crossbar
    /// or ADC validation failure.
    pub fn validate(&self) -> Result<()> {
        if self.arrays == 0 {
            return Err(Error::InvalidConfig("ACE needs at least one array"));
        }
        self.crossbar.validate()?;
        Adc::new(self.adc_kind, self.adc_bits, self.adc_lsb_units)?;
        Ok(())
    }
}

/// The result of one bit-sliced analog MVM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MvmOutput {
    /// Quantized partial products: `partial_products[input_bit][column]`,
    /// in ADC codes (multiply by the ADC LSB for weight units).
    pub partial_products: Vec<Vec<i64>>,
    /// Total ACE-side latency (input application + conversions).
    pub cycles: Cycles,
    /// Total ACE-side energy.
    pub energy: PicoJoules,
}

/// A bank of crossbars sharing input buffers and an ADC group.
#[derive(Debug, Clone)]
pub struct AnalogComputeElement {
    config: AceConfig,
    crossbars: Vec<Crossbar>,
    adc: Adc,
    rng: NoiseRng,
    meter: EnergyMeter,
}

impl AnalogComputeElement {
    /// Creates an ACE with erased arrays.
    ///
    /// # Errors
    ///
    /// Returns configuration validation errors.
    pub fn new(config: AceConfig, seed: u64) -> Result<Self> {
        config.validate()?;
        let crossbars = (0..config.arrays)
            .map(|_| Crossbar::new(config.crossbar.clone()))
            .collect::<Result<Vec<_>>>()?;
        let adc = Adc::new(config.adc_kind, config.adc_bits, config.adc_lsb_units)?;
        Ok(AnalogComputeElement {
            config,
            crossbars,
            adc,
            rng: NoiseRng::seed_from(seed),
            meter: EnergyMeter::new(),
        })
    }

    /// The ACE's configuration.
    pub fn config(&self) -> &AceConfig {
        &self.config
    }

    /// Number of crossbar arrays.
    pub fn array_count(&self) -> usize {
        self.crossbars.len()
    }

    /// The shared ADC.
    pub fn adc(&self) -> &Adc {
        &self.adc
    }

    /// Cumulative energy by component.
    pub fn energy_meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// The ACE's noise RNG state. A noise-free ACE never forks it, so after
    /// any amount of noise-off execution this still equals
    /// `NoiseRng::seed_from(seed)` — the "zero draws" contract the
    /// Monte-Carlo engine's tests pin.
    pub fn rng(&self) -> &NoiseRng {
        &self.rng
    }

    /// Total conductance writes across every array that railed outside the
    /// device window and were clamped (see `Crossbar::saturated_writes`).
    pub fn saturated_writes(&self) -> u64 {
        self.crossbars.iter().map(Crossbar::saturated_writes).sum()
    }

    /// Whether the configured device population has any stochastic noise
    /// source. When false, programming and MVM consume zero RNG draws —
    /// they don't even fork the ACE stream — so noise-off execution is
    /// bit-identical to the pre-noise-plumbing behaviour.
    fn stochastic(&self) -> bool {
        let d = &self.config.crossbar.device;
        d.program_sigma > 0.0 || d.read_sigma > 0.0 || d.stuck_at_rate > 0.0
    }

    /// The per-operation RNG: a fork of the ACE stream when any noise
    /// source is live, an inert fixed stream (never actually consumed by
    /// the zero-sigma models) otherwise.
    fn op_rng(&mut self) -> NoiseRng {
        if self.stochastic() {
            self.rng.fork()
        } else {
            NoiseRng::seed_from(0)
        }
    }

    /// Borrows one crossbar.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArray`] for a bad index.
    pub fn crossbar(&self, array: usize) -> Result<&Crossbar> {
        self.crossbars.get(array).ok_or(Error::InvalidArray {
            index: array,
            count: self.crossbars.len(),
        })
    }

    fn crossbar_mut(&mut self, array: usize) -> Result<&mut Crossbar> {
        let count = self.crossbars.len();
        self.crossbars.get_mut(array).ok_or(Error::InvalidArray {
            index: array,
            count,
        })
    }

    /// Programs a signed matrix into one array, returning the programming
    /// latency (§4.1 notes this is expensive enough that matrices should be
    /// resident before compute begins).
    ///
    /// # Errors
    ///
    /// Propagates shape/range/programming errors.
    pub fn program_matrix(&mut self, array: usize, matrix: &[Vec<i64>]) -> Result<Cycles> {
        let rows = matrix.len() as u64;
        let cycles = Cycles::new(rows * self.config.program_cycles_per_row);
        let mut rng = self.op_rng();
        self.crossbar_mut(array)?.program(matrix, &mut rng)?;
        self.meter.add(
            "ace.program",
            PicoJoules::from_power(ROW_PERIPHERY_POWER_MW, cycles),
        );
        Ok(cycles)
    }

    /// Updates one row of a programmed matrix (the `updateRow` call).
    ///
    /// # Errors
    ///
    /// Propagates shape/range/programming errors.
    pub fn update_row(&mut self, array: usize, row: usize, values: &[i64]) -> Result<Cycles> {
        let cycles = Cycles::new(self.config.program_cycles_per_row);
        let mut rng = self.op_rng();
        self.crossbar_mut(array)?
            .update_row(row, values, &mut rng)?;
        self.meter.add(
            "ace.program",
            PicoJoules::from_power(ROW_PERIPHERY_POWER_MW, cycles),
        );
        Ok(cycles)
    }

    /// Executes a bit-sliced MVM on one array.
    ///
    /// `early_levels` enables ramp-ADC early termination (ignored by SAR).
    ///
    /// # Errors
    ///
    /// Propagates input slicing and shape errors.
    pub fn mvm(
        &mut self,
        array: usize,
        input: &[i64],
        driver: InputDriver,
        early_levels: Option<u16>,
    ) -> Result<MvmOutput> {
        self.mvm_group(&[array], input, driver, early_levels)
    }

    /// Executes a bit-sliced MVM on several arrays in lockstep (a vACore's
    /// weight slices), with the shared ADC group muxed across the active
    /// arrays' bitlines.
    ///
    /// Returns one partial-product grid per input bit, with the arrays'
    /// columns concatenated in `arrays` order.
    ///
    /// # Errors
    ///
    /// Propagates index, slicing and shape errors.
    pub fn mvm_group(
        &mut self,
        arrays: &[usize],
        input: &[i64],
        driver: InputDriver,
        early_levels: Option<u16>,
    ) -> Result<MvmOutput> {
        for &a in arrays {
            self.crossbar(a)?;
        }
        let bit_slices = driver.slice(input)?;
        let mut partial_products = Vec::with_capacity(bit_slices.len());
        let mut cycles = Cycles::ZERO;
        let mut energy = PicoJoules::ZERO;
        let mut rng = self.op_rng();
        let cols_per_array = self.config.crossbar.cols;
        let total_bitlines = cols_per_array * arrays.len();
        // A 1-LSB ADC over a level-exact crossbar digitizes integer level
        // sums (see `Crossbar::level_sums`); anything else reads f64
        // currents. An integer sum `S` needs no rounding: its code,
        // `quantize_units(S)`, is `S` clamped to the code range. An
        // all-zero slice sums to zero without a branch of its own, and
        // every slice is charged the same either way.
        let integer_lsb = self.config.adc_lsb_units == 1.0;
        let (code_min, code_max) = (self.adc.code_min(), self.adc.code_max());
        let mut sums = vec![0i32; cols_per_array];
        for bits in &bit_slices {
            // 1. Drive the wordlines (all active arrays share the input).
            let apply = Cycles::new(self.config.dac_apply_cycles);
            cycles += apply;
            let row_energy =
                PicoJoules::from_power(ROW_PERIPHERY_POWER_MW * arrays.len() as f64, apply);
            energy += row_energy;
            self.meter.add("ace.row_periphery", row_energy);

            // 2. Sample the bitline currents and digitize.
            let mut codes = Vec::with_capacity(total_bitlines);
            for &a in arrays {
                let xbar = &self.crossbars[a];
                if integer_lsb && xbar.level_exact() {
                    xbar.level_sums(bits, &mut sums)?;
                    codes.extend(sums.iter().map(|&s| i64::from(s).clamp(code_min, code_max)));
                } else {
                    let unit = xbar.unit_current();
                    for c in xbar.mvm_currents(bits, &mut rng)? {
                        codes.push(self.adc.quantize_units(c / unit));
                    }
                }
            }
            let readout = self.adc.readout_cycles(total_bitlines, early_levels);
            cycles += readout;
            let adc_energy = self.adc.readout_energy(total_bitlines, readout);
            energy += adc_energy;
            self.meter.add("ace.adc", adc_energy);
            let sh_energy =
                PicoJoules::from_power(SAMPLE_HOLD_POWER_MW * total_bitlines as f64, readout);
            energy += sh_energy;
            self.meter.add("ace.sample_hold", sh_energy);

            partial_products.push(codes);
        }
        Ok(MvmOutput {
            partial_products,
            cycles,
            energy,
        })
    }

    /// Noise-free oracle for [`AnalogComputeElement::mvm`]: the exact
    /// per-input-bit partial products in weight units.
    ///
    /// # Errors
    ///
    /// Propagates index and slicing errors.
    pub fn mvm_exact(
        &self,
        array: usize,
        input: &[i64],
        driver: InputDriver,
    ) -> Result<Vec<Vec<i64>>> {
        let xbar = self.crossbar(array)?;
        driver
            .slice(input)?
            .iter()
            .map(|bits| xbar.mvm_exact(bits))
            .collect()
    }

    /// Injects stuck-at faults into every array (§7.5), returning the
    /// total faulted device count.
    pub fn inject_stuck_at_faults(&mut self) -> usize {
        let mut rng = self.rng.fork();
        self.crossbars
            .iter_mut()
            .map(|x| x.inject_stuck_at_faults(&mut rng))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darth_reram::DeviceParams;

    fn ideal_ace() -> AnalogComputeElement {
        let mut config = AceConfig::ideal(2, 4, 4);
        config.crossbar.bits_per_cell = 4;
        config.crossbar.device = DeviceParams::ideal(4).expect("valid");
        AnalogComputeElement::new(config, 7).expect("valid")
    }

    #[test]
    fn config_validation() {
        let mut c = AceConfig::ideal(1, 4, 4);
        c.arrays = 0;
        assert!(c.validate().is_err());
        assert!(AceConfig::ideal(64, 64, 64).validate().is_ok());
        assert!(AceConfig::evaluation(AdcKind::Sar, 2)
            .expect("valid")
            .validate()
            .is_ok());
    }

    #[test]
    fn invalid_array_index() {
        let ace = ideal_ace();
        assert!(matches!(
            ace.crossbar(5),
            Err(Error::InvalidArray { index: 5, count: 2 })
        ));
    }

    #[test]
    fn program_and_exact_mvm() {
        let mut ace = ideal_ace();
        let m = vec![
            vec![1, 2, 3, 4],
            vec![5, 6, 7, -8],
            vec![0, 0, 0, 0],
            vec![-1, -2, -3, -4],
        ];
        let cycles = ace.program_matrix(0, &m).expect("programs");
        assert_eq!(cycles.get(), 4 * 1000);
        let driver = InputDriver::new(1, false).expect("valid");
        let exact = ace.mvm_exact(0, &[1, 1, 0, 1], driver).expect("shape ok");
        assert_eq!(exact, vec![vec![5, 6, 7, -8]]);
    }

    #[test]
    fn mvm_matches_exact_for_ideal_devices() {
        let mut ace = ideal_ace();
        let m = vec![
            vec![1, 2, 3, 4],
            vec![5, 6, 7, -8],
            vec![2, 2, 2, 2],
            vec![-1, -2, -3, -4],
        ];
        ace.program_matrix(0, &m).expect("programs");
        let driver = InputDriver::new(3, false).expect("valid");
        let input = vec![5, 3, 0, 7];
        let out = ace.mvm(0, &input, driver, None).expect("runs");
        let exact = ace.mvm_exact(0, &input, driver).expect("shape ok");
        assert_eq!(out.partial_products, exact);
        assert!(out.cycles > Cycles::ZERO);
        assert!(out.energy > PicoJoules::ZERO);
    }

    #[test]
    fn mvm_group_concatenates_columns() {
        let mut ace = ideal_ace();
        let m0 = vec![vec![1; 4]; 4];
        let m1 = vec![vec![2; 4]; 4];
        ace.program_matrix(0, &m0).expect("programs");
        ace.program_matrix(1, &m1).expect("programs");
        let driver = InputDriver::new(1, false).expect("valid");
        let out = ace
            .mvm_group(&[0, 1], &[1, 1, 1, 1], driver, None)
            .expect("runs");
        assert_eq!(out.partial_products.len(), 1);
        assert_eq!(out.partial_products[0].len(), 8);
        assert_eq!(&out.partial_products[0][..4], &[4, 4, 4, 4]);
        assert_eq!(&out.partial_products[0][4..], &[8, 8, 8, 8]);
    }

    #[test]
    fn sar_vs_ramp_latency() {
        let mk = |kind| {
            let mut config = AceConfig::ideal(1, 4, 4);
            config.adc_kind = kind;
            config.adc_bits = 8;
            config.crossbar.device = DeviceParams::ideal(4).expect("valid");
            AnalogComputeElement::new(config, 9).expect("valid")
        };
        let driver = InputDriver::new(1, false).expect("valid");
        let m = vec![vec![1; 4]; 4];

        let mut sar = mk(AdcKind::Sar);
        sar.program_matrix(0, &m).expect("programs");
        let sar_out = sar.mvm(0, &[1, 0, 0, 0], driver, None).expect("runs");

        let mut ramp = mk(AdcKind::Ramp);
        ramp.program_matrix(0, &m).expect("programs");
        let ramp_out = ramp.mvm(0, &[1, 0, 0, 0], driver, None).expect("runs");
        // ramp full sweep is much slower than 2 muxed SAR conversions
        assert!(ramp_out.cycles.get() > 10 * sar_out.cycles.get());

        // early termination rescues ramp (AES's 4-level trick)
        let ramp_early = ramp.mvm(0, &[1, 0, 0, 0], driver, Some(4)).expect("runs");
        assert!(ramp_early.cycles < sar_out.cycles.max(ramp_early.cycles) + Cycles::new(100));
        assert!(ramp_early.cycles < ramp_out.cycles);
    }

    #[test]
    fn adc_saturates_large_outputs() {
        let mut config = AceConfig::ideal(1, 16, 2);
        config.adc_bits = 4; // codes in [-8, 7]
        config.crossbar.bits_per_cell = 4;
        config.crossbar.device = DeviceParams::ideal(4).expect("valid");
        let mut ace = AnalogComputeElement::new(config, 11).expect("valid");
        let m: Vec<Vec<i64>> = (0..16).map(|_| vec![15, 1]).collect();
        ace.program_matrix(0, &m).expect("programs");
        let driver = InputDriver::new(1, false).expect("valid");
        let out = ace.mvm(0, &[1; 16], driver, None).expect("runs");
        assert_eq!(out.partial_products[0][0], 7); // saturated
        assert_eq!(out.partial_products[0][1], 7); // 16 > 7, saturated too
    }

    /// A uniform pick in `0..n` from the oracle's case stream.
    fn pick(draw: &mut NoiseRng, n: usize) -> usize {
        (draw.next_u64() % n as u64) as usize
    }

    #[test]
    fn integer_codes_match_the_f64_model_on_level_exact_crossbars() {
        // Seeded random level-exact crossbars: every code the ACE digitizes
        // from integer level sums must equal the code of the f64 device
        // model's current, across cell widths, tall columns, clipping ADCs,
        // stuck cells and row updates — including an update on a clone,
        // which must leave the original untouched.
        let mut draw = NoiseRng::seed_from(0x5eed);
        let (mut codes, mut clipped, mut faulted, mut updated) = (0, 0, 0, 0);
        let driver = InputDriver::new(1, false).expect("valid");
        for case in 0..2000 {
            let rows = [1, 17, 64, 100, 130][pick(&mut draw, 5)];
            let cols = 1 + pick(&mut draw, 24);
            let mut config = AceConfig::ideal(1, rows, cols);
            let bits = 1 + pick(&mut draw, 8) as u8;
            config.crossbar.bits_per_cell = bits;
            config.crossbar.device = DeviceParams::ideal(bits).expect("valid");
            // An unused draw: every later case depends on the stream
            // consuming it here.
            pick(&mut draw, 2);
            config.adc_bits = 4 + pick(&mut draw, 7) as u8;
            let faults = case % 8 == 0;
            if faults {
                config.crossbar.device.stuck_at_rate = 0.2;
            }
            let mut ace = AnalogComputeElement::new(config, case).expect("valid");
            let max = ace.config().crossbar.max_magnitude();
            let span = (2 * max + 1) as usize;
            let mut weights = |n: usize| -> Vec<i64> {
                (0..n).map(|_| pick(&mut draw, span) as i64 - max).collect()
            };
            let matrix: Vec<Vec<i64>> = (0..rows).map(|_| weights(cols)).collect();
            ace.program_matrix(0, &matrix).expect("programs");
            if faults {
                faulted += ace.inject_stuck_at_faults();
            }
            let mut aces = vec![ace];
            if case % 4 == 1 {
                let mut copy = aces[0].clone();
                let new_row = weights(cols);
                copy.update_row(0, pick(&mut draw, rows), &new_row)
                    .expect("updates");
                aces.push(copy);
                updated += 1;
            }
            let random: Vec<i64> = (0..rows).map(|_| pick(&mut draw, 2) as i64).collect();
            for ace in &mut aces {
                for input in [random.clone(), vec![0; rows], vec![1; rows]] {
                    let out = ace.mvm(0, &input, driver, None).expect("runs");
                    let xbar = ace.crossbar(0).expect("exists");
                    assert!(xbar.level_exact(), "case {case}");
                    let bits: Vec<bool> = input.iter().map(|&x| x == 1).collect();
                    let unit = xbar.unit_current();
                    let currents = xbar
                        .mvm_currents(&bits, &mut NoiseRng::seed_from(0))
                        .expect("shape ok");
                    for (c, (&code, &current)) in
                        out.partial_products[0].iter().zip(&currents).enumerate()
                    {
                        let units = current / unit;
                        assert_eq!(
                            code,
                            ace.adc().quantize_units(units),
                            "case {case} col {c}: current {units} units"
                        );
                        codes += 1;
                        clipped += usize::from(code != units.round() as i64);
                    }
                }
            }
        }
        assert!(codes > 50_000, "only {codes} codes compared");
        assert!(clipped > 1000, "only {clipped} clipped codes");
        assert!(faulted > 0, "no stuck cells injected");
        assert!(updated > 0, "no row updates");
    }

    #[test]
    fn crossbars_that_are_not_level_exact_digitize_f64_currents() {
        // IR drop, and programming noise without read noise, each take a
        // crossbar off the integer model: the ACE must then digitize the
        // f64 device currents, not the level sums.
        for variant in 0..2 {
            let mut config = AceConfig::ideal(1, 32, 4);
            match variant {
                0 => config.crossbar.ir_drop_alpha = 0.002,
                _ => config.crossbar.device.program_sigma = 0.05,
            }
            let mut ace = AnalogComputeElement::new(config, 3).expect("valid");
            ace.program_matrix(0, &vec![vec![15, -9, 4, 0]; 32])
                .expect("programs");
            let level_sums = [32 * 15, 32 * -9, 32 * 4, 0];
            let driver = InputDriver::new(1, false).expect("valid");
            let out = ace.mvm(0, &[1; 32], driver, None).expect("runs");

            let xbar = ace.crossbar(0).expect("exists");
            assert!(!xbar.level_exact(), "variant {variant}");
            let input = vec![true; 32];
            let unit = xbar.unit_current();
            let f64_codes: Vec<i64> = xbar
                .mvm_currents(&input, &mut NoiseRng::seed_from(0))
                .expect("shape ok")
                .iter()
                .map(|&c| ace.adc().quantize_units(c / unit))
                .collect();
            assert_eq!(out.partial_products[0], f64_codes, "variant {variant}");
            if variant == 0 {
                assert_ne!(f64_codes, level_sums, "variant {variant}");
            }
        }
    }

    #[test]
    fn noisy_slc_differential_is_exact_with_compensation_margin() {
        // AES-like configuration: SLC, ±1 weights, few active inputs.
        let mut config = AceConfig::evaluation(AdcKind::Sar, 1).expect("valid");
        config.arrays = 1;
        config.crossbar.rows = 16;
        config.crossbar.cols = 8;
        config.crossbar.range_scale = 0.5;
        let mut ace = AnalogComputeElement::new(config, 13).expect("valid");
        let matrix: Vec<Vec<i64>> = (0..16)
            .map(|r| {
                (0..8)
                    .map(|c| if (r + c) % 2 == 0 { 1 } else { -1 })
                    .collect()
            })
            .collect();
        ace.program_matrix(0, &matrix).expect("programs");
        let driver = InputDriver::new(1, false).expect("valid");
        let input: Vec<i64> = (0..16).map(|i| i64::from(i % 4 == 0)).collect();
        let out = ace.mvm(0, &input, driver, None).expect("runs");
        let exact = ace.mvm_exact(0, &input, driver).expect("shape ok");
        // measured = exact * range_scale; with 4 active inputs the noise
        // must stay below half an LSB for the compensation to decode
        for (c, &e) in exact[0].iter().enumerate() {
            let measured = out.partial_products[0][c] as f64;
            assert!(
                (measured - e as f64 * 0.5).abs() <= 0.5,
                "col {c}: measured {measured}, exact {e}"
            );
        }
    }

    #[test]
    fn noise_off_execution_consumes_zero_rng_draws() {
        // The full noise-free path — programming, row update, grouped MVM —
        // must never fork the ACE stream, leaving it exactly at its seeded
        // state (the property the eval-layer Monte-Carlo tests extend to
        // whole workload executions).
        let mut ace = ideal_ace();
        let m = vec![vec![1; 4]; 4];
        ace.program_matrix(0, &m).expect("programs");
        ace.update_row(0, 0, &[2, 2, 2, 2]).expect("updates");
        let driver = InputDriver::new(2, false).expect("valid");
        ace.mvm(0, &[1, 2, 3, 0], driver, None).expect("runs");
        ace.mvm_group(&[0, 1], &[1, 0, 1, 0], driver, None)
            .expect("runs");
        assert_eq!(ace.rng(), &NoiseRng::seed_from(7));
        assert_eq!(ace.saturated_writes(), 0);
    }

    #[test]
    fn noisy_execution_advances_the_rng() {
        let mut config = AceConfig::evaluation(AdcKind::Sar, 1).expect("valid");
        config.arrays = 1;
        config.crossbar.rows = 4;
        config.crossbar.cols = 4;
        let mut ace = AnalogComputeElement::new(config, 7).expect("valid");
        ace.program_matrix(0, &vec![vec![1; 4]; 4])
            .expect("programs");
        assert_ne!(ace.rng(), &NoiseRng::seed_from(7));
    }

    #[test]
    fn energy_meter_components() {
        let mut ace = ideal_ace();
        ace.program_matrix(0, &vec![vec![1; 4]; 4])
            .expect("programs");
        let driver = InputDriver::new(2, false).expect("valid");
        ace.mvm(0, &[1, 2, 3, 0], driver, None).expect("runs");
        let meter = ace.energy_meter();
        assert!(meter.component("ace.program").get() > 0.0);
        assert!(meter.component("ace.row_periphery").get() > 0.0);
        assert!(meter.component("ace.adc").get() > 0.0);
    }
}

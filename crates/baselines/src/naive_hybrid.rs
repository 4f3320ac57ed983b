//! The §3 motivation study: naive hybrid PUM (Figure 7).
//!
//! Nine configurations trade digital arrays for analog arrays with *none*
//! of DARTH-PUM's coordination hardware: partial products serialize
//! through write–shift–add (Figure 10a), the front end issues every
//! reduction µop, and nothing rate-matches the ADCs to the DCE write
//! ports. A pure digital chip (D) and an analog accelerator driven by a
//! 4 GHz 8-core Arm CPU (A) bracket the sweep.
//!
//! The model is a two-resource bound: AES blocks consume *digital
//! pipeline-cycles* (SubBytes, ShiftRows, AddRoundKey — plus MixColumns
//! itself on the pure-digital chip) and *analog array-cycles* (the
//! uncoordinated MixColumns MVMs); throughput is the binding resource.
//! The per-block work constants are calibrated against the functional
//! simulator's per-kernel costs and the §3 observations; the calibration
//! targets are recorded in `EXPERIMENTS.md`.

use darth_digital::logic::LogicFamily;
use serde::{Deserialize, Serialize};

/// Digital pipeline-cycles per AES block for the non-MixColumns kernels
/// (OSCAR family; batches of four blocks share each 64-element register).
const DIGITAL_WORK_OSCAR: f64 = 1_000.0;
/// Extra digital pipeline-cycles per block to run MixColumns as a GF(2)
/// XOR network on the DCE (pure-digital configuration).
const MIX_DIGITAL_WORK_OSCAR: f64 = 6_855.0;
/// Analog array-cycles per block for MixColumns on a naive hybrid:
/// 36 column MVMs whose landing, shifting and adding serialize against
/// the analog side (no shift units, no IIU, no rate matching).
const MIX_ANALOG_WORK_NAIVE: f64 = 55_300.0;
/// Ideal-logic-family scale factors (element-wise loads and barriers do
/// not speed up; Boolean-dominated work does).
const IDEAL_DIGITAL_FACTOR: f64 = 0.55;
const IDEAL_MIX_FACTOR: f64 = 0.45;
/// The analog+CPU configuration: per-block time is dominated by one
/// offload round trip per MixColumns round (host sync + transfer).
const CPU_OFFLOAD_ROUNDTRIP_S: f64 = 470e-9;
const CPU_CORES: f64 = 8.0;
const MVM_ROUNDS: f64 = 9.0;
/// Chip clock.
const FREQ: f64 = 1.0e9;
/// Arrays per digital pipeline.
const ARRAYS_PER_PIPELINE: f64 = 64.0;

/// One point of the Figure 7 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NaiveHybridConfig {
    /// Label (`"D"`, `"H-1"`, …, `"A"`).
    pub label: &'static str,
    /// Digital arrays.
    pub digital_arrays: u64,
    /// Analog arrays (0 for pure digital).
    pub analog_arrays: u64,
    /// Whether this is the analog+CPU bracket configuration.
    pub analog_plus_cpu: bool,
}

impl NaiveHybridConfig {
    /// The paper's Figure 7 x-axis: D, H-1..H-9, A.
    pub fn figure7_sweep() -> Vec<NaiveHybridConfig> {
        let h = |label, d, a| NaiveHybridConfig {
            label,
            digital_arrays: d,
            analog_arrays: a,
            analog_plus_cpu: false,
        };
        vec![
            NaiveHybridConfig {
                label: "D",
                digital_arrays: 832,
                analog_arrays: 0,
                analog_plus_cpu: false,
            },
            h("H-1", 768, 128),
            h("H-2", 700, 162),
            h("H-3", 640, 192),
            h("H-4", 512, 256),
            h("H-5", 375, 324),
            h("H-6", 256, 384),
            h("H-7", 128, 448),
            h("H-8", 64, 480),
            NaiveHybridConfig {
                label: "A",
                digital_arrays: 32,
                analog_arrays: 496,
                analog_plus_cpu: false,
            },
            NaiveHybridConfig {
                label: "A+CPU",
                digital_arrays: 0,
                analog_arrays: u64::MAX,
                analog_plus_cpu: true,
            },
        ]
    }

    /// AES-128 throughput in blocks/s for this configuration.
    pub fn aes_throughput(&self, family: LogicFamily) -> f64 {
        if self.analog_plus_cpu {
            // Analog area is free; every block pays nine offload round
            // trips, pipelined across the CPU cores.
            return CPU_CORES / (MVM_ROUNDS * CPU_OFFLOAD_ROUNDTRIP_S);
        }
        let (digital_factor, mix_factor) = match family {
            LogicFamily::Oscar => (1.0, 1.0),
            LogicFamily::Ideal => (IDEAL_DIGITAL_FACTOR, IDEAL_MIX_FACTOR),
        };
        let pipelines = self.digital_arrays as f64 / ARRAYS_PER_PIPELINE;
        if self.analog_arrays == 0 {
            let work = DIGITAL_WORK_OSCAR * digital_factor + MIX_DIGITAL_WORK_OSCAR * mix_factor;
            return pipelines * FREQ / work;
        }
        let digital_rate = pipelines * FREQ / (DIGITAL_WORK_OSCAR * digital_factor);
        let analog_rate = self.analog_arrays as f64 * FREQ / MIX_ANALOG_WORK_NAIVE;
        digital_rate.min(analog_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(family: LogicFamily) -> Vec<(&'static str, f64)> {
        NaiveHybridConfig::figure7_sweep()
            .into_iter()
            .map(|c| (c.label, c.aes_throughput(family)))
            .collect()
    }

    fn rate(points: &[(&str, f64)], label: &str) -> f64 {
        points
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, r)| *r)
            .expect("label present")
    }

    #[test]
    fn hybrid_peaks_at_h5() {
        // Figure 7: throughput rises to H-5, then falls as digital
        // pipelines run out.
        let points = sweep(LogicFamily::Oscar);
        let peak = points
            .iter()
            .filter(|(l, _)| l.starts_with('H'))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("has hybrids");
        assert_eq!(peak.0, "H-5", "{points:?}");
    }

    #[test]
    fn peak_hybrid_beats_digital_by_about_3_5x() {
        let points = sweep(LogicFamily::Oscar);
        let ratio = rate(&points, "H-5") / rate(&points, "D");
        assert!(
            (3.0..=4.1).contains(&ratio),
            "H-5/D = {ratio}, paper reports 3.54"
        );
    }

    #[test]
    fn analog_cpu_is_slightly_better_than_digital() {
        // §3: "analog PUM performs only 18% better than digital PUM".
        let points = sweep(LogicFamily::Oscar);
        let ratio = rate(&points, "A+CPU") / rate(&points, "D");
        assert!(
            (1.0..=1.6).contains(&ratio),
            "A/D = {ratio}, paper reports 1.18"
        );
    }

    #[test]
    fn ideal_family_doubles_pure_digital() {
        // §3: the ideal family gives digital PUM a 2.1x improvement.
        let d_oscar = NaiveHybridConfig::figure7_sweep()[0].aes_throughput(LogicFamily::Oscar);
        let d_ideal = NaiveHybridConfig::figure7_sweep()[0].aes_throughput(LogicFamily::Ideal);
        let ratio = d_ideal / d_oscar;
        assert!((1.8..=2.6).contains(&ratio), "ideal/oscar D = {ratio}");
    }

    #[test]
    fn ideal_family_barely_moves_the_best_hybrid() {
        // §3: "an ideal logic family increases throughput over OSCAR by
        // only 3.2%" at the hybrid peak.
        let sweep_o = sweep(LogicFamily::Oscar);
        let sweep_i = sweep(LogicFamily::Ideal);
        let ratio = rate(&sweep_i, "H-5") / rate(&sweep_o, "H-5");
        assert!(
            (1.0..=1.15).contains(&ratio),
            "ideal/oscar at H-5 = {ratio}, paper reports 1.032"
        );
    }

    #[test]
    fn most_hybrids_beat_both_endpoints() {
        // §3 observation 2.
        let points = sweep(LogicFamily::Oscar);
        let d = rate(&points, "D");
        let a = rate(&points, "A+CPU");
        let better = points
            .iter()
            .filter(|(l, r)| l.starts_with('H') && *r > d && *r > a)
            .count();
        assert!(better >= 4, "only {better} hybrids beat both endpoints");
    }
}

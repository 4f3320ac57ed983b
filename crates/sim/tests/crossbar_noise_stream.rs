//! Pins the noisy crossbar's random stream end to end.
//!
//! Seeded noisy ACEs — programming and read noise, IR drop, range
//! scaling, 1–8 bits per cell, stuck-at faults, a pathological
//! programming sigma and a row update on a clone — run multi-bit MVMs,
//! and every ADC code, cycle count, energy, saturation count, fault count
//! and stored weight folds into one digest. The digest moves whenever a
//! draw changes order or count:
//!
//! * programming walks the matrix row-major, the positive plane's device
//!   before the negative plane's;
//! * a read walks every row of a column, active or not, positive plane
//!   before negative;
//! * stuck-at injection visits one device at a time, the whole positive
//!   plane first.

use darth_analog::ace::{AceConfig, AnalogComputeElement};
use darth_analog::adc::AdcKind;
use darth_analog::dac::InputDriver;
use darth_pum::eval::Fnv1a;
use darth_reram::NoiseRng;

/// The digest of `noisy_crossbar_stream` as recorded for the current
/// device model. Change it only together with a declared change of the
/// noise model.
const NOISE_STREAM_DIGEST: u64 = 0x0315_0c1b_c937_a657;

/// A uniform pick in `0..n` from the case stream.
fn pick(draw: &mut NoiseRng, n: usize) -> usize {
    (draw.next_u64() % n as u64) as usize
}

fn fold_ace(h: &mut Fnv1a, ace: &AnalogComputeElement) {
    h.write_u64(ace.saturated_writes());
    for array in 0..ace.array_count() {
        let xbar = ace.crossbar(array).expect("exists");
        for row in xbar.weights().iter() {
            for &w in row {
                h.write_i64(w);
            }
        }
    }
}

/// How much of the model one stream run reached.
#[derive(Debug, Default)]
struct Coverage {
    failed_programs: usize,
    faults: usize,
    saturated_writes: u64,
    updates: usize,
    codes: usize,
}

fn noisy_crossbar_stream() -> (u64, Coverage) {
    let mut draw = NoiseRng::seed_from(0xC0FF_EE11);
    let mut h = Fnv1a::new();
    let mut seen = Coverage::default();
    'case: for case in 0..96u64 {
        let bits = 1 + pick(&mut draw, 8) as u8;
        let mut config = AceConfig::evaluation(AdcKind::Sar, bits).expect("valid");
        config.arrays = 2;
        config.crossbar.rows = [1, 7, 33, 64][pick(&mut draw, 4)];
        config.crossbar.cols = 1 + pick(&mut draw, 16);
        let device = &mut config.crossbar.device;
        match case % 6 {
            // Read noise over noise-free programming.
            0 => device.program_sigma = 0.0,
            // Programming noise alone, no IR drop.
            1 => {
                device.read_sigma = 0.0;
                config.crossbar.ir_drop_alpha = 0.0;
            }
            // Write–verify loops that exhaust their attempts on fine levels.
            2 => device.program_sigma = 1.5,
            // The §4.3 halved conductance range.
            3 => config.crossbar.range_scale = 0.5,
            // Writes that rail outside the device window.
            4 => device.program_sigma = 1e6,
            _ => {}
        }
        let faults = case % 3 == 0;
        if faults {
            config.crossbar.device.stuck_at_rate = 0.1;
        }
        let (rows, cols) = (config.crossbar.rows, config.crossbar.cols);
        let max = (1i64 << bits) - 1;
        let mut ace = AnalogComputeElement::new(config, 1000 + case).expect("valid");
        for array in 0..2 {
            let matrix: Vec<Vec<i64>> = (0..rows)
                .map(|_| {
                    (0..cols)
                        .map(|_| pick(&mut draw, (2 * max + 1) as usize) as i64 - max)
                        .collect()
                })
                .collect();
            if let Err(e) = ace.program_matrix(array, &matrix) {
                h.write(format!("{e:?}").as_bytes());
                seen.failed_programs += 1;
                continue 'case;
            }
        }
        if faults {
            let faults = ace.inject_stuck_at_faults();
            h.write_u64(faults as u64);
            seen.faults += faults;
        }
        let mut aces = vec![ace];
        if case % 4 == 1 {
            let mut copy = aces[0].clone();
            let row: Vec<i64> = (0..cols)
                .map(|_| pick(&mut draw, (2 * max + 1) as usize) as i64 - max)
                .collect();
            copy.update_row(1, pick(&mut draw, rows), &row)
                .expect("updates");
            aces.push(copy);
            seen.updates += 1;
        }
        let input_bits = 1 + pick(&mut draw, 8) as u8;
        let signed = pick(&mut draw, 2) == 1;
        let driver = InputDriver::new(input_bits, signed).expect("valid");
        let span = (driver.max_value() - driver.min_value() + 1) as usize;
        let input: Vec<i64> = (0..rows)
            .map(|_| driver.min_value() + pick(&mut draw, span) as i64)
            .collect();
        for ace in &mut aces {
            for arrays in [&[0][..], &[0, 1], &[1]] {
                let out = ace.mvm_group(arrays, &input, driver, None).expect("runs");
                for slice in &out.partial_products {
                    for &code in slice {
                        h.write_i64(code);
                    }
                    seen.codes += slice.len();
                }
                h.write_u64(out.cycles.get());
                h.write_u64(out.energy.get().to_bits());
            }
            fold_ace(&mut h, ace);
            seen.saturated_writes += ace.saturated_writes();
        }
    }
    (h.finish(), seen)
}

#[test]
fn noisy_crossbar_stream_matches_the_recorded_digest() {
    let (digest, seen) = noisy_crossbar_stream();
    assert!(seen.failed_programs > 0, "{seen:?}");
    assert!(seen.faults > 0, "{seen:?}");
    assert!(seen.saturated_writes > 0, "{seen:?}");
    assert!(seen.updates > 0, "{seen:?}");
    assert!(seen.codes > 10_000, "{seen:?}");
    assert_eq!(
        digest, NOISE_STREAM_DIGEST,
        "noise stream digest {digest:#018x} moved: a draw changed order or count"
    );
}

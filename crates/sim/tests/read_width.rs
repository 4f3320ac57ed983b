//! The read width of a grouped MVM selects which codes it returns, and
//! changes nothing else.
//!
//! A grouped MVM reads only the leading `width` columns of each array, and
//! skips the read noise of the rest without evaluating it. These tests
//! hold that to a full-width read:
//!
//! * on seeded noisy ACEs, a narrow read of `k` columns returns exactly
//!   the first `k` codes per array of a full-width read on a clone, with
//!   the same cycles and energy, across 1–8 bits per cell, tall and short
//!   columns, IR drop, the halved conductance range, stuck-at faults and
//!   a row update on a clone; the full-width reads fold into a digest
//!   recorded when every read-noise draw was evaluated;
//! * on seeded noisy tiles, whose MVMs read just their vACore's columns,
//!   every result, cycle count and energy folds into a digest recorded
//!   when the tile still read every column and evaluated every draw.

use darth_analog::ace::{AceConfig, AnalogComputeElement};
use darth_analog::adc::AdcKind;
use darth_analog::dac::InputDriver;
use darth_isa::iiu::ReductionRegs;
use darth_pum::eval::Fnv1a;
use darth_pum::hct::{FastTile, HctConfig};
use darth_reram::NoiseRng;

/// The digests of the full-width ACE reads and of `noisy_tile_mvms`, both
/// recorded when every read-noise draw was evaluated. A narrow read and a
/// full one skip an inactive row's draw alike, so only a reference that
/// evaluates every draw can see a skipped pair's spare go wrong. Change
/// them only together with a declared change of the noise model.
const ACE_READ_DIGEST: u64 = 0x331a_5196_9859_2e1b;
const TILE_MVM_DIGEST: u64 = 0x4bd6_d64e_9e28_2056;

/// A uniform pick in `0..n` from the case stream.
fn pick(draw: &mut NoiseRng, n: usize) -> usize {
    (draw.next_u64() % n as u64) as usize
}

/// How much of the model the ACE cases reached.
#[derive(Debug, Default)]
struct Coverage {
    bits_per_cell: [usize; 9],
    failed_programs: usize,
    faults: usize,
    updates: usize,
    narrow_reads: usize,
    empty_reads: usize,
    codes: usize,
}

#[test]
fn narrow_reads_are_the_leading_codes_of_a_full_width_read() {
    let mut draw = NoiseRng::seed_from(0x0071_d7b5);
    let mut seen = Coverage::default();
    let mut h = Fnv1a::new();
    'case: for case in 0..160u64 {
        let bits = 1 + (case % 8) as u8;
        let adc = [AdcKind::Sar, AdcKind::Ramp][pick(&mut draw, 2)];
        let mut config = AceConfig::evaluation(adc, bits).expect("valid");
        config.arrays = 3;
        config.crossbar.rows = [1, 17, 63, 64][pick(&mut draw, 4)];
        config.crossbar.cols = 1 + pick(&mut draw, 24);
        match (case / 8) % 5 {
            // Read noise over noise-free programming: fine levels program.
            0 => config.crossbar.device.program_sigma = 0.0,
            // The halved conductance range.
            1 => config.crossbar.range_scale = 0.5,
            // Read noise without IR drop.
            2 => config.crossbar.ir_drop_alpha = 0.0,
            // Read noise loud enough that one misplaced draw moves a code.
            3 => config.crossbar.device.read_sigma = 0.25,
            _ => {}
        }
        let faults = case % 3 == 0;
        if faults {
            config.crossbar.device.stuck_at_rate = 0.1;
        }
        let (rows, cols) = (config.crossbar.rows, config.crossbar.cols);
        let max = config.crossbar.max_magnitude();
        let weights = |draw: &mut NoiseRng| -> Vec<i64> {
            (0..cols)
                .map(|_| pick(draw, (2 * max + 1) as usize) as i64 - max)
                .collect()
        };
        let mut ace = AnalogComputeElement::new(config, 7000 + case).expect("valid");
        for array in 0..3 {
            let matrix: Vec<Vec<i64>> = (0..rows).map(|_| weights(&mut draw)).collect();
            if ace.program_matrix(array, &matrix).is_err() {
                seen.failed_programs += 1;
                continue 'case;
            }
        }
        seen.bits_per_cell[usize::from(bits)] += 1;
        if faults {
            seen.faults += ace.inject_stuck_at_faults();
        }
        let mut aces = vec![ace];
        if case % 4 == 1 {
            let mut copy = aces[0].clone();
            let row = weights(&mut draw);
            copy.update_row(2, pick(&mut draw, rows), &row)
                .expect("updates");
            aces.push(copy);
            seen.updates += 1;
        }
        let driver =
            InputDriver::new(1 + pick(&mut draw, 8) as u8, pick(&mut draw, 2) == 1).expect("valid");
        let span = (driver.max_value() - driver.min_value() + 1) as usize;
        let input: Vec<i64> = (0..rows)
            .map(|_| driver.min_value() + pick(&mut draw, span) as i64)
            .collect();
        for ace in &mut aces {
            for arrays in [&[0][..], &[0, 1], &[2, 0, 1]] {
                let width = pick(&mut draw, cols + 1);
                let full = ace
                    .clone()
                    .mvm_group(arrays, cols, &input, driver, None)
                    .expect("runs");
                let narrow = ace
                    .mvm_group(arrays, width, &input, driver, None)
                    .expect("runs");
                for &code in full.partial_products.iter().flatten() {
                    h.write_i64(code);
                }
                h.write_u64(full.cycles.get());
                h.write_u64(full.energy.get().to_bits());
                assert_eq!(narrow.partial_products.len(), full.partial_products.len());
                for (got, all) in narrow.partial_products.iter().zip(&full.partial_products) {
                    let leading: Vec<i64> = all
                        .chunks_exact(cols)
                        .flat_map(|array| &array[..width])
                        .copied()
                        .collect();
                    assert_eq!(got, &leading, "case {case} arrays {arrays:?} width {width}");
                    seen.codes += got.len();
                }
                assert_eq!(narrow.cycles, full.cycles, "case {case}");
                assert_eq!(
                    narrow.energy.get().to_bits(),
                    full.energy.get().to_bits(),
                    "case {case}"
                );
                seen.narrow_reads += usize::from(width < cols);
                seen.empty_reads += usize::from(width == 0);
            }
        }
    }
    assert!(
        seen.bits_per_cell[1..].iter().all(|&n| n > 0),
        "every cell width programs at least once: {seen:?}"
    );
    assert!(seen.faults > 0, "{seen:?}");
    assert!(seen.updates > 0, "{seen:?}");
    assert!(seen.narrow_reads > 200, "{seen:?}");
    assert!(seen.empty_reads > 0, "{seen:?}");
    assert!(seen.codes > 20_000, "{seen:?}");
    let digest = h.finish();
    assert_eq!(
        digest, ACE_READ_DIGEST,
        "full-width read digest {digest:#018x} moved: a draw changed order, count or value"
    );
}

#[test]
fn read_widths_past_the_crossbar_are_rejected() {
    let mut ace = AnalogComputeElement::new(AceConfig::ideal(1, 4, 4), 1).expect("valid");
    ace.program_matrix(0, &vec![vec![1; 4]; 4])
        .expect("programs");
    let driver = InputDriver::new(1, false).expect("valid");
    assert!(ace.mvm_group(&[0], 5, &[1; 4], driver, None).is_err());
}

/// Seeded noisy tiles of every cell width the tile's vACores slice to, with
/// narrow matrices on 64-column arrays: every MVM's result, cycle split and
/// energy, and each tile's busy cycles and merged energy meter.
fn noisy_tile_mvms() -> u64 {
    let mut draw = NoiseRng::seed_from(0x7_11e5);
    let mut h = Fnv1a::new();
    for case in 0..48u64 {
        let adc = [AdcKind::Sar, AdcKind::Ramp][pick(&mut draw, 2)];
        let mut config = HctConfig::evaluation(adc);
        config.seed = 0x5eed_0000 + case;
        let bits_per_cell = [1, 2, 4][pick(&mut draw, 3)];
        config.functional_bits_per_cell = bits_per_cell;
        match case % 4 {
            0 => config.program_sigma = 0.0,
            1 => config.ir_drop_alpha = 0.0,
            _ => {}
        }
        let mut tile = FastTile::new(config).expect("valid");
        let element_bits = (bits_per_cell << pick(&mut draw, 2)).min(8);
        let input_bits = 1 + pick(&mut draw, 8) as u8;
        let signed = pick(&mut draw, 2) == 1;
        let id = tile
            .alloc_vacore(element_bits, bits_per_cell, input_bits, signed)
            .expect("allocates");
        let rows = [1, 17, 63, 64][pick(&mut draw, 4)];
        let cols = 1 + pick(&mut draw, 64);
        let max = (1i64 << element_bits) - 1;
        let row = |draw: &mut NoiseRng| -> Vec<i64> {
            (0..cols)
                .map(|_| pick(draw, (2 * max + 1) as usize) as i64 - max)
                .collect()
        };
        let matrix: Vec<Vec<i64>> = (0..rows).map(|_| row(&mut draw)).collect();
        tile.set_matrix(id, &matrix).expect("programs");
        let mut tiles = vec![tile];
        if case % 3 == 1 {
            let mut copy = tiles[0].clone();
            let new_row = row(&mut draw);
            copy.update_row(id, pick(&mut draw, rows), &new_row)
                .expect("updates");
            tiles.push(copy);
        }
        let driver = InputDriver::new(input_bits, signed).expect("valid");
        let span = (driver.max_value() - driver.min_value() + 1) as usize;
        for tile in &mut tiles {
            let terms = tile.vacores().get(id).expect("exists").term_count();
            let regs = ReductionRegs::dense(terms);
            for _ in 0..3 {
                let input: Vec<i64> = (0..rows)
                    .map(|_| driver.min_value() + pick(&mut draw, span) as i64)
                    .collect();
                let report = tile.exec_mvm(id, &input, 0, &regs, None).expect("runs");
                for &value in &report.result {
                    h.write_i64(value);
                }
                for cycles in [
                    report.cycles,
                    report.analog_cycles,
                    report.transfer_cycles,
                    report.reduce_cycles,
                ] {
                    h.write_u64(cycles.get());
                }
                h.write_u64(report.energy.get().to_bits());
            }
            h.write_u64(tile.busy_cycles().get());
            for (component, energy) in tile.energy_meter().iter() {
                h.write(component.as_bytes());
                h.write_u64(energy.get().to_bits());
            }
        }
    }
    h.finish()
}

#[test]
fn tile_mvms_match_their_full_width_digest() {
    let digest = noisy_tile_mvms();
    assert_eq!(
        digest, TILE_MVM_DIGEST,
        "tile MVM digest {digest:#018x} moved: a narrow read changed a result, cycle or energy"
    );
}

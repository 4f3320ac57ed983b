//! Property tests for the packed `u64` bit-plane primitives and the
//! packed pipeline's element-wise load.
//!
//! Every packed word-level gate op is checked against a scalar
//! `Vec<bool>` reference over randomized rows whose lengths
//! deliberately straddle word boundaries (1..=192 covers one, two and
//! three words plus every non-multiple-of-64 tail), so the tail-mask
//! invariant is exercised on each operation. Rows are derived from
//! sampled `u64` seeds through the deterministic test RNG, keeping
//! every failure reproducible from its printed seed.
//!
//! `PackedPipeline` reads `eload` tables through a value-major mirror
//! that every register write must invalidate. The pipeline property
//! replays random operation sequences — every writing macro on the table
//! pipeline between loads — on it and on the reference `Pipeline`.

use darth_digital::{BoolOp, DcePipeline, LogicFamily, PackedBits, PackedPipeline};
use darth_digital::{Pipeline, PipelineConfig, Result};
use proptest::prelude::*;

/// A random bool row of `len` bits from a deterministic seed.
fn random_row(seed: u64, len: usize) -> Vec<bool> {
    let mut rng = TestRng::seed_from(seed);
    let mut word = 0u64;
    (0..len)
        .map(|i| {
            if i % 64 == 0 {
                word = rng.next_u64();
            }
            (word >> (i % 64)) & 1 == 1
        })
        .collect()
}

/// The invariant every public op must restore: bits beyond `len` in the
/// last storage word stay zero.
fn assert_tail_masked(bits: &PackedBits) {
    let tail = bits.len() % 64;
    if tail != 0 {
        let last = *bits.words().last().expect("non-empty row has words");
        assert_eq!(last >> tail, 0, "tail bits leaked past len {}", bits.len());
    }
}

fn scalar_bool_op(op: BoolOp, a: bool, b: bool) -> bool {
    match op {
        BoolOp::Nor => !(a | b),
        BoolOp::Or => a | b,
        BoolOp::And => a & b,
        BoolOp::Nand => !(a & b),
        BoolOp::Xor => a ^ b,
        BoolOp::Xnor => !(a ^ b),
    }
}

const OPS: [BoolOp; 6] = [
    BoolOp::Nor,
    BoolOp::Or,
    BoolOp::And,
    BoolOp::Nand,
    BoolOp::Xor,
    BoolOp::Xnor,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn packed_gates_match_the_scalar_reference(
        seed in 0u64..u64::MAX,
        len in 1usize..193,
    ) {
        let a = random_row(seed, len);
        let b = random_row(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15), len);
        let pa = PackedBits::from_bools(&a);
        let pb = PackedBits::from_bools(&b);
        for op in OPS {
            let packed = pa.bool_op(op, &pb);
            let scalar: Vec<bool> = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| scalar_bool_op(op, x, y))
                .collect();
            prop_assert_eq!(packed.to_bools(), scalar);
            assert_tail_masked(&packed);
        }
    }

    #[test]
    fn packed_not_masks_its_tail(seed in 0u64..u64::MAX, len in 1usize..193) {
        let a = random_row(seed, len);
        let packed = PackedBits::from_bools(&a).not();
        let scalar: Vec<bool> = a.iter().map(|&x| !x).collect();
        prop_assert_eq!(packed.to_bools(), scalar);
        assert_tail_masked(&packed);
    }

    #[test]
    fn packed_shifts_match_the_scalar_reference(
        seed in 0u64..u64::MAX,
        len in 1usize..193,
        k in 0usize..200,
    ) {
        let a = random_row(seed, len);
        let packed = PackedBits::from_bools(&a);

        // shl: bit i moves to i + k, overflow past len drops.
        let mut shl_ref = vec![false; len];
        for (i, &bit) in a.iter().enumerate() {
            if bit && i + k < len {
                shl_ref[i + k] = true;
            }
        }
        let shl = packed.shl(k);
        prop_assert_eq!(shl.to_bools(), shl_ref);
        assert_tail_masked(&shl);

        // shr: bit i moves to i - k, underflow drops.
        let mut shr_ref = vec![false; len];
        for (i, &bit) in a.iter().enumerate() {
            if bit && i >= k {
                shr_ref[i - k] = true;
            }
        }
        let shr = packed.shr(k);
        prop_assert_eq!(shr.to_bools(), shr_ref);
        assert_tail_masked(&shr);
    }

    #[test]
    fn set_get_roundtrips_through_the_packed_words(
        seed in 0u64..u64::MAX,
        len in 1usize..193,
    ) {
        let row = random_row(seed, len);
        let mut packed = PackedBits::new(len);
        for (i, &bit) in row.iter().enumerate() {
            packed.set(i, bit);
        }
        for (i, &bit) in row.iter().enumerate() {
            prop_assert_eq!(packed.get(i), bit);
        }
        assert_tail_masked(&packed);
    }
}

/// Exhaustive pack → unpack identity over every row length that fits in
/// three words, including both word-aligned and ragged tails.
#[test]
fn pack_unpack_is_the_identity_for_every_length_to_192() {
    for len in 1usize..=192 {
        let row = random_row(len as u64 ^ 0xDEAD_BEEF, len);
        let packed = PackedBits::from_bools(&row);
        assert_eq!(packed.len(), len);
        assert_eq!(packed.to_bools(), row, "length {len}");
        assert_tail_masked(&packed);
        // An all-ones row stresses the tail mask hardest.
        let ones = PackedBits::from_bools(&vec![true; len]);
        assert_eq!(ones.to_bools(), vec![true; len], "ones length {len}");
        assert_tail_masked(&ones);
    }
}

/// A uniform draw below `n`.
fn below(rng: &mut TestRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// A register index of a `count`-register file, out of range 1 time in
/// 40.
fn vr(rng: &mut TestRng, count: usize) -> usize {
    if below(rng, 40) == 0 {
        count
    } else {
        below(rng, count)
    }
}

/// A `depth`-bit value, one bit too wide 1 time in 40.
fn value(rng: &mut TestRng, depth: usize) -> u64 {
    let wide = depth < 64 && below(rng, 40) == 0;
    let bits = if wide { depth + 1 } else { depth };
    rng.next_u64() >> (64 - bits)
}

/// `count` in-range `eload` addresses for a table of `capacity` values;
/// 1 load in 4 gets one out-of-range address at a random element (when
/// `depth` bits can express one).
fn addresses(rng: &mut TestRng, count: usize, capacity: usize, depth: usize) -> Vec<u64> {
    let (max, capacity) = (u64::MAX >> (64 - depth), capacity as u64);
    let mut out: Vec<u64> = (0..count)
        .map(|_| rng.next_u64() % capacity.min(max.saturating_add(1)))
        .collect();
    if max >= capacity && below(rng, 4) == 0 {
        out[below(rng, count)] = capacity + rng.next_u64() % (max - capacity + 1);
    }
    out
}

/// One random operation: a load from `table` into `addr`, or a write to
/// `table` through one of the writing macros (including an `eload` that
/// lands in `table` and `reverse`), or a read. Returns what the
/// operation read; both implementations draw the same operation from
/// equal `rng` states.
fn step<P: DcePipeline>(
    rng: &mut TestRng,
    addr: &mut P,
    table: &mut P,
    source: &P,
) -> Result<Vec<u64>> {
    let (depth, n) = (table.depth(), table.vr_count());
    let t_elems = table.elements();
    let r = |rng: &mut TestRng| vr(rng, n);
    match below(rng, 21) {
        0..=4 => {
            let values = addresses(rng, addr.elements(), n * t_elems, depth);
            let (a, dst) = (below(rng, addr.vr_count()), vr(rng, addr.vr_count()));
            addr.write_vector(a, &values)?;
            addr.elementwise_load(a, table, dst)?;
        }
        5 => {
            let (v, e, x) = (r(rng), below(rng, t_elems + 1), value(rng, depth));
            table.write_value(v, e, x)?;
        }
        6 => {
            let len = below(rng, t_elems + 2);
            let values: Vec<u64> = (0..len).map(|_| value(rng, depth)).collect();
            table.write_vector(r(rng), &values)?;
        }
        7 => {
            let op = [
                BoolOp::Nor,
                BoolOp::Or,
                BoolOp::And,
                BoolOp::Nand,
                BoolOp::Xor,
                BoolOp::Xnor,
            ][below(rng, 6)];
            table.bool_op(op, r(rng), r(rng), r(rng))?;
        }
        8 => table.not(r(rng), r(rng))?,
        9 => table.add(r(rng), r(rng), r(rng))?,
        10 => table.sub(r(rng), r(rng), r(rng))?,
        11 => table.cmp_lt(r(rng), r(rng), r(rng))?,
        12 => table.select(r(rng), r(rng), r(rng), r(rng))?,
        13 => table.relu(r(rng), r(rng))?,
        14 => table.mul(r(rng), r(rng), r(rng), depth as u8)?,
        15 => table.copy_vr(r(rng), r(rng))?,
        16 => table.copy_from(source, below(rng, n), r(rng))?,
        17 => {
            let (dst, src, k) = (r(rng), r(rng), below(rng, depth + 2));
            if below(rng, 2) == 0 {
                table.shl(dst, src, k)?;
            } else {
                table.shr(dst, src, k)?;
            }
        }
        18 => {
            let (dst, src, tmp) = (r(rng), r(rng), r(rng));
            let width = below(rng, depth + 2);
            table.rotate_left(dst, src, tmp, below(rng, width + 1), width)?;
        }
        19 => {
            if below(rng, 2) == 0 {
                table.reverse();
            } else {
                // An `eload` whose destination is a table register.
                let capacity = addr.vr_count() * addr.elements();
                let values = addresses(rng, t_elems, capacity, depth);
                let (a, dst) = (below(rng, n), r(rng));
                table.write_vector(a, &values)?;
                table.elementwise_load(a, addr, dst)?;
            }
        }
        _ => {
            let v = r(rng);
            return if below(rng, 2) == 0 {
                table.read_vector(v)
            } else {
                let count = below(rng, t_elems + 2);
                Ok(table
                    .read_signed_prefix(v, count)?
                    .into_iter()
                    .map(|x| x as u64)
                    .collect())
            };
        }
    }
    Ok(Vec::new())
}

/// What a step observed on one implementation: its result, every
/// element of both pipelines (uncharged), their primitive counts and
/// their elapsed cycles.
type Observed = (Result<Vec<u64>>, [Vec<u64>; 2], [u64; 2], [u64; 2]);

fn observe<P: DcePipeline>(result: Result<Vec<u64>>, addr: &P, table: &P) -> Observed {
    let state = |p: &P| -> Vec<u64> {
        (0..p.vr_count())
            .flat_map(|v| (0..p.elements()).map(move |e| (v, e)))
            .map(|(v, e)| p.peek_value(v, e))
            .collect()
    };
    (
        result,
        [state(addr), state(table)],
        [addr.primitives_executed(), table.primitives_executed()],
        [addr.elapsed().get(), table.elapsed().get()],
    )
}

/// Three same-depth pipelines (address, table, and a copy source with
/// the table's geometry), each register filled with random values.
fn pipelines<P: DcePipeline>(rng: &mut TestRng) -> (P, P, P) {
    let depth = if below(rng, 8) == 0 {
        64
    } else {
        1 + below(rng, 20)
    };
    let t_elems = 1 + below(rng, 140);
    let make = |rng: &mut TestRng, elements| {
        let mut p = P::new(PipelineConfig {
            depth,
            elements,
            vr_count: 2 + below(rng, 5),
            scratch_cols: 8,
            family: LogicFamily::Oscar,
        })
        .expect("valid geometry");
        for v in 0..p.vr_count() {
            let values: Vec<u64> = (0..elements)
                .map(|_| rng.next_u64() >> (64 - depth))
                .collect();
            p.write_vector(v, &values).expect("fits");
        }
        p
    };
    let a_elems = 1 + below(rng, 140);
    let addr = make(rng, a_elems);
    let table = make(rng, t_elems);
    let source = make(rng, t_elems);
    (addr, table, source)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_eload_matches_the_reference_between_table_writes(seed in 0u64..u64::MAX) {
        let rng = TestRng::seed_from(seed);
        let (mut ref_rng, mut fast_rng) = (rng.clone(), rng);
        let (mut ref_addr, mut ref_table, ref_source) = pipelines::<Pipeline>(&mut ref_rng);
        let (mut addr, mut table, source) = pipelines::<PackedPipeline>(&mut fast_rng);
        for i in 0..40 {
            let result = step(&mut ref_rng, &mut ref_addr, &mut ref_table, &ref_source);
            let expected = observe(result, &ref_addr, &ref_table);
            let result = step(&mut fast_rng, &mut addr, &mut table, &source);
            let got = observe(result, &addr, &table);
            prop_assert!(got == expected, "step {i}: packed {got:?} != reference {expected:?}");
        }
    }
}

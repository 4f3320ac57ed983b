//! Kernel microbenchmarks on the analog compute element (ACE): bit-sliced
//! MVMs and crossbar programming, run on clones of an ACE the program
//! itself warmed up, so the timed calls see real programmed arrays.

use crate::util::median;
use darth_analog::ace::AnalogComputeElement;
use darth_analog::dac::InputDriver;
use darth_reram::NoiseRng;
use std::time::Instant;

/// Timed calls per microbenchmark (the median is reported): up to
/// `REPS`, but no more than `BUDGET_S` of calls, and at least `MIN_REPS`.
const REPS: usize = 200;
const MIN_REPS: usize = 9;
const BUDGET_S: f64 = 0.05;

/// Median host µs of `call` over a bounded number of repetitions; `None`
/// if any call fails.
fn time_calls<T>(mut call: impl FnMut() -> Option<T>) -> Option<f64> {
    let budget = Instant::now();
    let mut samples = Vec::with_capacity(REPS);
    while samples.len() < MIN_REPS
        || (samples.len() < REPS && budget.elapsed().as_secs_f64() < BUDGET_S)
    {
        let start = Instant::now();
        let out = call()?;
        samples.push(start.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(out);
    }
    Some(median(&samples))
}

/// Median host µs of one `AnalogComputeElement::mvm` / `program_matrix`
/// call on one programmed array.
#[derive(Clone, Copy, Default)]
pub struct AceTimes {
    pub mvm_1b_us: f64,
    pub mvm_8b_us: f64,
    pub program_us: f64,
}

/// Times MVMs (1-bit and 8-bit inputs) and a reprogramming of the same
/// weights on the first programmed array of `ace`, each on a fresh clone
/// so the warmed original is never touched. `None` when no array is
/// programmed.
pub fn time_ace(ace: &AnalogComputeElement, seed: u64) -> Option<AceTimes> {
    let array =
        (0..ace.array_count()).find(|&a| ace.crossbar(a).is_ok_and(|x| x.is_programmed()))?;
    let weights = ace.crossbar(array).ok()?.weights().to_vec();
    let rows = weights.len();
    let mut rng = NoiseRng::seed_from(seed);
    let bits_1: Vec<i64> = (0..rows).map(|_| (rng.next_u64() & 1) as i64).collect();
    let bits_8: Vec<i64> = (0..rows).map(|_| (rng.next_u64() & 0xff) as i64).collect();

    let time_mvm = |input: &[i64], bits: u8| -> Option<f64> {
        let driver = InputDriver::new(bits, false).ok()?;
        let mut clone = ace.clone();
        time_calls(|| clone.mvm(array, input, driver, None).ok())
    };
    let mut clone = ace.clone();
    Some(AceTimes {
        mvm_1b_us: time_mvm(&bits_1, 1)?,
        mvm_8b_us: time_mvm(&bits_8, 8)?,
        program_us: time_calls(|| clone.program_matrix(array, &weights).ok())?,
    })
}

/// Median of each field over several ACEs (0 when none was timed).
pub fn median_times(times: &[AceTimes]) -> AceTimes {
    let field = |f: fn(&AceTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    AceTimes {
        mvm_1b_us: field(|t| t.mvm_1b_us),
        mvm_8b_us: field(|t| t.mvm_8b_us),
        program_us: field(|t| t.program_us),
    }
}

//! The one worker rule ([`worker_count`]) and the one scoped fan-out
//! ([`scoped_map`]) shared by every parallel phase in the stack: the
//! pricing engine and Monte-Carlo campaign (`darth_eval`), the
//! executor's batch path (`darth_sim`) and the serving engine
//! (`darth_serve`). Unusable `DARTH_EVAL_THREADS` values fall back, with
//! a warning, rather than panicking.

use std::thread;

/// The environment variable that forces a worker count.
const THREADS_VAR: &str = "DARTH_EVAL_THREADS";

/// The worker rule: `explicit`, else `forced` (the environment's
/// override), else `cores`; at least 1 and at most `items` (at least 1
/// even for zero items).
fn resolve_workers(
    explicit: Option<usize>,
    forced: Option<usize>,
    cores: usize,
    items: usize,
) -> usize {
    explicit
        .or(forced)
        .unwrap_or(cores)
        .max(1)
        .min(items.max(1))
}

/// The worker rule on this process: the explicit count, else
/// `DARTH_EVAL_THREADS`, else the available cores; at least 1, at most
/// `items`.
pub fn worker_count(explicit: Option<usize>, items: usize) -> usize {
    match explicit {
        // An explicit count reads neither the environment nor the cores.
        Some(n) => resolve_workers(Some(n), None, 1, items),
        None => {
            let cores = thread::available_parallelism().map_or(1, usize::from);
            resolve_workers(None, forced_workers(THREADS_VAR), cores, items)
        }
    }
}

/// Maps `f` over `items` on `workers` scoped threads, returning the
/// results in item order.
///
/// The items are cut into at most `workers` contiguous chunks; each
/// chunk runs on its own `std::thread::scope` worker (even when there is
/// only one chunk) with its own `state()`, which `f` may use as a
/// per-worker cache. Every worker writes a disjoint slice of the result,
/// so there are no locks and no shared mutable state.
pub fn scoped_map<T, S, R>(
    items: &[T],
    workers: usize,
    state: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let chunk = items.len().div_ceil(workers.max(1)).max(1);
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    let (state, f) = (&state, &f);
    thread::scope(|scope| {
        for (inputs, outputs) in items.chunks(chunk).zip(slots.chunks_mut(chunk)) {
            scope.spawn(move || {
                let mut worker_state = state();
                for (slot, item) in outputs.iter_mut().zip(inputs) {
                    *slot = Some(f(&mut worker_state, item));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every chunk fills its slots"))
        .collect()
}

/// Reads a forced worker count from the environment variable `var`.
///
/// Returns `None` — *fall back to the default worker count* — when the
/// variable is unset, and also, with a warning on stderr, when it is
/// empty, zero, or not a number. A forced count of zero workers can
/// price nothing, and silently saturating garbage to a count would hide
/// typos like `DARTH_EVAL_THREADS=4x`, so every unusable value is
/// reported and ignored instead of panicking or spawning zero workers.
fn forced_workers(var: &str) -> Option<usize> {
    let raw = std::env::var(var).ok()?;
    match parse_worker_count(&raw) {
        Ok(n) => Some(n),
        Err(why) => {
            eprintln!("warning: ignoring {var}={raw:?} ({why}); using the default worker count");
            None
        }
    }
}

/// The strict parser behind the `DARTH_EVAL_THREADS` override: a
/// positive integer, surrounding whitespace tolerated.
///
/// # Errors
///
/// Returns a static description of why the value is unusable (empty,
/// zero, or not a positive integer).
pub fn parse_worker_count(raw: &str) -> Result<usize, &'static str> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err("empty value");
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Err("zero workers cannot price anything"),
        Ok(n) => Ok(n),
        Err(_) => Err("not a positive integer"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_parsing_accepts_positive_integers_only() {
        assert_eq!(parse_worker_count("4"), Ok(4));
        assert_eq!(parse_worker_count(" 16 "), Ok(16));
        assert_eq!(parse_worker_count("1"), Ok(1));
        assert!(parse_worker_count("0").is_err());
        assert!(parse_worker_count("").is_err());
        assert!(parse_worker_count("   ").is_err());
        assert!(parse_worker_count("four").is_err());
        assert!(parse_worker_count("4x").is_err());
        assert!(parse_worker_count("-2").is_err());
        assert!(parse_worker_count("1e3").is_err());
    }

    #[test]
    fn forced_workers_falls_back_on_unusable_values() {
        // Unset: quietly no override. (Set/garbage cases go through
        // `parse_worker_count`, covered above; the env read itself is
        // exercised with a uniquely-named variable to avoid races with
        // other tests' environments.)
        assert_eq!(forced_workers("DARTH_EVAL_THREADS_UNSET_FOR_TEST"), None);
    }

    #[test]
    fn explicit_beats_env_and_env_beats_cores() {
        assert_eq!(resolve_workers(Some(3), Some(5), 8, 100), 3);
        assert_eq!(resolve_workers(None, Some(5), 8, 100), 5);
        assert_eq!(resolve_workers(None, None, 8, 100), 8);
    }

    #[test]
    fn zero_workers_become_one() {
        assert_eq!(resolve_workers(Some(0), Some(5), 8, 100), 1);
        assert_eq!(resolve_workers(None, None, 0, 100), 1);
        assert_eq!(resolve_workers(None, None, 8, 0), 1);
    }

    #[test]
    fn the_count_is_clamped_to_the_item_count() {
        assert_eq!(resolve_workers(Some(64), None, 8, 3), 3);
        assert_eq!(resolve_workers(None, Some(64), 8, 5), 5);
        assert_eq!(resolve_workers(None, None, 8, 2), 2);
        assert_eq!(worker_count(Some(64), 2), 2);
    }

    #[test]
    fn scoped_map_preserves_order_and_keeps_per_worker_state() {
        let items: Vec<u64> = (0..10).collect();
        let serial = scoped_map(&items, 1, || 0u64, |_, &x| x * x);
        for workers in [1, 2, 3, 64] {
            assert_eq!(scoped_map(&items, workers, || (), |_, &x| x * x), serial);
        }
        // Each worker's state counts the items it has run: with 3
        // workers over 10 items the chunks hold 4, 4 and 2.
        let seen = scoped_map(&items, 3, || 0, |n, _| std::mem::replace(n, *n + 1));
        assert_eq!(seen, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1]);
        assert!(scoped_map(&[] as &[u64], 4, || (), |_, &x| x).is_empty());
    }
}

//! The one worker pool every parallel phase of the Surveyor runs on.
//!
//! The paper's MapReduce jobs (§7.1) map independent pieces of work —
//! document shards, (type, property) groups — and reduce them in a fixed
//! order. [`map`] is that shape on threads: workers claim item indices
//! off a single atomic cursor, so skewed item costs still balance, and
//! every result comes back in input order, so output never depends on
//! the worker count or on thread timing.
//!
//! Workers share nothing but the cursor. Anything a worker accumulates
//! across items (scratch buffers, partial tables, timings) lives in a
//! per-worker state built by an `init` closure and handed back by value;
//! the caller folds the states in the order of each worker's first
//! claimed item, which is again independent of completion order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `work` over the item indices `0..items` on up to `workers`
/// threads and returns the per-item results in input order plus every
/// worker's final state.
///
/// - The worker count is `workers` clamped to `[1, items]`; `0` means one
///   worker. A single worker runs inline on the calling thread, so zero
///   or one item (or one worker) never spawns a thread.
/// - Each worker builds its state once with `init` and threads it through
///   every item it claims.
/// - States come back ordered by each worker's first claimed index; a
///   worker that claimed nothing sorts last.
/// - A panicking worker re-raises its original payload on the calling
///   thread once every worker has stopped.
pub fn map<S, R, I, F>(items: usize, workers: usize, init: I, work: F) -> (Vec<R>, Vec<S>)
where
    S: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let workers = workers.min(items).max(1);
    if workers == 1 {
        let mut state = init();
        let results = (0..items).map(|index| work(&mut state, index)).collect();
        return (results, vec![state]);
    }

    let cursor = AtomicUsize::new(0);
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut claimed: Vec<(usize, R)> = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= items {
                            break;
                        }
                        claimed.push((index, work(&mut state, index)));
                    }
                    (state, claimed)
                })
            })
            .collect();
        handles.into_iter().map(|handle| handle.join()).collect()
    });

    let mut finished = Vec::with_capacity(workers);
    for outcome in joined {
        match outcome {
            Ok(worker) => finished.push(worker),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    finished.sort_by_key(|(_, claimed)| claimed.first().map_or(usize::MAX, |&(index, _)| index));
    let mut states = Vec::with_capacity(workers);
    let mut ranked = Vec::with_capacity(items);
    for (state, claimed) in finished {
        states.push(state);
        ranked.extend(claimed);
    }
    ranked.sort_unstable_by_key(|&(index, _)| index);
    (
        ranked.into_iter().map(|(_, result)| result).collect(),
        states,
    )
}

#[cfg(test)]
mod tests {
    use super::map;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    /// Deterministic busy work whose cost grows steeply with the index's
    /// residue, so late items can finish before early ones.
    fn skewed(index: usize) -> u64 {
        let rounds = if index % 7 == 0 { 20_000 } else { 10 };
        (0..rounds).fold(index as u64, |acc, r| {
            acc.wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(r as u64)
        })
    }

    #[test]
    fn results_come_back_in_input_order_at_every_worker_count() {
        let expected: Vec<u64> = (0..200).map(skewed).collect();
        for workers in [1, 2, 3, 8] {
            let (results, states) = map(200, workers, || (), |_, index| skewed(index));
            assert_eq!(results, expected, "{workers} workers");
            assert_eq!(states.len(), workers);
        }
    }

    #[test]
    fn zero_items_run_inline_and_return_nothing() {
        let caller = thread::current().id();
        let (results, states) = map(0, 8, || thread::current().id(), |_, index| index);
        assert!(results.is_empty());
        assert_eq!(states, vec![caller], "no thread may be spawned");
    }

    #[test]
    fn worker_count_clamps_to_items_and_zero_means_one() {
        let caller = thread::current().id();
        let (results, states) = map(3, 64, || (), |_, index| index * 10);
        assert_eq!(results, vec![0, 10, 20]);
        assert_eq!(states.len(), 3);

        let (results, states) = map(5, 0, || thread::current().id(), |_, index| index);
        assert_eq!(results, vec![0, 1, 2, 3, 4]);
        assert_eq!(states, vec![caller], "one worker runs on the caller");
    }

    #[test]
    fn states_are_ordered_by_first_claimed_item() {
        for workers in [2, 3, 8] {
            let (_, states) = map(100, workers, Vec::new, |claimed: &mut Vec<usize>, index| {
                skewed(index);
                claimed.push(index);
            });
            let firsts: Vec<usize> = states
                .iter()
                .map(|claimed| claimed.first().copied().unwrap_or(usize::MAX))
                .collect();
            let mut sorted = firsts.clone();
            sorted.sort_unstable();
            assert_eq!(firsts, sorted, "{workers} workers");
            // Every item was claimed exactly once, in ascending order per
            // worker (the cursor is monotonic).
            let mut all: Vec<usize> = states.iter().flatten().copied().collect();
            assert!(states.iter().all(|c| c.windows(2).all(|w| w[0] < w[1])));
            all.sort_unstable();
            assert_eq!(all, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn init_runs_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let (_, states) = map(
            50,
            4,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, index| index,
        );
        assert_eq!(inits.load(Ordering::Relaxed), 4);
        assert_eq!(states.len(), 4);
    }

    #[test]
    fn scoped_threads_borrow_stack_data() {
        // Workers read the caller's locals and write through a shared
        // atomic on the caller's stack; all are joined before `map` returns.
        let words = ["alpha", "beta", "gamma", "delta", "epsilon"];
        let letters = AtomicUsize::new(0);
        let (lengths, _) = map(
            words.len(),
            3,
            || (),
            |_, index| {
                letters.fetch_add(words[index].len(), Ordering::Relaxed);
                words[index].len()
            },
        );
        assert_eq!(lengths, vec![5, 4, 5, 5, 7]);
        assert_eq!(letters.load(Ordering::Relaxed), 26);
    }

    #[test]
    fn panicking_worker_surfaces_as_err() {
        let caught = std::panic::catch_unwind(|| {
            map(
                8,
                4,
                || (),
                |_, index| {
                    if index == 5 {
                        std::panic::panic_any(index);
                    }
                    index
                },
            )
        });
        let payload = caught.expect_err("the worker panic must propagate");
        assert_eq!(payload.downcast_ref::<usize>(), Some(&5));
    }

    #[test]
    #[should_panic(expected = "item 13 failed")]
    fn worker_panic_surfaces_with_its_payload() {
        let _ = map(
            40,
            4,
            || (),
            |_, index| {
                if index == 13 {
                    panic!("item {index} failed");
                }
                index
            },
        );
    }
}

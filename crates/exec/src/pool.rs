//! The ordered worker pool every parallel layer of the stack runs on: campaign cells,
//! retune sweep cells and a tournament's regions.

use std::sync::Mutex;

/// Runs `run(i, item)` for every item, the `i`-th item by value, on up to `workers`
/// threads, and returns the results in item order, whatever order they finished in.
///
/// Workers claim items through a shared cursor, so `i` is also the item's position in
/// claim order. A single worker (or a single item) runs every item on the caller's
/// thread, with no spawn and no lock. Campaign cells, `dg-serve`'s retune cells and
/// the regional phase's region backends all run on this pool.
///
/// # Panics
///
/// Panics if `workers == 0`, and re-raises a panic from `run`.
pub fn run_ordered<I, R, F>(items: I, workers: usize, run: F) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    R: Send,
    F: Fn(usize, I::Item) -> R + Sync,
{
    assert!(workers > 0, "at least one worker is required");
    let items = items.into_iter().enumerate();
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.map(|(i, item)| run(i, item)).collect();
    }
    let cursor = Mutex::new(items);
    let worker_loop = || {
        let mut done = Vec::new();
        loop {
            // The guard is dropped at the end of the statement, before `run`, so a
            // panicking item never poisons the cursor.
            let claimed = cursor.lock().expect("pool cursor poisoned").next();
            let Some((i, item)) = claimed else {
                return done;
            };
            done.push((i, run(i, item)));
        }
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker_loop)).collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().expect("pool worker panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// One worker per available CPU (at least one).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order_for_every_worker_count() {
        let items: Vec<u64> = (0..37).map(|i| i * 7 + 3).collect();
        let want: Vec<(usize, u64)> = items.iter().map(|x| x * x).enumerate().collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = run_ordered(items.iter(), workers, |i, x| (i, x * x));
            assert_eq!(got, want, "{workers} workers");
        }
    }

    #[test]
    fn items_are_moved_into_the_workers() {
        // A non-`Clone` item, so the pool can only hand it over by value.
        struct Item(String);
        let want: Vec<String> = (0..20).map(|i| format!("item-{i}")).collect();
        for workers in [1, 4] {
            let items: Vec<Item> = want.iter().cloned().map(Item).collect();
            let got = run_ordered(items, workers, |i, item: Item| {
                assert_eq!(item.0, want[i]);
                item.0
            });
            assert_eq!(got, want, "{workers} workers");
        }
    }

    #[test]
    fn one_worker_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let threads = run_ordered(0..5, 1, |_, _| std::thread::current().id());
        assert!(threads.iter().all(|id| *id == caller));
        // So does a lone item, whatever the worker count.
        let threads = run_ordered([()], 8, |_, _| std::thread::current().id());
        assert_eq!(threads, vec![caller]);
    }

    #[test]
    fn no_items_give_no_results() {
        let got: Vec<usize> = run_ordered(Vec::<usize>::new(), 4, |i, _| i);
        assert!(got.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = run_ordered(0..3, 0, |i, _| i);
    }

    #[test]
    #[should_panic(expected = "pool worker panicked")]
    fn a_panicking_item_fails_the_run() {
        let _ = run_ordered(0..8, 2, |i, _| {
            assert!(i != 5, "item 5 fails");
            i
        });
    }

    #[test]
    fn default_workers_is_at_least_one() {
        assert!(default_workers() >= 1);
    }
}

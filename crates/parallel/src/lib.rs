//! Scoped-thread work distribution.
//!
//! The index builder and the batch query engine both need the
//! same shape of parallelism: map a function over a slice on N threads and
//! get the results back **in input order**, deterministically, regardless of
//! which thread finished first. `std::thread::scope` gives us that without
//! a work-stealing runtime: items are handed out through a shared cursor
//! (so a slow item never stalls the queue behind a fixed pre-partition) and
//! each result lands in its input slot.
//!
//! Panics in workers propagate: the scope joins every thread, and the first
//! worker panic is resumed on the caller.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of worker threads to use when the caller does not pin one:
/// the machine's available parallelism, or 1 if unknown. Read once per
/// process: `available_parallelism` reads cgroup files on Linux, 16–20 µs
/// a call measured on a 2-core host, and every lane set (one per served
/// request or CLI search) asks for it.
pub fn default_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Maps `f` over `items` on up to `threads` threads, the caller's included;
/// `results[i]` is always `f(i, &items[i])`. With `threads <= 1` (or one
/// item) this runs inline on the caller with no spawn at all, so serial
/// paths pay nothing.
pub fn map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let work = || loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            let result = f(i, item);
            slots.lock().unwrap()[i] = Some(result);
        };
        // The caller is one of the workers: it would only wait otherwise,
        // and a two-item map spawns once.
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    collect_slots(slots)
}

fn collect_slots<R>(slots: Mutex<Vec<Option<R>>>) -> Vec<R> {
    slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|slot| slot.expect("worker skipped a slot"))
        .collect()
}

/// Like [`map`], but each item is visited through `&mut`: the slice is
/// split into exclusive references handed out one at a time, so workers
/// mutate disjoint items without locks around the items themselves.
pub fn map_mut<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    let queue = Mutex::new(items.iter_mut().enumerate());
    std::thread::scope(|scope| {
        let work = || loop {
            let next = queue.lock().unwrap().next();
            let Some((i, item)) = next else { break };
            let result = f(i, item);
            slots.lock().unwrap()[i] = Some(result);
        };
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    collect_slots(slots)
}

/// Maps a fallible `f` and short-circuits on the first error **by input
/// order** (matching what a serial loop would report), after all workers
/// drain.
pub fn try_map<T, R, E, F>(items: &[T], threads: usize, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    map(items, threads, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 8] {
            let out = map(&items, threads, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_mut_mutates_every_item_exactly_once() {
        let mut items = vec![0u32; 100];
        let out = map_mut(&mut items, 4, |i, item| {
            *item += 1;
            i
        });
        assert!(items.iter().all(|&x| x == 1));
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn try_map_reports_first_error_by_input_order() {
        let items: Vec<usize> = (0..64).collect();
        let r: Result<Vec<usize>, usize> =
            try_map(
                &items,
                8,
                |_, &x| {
                    if x == 7 || x == 40 {
                        Err(x)
                    } else {
                        Ok(x)
                    }
                },
            );
        assert_eq!(r, Err(7));
    }

    #[test]
    fn empty_and_single_inputs_work() {
        let empty: Vec<u32> = Vec::new();
        assert!(map(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(map(&[5u32], 8, |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn worker_panic_propagates() {
        let items = vec![0u32; 16];
        let caught = std::panic::catch_unwind(|| {
            map(&items, 4, |i, _| {
                if i == 3 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(caught.is_err());
    }
}

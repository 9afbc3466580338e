//! Deterministic scoped worker pool.
//!
//! The one parallelism primitive shared by the ML layer (forest
//! training, batch prediction) and the experiment layer (figure
//! fan-out): run a closure over every item of a slice on a fixed
//! number of scoped threads, and return the results **in item
//! order**, bit-identical to the serial loop.
//!
//! Determinism contract: the closure must depend only on its item and
//! index (plus shared immutable state). The pool only changes *where*
//! each call runs, never what it sees — work is pulled from a shared
//! atomic cursor and every result lands in its item's own output
//! slot, so the output is `items.map(f)` regardless of thread count,
//! interleaving, or machine.
//!
//! Thread count resolution (highest priority first):
//! 1. an explicit count passed by the caller (`parallel_map_threads`),
//! 2. the `OPTUM_THREADS` environment variable,
//! 3. `std::thread::available_parallelism()`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "OPTUM_THREADS";

/// Resolves the default worker count: `OPTUM_THREADS` if set to a
/// positive integer, else the machine's available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a configured thread count: `0` means "auto" (see
/// [`default_threads`]), anything else is taken literally.
pub fn resolve_threads(configured: usize) -> usize {
    if configured == 0 {
        default_threads()
    } else {
        configured
    }
}

/// Maps `f` over `items` with the default thread count, preserving
/// item order in the output.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_threads(default_threads(), items, f)
}

/// Maps `f` over `items` on `threads` scoped worker threads,
/// returning results in item order. `threads <= 1` (or one item)
/// degrades to the plain serial loop — same closure calls, same
/// order, no thread spawn.
///
/// Panics in `f` propagate to the caller after all workers stop.
pub fn parallel_map_threads<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let threads = resolve_threads(threads).min(n.max(1));
    if threads <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // Every slot update is one move in or out, so a slot is valid even
    // when poisoned: the locks below recover the guard instead of
    // failing.
    let mut slots: Vec<Mutex<Option<R>>> = Vec::with_capacity(n);
    slots.resize_with(n, || Mutex::new(None));
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            handles.push(scope.spawn(|| {
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(i, &items[i]);
                    *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
                }
                // Merge this worker's metric shard before the scope
                // joins: scoped threads signal completion *before* TLS
                // destructors run, so without this explicit flush a
                // snapshot taken right after the pool returns could
                // miss late shards.
                optum_obs::flush();
            }));
        }
        // Join explicitly so a worker panic surfaces here (and thus in
        // the caller) instead of aborting the scope.
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every slot filled by the worker pool")
        })
        .collect()
}

/// A unit of work that panicked inside [`parallel_try_map_owned_threads`].
///
/// Carries enough to report and retry: the item's index, the caller's
/// label for it, and the panic payload rendered as text (when it was a
/// string; the common `panic!`/`assert!` case).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitPanic {
    /// Index of the failed item in the input vector.
    pub index: usize,
    /// Caller-supplied label for the unit (e.g. a scheduler name).
    pub label: String,
    /// The panic message, or a placeholder for non-string payloads.
    pub message: String,
}

impl std::fmt::Display for UnitPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unit #{} ({}) panicked: {}",
            self.index, self.label, self.message
        )
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Panic-isolating variant of [`parallel_map_owned_threads`]: each
/// labeled unit runs under `catch_unwind`, so one unit blowing up
/// yields an `Err(UnitPanic)` in its own output slot instead of
/// tearing down the whole fan-out — the surviving units' results are
/// still returned in item order and the pool stays usable.
///
/// Each caught panic increments the `parallel.unit_panics` counter.
/// The closure must be unwind-safe in the practical sense: it owns its
/// item, and shared state must stay coherent if a call unwinds.
pub fn parallel_try_map_owned_threads<T, R, F>(
    threads: usize,
    units: Vec<(String, T)>,
    f: F,
) -> Vec<Result<R, UnitPanic>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    parallel_map_owned_threads(
        threads,
        units.into_iter().enumerate().collect(),
        |_, unit| {
            let (index, (label, item)) = unit;
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(index, item))).map_err(
                |payload| {
                    optum_obs::counter!("parallel.unit_panics");
                    UnitPanic {
                        index,
                        label,
                        message: panic_message(payload),
                    }
                },
            )
        },
    )
}

/// Like [`parallel_map_threads`], but consumes the items, so `f` can
/// take ownership (e.g. schedulers that are moved into a simulation
/// run). Results are returned in item order with the same determinism
/// contract.
pub fn parallel_map_owned_threads<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let threads = resolve_threads(threads).min(n.max(1));
    if threads <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    // Park each item in its own slot so workers can move it out.
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    parallel_map_threads(threads, &inputs, |i, slot| {
        let item = slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("each input slot is taken once");
        f(i, item)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = parallel_map_threads(threads, &items, |_, x| x * x + 1);
            assert_eq!(got, serial, "threads={threads}");
        }
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map_threads(4, &empty, |_, x| *x).is_empty());
        assert_eq!(
            parallel_map_threads(4, &[9u32], |i, x| (i, *x)),
            vec![(0, 9)]
        );
    }

    #[test]
    fn index_matches_item() {
        let items: Vec<usize> = (0..100).collect();
        let got = parallel_map_threads(4, &items, |i, x| (i, *x));
        for (i, (idx, val)) in got.into_iter().enumerate() {
            assert_eq!(i, idx);
            assert_eq!(i, val);
        }
    }

    #[test]
    fn resolve_is_literal_unless_zero() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn owned_map_moves_items_and_preserves_order() {
        // A non-Clone item type proves ownership transfer.
        struct Token(usize);
        for threads in [1, 3, 8] {
            let items: Vec<Token> = (0..41).map(Token).collect();
            let got = parallel_map_owned_threads(threads, items, |i, t| {
                assert_eq!(i, t.0);
                t.0 * 2
            });
            assert_eq!(got, (0..41).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn try_map_isolates_unit_panics() {
        for threads in [1, 4] {
            let units: Vec<(String, u32)> = (0..16u32).map(|i| (format!("unit-{i}"), i)).collect();
            let got = parallel_try_map_owned_threads(threads, units, |_, x| {
                if x == 7 {
                    panic!("boom {x}");
                }
                x * 10
            });
            assert_eq!(got.len(), 16, "threads={threads}");
            for (i, r) in got.iter().enumerate() {
                if i == 7 {
                    let e = r.as_ref().unwrap_err();
                    assert_eq!(e.index, 7);
                    assert_eq!(e.label, "unit-7");
                    assert_eq!(e.message, "boom 7");
                    assert!(e.to_string().contains("unit-7"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i as u32 * 10);
                }
            }
            // The pool stays usable after a caught panic.
            let again =
                parallel_try_map_owned_threads(threads, vec![("ok".to_string(), 1u32)], |_, x| x);
            assert_eq!(again, vec![Ok(1)]);
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            parallel_map_threads(4, &items, |_, x| {
                if *x == 17 {
                    panic!("boom");
                }
                *x
            })
        });
        assert!(result.is_err());
    }
}

//! Morsel-driven intra-query parallelism: the order-preserving fan-out
//! primitive the executor's parallel operators are built on.
//!
//! # Model
//!
//! Work is split into fixed-size **morsels** (`MORSEL_ROWS` rows of the
//! input slab). Workers pull morsel indexes from a shared atomic cursor,
//! so a slow morsel never stalls the others, and each worker hands back
//! its results tagged with their morsel index. [`ordered_map`] then
//! returns results **in morsel order**, which is what lets every parallel
//! operator produce byte-identical output to its serial twin: serial
//! execution visits rows in slab order, and concatenating per-morsel
//! outputs in morsel index order recreates exactly that sequence.
//!
//! # Threads
//!
//! A parallel call opens a `std::thread::scope`, spawns its helpers in it
//! and works beside them on the calling thread; the scope joins every
//! helper before the call returns, so morsel closures borrow the caller's
//! stack without any lifetime erasure. A degree of parallelism of 1
//! spawns nothing, and a nested parallel call opens a scope of its own,
//! which cannot deadlock on the one around it.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Rows per morsel. Small enough that a scan over a few tens of
/// thousands of rows still fans out across every worker, large enough
/// that per-morsel bookkeeping (one cursor bump, one tagged result) is
/// noise next to predicate evaluation.
pub const MORSEL_ROWS: usize = 1024;

/// Row-count threshold below which auto mode stays serial: thread
/// handoff costs more than scanning this many rows.
pub const AUTO_PARALLEL_MIN_ROWS: usize = 8192;

/// Upper bound on useful workers for one query: the machine's logical
/// core count, clamped to [2, 8]. Cached — `available_parallelism` can
/// be a syscall.
pub fn max_workers() -> usize {
    static MAX: OnceLock<usize> = OnceLock::new();
    *MAX.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(2, 8)
    })
}

/// Split `0..count` items into `⌈count / morsel⌉` morsels, apply `f` to
/// each morsel's index range on `dop` workers, and return the per-morsel
/// results **in morsel order**.
///
/// Work distribution is dynamic (shared atomic cursor), result order is
/// static (each result carries its morsel index) — parallel output is
/// therefore independent of scheduling and identical to the serial loop.
///
/// The calling thread is one worker; it spawns `min(dop, morsels,
/// max_workers()) - 1` scoped helpers: a pinned `dop` above
/// `max_workers()` still sets how many pieces a caller splits its work
/// into (e.g. hash-join partitions), but never the number of threads. A
/// panic in any morsel is re-raised on the caller with its own payload
/// once every helper has finished.
pub(crate) fn ordered_map<R, F>(dop: usize, count: usize, morsel: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Sync,
{
    let morsel = morsel.max(1);
    let n_morsels = count.div_ceil(morsel);
    if n_morsels <= 1 || dop <= 1 {
        return (0..n_morsels)
            .map(|m| f(m * morsel..((m + 1) * morsel).min(count)))
            .collect();
    }

    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let m = cursor.fetch_add(1, Ordering::Relaxed);
            if m >= n_morsels {
                return done;
            }
            done.push((m, f(m * morsel..((m + 1) * morsel).min(count))));
        }
    };
    let helpers = dop.min(n_morsels).min(max_workers()) - 1;
    let mut done = std::thread::scope(|s| {
        let spawned: Vec<_> = (0..helpers).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for helper in spawned {
            // Re-raising here leaves the other helpers unjoined; the scope
            // still waits for them before the panic leaves it.
            done.extend(helper.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        done
    });
    done.sort_unstable_by_key(|&(m, _)| m);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn ordered_map_preserves_morsel_order() {
        for dop in [1, 2, 4, 8] {
            let got: Vec<Vec<usize>> =
                ordered_map(dop, 1000, 64, |range| range.collect::<Vec<_>>());
            let flat: Vec<usize> = got.into_iter().flatten().collect();
            assert_eq!(flat, (0..1000).collect::<Vec<_>>(), "dop={dop}");
        }
    }

    #[test]
    fn ordered_map_empty_input() {
        let got: Vec<usize> = ordered_map(4, 0, 64, |r| r.len());
        assert!(got.is_empty());
    }

    #[test]
    fn run_scoped_runs_every_worker() {
        let hits = AtomicUsize::new(0);
        ordered_map(4, 4, 1, |_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn worker_panic_propagates_after_join() {
        // Both morsels meet at the barrier, so they run on two threads, and
        // only the helper's morsel panics: the caller must see its message.
        let r = within_a_minute(|| {
            let caller = std::thread::current().id();
            let meet = Barrier::new(2);
            catch_unwind(AssertUnwindSafe(|| {
                ordered_map(4, 2, 1, |r| {
                    meet.wait();
                    if std::thread::current().id() != caller {
                        panic!("boom {}", r.start);
                    }
                })
            }))
            .map_err(|p| p.downcast::<String>().map(|m| *m))
        });
        assert!(r.is_err());
        let msg = r.unwrap_err().expect("the morsel's own panic payload");
        assert!(msg == "boom 0" || msg == "boom 1", "{msg}");
        // ordered_map must still be usable afterwards.
        let hits = AtomicUsize::new(0);
        ordered_map(4, 4, 1, |_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn two_morsels_run_at_the_same_time_at_dop_2() {
        // Each morsel waits for the other, so a serial run never returns.
        let got = within_a_minute(|| {
            let meet = Barrier::new(2);
            ordered_map(2, 2, 1, |r| {
                meet.wait();
                r.start
            })
        });
        assert_eq!(got, [0, 1]);
    }

    #[test]
    fn a_wide_dop_runs_on_at_most_max_workers_threads() {
        // Each morsel sleeps, so every spawned thread gets some of them.
        let threads: HashSet<ThreadId> = ordered_map(64, 64, 1, |_| {
            std::thread::sleep(Duration::from_millis(1));
            std::thread::current().id()
        })
        .into_iter()
        .collect();
        assert!(
            threads.len() <= max_workers(),
            "{} threads, max_workers() = {}",
            threads.len(),
            max_workers()
        );
    }

    #[test]
    fn back_to_back_scopes_never_lose_the_latch_wakeup() {
        // Each two-morsel call builds a latch on its own stack, waits on it
        // and pops it; a helper that signals completion after releasing the
        // latch's lock can touch a latch that is already gone and strand a
        // later waiter. The watchdog turns that hang into a failure.
        const THREADS: usize = 4;
        const CALLS: usize = 5_000;
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for _ in 0..THREADS {
            let done = done_tx.clone();
            std::thread::spawn(move || {
                for i in 0..CALLS {
                    let got = ordered_map(4, 2, 1, |r| r.start + i);
                    assert_eq!(got, [i, i + 1]);
                }
                let _ = done.send(());
            });
        }
        drop(done_tx);
        for _ in 0..THREADS {
            done_rx
                .recv_timeout(std::time::Duration::from_secs(120))
                .expect("a scoped call hung or panicked");
        }
    }

    #[test]
    fn nested_parallel_completes() {
        let total = AtomicUsize::new(0);
        ordered_map(4, 4, 1, |_| {
            // Each inner call opens its own scope beside the outer one.
            let inner: Vec<usize> = ordered_map(4, 256, 16, |r| r.len());
            total.fetch_add(inner.iter().sum::<usize>(), Ordering::SeqCst);
        });
        assert_eq!(total.load(Ordering::SeqCst) % 256, 0);
        assert_eq!(total.load(Ordering::SeqCst), 4 * 256);
    }

    /// Runs `f` on a thread of its own and fails if it does not finish
    /// within a minute: a test whose morsels wait for each other hangs,
    /// rather than fails, when they run one after another.
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("the morsels hung or the watched call panicked")
    }
}

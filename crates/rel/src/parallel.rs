//! Morsel-driven intra-query parallelism: a shared worker pool plus the
//! order-preserving fan-out primitive the executor's parallel operators
//! are built on.
//!
//! # Model
//!
//! Work is split into fixed-size **morsels** (`MORSEL_ROWS` rows of the
//! input slab). Workers pull morsel indexes from a shared atomic cursor,
//! so a slow morsel never stalls the others, and each morsel's result is
//! written into a slot keyed by its index. [`ordered_map`] then returns
//! results **in morsel order**, which is what lets every parallel
//! operator produce byte-identical output to its serial twin: serial
//! execution visits rows in slab order, and concatenating per-morsel
//! outputs in morsel index order recreates exactly that sequence.
//!
//! # Pool
//!
//! One process-wide pool (`pool()`) is spawned lazily on first parallel
//! query and lives for the life of the process. Queries submit
//! lifetime-erased closures to it; a per-call latch makes the submission
//! scoped — `run_scoped` does not return until every task it queued has
//! finished, so borrowing the caller's stack from a task is sound. The
//! calling thread always participates as one worker, which means a
//! degree-of-parallelism of 1 never touches the pool at all, and a
//! nested parallel call from inside a pool worker simply runs inline
//! (`IN_POOL_WORKER`) instead of deadlocking on its own pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Rows per morsel. Small enough that a scan over a few tens of
/// thousands of rows still fans out across every worker, large enough
/// that per-morsel bookkeeping (one slot write, one cursor bump) is
/// noise next to predicate evaluation.
pub const MORSEL_ROWS: usize = 1024;

/// Row-count threshold below which auto mode stays serial: thread
/// handoff costs more than scanning this many rows.
pub const AUTO_PARALLEL_MIN_ROWS: usize = 8192;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared pool of detached worker threads blocking on one `mpsc` channel
/// whose receiver they share behind a mutex.
struct WorkerPool {
    sender: Sender<Job>,
    workers: usize,
}

thread_local! {
    /// Set while this thread is executing a pool job. A nested parallel
    /// call inside a worker degrades to inline serial execution rather
    /// than re-entering the pool (which could deadlock: every worker
    /// waiting on tasks only the blocked workers could run).
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = max_workers().saturating_sub(1).max(1);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        for i in 0..workers {
            let rx = Arc::clone(&receiver);
            std::thread::Builder::new()
                .name(format!("rel-worker-{i}"))
                .spawn(move || {
                    IN_POOL_WORKER.with(|f| f.set(true));
                    loop {
                        // Take the job in a `let` so the receiver's guard
                        // drops before `job()` runs; a `while let` would
                        // hold it across the body and run one job at a time.
                        let next = rx.lock().expect("no job runs under the lock").recv();
                        let Ok(job) = next else {
                            break;
                        };
                        job();
                    }
                })
                .expect("spawn rel worker");
        }
        WorkerPool { sender, workers }
    })
}

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

/// Completion latch: counts outstanding tasks and releases waiters (and
/// carries the first panic payload) when the count reaches zero.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn arrive(&self) {
        let mut n = self.remaining.lock().unwrap();
        *n -= 1;
        if *n == 0 {
            // Notify while still holding the lock: the latch lives on the
            // waiter's stack, and a waiter that could observe zero before
            // this call would return and pop it from under `done`.
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut n = self.remaining.lock().unwrap();
        while *n > 0 {
            n = self.done.wait(n).unwrap();
        }
    }
}

/// Run `task` on `dop` logical workers (the calling thread plus up to
/// `dop - 1` pool threads) and return once all have finished. Each
/// worker invocation receives its worker index `0..dop`.
///
/// `task` typically loops on a shared atomic cursor rather than using
/// the worker index for static partitioning — see [`ordered_map`].
///
/// Panics in any worker are re-raised on the calling thread **after**
/// every worker has finished, so no task is left running with borrows
/// into a unwound stack frame.
fn run_scoped<F>(dop: usize, task: F)
where
    F: Fn(usize) + Send + Sync,
{
    if dop <= 1 || IN_POOL_WORKER.with(|f| f.get()) {
        task(0);
        return;
    }
    let pool = pool();
    let helpers = (dop - 1).min(pool.workers);
    if helpers == 0 {
        task(0);
        return;
    }

    let latch = Latch::new(helpers);
    // Erase the task's stack lifetime so it can cross into the detached
    // pool. Soundness: the latch guard below blocks this frame until
    // every erased closure has run to completion, even if `task(0)`
    // panics on the calling thread, so the borrow never dangles.
    let task_ref: &(dyn Fn(usize) + Send + Sync) = &task;
    let task_static: &'static (dyn Fn(usize) + Send + Sync) =
        unsafe { std::mem::transmute(task_ref) };
    let latch_ref: &'static Latch = unsafe { std::mem::transmute(&latch) };

    struct WaitGuard<'a>(&'a Latch);
    impl Drop for WaitGuard<'_> {
        fn drop(&mut self) {
            self.0.wait();
        }
    }
    let guard = WaitGuard(&latch);

    for w in 1..=helpers {
        let job: Job = Box::new(move || {
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| task_static(w))) {
                let mut slot = latch_ref.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(p);
                }
            }
            latch_ref.arrive();
        });
        if pool.sender.send(job).is_err() {
            // Channel can only close if every worker died; degrade.
            latch.arrive();
        }
    }

    let own = catch_unwind(AssertUnwindSafe(|| task_static(0)));
    drop(guard); // blocks until all helpers have arrived
    if let Err(p) = own {
        std::panic::resume_unwind(p);
    }
    let helper_panic = latch.panic.lock().unwrap().take();
    if let Some(p) = helper_panic {
        std::panic::resume_unwind(p);
    }
}

/// Split `0..count` items into `⌈count / morsel⌉` morsels, apply `f` to
/// each morsel's index range on `dop` workers, and return the per-morsel
/// results **in morsel order**.
///
/// Work distribution is dynamic (shared atomic cursor), result order is
/// static (slot per morsel) — parallel output is therefore independent
/// of scheduling and identical to the serial loop.
pub fn ordered_map<R, F>(dop: usize, count: usize, morsel: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(std::ops::Range<usize>) -> R + Send + Sync,
{
    let morsel = morsel.max(1);
    let n_morsels = count.div_ceil(morsel);
    if n_morsels <= 1 || dop <= 1 {
        return (0..n_morsels)
            .map(|m| f(m * morsel..((m + 1) * morsel).min(count)))
            .collect();
    }

    let mut slots: Vec<Option<R>> = Vec::with_capacity(n_morsels);
    slots.resize_with(n_morsels, || None);
    let slots = Mutex::new(&mut slots);
    let cursor = AtomicUsize::new(0);

    run_scoped(dop.min(n_morsels), |_| loop {
        let m = cursor.fetch_add(1, Ordering::Relaxed);
        if m >= n_morsels {
            break;
        }
        let r = f(m * morsel..((m + 1) * morsel).min(count));
        slots.lock().unwrap()[m] = Some(r);
    });

    slots
        .into_inner()
        .unwrap()
        .drain(..)
        .map(|s| s.expect("morsel slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        run_scoped(4, |_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4.min(1 + pool().workers));
    }

    #[test]
    fn worker_panic_propagates_after_join() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            run_scoped(4, |w| {
                if w == 1 || w == 0 {
                    panic!("boom {w}");
                }
            })
        }));
        assert!(r.is_err());
        // Pool must still be usable afterwards.
        let hits = AtomicUsize::new(0);
        run_scoped(4, |_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.load(Ordering::SeqCst) >= 1);
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
    fn nested_parallel_degrades_inline() {
        let total = AtomicUsize::new(0);
        run_scoped(4, |_| {
            // Inner call must not deadlock waiting for pool workers that
            // are all busy running this very closure.
            let inner: Vec<usize> = ordered_map(4, 256, 16, |r| r.len());
            total.fetch_add(inner.iter().sum::<usize>(), Ordering::SeqCst);
        });
        assert_eq!(total.load(Ordering::SeqCst) % 256, 0);
    }
}

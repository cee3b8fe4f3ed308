//! Minimal API-compatible stand-in for `parking_lot` 0.12.
//!
//! Provides the exact surface this workspace uses: `Mutex` (non-poisoning
//! `lock`), `RwLock` with borrowed and `Arc`-owned guards, and the
//! `lock_api::{ArcRwLockReadGuard, ArcRwLockWriteGuard}` guard types. The
//! rwlock is a genuine readers/writer lock built on a `std` mutex +
//! condvar state machine — readers run in parallel, writers exclude.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

/// Non-poisoning mutex: a panic while holding the lock does not wedge
/// later callers (poison is folded away, as parking_lot does).
pub struct Mutex<T: ?Sized> {
    inner: StdMutex<T>,
}

pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex {
            inner: StdMutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// Raw readers/writer state machine shared by borrowed and owned guards.
pub struct RawRwLock {
    state: StdMutex<LockState>,
    cond: Condvar,
}

/// Changed only under `RawRwLock::state`. A thread counts itself in
/// `waiters` before it parks on the condvar and out after it wakes, so an
/// unlock that sees `waiters == 0` has nobody to wake and skips the
/// `notify_all` (a futex syscall even with no one waiting).
#[derive(Default)]
struct LockState {
    readers: usize,
    writer: bool,
    waiters: usize,
}

impl RawRwLock {
    fn new() -> Self {
        RawRwLock {
            state: StdMutex::new(LockState::default()),
            cond: Condvar::new(),
        }
    }

    /// Park on the condvar, counted in `waiters` while parked.
    fn park<'a>(
        &self,
        mut s: std::sync::MutexGuard<'a, LockState>,
    ) -> std::sync::MutexGuard<'a, LockState> {
        s.waiters += 1;
        s = self.cond.wait(s).unwrap_or_else(|p| p.into_inner());
        s.waiters -= 1;
        s
    }

    fn lock_shared(&self) {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        while s.writer {
            s = self.park(s);
        }
        s.readers += 1;
    }

    fn unlock_shared(&self) {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        s.readers -= 1;
        if s.readers == 0 && s.waiters > 0 {
            self.cond.notify_all();
        }
    }

    fn lock_exclusive(&self) {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        while s.writer || s.readers > 0 {
            s = self.park(s);
        }
        s.writer = true;
    }

    fn try_lock_exclusive(&self) -> bool {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if s.writer || s.readers > 0 {
            false
        } else {
            s.writer = true;
            true
        }
    }

    fn unlock_exclusive(&self) {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        s.writer = false;
        if s.waiters > 0 {
            self.cond.notify_all();
        }
    }
}

/// Readers/writer lock with parking_lot's (non-poisoning) API.
pub struct RwLock<T: ?Sized> {
    raw: RawRwLock,
    data: UnsafeCell<T>,
}

unsafe impl<T: ?Sized + Send> Send for RwLock<T> {}
unsafe impl<T: ?Sized + Send + Sync> Sync for RwLock<T> {}

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        RwLock {
            raw: RawRwLock::new(),
            data: UnsafeCell::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.raw.lock_shared();
        RwLockReadGuard { lock: self }
    }

    /// Shared lock safe to take while the same thread already holds a
    /// shared lock (parking_lot's `read_recursive`). This shim's readers
    /// never wait behind a *queued* writer — `lock_shared` only blocks
    /// while a writer holds the lock — so plain `read` already has the
    /// required no-deadlock property and this is an alias for intent.
    pub fn read_recursive(&self) -> RwLockReadGuard<'_, T> {
        self.read()
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.raw.lock_exclusive();
        RwLockWriteGuard { lock: self }
    }

    /// Exclusive lock without blocking: `None` if any reader or writer
    /// holds the lock (parking_lot's `try_write`).
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        if self.raw.try_lock_exclusive() {
            Some(RwLockWriteGuard { lock: self })
        } else {
            None
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// Owned read guard holding the `Arc` alive (parking_lot `arc_lock`).
    pub fn read_arc(self: &Arc<Self>) -> lock_api::ArcRwLockReadGuard<RawRwLock, T>
    where
        T: Sized,
    {
        self.raw.lock_shared();
        lock_api::ArcRwLockReadGuard {
            lock: Arc::clone(self),
            _raw: std::marker::PhantomData,
        }
    }

    /// Owned write guard holding the `Arc` alive (parking_lot `arc_lock`).
    pub fn write_arc(self: &Arc<Self>) -> lock_api::ArcRwLockWriteGuard<RawRwLock, T>
    where
        T: Sized,
    {
        self.raw.lock_exclusive();
        lock_api::ArcRwLockWriteGuard {
            lock: Arc::clone(self),
            _raw: std::marker::PhantomData,
        }
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.raw.unlock_shared();
    }
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.raw.unlock_exclusive();
    }
}

pub mod lock_api {
    //! Owned (`Arc`-holding) guard types, named as in `lock_api`.

    use super::RwLock;
    use std::marker::PhantomData;
    use std::ops::{Deref, DerefMut};
    use std::sync::Arc;

    /// Owned read guard; the `R` parameter mirrors `lock_api`'s raw-lock
    /// generic and is fixed to [`RawRwLock`] in practice.
    pub struct ArcRwLockReadGuard<R, T> {
        pub(crate) lock: Arc<RwLock<T>>,
        pub(crate) _raw: PhantomData<R>,
    }

    impl<R, T> Deref for ArcRwLockReadGuard<R, T> {
        type Target = T;
        fn deref(&self) -> &T {
            unsafe { &*self.lock.data.get() }
        }
    }

    impl<R, T> Drop for ArcRwLockReadGuard<R, T> {
        fn drop(&mut self) {
            self.lock.raw.unlock_shared();
        }
    }

    /// Owned write guard (see [`ArcRwLockReadGuard`]).
    pub struct ArcRwLockWriteGuard<R, T> {
        pub(crate) lock: Arc<RwLock<T>>,
        pub(crate) _raw: PhantomData<R>,
    }

    impl<R, T> Deref for ArcRwLockWriteGuard<R, T> {
        type Target = T;
        fn deref(&self) -> &T {
            unsafe { &*self.lock.data.get() }
        }
    }

    impl<R, T> DerefMut for ArcRwLockWriteGuard<R, T> {
        fn deref_mut(&mut self) -> &mut T {
            unsafe { &mut *self.lock.data.get() }
        }
    }

    impl<R, T> Drop for ArcRwLockWriteGuard<R, T> {
        fn drop(&mut self) {
            self.lock.raw.unlock_exclusive();
        }
    }

    // The raw lock is shared state behind Arc; guards are usable across
    // threads exactly when the protected data allows it.
    unsafe impl<R, T: Send + Sync> Send for ArcRwLockReadGuard<R, T> {}
    unsafe impl<R, T: Send + Sync> Sync for ArcRwLockReadGuard<R, T> {}
    unsafe impl<R, T: Send + Sync> Send for ArcRwLockWriteGuard<R, T> {}
    unsafe impl<R, T: Send + Sync> Sync for ArcRwLockWriteGuard<R, T> {}

    #[allow(unused_imports)]
    pub(crate) use super::RawRwLock as _Raw;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rwlock_parallel_readers_exclusive_writer() {
        let lock = Arc::new(RwLock::new(0i64));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let lock = Arc::clone(&lock);
                s.spawn(move || {
                    for _ in 0..1000 {
                        let mut w = lock.write();
                        *w += 1;
                    }
                });
            }
            for _ in 0..4 {
                let lock = Arc::clone(&lock);
                s.spawn(move || {
                    for _ in 0..1000 {
                        let r = lock.read();
                        assert!(*r >= 0);
                    }
                });
            }
        });
        assert_eq!(*lock.read(), 4000);
    }

    #[test]
    fn arc_guards_hold_the_lock() {
        let lock = Arc::new(RwLock::new(String::from("x")));
        let g = lock.read_arc();
        let g2 = lock.read_arc();
        assert_eq!(&*g, "x");
        assert_eq!(&*g2, "x");
        drop((g, g2));
        let mut w = lock.write_arc();
        w.push('y');
        drop(w);
        assert_eq!(&*lock.read(), "xy");
    }

    /// Block until `n` threads are parked on `lock`'s condvar.
    fn wait_parked<T>(lock: &RwLock<T>, n: usize) {
        while lock.raw.state.lock().unwrap().waiters < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn parked_writer_and_reader_both_wake() {
        // Unlock notifies only when a waiter is recorded, so a parked thread
        // that was not counted would sleep forever: run the scenario on its
        // own thread and fail if it has not finished within 10 s.
        let (done, finished) = std::sync::mpsc::channel();
        let scenario = std::thread::spawn(move || {
            let lock = Arc::new(RwLock::new(0i64));
            // A writer parked behind two readers wakes when the last leaves.
            let (r1, r2) = (lock.read_arc(), lock.read_arc());
            let writer = {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || *lock.write() += 1)
            };
            wait_parked(&lock, 1);
            drop(r1);
            drop(r2);
            writer.join().unwrap();
            // A reader parked behind a writer wakes when the writer leaves.
            let mut w = lock.write_arc();
            let reader = {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || *lock.read())
            };
            wait_parked(&lock, 1);
            *w += 1;
            drop(w);
            done.send(reader.join().unwrap()).unwrap();
        });
        let seen = finished
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a parked thread never woke");
        scenario.join().unwrap();
        assert_eq!(seen, 2);
    }

    #[test]
    fn mutex_survives_contention() {
        let m = Mutex::new(0usize);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..500 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 4000);
    }
}

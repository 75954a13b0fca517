//! Offline stand-in for the `parking_lot` crate, backed by `std::sync`.
//!
//! The build container has no access to a crate registry, so the workspace
//! vendors the *subset* of the `parking_lot` API it actually uses:
//! [`Mutex`] / [`MutexGuard`] with panic-free (non-poisoning) locking, and
//! [`Condvar::wait`] / [`Condvar::notify_one`]. Semantics match
//! the real crate for this subset; performance characteristics are those of
//! `std::sync`, which is irrelevant here because all *timing* in the
//! simulator is virtual.
//!
//! ```
//! let m = parking_lot::Mutex::new(1);
//! *m.lock() += 1;
//! assert_eq!(*m.lock(), 2);
//! ```

use std::ops::{Deref, DerefMut};

/// A mutual-exclusion lock. Unlike `std::sync::Mutex`, locking never
/// returns a poison error: a panic while holding the lock simply releases
/// it.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Create a mutex protecting `value`.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consume the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(|e| e.into_inner())))
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// RAII guard returned by [`Mutex::lock`]; releases the lock on drop.
///
/// The inner `Option` exists so [`Condvar::wait`] can temporarily move
/// the underlying std guard out while waiting; it is `Some` at all times
/// outside that window.
pub struct MutexGuard<'a, T: ?Sized>(Option<std::sync::MutexGuard<'a, T>>);

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard invariant")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard invariant")
    }
}

/// A condition variable paired with a [`Mutex`].
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Create a condition variable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Atomically release the guard's lock and wait until notified, reacquiring the lock before returning. Like the
    /// real `parking_lot`, spurious wakeups are possible — callers must
    /// re-check their predicate in a loop.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard invariant");
        let inner = self.0.wait(inner).unwrap_or_else(|e| e.into_inner());
        guard.0 = Some(inner);
    }

    /// Wake one thread blocked on this condition variable.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(vec![1, 2]);
        m.lock().push(3);
        assert_eq!(*m.lock(), vec![1, 2, 3]);
        assert_eq!(m.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn wait_wakes_on_notify() {
        let m = Arc::new(Mutex::new(false));
        let c = Arc::new(Condvar::new());
        let (m2, c2) = (Arc::clone(&m), Arc::clone(&c));
        let h = std::thread::spawn(move || {
            let mut g = m2.lock();
            while !*g {
                c2.wait(&mut g);
            }
        });
        *m.lock() = true;
        c.notify_one();
        h.join().unwrap();
    }
}

//! Counting semaphore used to model finite device resources (copy engines,
//! concurrent-kernel slots).

use parking_lot::{Condvar, Mutex};

/// A simple blocking counting semaphore.
pub struct Semaphore {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl Semaphore {
    /// Creates a semaphore with `permits` initial permits.
    pub fn new(permits: usize) -> Semaphore {
        Semaphore {
            permits: Mutex::new(permits),
            cv: Condvar::new(),
        }
    }

    /// Blocks until a permit is available, then takes it. The returned
    /// guard releases the permit on drop.
    pub fn acquire(&self) -> SemaphoreGuard<'_> {
        let mut p = self.permits.lock();
        while *p == 0 {
            self.cv.wait(&mut p);
        }
        *p -= 1;
        SemaphoreGuard { sem: self }
    }

    /// Currently available permits.
    pub fn available(&self) -> usize {
        *self.permits.lock()
    }

    /// Blocking acquire through an `Arc`, returning a permit that is not
    /// lifetime-bound to the semaphore — it can be stored in long-lived
    /// structures (e.g. attached to an in-flight tile) and releases on
    /// drop.
    pub fn acquire_owned(self: &std::sync::Arc<Self>) -> OwnedPermit {
        let mut p = self.permits.lock();
        while *p == 0 {
            self.cv.wait(&mut p);
        }
        *p -= 1;
        drop(p);
        OwnedPermit {
            sem: std::sync::Arc::clone(self),
        }
    }

    fn release(&self) {
        *self.permits.lock() += 1;
        self.cv.notify_one();
    }
}

/// RAII permit; see [`Semaphore::acquire`].
pub struct SemaphoreGuard<'a> {
    sem: &'a Semaphore,
}

impl Drop for SemaphoreGuard<'_> {
    fn drop(&mut self) {
        self.sem.release();
    }
}

/// Owned RAII permit; see [`Semaphore::acquire_owned`].
pub struct OwnedPermit {
    sem: std::sync::Arc<Semaphore>,
}

impl Drop for OwnedPermit {
    fn drop(&mut self) {
        self.sem.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn acquire_release() {
        let s = Semaphore::new(2);
        let g1 = s.acquire();
        let g2 = s.acquire();
        assert_eq!(s.available(), 0);
        drop(g1);
        assert_eq!(s.available(), 1);
        drop(g2);
        assert_eq!(s.available(), 2);
    }

    #[test]
    fn limits_concurrency() {
        let s = Arc::new(Semaphore::new(3));
        let peak = Arc::new(Mutex::new((0usize, 0usize))); // (current, max)
        let mut hs = Vec::new();
        for _ in 0..12 {
            let s = Arc::clone(&s);
            let peak = Arc::clone(&peak);
            hs.push(thread::spawn(move || {
                let _g = s.acquire();
                {
                    let mut p = peak.lock();
                    p.0 += 1;
                    p.1 = p.1.max(p.0);
                }
                thread::sleep(std::time::Duration::from_millis(5));
                peak.lock().0 -= 1;
            }));
        }
        for h in hs {
            h.join().unwrap();
        }
        assert!(peak.lock().1 <= 3);
    }
}

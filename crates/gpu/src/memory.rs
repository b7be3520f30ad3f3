//! Device memory: buffers, accounting, and the fixed-size buffer pool.
//!
//! The simulated device enforces the same discipline a real 6 GB Tesla
//! forces on the paper's implementation (§IV-B): allocation against a hard
//! capacity, a pre-allocated pool of transform-sized buffers ("allocates
//! GPU memory only once to avoid ... a global synchronization"), and
//! recycling when a tile's reference count reaches zero.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// Error returned when an allocation would exceed device capacity.
#[derive(Debug, Clone, Copy)]
pub struct OutOfDeviceMemory {
    /// Bytes requested.
    pub requested: usize,
    /// Bytes free at the time of the request.
    pub available: usize,
}

impl fmt::Display for OutOfDeviceMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of device memory: requested {} B, {} B available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfDeviceMemory {}

/// Shared memory-accounting ledger for one device.
pub(crate) struct MemoryLedger {
    pub(crate) capacity: usize,
    pub(crate) used: AtomicUsize,
}

impl MemoryLedger {
    pub(crate) fn new(capacity: usize) -> MemoryLedger {
        MemoryLedger {
            capacity,
            used: AtomicUsize::new(0),
        }
    }

    fn reserve(&self, bytes: usize) -> Result<(), OutOfDeviceMemory> {
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let avail = self.capacity.saturating_sub(cur);
            if bytes > avail {
                return Err(OutOfDeviceMemory {
                    requested: bytes,
                    available: avail,
                });
            }
            match self.used.compare_exchange_weak(
                cur,
                cur + bytes,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => cur = actual,
            }
        }
    }

    fn release(&self, bytes: usize) {
        self.used.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// RAII record of one allocation against a ledger.
struct Allocation {
    ledger: Arc<MemoryLedger>,
    bytes: usize,
}

impl Drop for Allocation {
    fn drop(&mut self) {
        self.ledger.release(self.bytes);
    }
}

/// Capability token proving code is running inside a device command (a
/// kernel body or an internal copy). [`DeviceBuffer::map`] demands one, so
/// host code can never touch device memory directly — data moves only via
/// stream copies, exactly the constraint the paper's pipeline is built
/// around.
pub struct KernelToken {
    _private: (),
}

impl KernelToken {
    pub(crate) fn new() -> KernelToken {
        KernelToken { _private: () }
    }
}

/// A typed buffer resident in (simulated) device memory. Cloning yields a
/// second handle to the *same* memory, like copying a device pointer.
pub struct DeviceBuffer<T> {
    data: Arc<Mutex<Vec<T>>>,
    len: usize,
    _alloc: Arc<Allocation>,
}

impl<T> Clone for DeviceBuffer<T> {
    fn clone(&self) -> Self {
        DeviceBuffer {
            data: Arc::clone(&self.data),
            len: self.len,
            _alloc: Arc::clone(&self._alloc),
        }
    }
}

impl<T: Default + Clone> DeviceBuffer<T> {
    pub(crate) fn alloc(
        ledger: &Arc<MemoryLedger>,
        len: usize,
    ) -> Result<DeviceBuffer<T>, OutOfDeviceMemory> {
        let bytes = len * std::mem::size_of::<T>();
        ledger.reserve(bytes)?;
        Ok(DeviceBuffer {
            data: Arc::new(Mutex::new(vec![T::default(); len])),
            len,
            _alloc: Arc::new(Allocation {
                ledger: Arc::clone(ledger),
                bytes,
            }),
        })
    }
}

impl<T> DeviceBuffer<T> {
    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for zero-length buffers.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Byte size of the underlying device allocation.
    pub fn byte_size(&self) -> usize {
        self.len * std::mem::size_of::<T>()
    }

    /// Accesses the buffer contents. Only callable from inside a device
    /// command, witnessed by the [`KernelToken`].
    pub fn map<R>(&self, _token: &KernelToken, f: impl FnOnce(&mut [T]) -> R) -> R {
        f(&mut self.data.lock())
    }
}

struct PoolInner<T> {
    free: Mutex<Vec<DeviceBuffer<T>>>,
    cv: Condvar,
    total: usize,
    buf_len: usize,
}

/// A fixed pool of same-sized device buffers (paper §IV-B: "The pool
/// consists of a fixed number of buffers, one per transform ... The size
/// of the pool effectively limits the number of images in flight").
/// Acquisition blocks when the pool is dry, which is the back-pressure
/// that keeps the pipeline inside GPU memory.
pub struct BufferPool<T> {
    inner: Arc<PoolInner<T>>,
}

impl<T> Clone for BufferPool<T> {
    fn clone(&self) -> Self {
        BufferPool {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Default + Clone> BufferPool<T> {
    pub(crate) fn create(
        ledger: &Arc<MemoryLedger>,
        buf_len: usize,
        count: usize,
    ) -> Result<BufferPool<T>, OutOfDeviceMemory> {
        let mut free = Vec::with_capacity(count);
        for _ in 0..count {
            free.push(DeviceBuffer::alloc(ledger, buf_len)?);
        }
        Ok(BufferPool {
            inner: Arc::new(PoolInner {
                free: Mutex::new(free),
                cv: Condvar::new(),
                total: count,
                buf_len,
            }),
        })
    }
}

impl<T> BufferPool<T> {
    /// Blocks until a buffer is free, then leases it. The lease returns to
    /// the pool on drop.
    pub fn acquire(&self) -> PooledBuffer<T> {
        let mut free = self.inner.free.lock();
        while free.is_empty() {
            self.inner.cv.wait(&mut free);
        }
        let buf = free.pop().unwrap();
        PooledBuffer {
            buf: Some(buf),
            pool: Arc::clone(&self.inner),
        }
    }

    /// Buffers currently free.
    pub fn available(&self) -> usize {
        self.inner.free.lock().len()
    }

    /// Pool size.
    pub fn total(&self) -> usize {
        self.inner.total
    }

    /// Per-buffer element count.
    pub fn buf_len(&self) -> usize {
        self.inner.buf_len
    }
}

/// A leased pool buffer; dereferences to its [`DeviceBuffer`] and returns
/// to the pool when dropped.
pub struct PooledBuffer<T> {
    buf: Option<DeviceBuffer<T>>,
    pool: Arc<PoolInner<T>>,
}

impl<T> PooledBuffer<T> {
    /// The leased device buffer.
    pub fn buffer(&self) -> &DeviceBuffer<T> {
        self.buf.as_ref().expect("buffer present until drop")
    }
}

impl<T> std::ops::Deref for PooledBuffer<T> {
    type Target = DeviceBuffer<T>;
    fn deref(&self) -> &DeviceBuffer<T> {
        self.buffer()
    }
}

impl<T> Drop for PooledBuffer<T> {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.pool.free.lock().push(buf);
            self.pool.cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    fn ledger(cap: usize) -> Arc<MemoryLedger> {
        Arc::new(MemoryLedger::new(cap))
    }

    #[test]
    fn allocation_accounting() {
        let l = ledger(1024);
        let a: DeviceBuffer<u64> = DeviceBuffer::alloc(&l, 64).unwrap(); // 512 B
        assert_eq!(l.used.load(Ordering::Relaxed), 512);
        let b: DeviceBuffer<u8> = DeviceBuffer::alloc(&l, 512).unwrap();
        assert_eq!(l.used.load(Ordering::Relaxed), 1024);
        let err = match DeviceBuffer::<u8>::alloc(&l, 1) {
            Err(e) => e,
            Ok(_) => panic!("allocation should have failed"),
        };
        assert_eq!(err.available, 0);
        drop(a);
        assert_eq!(l.used.load(Ordering::Relaxed), 512);
        drop(b);
        assert_eq!(l.used.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn clone_shares_allocation() {
        let l = ledger(1000);
        let a: DeviceBuffer<u8> = DeviceBuffer::alloc(&l, 100).unwrap();
        let b = a.clone();
        assert_eq!(l.used.load(Ordering::Relaxed), 100);
        drop(a);
        assert_eq!(l.used.load(Ordering::Relaxed), 100, "clone keeps it alive");
        drop(b);
        assert_eq!(l.used.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn map_through_token_round_trips() {
        let l = ledger(1000);
        let buf: DeviceBuffer<u16> = DeviceBuffer::alloc(&l, 8).unwrap();
        let token = KernelToken::new();
        buf.map(&token, |d| d[3] = 99);
        assert_eq!(buf.map(&token, |d| d[3]), 99);
    }

    #[test]
    fn pool_blocks_until_release() {
        let l = ledger(1 << 20);
        let pool: BufferPool<u8> = BufferPool::create(&l, 16, 2).unwrap();
        let a = pool.acquire();
        let _b = pool.acquire();
        assert_eq!(pool.available(), 0);
        let pool2 = pool.clone();
        let h = thread::spawn(move || {
            let _c = pool2.acquire(); // blocks until `a` drops
            true
        });
        thread::sleep(Duration::from_millis(20));
        drop(a);
        assert!(h.join().unwrap());
    }

    #[test]
    fn pool_respects_capacity() {
        let l = ledger(100);
        // 3 × 40 B exceeds the 100 B device
        assert!(BufferPool::<u8>::create(&l, 40, 3).is_err());
        assert!(BufferPool::<u8>::create(&l, 40, 2).is_ok());
    }

    #[test]
    fn pooled_buffer_returns_on_drop() {
        let l = ledger(1 << 20);
        let pool: BufferPool<u8> = BufferPool::create(&l, 16, 3).unwrap();
        {
            let _a = pool.acquire();
            let _b = pool.acquire();
            assert_eq!(pool.available(), 1);
        }
        assert_eq!(pool.available(), 3);
    }
}

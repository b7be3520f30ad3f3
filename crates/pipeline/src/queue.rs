//! Bounded blocking MPMC queue with monitor semantics.
//!
//! The paper's pipeline (§IV-B) connects its stages with queues that "have
//! monitor implementations to prevent race conditions". This is that
//! structure: a mutex-protected ring with two condition variables, a
//! capacity bound (back-pressure keeps the working set inside memory
//! limits), and writer-counted auto-close so a stage's consumers finish
//! cleanly when every producer is done.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    writers: usize,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    // metrics
    pushed: AtomicU64,
    popped: AtomicU64,
    high_water: AtomicU64,
    producer_block_nanos: AtomicU64,
    consumer_block_nanos: AtomicU64,
}

/// A bounded blocking queue shared between pipeline stages. Cloning is
/// cheap (it is an `Arc` handle); all clones see the same queue.
pub struct Queue<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Queue<T> {
    fn clone(&self) -> Self {
        Queue {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Queue<T> {
    /// Creates a queue holding at most `capacity` items (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Queue<T> {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        Queue {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    items: VecDeque::with_capacity(capacity),
                    closed: false,
                    writers: 0,
                }),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
                capacity,
                pushed: AtomicU64::new(0),
                popped: AtomicU64::new(0),
                high_water: AtomicU64::new(0),
                producer_block_nanos: AtomicU64::new(0),
                consumer_block_nanos: AtomicU64::new(0),
            }),
        }
    }

    /// Registers a producer. The queue closes automatically once every
    /// writer has been dropped (and stays closed).
    pub fn writer(&self) -> QueueWriter<T> {
        self.inner.state.lock().writers += 1;
        QueueWriter {
            queue: self.clone(),
        }
    }

    /// Blocking push. Returns `false` (dropping `item`) if the queue was
    /// closed before space became available.
    pub fn push(&self, item: T) -> bool {
        let t0 = Instant::now();
        let mut st = self.inner.state.lock();
        while st.items.len() >= self.inner.capacity && !st.closed {
            self.inner.not_full.wait(&mut st);
        }
        if st.closed {
            return false;
        }
        st.items.push_back(item);
        let len = st.items.len() as u64;
        drop(st);
        self.inner.pushed.fetch_add(1, Ordering::Relaxed);
        self.inner.high_water.fetch_max(len, Ordering::Relaxed);
        // Block time is charged only for calls that delivered an item (a
        // push refused by a closed queue records nothing); see the
        // `QueueMetrics` field docs for the exact counter semantics.
        self.inner
            .producer_block_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.inner.not_empty.notify_one();
        true
    }

    /// Blocking pop. Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let t0 = Instant::now();
        let mut st = self.inner.state.lock();
        while st.items.is_empty() && !st.closed {
            self.inner.not_empty.wait(&mut st);
        }
        let item = st.items.pop_front();
        drop(st);
        if item.is_some() {
            self.inner.popped.fetch_add(1, Ordering::Relaxed);
            self.inner.not_full.notify_one();
            // Mirror of `push`: block time is charged only when the call
            // delivered an item. The final `None` a consumer sees after
            // close is shutdown, not contention, and must not inflate
            // `consumer_block_nanos`.
            self.inner
                .consumer_block_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        item
    }

    /// Closes the queue: producers fail fast, consumers drain what's left.
    /// Idempotent.
    pub fn close(&self) {
        let mut st = self.inner.state.lock();
        st.closed = true;
        drop(st);
        self.inner.not_empty.notify_all();
        self.inner.not_full.notify_all();
    }

    /// Poison-close: closes the queue *and drops the items parked in
    /// it*, so blocked producers and consumers return at once and
    /// whatever the items held (pool permits, device buffers) is
    /// released. The pipeline's abort path; idempotent.
    pub fn abort(&self) {
        let mut st = self.inner.state.lock();
        st.closed = true;
        let parked = std::mem::take(&mut st.items);
        drop(st);
        self.inner.not_empty.notify_all();
        self.inner.not_full.notify_all();
        // outside the lock: an item's drop may take other locks
        drop(parked);
    }

    /// Current item count.
    pub fn len(&self) -> usize {
        self.inner.state.lock().items.len()
    }

    /// True when no items are queued (the queue may still be open).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity bound.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Lifetime counters for observability.
    pub fn metrics(&self) -> QueueMetrics {
        QueueMetrics {
            pushed: self.inner.pushed.load(Ordering::Relaxed),
            popped: self.inner.popped.load(Ordering::Relaxed),
            high_water: self.inner.high_water.load(Ordering::Relaxed) as usize,
            producer_block_nanos: self.inner.producer_block_nanos.load(Ordering::Relaxed),
            consumer_block_nanos: self.inner.consumer_block_nanos.load(Ordering::Relaxed),
        }
    }

    /// Snapshots this queue's [`QueueMetrics`] into `trace` as a
    /// [`stitch_trace::QueueStat`] named `name` (conventionally
    /// `"<consumer stage>.in"`). No-op for a disabled trace.
    pub fn record_to_trace(&self, trace: &stitch_trace::TraceHandle, name: &str) {
        let m = self.metrics();
        trace.record_queue(stitch_trace::QueueStat {
            name: name.to_string(),
            capacity: self.capacity(),
            pushed: m.pushed,
            popped: m.popped,
            high_water: m.high_water,
            producer_block_ns: m.producer_block_nanos,
            consumer_block_ns: m.consumer_block_nanos,
        });
    }

    fn drop_writer(&self) {
        let mut st = self.inner.state.lock();
        st.writers -= 1;
        if st.writers == 0 {
            st.closed = true;
            drop(st);
            self.inner.not_empty.notify_all();
            self.inner.not_full.notify_all();
        }
    }
}

/// RAII producer handle; see [`Queue::writer`].
pub struct QueueWriter<T> {
    queue: Queue<T>,
}

impl<T> QueueWriter<T> {
    /// Blocking push through this writer. See [`Queue::push`].
    pub fn push(&self, item: T) -> bool {
        self.queue.push(item)
    }

    /// The queue this writer feeds.
    pub fn queue(&self) -> &Queue<T> {
        &self.queue
    }
}

impl<T> Clone for QueueWriter<T> {
    fn clone(&self) -> Self {
        self.queue.writer()
    }
}

impl<T> Drop for QueueWriter<T> {
    fn drop(&mut self) {
        self.queue.drop_writer();
    }
}

/// Snapshot of a queue's lifetime counters.
///
/// Traffic counters (`pushed`, `popped`, `high_water`) advance on every
/// *successful* operation, and the block-time counters are charged only
/// by *calls that succeeded* — a push refused by a closed queue charges
/// nothing, and the final `None` a consumer sees after close charges
/// nothing (shutdown is not contention).
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueMetrics {
    /// Items successfully enqueued.
    pub pushed: u64,
    /// Items successfully dequeued. Pops that returned `None` are not
    /// counted.
    pub popped: u64,
    /// Maximum queue depth observed immediately after any push.
    pub high_water: usize,
    /// Total wall time spent inside successful blocking `push` calls
    /// (lock acquisition plus waiting for space; dominated by the wait on
    /// a full queue).
    pub producer_block_nanos: u64,
    /// Total wall time spent inside blocking `pop` calls that delivered an
    /// item (lock acquisition plus waiting for data; dominated by the wait
    /// on an empty queue).
    pub consumer_block_nanos: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn fifo_order_single_thread() {
        let q = Queue::new(8);
        for i in 0..5 {
            assert!(q.push(i));
        }
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn close_drains_then_none() {
        let q = Queue::new(4);
        q.push(1);
        q.push(2);
        q.close();
        assert!(!q.push(3), "push after close must fail");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn writer_drop_closes() {
        let q: Queue<u32> = Queue::new(4);
        let w1 = q.writer();
        let w2 = w1.clone();
        let is_closed = || q.inner.state.lock().closed;
        assert!(!is_closed());
        drop(w1);
        assert!(!is_closed());
        w2.push(9);
        drop(w2);
        assert!(is_closed());
        assert_eq!(q.pop(), Some(9));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn backpressure_blocks_producer() {
        let q = Queue::new(2);
        q.push(0);
        q.push(1);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.push(2)); // blocks until a pop
        thread::sleep(Duration::from_millis(30));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(0));
        assert!(h.join().unwrap());
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn mpmc_no_loss_no_dupes() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 3;
        const PER: usize = 500;
        let q: Queue<usize> = Queue::new(16);
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let w = q.writer();
            handles.push(thread::spawn(move || {
                for i in 0..PER {
                    assert!(w.push(p * PER + i));
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..CONSUMERS {
            let q = q.clone();
            consumers.push(thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..PRODUCERS * PER).collect::<Vec<_>>());
    }

    #[test]
    fn per_producer_order_preserved() {
        // the consumer must run concurrently: 600 items never fit in a
        // capacity-4 queue, so producers rely on it draining
        let q: Queue<(usize, usize)> = Queue::new(4);
        let consumer = {
            let q = q.clone();
            thread::spawn(move || {
                let mut last = [0usize; 3];
                let mut counts = [0usize; 3];
                while let Some((p, i)) = q.pop() {
                    if counts[p] > 0 {
                        assert!(i > last[p], "producer {p} order violated");
                    }
                    last[p] = i;
                    counts[p] += 1;
                }
                counts
            })
        };
        let mut handles = Vec::new();
        for p in 0..3 {
            let w = q.writer();
            handles.push(thread::spawn(move || {
                for i in 0..200 {
                    assert!(w.push((p, i)));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // all writers dropped → queue auto-closes → consumer drains out
        assert_eq!(consumer.join().unwrap(), [200, 200, 200]);
    }

    #[test]
    fn metrics_track_traffic() {
        let q = Queue::new(4);
        q.push(1);
        q.push(2);
        q.pop();
        let m = q.metrics();
        assert_eq!(m.pushed, 2);
        assert_eq!(m.popped, 1);
        assert_eq!(m.high_water, 2);
    }

    #[test]
    fn metrics_final_none_charges_nothing() {
        let q = Queue::new(4);
        q.push(1);
        q.close();
        assert_eq!(q.pop(), Some(1));
        let before = q.metrics();
        // Drained + closed: repeated pops return None and must leave every
        // counter untouched — shutdown is not contention.
        for _ in 0..3 {
            assert_eq!(q.pop(), None);
        }
        let after = q.metrics();
        assert_eq!(after.popped, before.popped);
        assert_eq!(after.consumer_block_nanos, before.consumer_block_nanos);
    }

    #[test]
    fn metrics_blocked_consumer_waiting_out_a_close_charges_nothing() {
        let q: Queue<u32> = Queue::new(2);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.pop());
        thread::sleep(Duration::from_millis(30));
        q.close();
        // The consumer blocked ~30ms but got None; that wait must not be
        // booked as consumer block time.
        assert_eq!(h.join().unwrap(), None);
        assert_eq!(q.metrics().consumer_block_nanos, 0);
        assert_eq!(q.metrics().popped, 0);
    }

    #[test]
    fn metrics_rejected_push_after_close_charges_nothing() {
        let q = Queue::new(2);
        q.close();
        assert!(!q.push(7));
        let m = q.metrics();
        assert_eq!(m.pushed, 0);
        assert_eq!(m.high_water, 0);
        assert_eq!(m.producer_block_nanos, 0);
    }

    #[test]
    fn metrics_blocked_producer_charged_on_success() {
        let q = Queue::new(1);
        q.push(0);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.push(1));
        thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop(), Some(0));
        assert!(h.join().unwrap());
        // the producer waited ~20ms for space; that time is booked
        assert!(q.metrics().producer_block_nanos >= 10_000_000);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _q: Queue<u8> = Queue::new(0);
    }

    /// Seeded close/pop interleaving stress: a producer closes (by writer
    /// drop) while consumers are blocked in `pop`. Every schedule must
    /// deliver each item exactly once, wake every blocked consumer with a
    /// clean `None`, and — protecting the accounting fix — charge no
    /// consumer block time for waits that ended in the close rather than
    /// an item.
    #[test]
    fn seeded_close_while_consumers_block_interleavings() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0u64..24 {
            let mut rng = StdRng::seed_from_u64(seed);
            let capacity = rng.gen_range(1usize..=4);
            let consumers = rng.gen_range(2usize..=4);
            let items = rng.gen_range(0usize..=12);
            // per-push delays so the close lands at a different point of
            // the consume schedule on every seed
            let delays: Vec<u64> = (0..items).map(|_| rng.gen_range(0u64..3)).collect();
            let q: Queue<usize> = Queue::new(capacity);
            let handles: Vec<_> = (0..consumers)
                .map(|_| {
                    let q = q.clone();
                    thread::spawn(move || {
                        let mut got = Vec::new();
                        while let Some(v) = q.pop() {
                            got.push(v);
                        }
                        // post-close pops must stay None and charge nothing
                        assert_eq!(q.pop(), None);
                        got
                    })
                })
                .collect();
            // let some consumers reach the blocking wait before pushing
            thread::sleep(Duration::from_millis(2));
            let writer = q.writer();
            for (i, &d) in delays.iter().enumerate() {
                if d > 0 {
                    thread::sleep(Duration::from_micros(d * 300));
                }
                assert!(writer.push(i));
            }
            drop(writer); // last writer gone → auto-close wakes blocked pops
            let mut all: Vec<usize> = handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..items).collect::<Vec<_>>(), "seed={seed}");
            let m = q.metrics();
            assert_eq!(m.pushed, items as u64, "seed={seed}");
            assert_eq!(m.popped, items as u64, "seed={seed}");
            assert!(q.inner.state.lock().closed, "seed={seed}");
            if items == 0 {
                // every consumer waited out the close with no item: none of
                // that waiting is contention, so nothing may be charged
                assert_eq!(m.consumer_block_nanos, 0, "seed={seed}");
            }
        }
    }
}

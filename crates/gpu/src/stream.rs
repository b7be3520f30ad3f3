//! In-order command streams, events, and asynchronous copies.
//!
//! A [`Stream`] is the CUDA-stream analogue: commands enqueued on one
//! stream execute in order on a dedicated worker thread; commands on
//! different streams overlap, subject to device resources (copy engines,
//! kernel slots, the Fermi FFT serialization lock). The paper's pipelined
//! implementation uses "one CUDA stream per stage to enable the
//! overlapping of asynchronous memory transfers and kernel executions"
//! (§IV-B); the simple implementation funnels everything through a single
//! stream with synchronous copies — both usage patterns run unchanged on
//! this model.

use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::device::DeviceInner;
use crate::memory::{DeviceBuffer, KernelToken};
use crate::profile::SpanKind;

enum Payload {
    /// Runs on the worker after acquiring the resources `kind` implies.
    Work {
        kind: SpanKind,
        is_fft: bool,
        name: String,
        /// Bytes moved, for copy-bandwidth simulation (0 for kernels).
        bytes: usize,
        work: Box<dyn FnOnce(&KernelToken) + Send>,
    },
    /// Completion marker for `synchronize`.
    Marker(mpsc::Sender<()>),
}

/// A future for data copied device→host; resolve with [`HostFuture::wait`].
pub struct HostFuture<T> {
    rx: mpsc::Receiver<T>,
}

impl<T> HostFuture<T> {
    pub(crate) fn pair() -> (mpsc::Sender<T>, HostFuture<T>) {
        let (tx, rx) = mpsc::channel();
        (tx, HostFuture { rx })
    }

    /// Blocks until the producing command completes.
    pub fn wait(self) -> T {
        self.rx
            .recv()
            .expect("device stream dropped before completing copy")
    }
}

struct EventState {
    done: Mutex<bool>,
    cv: Condvar,
}

/// A device event: recorded on one stream, awaited by the host or by
/// other streams (cross-stream dependencies, cudaEvent-style).
#[derive(Clone)]
pub struct Event {
    state: Arc<EventState>,
}

impl Event {
    fn new() -> Event {
        Event {
            state: Arc::new(EventState {
                done: Mutex::new(false),
                cv: Condvar::new(),
            }),
        }
    }

    fn set(&self) {
        *self.state.done.lock() = true;
        self.state.cv.notify_all();
    }

    /// Blocks until the event fires.
    pub fn wait(&self) {
        let mut done = self.state.done.lock();
        while !*done {
            self.state.cv.wait(&mut done);
        }
    }
}

/// An in-order device command queue with a dedicated executor thread.
/// Dropping the stream drains remaining commands and joins the worker.
pub struct Stream {
    name: String,
    tx: Option<mpsc::Sender<Payload>>,
    worker: Option<JoinHandle<()>>,
}

impl Stream {
    pub(crate) fn spawn(device: Arc<DeviceInner>, name: &str) -> Stream {
        let (tx, rx) = mpsc::channel::<Payload>();
        let dev = device;
        let stream_name = name.to_string();
        let worker = std::thread::Builder::new()
            .name(format!("gpu{}-{}", dev.id, name))
            .spawn(move || {
                let token = KernelToken::new();
                while let Ok(payload) = rx.recv() {
                    match payload {
                        Payload::Marker(done) => {
                            let _ = done.send(());
                        }
                        Payload::Work {
                            kind,
                            is_fft,
                            name,
                            bytes,
                            work,
                        } => {
                            // Acquire the device resource this command class
                            // occupies; contention shows up as inter-span gaps.
                            let _copy_guard = match kind {
                                SpanKind::H2D => Some(dev.h2d_engine.acquire()),
                                SpanKind::D2H => Some(dev.d2h_engine.acquire()),
                                _ => None,
                            };
                            let _kernel_guard = if kind == SpanKind::Kernel {
                                Some(dev.kernel_slots.acquire())
                            } else {
                                None
                            };
                            // Fault injection: decide (and retry the
                            // decision) before executing, so the work
                            // closure runs exactly once. Panics the
                            // worker when the retry budget is spent.
                            if let Some(fault) = &dev.fault {
                                fault.gate(kind, &name);
                            }
                            // Fermi + cuFFT 5.5: one FFT kernel at a time
                            // device-wide (register pressure, §IV-B)
                            let _fft_guard =
                                (kind == SpanKind::Kernel && is_fft).then(|| dev.fft_lock.lock());
                            if kind == SpanKind::Kernel && !dev.config.launch_overhead.is_zero() {
                                spin_sleep(dev.config.launch_overhead);
                            }
                            let t0 = dev.profiler.trace().now_ns();
                            work(&token);
                            // Simulated PCIe time occupies the copy engine
                            // *inside* the recorded span.
                            let bw = match kind {
                                SpanKind::H2D => dev.config.h2d_bytes_per_sec,
                                SpanKind::D2H => dev.config.d2h_bytes_per_sec,
                                _ => None,
                            };
                            if let (Some(bw), true) = (bw, bytes > 0) {
                                spin_sleep(Duration::from_secs_f64(bytes as f64 / bw));
                            }
                            let t1 = dev.profiler.trace().now_ns();
                            dev.profiler.record(&stream_name, kind, &name, t0, t1);
                        }
                    }
                }
            })
            .expect("spawn stream worker");
        Stream {
            name: name.to_string(),
            tx: Some(tx),
            worker: Some(worker),
        }
    }

    /// Stream name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn send(&self, payload: Payload) {
        self.tx
            .as_ref()
            .expect("stream alive")
            .send(payload)
            .expect("stream worker exited unexpectedly");
    }

    pub(crate) fn enqueue(
        &self,
        kind: SpanKind,
        is_fft: bool,
        name: &str,
        bytes: usize,
        work: impl FnOnce(&KernelToken) + Send + 'static,
    ) {
        self.send(Payload::Work {
            kind,
            is_fft,
            name: name.to_string(),
            bytes,
            work: Box::new(work),
        });
    }

    /// Asynchronous host→device copy. The source is shared with the
    /// command (host code must not mutate it mid-flight — enforced by the
    /// `Arc`), like pinned memory handed to `cudaMemcpyAsync`.
    pub fn h2d<T: Copy + Send + Sync + 'static>(&self, src: Arc<Vec<T>>, dst: &DeviceBuffer<T>) {
        assert!(src.len() <= dst.len(), "h2d source larger than destination");
        let dst = dst.clone();
        let bytes = src.len() * std::mem::size_of::<T>();
        self.enqueue(SpanKind::H2D, false, "h2d", bytes, move |tok| {
            dst.map(tok, |d| d[..src.len()].copy_from_slice(&src));
        });
    }

    /// Asynchronous device→host copy of the whole buffer.
    pub fn d2h<T: Copy + Default + Send + 'static>(
        &self,
        src: &DeviceBuffer<T>,
    ) -> HostFuture<Vec<T>> {
        self.d2h_range(src, 0, src.len())
    }

    /// Asynchronous device→host copy of `len` elements starting at
    /// `offset` (the pipelined implementation copies back only the max
    /// index — "a single scalar", §IV-B).
    fn d2h_range<T: Copy + Default + Send + 'static>(
        &self,
        src: &DeviceBuffer<T>,
        offset: usize,
        len: usize,
    ) -> HostFuture<Vec<T>> {
        assert!(offset + len <= src.len(), "d2h range out of bounds");
        let src = src.clone();
        let (tx, fut) = HostFuture::pair();
        let bytes = len * std::mem::size_of::<T>();
        self.enqueue(SpanKind::D2H, false, "d2h", bytes, move |tok| {
            let out = src.map(tok, |d| d[offset..offset + len].to_vec());
            let _ = tx.send(out);
        });
        fut
    }

    /// Launches a custom kernel. The closure runs on the device (worker
    /// thread) and receives the [`KernelToken`] needed to map buffers.
    pub fn launch(&self, name: &str, work: impl FnOnce(&KernelToken) + Send + 'static) {
        self.enqueue(SpanKind::Kernel, false, name, 0, work);
    }

    /// Records an event that fires when all previously enqueued commands
    /// on this stream complete.
    pub fn record_event(&self) -> Event {
        let ev = Event::new();
        let ev2 = ev.clone();
        self.enqueue(SpanKind::Sync, false, "event", 0, move |_| ev2.set());
        ev
    }

    /// Makes this stream wait (on-device) for `event` before running any
    /// later command.
    pub fn wait_event(&self, event: &Event) {
        let ev = event.clone();
        self.enqueue(SpanKind::Sync, false, "wait_event", 0, move |_| ev.wait());
    }

    /// Blocks the host until every command enqueued so far has executed.
    pub fn synchronize(&self) {
        let (tx, rx) = mpsc::channel();
        self.send(Payload::Marker(tx));
        rx.recv().expect("stream worker exited during synchronize");
    }
}

impl Drop for Stream {
    fn drop(&mut self) {
        drop(self.tx.take()); // close the queue; worker drains then exits
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

/// The OS timer's observed overshoot for a minimal `thread::sleep`,
/// measured once per process and clamped to [50 µs, 2 ms]. Delays are
/// slept through the OS down to this margin, then finished with a spin
/// bounded by it — precise enough for microsecond transfer models
/// without pinning a core for milliseconds at a time.
fn sleep_granularity() -> Duration {
    static GRANULE: OnceLock<Duration> = OnceLock::new();
    *GRANULE.get_or_init(|| {
        let probe = Duration::from_micros(50);
        let mut worst = Duration::ZERO;
        for _ in 0..4 {
            let t0 = Instant::now();
            std::thread::sleep(probe);
            worst = worst.max(t0.elapsed());
        }
        worst.clamp(Duration::from_micros(50), Duration::from_millis(2))
    })
}

/// Waits `d` without relying on timer granularity for sub-millisecond
/// delays (transfer models deal in microseconds). The bulk of the wait
/// is a real OS sleep; only the final calibrated granule is spun, so a
/// multi-millisecond delay no longer pins a core for its whole
/// duration. The tail must spin rather than `yield_now`: under
/// oversubscription a single `sched_yield` runs out other threads'
/// timeslices and can return milliseconds late, which would corrupt
/// the simulated timeline these delays exist to model.
fn spin_sleep(d: Duration) {
    let deadline = Instant::now() + d;
    let granule = sleep_granularity();
    loop {
        let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
            return;
        };
        if remaining > granule {
            std::thread::sleep(remaining - granule);
        } else {
            break;
        }
    }
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, DeviceConfig};

    #[test]
    fn h2d_then_d2h_round_trip() {
        let dev = Device::new(0, DeviceConfig::small(1 << 20));
        let s = dev.create_stream("s0");
        let buf = dev.alloc::<u16>(16).unwrap();
        let host: Arc<Vec<u16>> = Arc::new((0..16).collect());
        s.h2d(Arc::clone(&host), &buf);
        let back = s.d2h(&buf).wait();
        assert_eq!(&back, &*host);
    }

    #[test]
    fn commands_execute_in_order() {
        let dev = Device::new(0, DeviceConfig::small(1 << 20));
        let s = dev.create_stream("s0");
        let buf = dev.alloc::<u32>(1).unwrap();
        for i in 1..=50u32 {
            let b = buf.clone();
            s.launch("inc", move |tok| {
                b.map(tok, |d| d[0] = d[0].wrapping_mul(2).wrapping_add(i % 3))
            });
        }
        s.synchronize();
        // deterministic result only if strictly ordered
        let v = s.d2h(&buf).wait()[0];
        let mut expect = 0u32;
        for i in 1..=50u32 {
            expect = expect.wrapping_mul(2).wrapping_add(i % 3);
        }
        assert_eq!(v, expect);
    }

    #[test]
    fn events_order_across_streams() {
        let dev = Device::new(0, DeviceConfig::small(1 << 20));
        let a = dev.create_stream("a");
        let b = dev.create_stream("b");
        let buf = dev.alloc::<u32>(1).unwrap();
        let b1 = buf.clone();
        a.launch("write", move |tok| {
            std::thread::sleep(Duration::from_millis(20));
            b1.map(tok, |d| d[0] = 42);
        });
        let ev = a.record_event();
        b.wait_event(&ev);
        let read = b.d2h(&buf).wait();
        assert_eq!(read[0], 42, "b must observe a's write");
        assert!(*ev.state.done.lock());
    }

    #[test]
    fn synchronize_waits_for_work() {
        let dev = Device::new(0, DeviceConfig::small(1 << 20));
        let s = dev.create_stream("s0");
        let buf = dev.alloc::<u8>(1).unwrap();
        let b = buf.clone();
        s.launch("slow", move |tok| {
            std::thread::sleep(Duration::from_millis(25));
            b.map(tok, |d| d[0] = 7);
        });
        s.synchronize();
        assert_eq!(s.d2h(&buf).wait()[0], 7);
    }

    #[test]
    fn profiler_records_spans() {
        let dev = Device::new(0, DeviceConfig::small(1 << 20));
        let s = dev.create_stream("exec");
        let buf = dev.alloc::<u16>(64).unwrap();
        s.h2d(Arc::new(vec![1u16; 64]), &buf);
        s.launch("k", |_| {});
        s.synchronize();
        let spans = dev.profiler().spans();
        assert!(spans.iter().any(|sp| sp.kind == SpanKind::H2D));
        assert!(spans
            .iter()
            .any(|sp| sp.kind == SpanKind::Kernel && sp.name == "k"));
    }

    #[test]
    fn transfer_model_adds_time() {
        let mut cfg = DeviceConfig::small(1 << 22);
        cfg.h2d_bytes_per_sec = Some(100.0e6); // 100 MB/s — slow on purpose
        let dev = Device::new(0, cfg);
        let s = dev.create_stream("s0");
        let buf = dev.alloc::<u8>(1 << 20).unwrap();
        let t0 = Instant::now();
        s.h2d(Arc::new(vec![0u8; 1 << 20]), &buf); // 1 MB @ 100 MB/s ≈ 10 ms
        s.synchronize();
        assert!(t0.elapsed() >= Duration::from_millis(9));
    }

    #[test]
    fn concurrent_streams_honor_sub_granularity_delays() {
        // four streams each modeling 16 KB @ 100 MB/s ≈ 160 µs per copy —
        // well under the old 2 ms busy-spin threshold. The sleep+spin-tail
        // wait must still charge each copy its modeled time, and spans on
        // one stream must stay in order (no overlap within a stream).
        let mut cfg = DeviceConfig::small(1 << 22);
        cfg.h2d_bytes_per_sec = Some(100.0e6);
        let dev = Device::new(0, cfg);
        let per_copy = Duration::from_secs_f64((16 * 1024) as f64 / 100.0e6);
        let copies = 5usize;
        std::thread::scope(|scope| {
            for i in 0..4 {
                let dev = dev.clone();
                scope.spawn(move || {
                    let s = dev.create_stream(&format!("c{i}"));
                    let buf = dev.alloc::<u8>(16 * 1024).unwrap();
                    let t0 = Instant::now();
                    for _ in 0..copies {
                        s.h2d(Arc::new(vec![0u8; 16 * 1024]), &buf);
                    }
                    s.synchronize();
                    assert!(
                        t0.elapsed() >= per_copy * copies as u32,
                        "stream c{i} finished early: {:?} < {:?}",
                        t0.elapsed(),
                        per_copy * copies as u32
                    );
                });
            }
        });
        // per-stream ordering: consecutive spans on one stream must not
        // overlap (the worker executes its queue strictly in order)
        let spans = dev.profiler().spans();
        for i in 0..4 {
            let name = format!("c{i}");
            let mine: Vec<_> = spans.iter().filter(|s| s.stream == name).collect();
            assert_eq!(mine.len(), copies, "stream {name}");
            for pair in mine.windows(2) {
                assert!(
                    pair[0].end_ns <= pair[1].start_ns,
                    "overlapping spans on {name}"
                );
            }
            for s in &mine {
                assert!(
                    s.duration_ns() as u128 >= per_copy.as_nanos() * 9 / 10,
                    "span shorter than modeled delay on {name}"
                );
            }
        }
    }

    #[test]
    fn d2h_range_copies_slice() {
        let dev = Device::new(0, DeviceConfig::small(1 << 20));
        let s = dev.create_stream("s0");
        let buf = dev.alloc::<u16>(32).unwrap();
        s.h2d(Arc::new((0..32).collect::<Vec<u16>>()), &buf);
        let part = s.d2h_range(&buf, 10, 5).wait();
        assert_eq!(part, vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn drop_drains_pending_commands() {
        // dropping the stream must finish queued work, not abandon it
        let dev = Device::new(0, DeviceConfig::small(1 << 20));
        let buf = dev.alloc::<u32>(1).unwrap();
        {
            let s = dev.create_stream("s0");
            for _ in 0..100 {
                let b = buf.clone();
                s.launch("inc", move |tok| b.map(tok, |d| d[0] += 1));
            }
            // no synchronize: Drop must drain
        }
        let s2 = dev.create_stream("s1");
        assert_eq!(s2.d2h(&buf).wait()[0], 100);
    }

    #[test]
    fn event_wait_from_host() {
        let dev = Device::new(0, DeviceConfig::small(1 << 20));
        let s = dev.create_stream("s0");
        s.launch("sleep", |_| std::thread::sleep(Duration::from_millis(15)));
        let ev = s.record_event();
        let fired = || *ev.state.done.lock();
        assert!(!fired(), "event should not fire before the kernel");
        ev.wait();
        assert!(fired());
    }

    #[test]
    #[should_panic]
    fn oversized_h2d_panics() {
        let dev = Device::new(0, DeviceConfig::small(1 << 20));
        let s = dev.create_stream("s0");
        let buf = dev.alloc::<u8>(4).unwrap();
        s.h2d(Arc::new(vec![0u8; 8]), &buf);
    }
}

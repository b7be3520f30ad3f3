//! Virtual-time simulations of the seven Table II configurations plus the
//! Fig 5 memory-cliff workload.
//!
//! Each simulation walks the *same task graph the real implementation
//! executes* — tiles in chained-diagonal traversal order, forward
//! transforms, dependency-gated pair computations, bounded transform
//! pools — and books the work onto virtual resources from
//! [`MachineSpec`]: CPU worker pools with a hyper-threading throughput
//! model, per-device copy/FFT/displacement engines with Fermi's FFT
//! serialization, and a shared disk for the paging model.

use stitch_core::grid::{GridShape, Traversal};
use stitch_core::types::TileId;

use crate::cost::{CostModel, MachineSpec};
use crate::des::{Server, TokenPool};

/// Nanoseconds → seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Pairs each tile participates in, as (a, b, emitted-when-b-ready).
#[cfg(test)]
fn pair_list(shape: GridShape, order: &[TileId]) -> Vec<(usize, usize)> {
    // emission order: walk tiles in traversal order; a pair is emitted
    // when its *second* endpoint (in traversal order) arrives
    let mut seen = vec![false; shape.tiles()];
    let mut pairs = Vec::with_capacity(shape.pairs());
    for &id in order {
        seen[shape.index(id)] = true;
        for nb in [
            shape.west(id),
            shape.north(id),
            shape.east(id),
            shape.south(id),
        ]
        .into_iter()
        .flatten()
        {
            if seen[shape.index(nb)] {
                pairs.push((shape.index(nb), shape.index(id)));
            }
        }
    }
    pairs
}

/// Simple-CPU (§IV-A): one thread, everything serialized.
pub fn simple_cpu_ns(shape: GridShape, cost: &CostModel) -> u64 {
    let tiles = shape.tiles() as u64;
    let pairs = shape.pairs() as u64;
    tiles * (cost.read_ns + cost.fft_cpu_ns) + pairs * (cost.cpu_pair_ns() + cost.ccf_ns)
}

/// MT-CPU (§IV-A): SPMD over contiguous row bands; boundary rows are
/// re-transformed by the southern band (ghost rows).
pub fn mt_cpu_ns(shape: GridShape, cost: &CostModel, machine: &MachineSpec, threads: usize) -> u64 {
    let threads = threads.max(1);
    if shape.tiles() == 0 {
        return 0;
    }
    let bands = threads.min(shape.rows.max(1));
    let contention = machine.contention(bands);
    let base = shape.rows / bands;
    let extra = shape.rows % bands;
    let mut worst = 0u64;
    let mut row0 = 0usize;
    for b in 0..bands {
        let rows = base + usize::from(b < extra);
        let (r0, r1) = (row0, row0 + rows);
        row0 = r1;
        // the band reads + transforms its rows plus one ghost row above
        let tiles = (rows + usize::from(r0 > 0)) * shape.cols;
        // owned pairs: west pairs of every band row; north pairs of every
        // band row that has a row above it anywhere in the grid
        let west_pairs = rows * shape.cols.saturating_sub(1);
        let north_pairs = (r1 - r0.max(1)) * shape.cols + if r0 > 0 { shape.cols } else { 0 };
        let pairs = west_pairs + north_pairs.min(rows * shape.cols);
        // CPU compute inflates under contention; disk reads do not
        let compute =
            tiles as u64 * cost.fft_cpu_ns + pairs as u64 * (cost.cpu_pair_ns() + cost.ccf_ns);
        let band_time = (compute as f64 * contention) as u64 + tiles as u64 * cost.read_ns;
        worst = worst.max(band_time);
    }
    worst
}

/// Pipelined-CPU (§IV-B): reader thread + `threads` fft/displacement
/// workers + bookkeeping, transform pool, chained-diagonal traversal.
///
/// This one is a genuine event-driven simulation (not FIFO booking):
/// workers pull whatever task is ready, exactly like the real worker
/// pool draining its queue — booking tasks in traversal order instead
/// would idle lanes behind not-yet-ready pairs.
pub fn pipelined_cpu_ns(
    shape: GridShape,
    cost: &CostModel,
    machine: &MachineSpec,
    threads: usize,
) -> u64 {
    let threads = threads.max(1);
    if shape.tiles() == 0 {
        return 0;
    }
    // threads beyond the available parallel work sit idle and add no
    // memory pressure: cap the contention estimate at the tile count
    let contention = machine.contention(threads.min(shape.tiles()));
    let fft_ns = (cost.fft_cpu_ns as f64 * contention) as u64;
    let pair_ns = ((cost.cpu_pair_ns() + cost.ccf_ns) as f64 * contention) as u64;
    let order = Traversal::ChainedDiagonal.order(shape);
    // host RAM affords a pool far beyond the minimum (the GPU's 6 GB is
    // what makes pools tight; 48 GB is not)
    let pool_size = 4 * shape.rows.min(shape.cols) + 8;

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Task {
        Fft(usize),
        Pair(usize, usize),
    }
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Ev {
        ReadDone(usize),
        WorkDone(usize, Task), // (worker lane, task)
    }
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, VecDeque};
    // event heap ordered by time then insertion sequence
    let mut events: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut payload: Vec<Option<Ev>> = Vec::new();
    let push_event = |events: &mut BinaryHeap<Reverse<(u64, u64)>>,
                      payload: &mut Vec<Option<Ev>>,
                      t: u64,
                      e: Ev| {
        payload.push(Some(e));
        events.push(Reverse((t, (payload.len() - 1) as u64)));
    };

    let mut ready_q: VecDeque<Task> = VecDeque::new();
    let mut idle_workers: Vec<usize> = (0..threads).collect();
    let mut tokens = pool_size;
    let mut next_read = 0usize; // index into `order`
    let mut reader_busy = false;
    let mut fft_done: Vec<Option<u64>> = vec![None; shape.tiles()];
    let mut refcount: Vec<usize> = shape.ids().map(|id| shape.degree(id)).collect();
    let mut makespan = 0u64;

    // kick off the first read
    if !order.is_empty() {
        tokens -= 1;
        reader_busy = true;
        push_event(&mut events, &mut payload, cost.read_ns, Ev::ReadDone(0));
    }

    while let Some(Reverse((now, seq))) = events.pop() {
        let ev = payload[seq as usize].take().expect("event payload");
        makespan = makespan.max(now);
        // dispatch helper: start task on a worker if one is idle
        let start_or_queue = |task: Task,
                              idle: &mut Vec<usize>,
                              q: &mut VecDeque<Task>,
                              events: &mut BinaryHeap<Reverse<(u64, u64)>>,
                              payload: &mut Vec<Option<Ev>>| {
            if let Some(lane) = idle.pop() {
                let dur = match task {
                    Task::Fft(_) => fft_ns,
                    Task::Pair(..) => pair_ns,
                };
                payload.push(Some(Ev::WorkDone(lane, task)));
                events.push(Reverse((now + dur, (payload.len() - 1) as u64)));
            } else {
                q.push_back(task);
            }
        };
        match ev {
            Ev::ReadDone(read_idx) => {
                let id = order[read_idx];
                start_or_queue(
                    Task::Fft(shape.index(id)),
                    &mut idle_workers,
                    &mut ready_q,
                    &mut events,
                    &mut payload,
                );
                // reader moves on if a pool token is free
                reader_busy = false;
                next_read = read_idx + 1;
                if next_read < order.len() && tokens > 0 {
                    tokens -= 1;
                    reader_busy = true;
                    push_event(
                        &mut events,
                        &mut payload,
                        now + cost.read_ns,
                        Ev::ReadDone(next_read),
                    );
                }
            }
            Ev::WorkDone(lane, task) => {
                match task {
                    Task::Fft(i) => {
                        fft_done[i] = Some(now);
                        // bookkeeping: emit pairs that just became ready
                        let id = TileId::new(i / shape.cols, i % shape.cols);
                        for nb in [
                            shape.west(id),
                            shape.north(id),
                            shape.east(id),
                            shape.south(id),
                        ]
                        .into_iter()
                        .flatten()
                        {
                            let j = shape.index(nb);
                            if fft_done[j].is_some() {
                                start_or_queue(
                                    Task::Pair(i, j),
                                    &mut idle_workers,
                                    &mut ready_q,
                                    &mut events,
                                    &mut payload,
                                );
                            }
                        }
                    }
                    Task::Pair(i, j) => {
                        for t in [i, j] {
                            refcount[t] -= 1;
                            if refcount[t] == 0 {
                                tokens += 1;
                            }
                        }
                        // a released token may unblock the reader
                        if !reader_busy && next_read < order.len() && tokens > 0 {
                            tokens -= 1;
                            reader_busy = true;
                            push_event(
                                &mut events,
                                &mut payload,
                                now + cost.read_ns,
                                Ev::ReadDone(next_read),
                            );
                        }
                    }
                }
                // this worker pulls the next ready task
                if let Some(task) = ready_q.pop_front() {
                    let dur = match task {
                        Task::Fft(_) => fft_ns,
                        Task::Pair(..) => pair_ns,
                    };
                    payload.push(Some(Ev::WorkDone(lane, task)));
                    events.push(Reverse((now + dur, (payload.len() - 1) as u64)));
                } else {
                    idle_workers.push(lane);
                }
            }
        }
    }
    makespan
}

/// Simple-GPU (§IV-A): one host thread, synchronous copies, default
/// stream — every operation strictly serialized end to end, each paying
/// the synchronous round-trip cost the profile in Fig 7 shows as gaps.
pub fn simple_gpu_ns(shape: GridShape, cost: &CostModel) -> u64 {
    let tiles = shape.tiles() as u64;
    let pairs = shape.pairs() as u64;
    // per tile: read, sync h2d, convert+sync, fft+sync
    let per_tile = cost.read_ns + cost.h2d_ns + cost.launch_ns + cost.fft_gpu_ns + 3 * cost.sync_ns;
    // per pair: ncc+sync, ifft+sync, reduce+copyback+sync, host CCF
    let per_pair = cost.gpu_pair_ns() + 3 * cost.sync_ns + cost.ccf_ns;
    tiles * per_tile + pairs * per_pair
}

/// Pipelined-GPU (§IV-B, Fig 8): one six-stage pipeline per GPU over a
/// column-band partition (with ghost columns), device buffer pool,
/// overlapped copy/compute, and a *shared* CCF worker stage (Fig 8 shows
/// stage 6 consuming one queue fed by every GPU pipeline).
pub fn pipelined_gpu_ns(
    shape: GridShape,
    cost: &CostModel,
    machine: &MachineSpec,
    gpus: usize,
    ccf_threads: usize,
) -> u64 {
    pipelined_gpu_lanes_ns(shape, cost, machine, gpus, ccf_threads, 1)
}

/// [`pipelined_gpu_ns`] with a configurable number of concurrent kernel
/// lanes per device stage. Fermi + cuFFT 5.5 forces 1 (the paper's
/// machine: serialized FFT kernels, one CPU thread issuing work per
/// stage); the §VI-A Kepler GK110 projection lifts both limits via
/// Hyper-Q — "multiple CPU threads invoking GPU kernels" — which this
/// models as `lanes` concurrent servers on the FFT and displacement
/// stages (shared SM resources stop it from being a free 32×).
pub fn pipelined_gpu_lanes_ns(
    shape: GridShape,
    cost: &CostModel,
    machine: &MachineSpec,
    gpus: usize,
    ccf_threads: usize,
    lanes: usize,
) -> u64 {
    if shape.tiles() == 0 {
        return 0;
    }
    let gpus = gpus.max(1).min(machine.gpus.max(1));
    let ccf_threads = ccf_threads.max(1).min(machine.logical_cores);
    let mut ccf = Server::new(ccf_threads);

    // column bands with ghost column (matches the real implementation)
    let parts = gpus.min(shape.cols.max(1));
    let base = shape.cols / parts;
    let extra = shape.cols % parts;
    let mut makespan = 0u64;
    let mut col0 = 0usize;
    for p in 0..parts {
        let cols = base + usize::from(p < extra);
        let (c_lo, c_hi) = (col0, col0 + cols);
        col0 = c_hi;
        let read_lo = c_lo.saturating_sub(1);
        let part_cols = c_hi - read_lo;
        let sub = GridShape::new(shape.rows, part_cols);
        let order: Vec<TileId> = Traversal::ChainedDiagonal
            .order(sub)
            .into_iter()
            .map(|t| TileId::new(t.row, t.col + read_lo))
            .collect();

        // stage servers for this pipeline
        let mut reader = Server::new(1);
        let mut copy_engine = Server::new(1);
        let mut fft_engine = Server::new(lanes.max(1)); // Fermi: 1 lane
        let mut disp = Server::new(lanes.max(1));
        let pool_size = 2 * shape.rows.min(part_cols) + 4;
        let mut pool = TokenPool::new(pool_size);

        // per-tile state, indexed by global tile index
        let mut fft_done = vec![0u64; shape.tiles()];
        let mut seen = vec![false; shape.tiles()];
        let owns_pair = |b: TileId| b.col >= c_lo && b.col < c_hi;
        let mut refcount = vec![0usize; shape.tiles()];
        for id in shape.ids() {
            if id.col < read_lo || id.col >= c_hi {
                continue;
            }
            let mut n = 0;
            if owns_pair(id) {
                n += usize::from(shape.west(id).is_some()) + usize::from(shape.north(id).is_some());
            }
            if let Some(e) = shape.east(id) {
                n += usize::from(owns_pair(e));
            }
            if let Some(so) = shape.south(id) {
                n += usize::from(owns_pair(so));
            }
            refcount[shape.index(id)] = n;
        }

        for &id in &order {
            let i = shape.index(id);
            let (_, read_end) = reader.book(0, cost.read_ns);
            let token_at = pool.acquire(read_end);
            let (_, copy_end) = copy_engine.book(token_at, cost.h2d_ns + cost.launch_ns);
            let (_, t_end) = fft_engine.book(copy_end, cost.launch_ns + cost.fft_gpu_ns);
            fft_done[i] = t_end;
            seen[i] = true;
            if refcount[i] == 0 {
                // ghost tile with no owned pairs on this pipeline
                pool.release(t_end);
                continue;
            }
            for (a, b) in [
                (shape.west(id), Some(id)),
                (shape.north(id), Some(id)),
                (Some(id), shape.east(id)),
                (Some(id), shape.south(id)),
            ] {
                let (Some(a), Some(b)) = (a, b) else { continue };
                if !owns_pair(b) || !seen[shape.index(a)] || !seen[shape.index(b)] {
                    continue;
                }
                let (ia, ib) = (shape.index(a), shape.index(b));
                let ready = fft_done[ia].max(fft_done[ib]);
                // stage 5: NCC on the disp stream, inverse FFT on the shared
                // (serialized) FFT engine, reduction + scalar copy back
                let (_, ncc_end) = disp.book(ready, cost.launch_ns + cost.ncc_gpu_ns);
                let (_, ifft_end) = fft_engine.book(ncc_end, cost.launch_ns + cost.fft_gpu_ns);
                let (_, red_end) = disp.book(
                    ifft_end,
                    cost.launch_ns + cost.reduce_gpu_ns + cost.d2h_scalar_ns,
                );
                // stage 6: shared host CCF workers
                let (_, ccf_end) = ccf.book(red_end, cost.ccf_ns);
                makespan = makespan.max(ccf_end);
                for t in [ia, ib] {
                    refcount[t] -= 1;
                    if refcount[t] == 0 {
                        pool.release(red_end);
                    }
                }
            }
        }
    }
    makespan
}

/// ImageJ/Fiji-style baseline: independent per-pair processing (2 reads +
/// 2 forward FFTs each), embarrassingly parallel over `threads`, slowed by
/// `overhead_factor` (JVM boxing/interpretation relative to native code —
/// calibrated so the paper-scale workload lands at its reported 3.6 h).
pub fn fiji_ns(
    shape: GridShape,
    cost: &CostModel,
    machine: &MachineSpec,
    threads: usize,
    overhead_factor: f64,
) -> u64 {
    let pairs = shape.pairs() as u64;
    let per_pair = 2 * cost.read_ns + 2 * cost.fft_cpu_ns + cost.cpu_pair_ns() + cost.ccf_ns;
    let total = (pairs * per_pair) as f64 * overhead_factor;
    (total / machine.capacity(threads.max(1))) as u64
}

/// The §V Fiji overhead factor: reproduces the plugin's reported 3.6 h on
/// the paper-scale workload when combined with [`CostModel::paper_c2070`]
/// and the plugin's 5–6 threads (Table II).
pub const FIJI_OVERHEAD_FACTOR: f64 = 51.0;

/// One Table II row: `(implementation, virtual ns, the paper's time)`.
pub type Table2Row = (&'static str, u64, &'static str);

/// Table II on machine `m`, in the paper's row order and at its thread
/// counts: the ImageJ/Fiji baseline first, then Simple-CPU (the S/CPU
/// reference) and the five parallel configurations.
pub fn table2_rows(shape: GridShape, cost: &CostModel, m: &MachineSpec) -> [Table2Row; 7] {
    let fiji = fiji_ns(shape, cost, m, 6, FIJI_OVERHEAD_FACTOR);
    let pipelined = pipelined_cpu_ns(shape, cost, m, 16);
    let gpus = |n| pipelined_gpu_ns(shape, cost, m, n, 4);
    [
        ("ImageJ/Fiji", fiji, "3.6h"),
        ("Simple-CPU", simple_cpu_ns(shape, cost), "10.6min"),
        ("MT-CPU (16t)", mt_cpu_ns(shape, cost, m, 16), "1.6min"),
        ("Pipelined-CPU (16t)", pipelined, "1.4min"),
        ("Simple-GPU", simple_gpu_ns(shape, cost), "9.3min"),
        ("Pipelined-GPU (1 GPU)", gpus(1), "49.7s"),
        ("Pipelined-GPU (2 GPUs)", gpus(2), "26.6s"),
    ]
}

/// Fig 5 workload: `threads` workers read tiles and compute transforms
/// *without releasing memory*. Once the working set crosses the machine's
/// RAM the virtual-memory system pages transform buffers through a single
/// shared disk, which serializes all threads — the cliff.
pub fn fig5_compute_fft_ns(
    tiles: usize,
    cost: &CostModel,
    machine: &MachineSpec,
    threads: usize,
) -> u64 {
    let threads = threads.max(1);
    let contention = machine.contention(threads);
    let cpu_ns = ((cost.read_ns + cost.fft_cpu_ns) as f64 * contention) as u64;
    // resident bytes per tile: the retained transform plus the source
    // image; the OS, page tables and the application's own footprint
    // reserve ~3.5 GB (calibrated to Fig 5's cliff between 832 and 864
    // tiles on the 24 GB machine)
    let per_tile_bytes = cost.transform_bytes + cost.transform_bytes / 8;
    let available = machine.ram_bytes.saturating_sub(7 * (1 << 29));
    let mut workers = Server::new(threads);
    let mut disk = Server::new(1);
    let mut makespan = 0u64;
    let mut working_set = 0u64;
    for _ in 0..tiles {
        working_set += per_tile_bytes;
        let (_, cpu_end) = workers.book(0, cpu_ns);
        let end = if working_set > available {
            // past the cliff: the new buffer forces write-back of victims,
            // and LRU eviction keeps hitting pages that are still live
            // (images mid-transform, FFT scratch), faulting them straight
            // back in — the classic thrash amplification that makes Fig 5
            // a cliff rather than a slope. All of it serializes on the one
            // disk, which is why *every* thread count collapses together.
            const THRASH_AMPLIFICATION: f64 = 4.0;
            let page_ns = (2.0 * THRASH_AMPLIFICATION * cost.transform_bytes as f64
                / cost.disk_bytes_per_sec
                * 1e9) as u64;
            let (_, disk_end) = disk.book(cpu_end, page_ns);
            disk_end
        } else {
            cpu_end
        };
        makespan = makespan.max(end);
    }
    makespan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_shape() -> GridShape {
        GridShape::new(42, 59)
    }

    #[test]
    fn table2_ordering_reproduced() {
        // The headline result: ordering and rough ratios of Table II.
        let shape = paper_shape();
        let cost = CostModel::paper_c2070();
        let m = MachineSpec::paper_testbed();
        let rows = table2_rows(shape, &cost, &m);
        // both callers take row 1 as the S/CPU reference
        assert_eq!(
            rows[1],
            ("Simple-CPU", simple_cpu_ns(shape, &cost), "10.6min")
        );
        let [fiji, simple_cpu, mt, pipe_cpu, simple_gpu, pipe_gpu1, pipe_gpu2] =
            rows.map(|(_, ns, _)| ns);
        // orderings from Table II
        assert!(fiji > simple_cpu);
        assert!(simple_cpu > mt);
        assert!(mt > pipe_cpu, "mt {mt} pipe {pipe_cpu}");
        assert!(simple_cpu > simple_gpu);
        assert!(simple_gpu > pipe_gpu1);
        assert!(pipe_gpu1 > pipe_gpu2);
        // two GPUs ≈ 1.87x (paper); accept 1.5–2.0
        let two_gpu_gain = pipe_gpu1 as f64 / pipe_gpu2 as f64;
        assert!((1.4..=2.05).contains(&two_gpu_gain), "gain {two_gpu_gain}");
    }

    #[test]
    fn table2_absolute_times_near_paper() {
        let shape = paper_shape();
        let cost = CostModel::paper_c2070();
        let m = MachineSpec::paper_testbed();
        // Simple-CPU: paper 10.6 min
        let t = secs(simple_cpu_ns(shape, &cost));
        assert!((500.0..800.0).contains(&t), "simple-cpu {t}s");
        // Fiji: paper 3.6 h = 12 960 s
        let f = secs(fiji_ns(shape, &cost, &m, 6, FIJI_OVERHEAD_FACTOR));
        assert!((9000.0..17000.0).contains(&f), "fiji {f}s");
        // Pipelined-GPU ×1: paper 49.7 s
        let g1 = secs(pipelined_gpu_ns(shape, &cost, &m, 1, 4));
        assert!((35.0..75.0).contains(&g1), "pipelined-gpu(1) {g1}s");
        // Pipelined-GPU ×2: paper 26.6 s
        let g2 = secs(pipelined_gpu_ns(shape, &cost, &m, 2, 4));
        assert!((18.0..40.0).contains(&g2), "pipelined-gpu(2) {g2}s");
        // Simple-GPU: paper 9.3 min = 558 s
        let sg = secs(simple_gpu_ns(shape, &cost));
        assert!((450.0..700.0).contains(&sg), "simple-gpu {sg}s");
    }

    #[test]
    fn fig11_scaling_shape() {
        // near-linear to 8 threads, flatter 9–16, flat beyond
        let shape = paper_shape();
        let cost = CostModel::paper_c2070();
        let m = MachineSpec::paper_testbed();
        let t1 = pipelined_cpu_ns(shape, &cost, &m, 1) as f64;
        let s4 = t1 / pipelined_cpu_ns(shape, &cost, &m, 4) as f64;
        let s8 = t1 / pipelined_cpu_ns(shape, &cost, &m, 8) as f64;
        let s16 = t1 / pipelined_cpu_ns(shape, &cost, &m, 16) as f64;
        assert!(s4 > 2.8, "s4={s4}");
        assert!(s8 > 5.0, "s8={s8}");
        assert!(s16 > s8, "HT region still improves: {s16} vs {s8}");
        assert!(s16 < 12.0, "HT region flattens: {s16}");
    }

    #[test]
    fn fig10_ccf_threads_saturate() {
        // "increasing the number of CCF threads beyond 2 has a minimal
        // impact" with 2 GPUs
        let shape = paper_shape();
        let cost = CostModel::paper_c2070();
        let m = MachineSpec::paper_testbed();
        let t1 = pipelined_gpu_ns(shape, &cost, &m, 2, 1);
        let t2 = pipelined_gpu_ns(shape, &cost, &m, 2, 2);
        let t4 = pipelined_gpu_ns(shape, &cost, &m, 2, 4);
        let t16 = pipelined_gpu_ns(shape, &cost, &m, 2, 16);
        assert!(t1 >= t2);
        let early_gain = t1 as f64 / t2 as f64;
        let late_gain = t4 as f64 / t16 as f64;
        assert!(late_gain < 1.15, "beyond 2–4 threads ≈ flat: {late_gain}");
        assert!(early_gain >= late_gain);
    }

    #[test]
    fn fig5_cliff_location_and_collapse() {
        let cost = CostModel::paper_c2070();
        let m = MachineSpec::fig5_machine();
        // cliff between 832 and 864 tiles (Fig 5): available RAM over the
        // per-tile resident footprint (transform + image, 2 GB OS reserve)
        let per_tile = cost.transform_bytes + cost.transform_bytes / 8;
        let cliff_tiles = ((m.ram_bytes - 7 * (1 << 29)) / per_tile) as usize;
        assert!((800..900).contains(&cliff_tiles), "cliff at {cliff_tiles}");
        let speedup = |tiles: usize, threads: usize| {
            fig5_compute_fft_ns(tiles, &cost, &m, 1) as f64
                / fig5_compute_fft_ns(tiles, &cost, &m, threads) as f64
        };
        let before = speedup(832, 8);
        let after = speedup(864, 8);
        assert!(before > 6.0, "before cliff {before}");
        assert!(after < before / 2.0, "after cliff {after} vs {before}");
    }

    #[test]
    fn pipelined_gpu_beats_simple_gpu_10x() {
        // paper: 11.2x improvement of Pipelined-GPU(1) over Simple-GPU
        let shape = paper_shape();
        let cost = CostModel::paper_c2070();
        let m = MachineSpec::paper_testbed();
        let ratio =
            simple_gpu_ns(shape, &cost) as f64 / pipelined_gpu_ns(shape, &cost, &m, 1, 4) as f64;
        assert!((8.0..15.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn kepler_concurrent_fft_helps_when_fft_bound() {
        // §VI-A: with Hyper-Q (concurrent FFT kernels) the pipeline should
        // be at least as fast; make the workload FFT-bound so it shows
        let shape = paper_shape();
        let mut cost = CostModel::paper_c2070();
        cost.read_ns /= 4; // fast storage → the FFT engine becomes the wall
        let m = MachineSpec::paper_testbed();
        let fermi = pipelined_gpu_lanes_ns(shape, &cost, &m, 1, 4, 1);
        let kepler = pipelined_gpu_lanes_ns(shape, &cost, &m, 1, 4, 2);
        assert!(kepler < fermi, "kepler {kepler} vs fermi {fermi}");
        assert!(
            (fermi as f64 / kepler as f64) > 1.2,
            "meaningful gain: {:.2}",
            fermi as f64 / kepler as f64
        );
    }

    #[test]
    fn pair_list_counts() {
        let shape = GridShape::new(3, 4);
        let order = Traversal::ChainedDiagonal.order(shape);
        assert_eq!(pair_list(shape, &order).len(), shape.pairs());
    }

    #[test]
    fn empty_grid_is_zero() {
        let shape = GridShape::new(0, 0);
        let cost = CostModel::paper_c2070();
        let m = MachineSpec::paper_testbed();
        assert_eq!(simple_cpu_ns(shape, &cost), 0);
        assert_eq!(pipelined_cpu_ns(shape, &cost, &m, 4), 0);
    }

    /// Every scenario function is a pure function of its inputs: calling
    /// it twice (and across grid shapes) must return the identical virtual
    /// time. The conformance testkit's seeded stress runner leans on this
    /// — a simulator with hidden state would make "same seed → same
    /// report" unfalsifiable.
    #[test]
    fn scenarios_are_deterministic() {
        let cost = CostModel::paper_c2070();
        let m = MachineSpec::paper_testbed();
        for shape in [GridShape::new(3, 4), GridShape::new(7, 5), paper_shape()] {
            let runs: Vec<[u64; 6]> = (0..2)
                .map(|_| {
                    [
                        simple_cpu_ns(shape, &cost),
                        mt_cpu_ns(shape, &cost, &m, 8),
                        pipelined_cpu_ns(shape, &cost, &m, 8),
                        simple_gpu_ns(shape, &cost),
                        pipelined_gpu_ns(shape, &cost, &m, 2, 4),
                        fiji_ns(shape, &cost, &m, 6, FIJI_OVERHEAD_FACTOR),
                    ]
                })
                .collect();
            assert_eq!(runs[0], runs[1], "shape {shape:?}");
            assert!(runs[0].iter().all(|&ns| ns > 0), "shape {shape:?}");
        }
    }
}

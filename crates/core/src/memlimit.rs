//! Budgeted transform storage with disk spill — the Fig 5 substrate.
//!
//! §III: "A scalable parallel implementation must manage memory because
//! the problem does not fit into main memory ... It will have a highly
//! negative effect on performance when the program's working set exceeds
//! physical memory limits and the virtual memory subsystem starts paging
//! to disk." Fig 5 demonstrates the cliff with an application that "reads
//! tiles and computes their transforms without releasing any memory".
//!
//! [`SpillStore`] makes that failure mode reproducible in-process without
//! needing to exhaust the machine: buffers are kept in memory up to a
//! byte budget; beyond it, least-recently-used buffers spill to a backing
//! file and fault back in on access — real disk I/O, real cliff.
//!
//! Internals are sized for stores with many live handles: the LRU order
//! is an intrusive doubly-linked list over a hash map (O(1) touch,
//! unlink, and victim selection — no `Vec` scans), the spill-file free
//! list is an offset-ordered map that coalesces adjacent regions on free
//! and trims the file when the tail becomes free, and a single reusable
//! scratch buffer serves every spill/fault serialization.

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use stitch_fft::C32;

/// Handle to a stored buffer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BufferHandle(u64);

enum Slot {
    /// Resident in memory.
    Resident(Vec<C32>),
    /// Spilled to the backing file at (offset, len).
    Spilled { offset: u64, len: usize },
}

/// Intrusive LRU order over resident handles: a doubly-linked list whose
/// links live in a hash map, so touch / unlink / victim selection are all
/// O(1) (amortized) regardless of how many buffers are resident.
#[derive(Default)]
struct LruList {
    /// id → (prev, next); `prev` is colder, `next` is hotter.
    links: HashMap<u64, (Option<u64>, Option<u64>)>,
    /// Coldest resident handle.
    head: Option<u64>,
    /// Hottest resident handle.
    tail: Option<u64>,
}

impl LruList {
    /// Appends `id` at the hot end. Must not already be linked.
    fn push_hot(&mut self, id: u64) {
        debug_assert!(!self.links.contains_key(&id));
        let old_tail = self.tail;
        self.links.insert(id, (old_tail, None));
        match old_tail {
            Some(t) => self.links.get_mut(&t).expect("tail linked").1 = Some(id),
            None => self.head = Some(id),
        }
        self.tail = Some(id);
    }

    /// Detaches `id` if present; returns whether it was linked.
    fn unlink(&mut self, id: u64) -> bool {
        let Some((prev, next)) = self.links.remove(&id) else {
            return false;
        };
        match prev {
            Some(p) => self.links.get_mut(&p).expect("prev linked").1 = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.links.get_mut(&n).expect("next linked").0 = prev,
            None => self.tail = prev,
        }
        true
    }

    /// Moves `id` to the hot end (no-op if it isn't resident).
    fn touch(&mut self, id: u64) {
        if self.unlink(id) {
            self.push_hot(id);
        }
    }

    /// The coldest resident handle that isn't `keep`.
    fn coldest_except(&self, keep: u64) -> Option<u64> {
        match self.head {
            Some(h) if h != keep => Some(h),
            Some(h) => self.links.get(&h).expect("head linked").1,
            None => None,
        }
    }
}

struct StoreState {
    slots: HashMap<u64, Slot>,
    lru: LruList,
    resident_bytes: usize,
    file: File,
    file_len: u64,
    /// Free regions in the spill file, offset → byte length. Keyed by
    /// offset so adjacent regions coalesce on free (predecessor and
    /// successor lookups are range queries).
    free_map: BTreeMap<u64, u64>,
    /// Reusable serialization scratch for spill writes and fault reads.
    io_buf: Vec<u8>,
}

impl StoreState {
    /// Returns a file region of exactly `bytes`, reusing (and splitting)
    /// a free region when one is large enough, growing the file otherwise.
    fn alloc_region(&mut self, bytes: u64) -> u64 {
        let fit = self
            .free_map
            .iter()
            .find(|&(_, &len)| len >= bytes)
            .map(|(&off, &len)| (off, len));
        match fit {
            Some((off, len)) => {
                self.free_map.remove(&off);
                if len > bytes {
                    self.free_map.insert(off + bytes, len - bytes);
                }
                off
            }
            None => {
                let off = self.file_len;
                self.file_len += bytes;
                off
            }
        }
    }

    /// Returns a region to the free list, merging with adjacent free
    /// regions; a region that ends up at the tail of the file shrinks the
    /// file instead of lingering in the free list, so repeated
    /// spill/remove cycles cannot grow the file without bound.
    fn free_region(&mut self, offset: u64, bytes: u64) {
        let mut off = offset;
        let mut len = bytes;
        if let Some((&poff, &plen)) = self.free_map.range(..off).next_back() {
            if poff + plen == off {
                self.free_map.remove(&poff);
                off = poff;
                len += plen;
            }
        }
        if let Some(&slen) = self.free_map.get(&(off + len)) {
            self.free_map.remove(&(off + len));
            len += slen;
        }
        if off + len == self.file_len {
            self.file_len = off;
            let _ = self.file.set_len(off);
        } else {
            self.free_map.insert(off, len);
        }
    }
}

/// A byte-budgeted store for transform buffers with LRU disk spill.
pub struct SpillStore {
    budget_bytes: usize,
    path: PathBuf,
    state: Mutex<StoreState>,
    next_id: AtomicU64,
    spill_count: AtomicU64,
    fault_count: AtomicU64,
}

fn buf_bytes(len: usize) -> usize {
    len * std::mem::size_of::<C32>()
}

/// Process-global sequence for spill-file names: unique within the
/// process by construction, and `create_new` below rejects any collision
/// with a file left behind by another process.
static SPILL_FILE_SEQ: AtomicU64 = AtomicU64::new(0);

impl SpillStore {
    /// Creates a store holding at most `budget_bytes` resident, spilling
    /// into a freshly created temp file (never an existing one).
    pub fn new(budget_bytes: usize) -> std::io::Result<SpillStore> {
        let (file, path) = loop {
            let seq = SPILL_FILE_SEQ.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!(
                "stitch_spill_{}_{}.bin",
                std::process::id(),
                seq
            ));
            match OpenOptions::new()
                .create_new(true)
                .read(true)
                .write(true)
                .open(&path)
            {
                Ok(file) => break (file, path),
                Err(e) if e.kind() == ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        };
        Ok(SpillStore {
            budget_bytes,
            path,
            state: Mutex::new(StoreState {
                slots: HashMap::new(),
                lru: LruList::default(),
                resident_bytes: 0,
                file,
                file_len: 0,
                free_map: BTreeMap::new(),
                io_buf: Vec::new(),
            }),
            next_id: AtomicU64::new(0),
            spill_count: AtomicU64::new(0),
            fault_count: AtomicU64::new(0),
        })
    }

    /// Stores a buffer, spilling cold buffers if the budget overflows.
    pub fn insert(&self, data: Vec<C32>) -> BufferHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let bytes = buf_bytes(data.len());
        let mut st = self.state.lock();
        st.resident_bytes += bytes;
        st.slots.insert(id, Slot::Resident(data));
        st.lru.push_hot(id);
        self.evict_to_budget(&mut st);
        BufferHandle(id)
    }

    /// Accesses a buffer, faulting it in from disk if it was spilled
    /// (possibly evicting others to make room).
    pub fn with<R>(&self, h: BufferHandle, f: impl FnOnce(&[C32]) -> R) -> R {
        let mut st = self.state.lock();
        // fault in if spilled
        let needs_fault = matches!(st.slots.get(&h.0), Some(Slot::Spilled { .. }));
        if needs_fault {
            let Some(Slot::Spilled { offset, len }) = st.slots.remove(&h.0) else {
                unreachable!()
            };
            let bytes = buf_bytes(len);
            let mut io = std::mem::take(&mut st.io_buf);
            io.resize(bytes, 0);
            st.file
                .seek(SeekFrom::Start(offset))
                .expect("seek spill file");
            st.file.read_exact(&mut io).expect("read spill file");
            st.free_region(offset, bytes as u64);
            let mut data = Vec::with_capacity(len);
            for chunk in io.chunks_exact(8) {
                data.push(C32 {
                    re: f32::from_le_bytes(chunk[0..4].try_into().unwrap()),
                    im: f32::from_le_bytes(chunk[4..8].try_into().unwrap()),
                });
            }
            st.io_buf = io;
            st.resident_bytes += bytes;
            st.slots.insert(h.0, Slot::Resident(data));
            st.lru.push_hot(h.0);
            self.fault_count.fetch_add(1, Ordering::Relaxed);
            self.evict_to_budget_except(&mut st, h.0);
        } else {
            st.lru.touch(h.0);
        }
        match st.slots.get(&h.0) {
            Some(Slot::Resident(data)) => f(data),
            _ => panic!("buffer handle not found"),
        }
    }

    /// Removes a buffer entirely.
    pub fn remove(&self, h: BufferHandle) {
        let mut st = self.state.lock();
        match st.slots.remove(&h.0) {
            Some(Slot::Resident(data)) => {
                st.resident_bytes -= buf_bytes(data.len());
                st.lru.unlink(h.0);
            }
            Some(Slot::Spilled { offset, len }) => {
                st.free_region(offset, buf_bytes(len) as u64);
            }
            None => {}
        }
    }

    /// Number of buffers spilled to disk so far.
    pub fn spill_count(&self) -> u64 {
        self.spill_count.load(Ordering::Relaxed)
    }

    /// Number of faults (spilled buffers read back) so far.
    pub fn fault_count(&self) -> u64 {
        self.fault_count.load(Ordering::Relaxed)
    }

    fn evict_to_budget(&self, st: &mut StoreState) {
        self.evict_to_budget_except(st, u64::MAX);
    }

    fn evict_to_budget_except(&self, st: &mut StoreState, keep: u64) {
        while st.resident_bytes > self.budget_bytes {
            // coldest resident handle that isn't the protected one
            let Some(victim) = st.lru.coldest_except(keep) else {
                break;
            };
            st.lru.unlink(victim);
            let Some(Slot::Resident(data)) = st.slots.remove(&victim) else {
                continue;
            };
            let bytes = buf_bytes(data.len());
            let offset = st.alloc_region(bytes as u64);
            let mut io = std::mem::take(&mut st.io_buf);
            io.clear();
            io.reserve(bytes);
            for v in &data {
                io.extend_from_slice(&v.re.to_le_bytes());
                io.extend_from_slice(&v.im.to_le_bytes());
            }
            st.file
                .seek(SeekFrom::Start(offset))
                .expect("seek spill file");
            st.file.write_all(&io).expect("write spill file");
            st.io_buf = io;
            st.slots.insert(
                victim,
                Slot::Spilled {
                    offset,
                    len: data.len(),
                },
            );
            st.resident_bytes -= bytes;
            self.spill_count.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(seed: usize, len: usize) -> Vec<C32> {
        (0..len)
            .map(|i| C32 {
                re: (seed * 1000 + i) as f32,
                im: -(i as f32),
            })
            .collect()
    }

    /// Bytes of one 100-element test buffer.
    const B100: usize = 100 * std::mem::size_of::<C32>();

    #[test]
    fn round_trip_without_spill() {
        let store = SpillStore::new(1 << 20).unwrap();
        let h = store.insert(buf(1, 100));
        store.with(h, |d| {
            assert_eq!(d.len(), 100);
            assert_eq!(d[3].re, 1003.0);
        });
        assert_eq!(store.spill_count(), 0);
    }

    #[test]
    fn spills_beyond_budget_and_faults_back() {
        // budget of 2 buffers
        let store = SpillStore::new(2 * B100).unwrap();
        let h1 = store.insert(buf(1, 100));
        let h2 = store.insert(buf(2, 100));
        let h3 = store.insert(buf(3, 100)); // evicts h1 (coldest)
        assert_eq!(store.spill_count(), 1);
        assert!(store.state.lock().resident_bytes <= 2 * B100);
        // h1 faults back intact
        store.with(h1, |d| assert_eq!(d[0].re, 1000.0));
        assert_eq!(store.fault_count(), 1);
        // everyone still intact
        store.with(h2, |d| assert_eq!(d[0].re, 2000.0));
        store.with(h3, |d| assert_eq!(d[0].re, 3000.0));
    }

    #[test]
    fn lru_access_protects_hot_buffers() {
        let store = SpillStore::new(2 * B100).unwrap();
        let h1 = store.insert(buf(1, 100));
        let _h2 = store.insert(buf(2, 100));
        // touch h1 so h2 becomes the eviction victim
        store.with(h1, |_| {});
        let _h3 = store.insert(buf(3, 100));
        // h1 should still be resident: accessing it must not fault
        let faults_before = store.fault_count();
        store.with(h1, |_| {});
        assert_eq!(store.fault_count(), faults_before);
    }

    #[test]
    fn remove_frees_budget() {
        let store = SpillStore::new(B100).unwrap();
        let h1 = store.insert(buf(1, 100));
        store.remove(h1);
        assert_eq!(store.state.lock().resident_bytes, 0);
        let h2 = store.insert(buf(2, 100));
        assert_eq!(store.spill_count(), 0, "no eviction needed after remove");
        store.with(h2, |d| assert_eq!(d[0].re, 2000.0));
    }

    #[test]
    fn spill_file_space_is_reused() {
        let store = SpillStore::new(B100).unwrap();
        let hs: Vec<BufferHandle> = (0..6).map(|i| store.insert(buf(i, 100))).collect();
        // 5 spills happened; faulting one back frees its file region, the
        // next spill should reuse it rather than grow the file
        assert_eq!(store.spill_count(), 5);
        store.with(hs[0], |_| {});
        let len_after = store.state.lock().file_len;
        store.with(hs[1], |_| {}); // causes another spill into the free slot
        assert_eq!(store.state.lock().file_len, len_after);
    }

    #[test]
    fn many_buffers_survive_heavy_thrash() {
        let store = SpillStore::new(3 * B100).unwrap();
        let hs: Vec<BufferHandle> = (0..20).map(|i| store.insert(buf(i, 100))).collect();
        for (i, &h) in hs.iter().enumerate().rev() {
            store.with(h, |d| assert_eq!(d[0].re, (i * 1000) as f32));
        }
        assert!(store.fault_count() > 0);
    }

    #[test]
    fn store_paths_are_unique() {
        let a = SpillStore::new(1 << 20).unwrap();
        let b = SpillStore::new(1 << 20).unwrap();
        assert_ne!(a.path, b.path);
    }

    #[test]
    fn coalescing_bounds_file_growth_under_spill_remove_cycles() {
        // budget 0: every buffer spills immediately. Mixed sizes fragment
        // a free list that doesn't coalesce — adjacent freed regions must
        // merge so later (larger) buffers fit into reclaimed space and
        // file_len stays bounded instead of growing every round.
        let store = SpillStore::new(0).unwrap();
        let sizes = [100usize, 37, 260, 64];
        let round_bytes: u64 = sizes.iter().map(|&s| buf_bytes(s) as u64).sum();
        let mut max_len = 0u64;
        for round in 0..50 {
            let hs: Vec<BufferHandle> = sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| store.insert(buf(round * 10 + i, s)))
                .collect();
            for &h in &hs {
                store.remove(h);
            }
            max_len = max_len.max(store.state.lock().file_len);
        }
        // one round's worth of bytes is the steady-state working set;
        // allow one extra round of slack for transient fragmentation
        assert!(
            max_len <= 2 * round_bytes,
            "file grew to {max_len} B (round = {round_bytes} B): free list is fragmenting"
        );
        // everything was removed: the trailing trim must reclaim the file
        assert_eq!(store.state.lock().file_len, 0, "file not trimmed");
        assert!(store.state.lock().free_map.is_empty(), "stale free regions");
    }

    #[test]
    fn adjacent_free_regions_merge() {
        // spill three equal buffers, remove all three while spilled, and
        // check the free map collapses (here: to nothing, via the trim)
        let store = SpillStore::new(0).unwrap();
        let hs: Vec<BufferHandle> = (0..3).map(|i| store.insert(buf(i, 50))).collect();
        assert_eq!(store.spill_count(), 3);
        // remove the middle one first so its region can't trim, then the
        // edges — predecessor and successor merges both get exercised
        store.remove(hs[1]);
        assert_eq!(store.state.lock().free_map.len(), 1);
        store.remove(hs[0]);
        assert_eq!(store.state.lock().free_map.len(), 1, "did not merge");
        store.remove(hs[2]);
        assert_eq!(store.state.lock().file_len, 0);
        assert!(store.state.lock().free_map.is_empty());
    }
}

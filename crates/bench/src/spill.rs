//! Budgeted transform storage with disk spill — the substrate of
//! `paperfigs fig5_real`.
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
//! byte budget; beyond it, the least recently used buffer spills to a
//! backing file and faults back in on access — real disk I/O, real cliff.
//! It is sized to its one caller, which stores a few dozen equal-size
//! spectra and reads each back: a handle indexes a vector, each buffer
//! owns a fixed slot of the file, and the victim is the resident buffer
//! touched longest ago.

use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use stitch_fft::C32;

/// A byte-budgeted store for equal-size transform buffers with LRU disk
/// spill.
pub struct SpillStore {
    budget_bytes: usize,
    resident_bytes: usize,
    /// The length of every buffer: the first one's.
    buf_len: usize,
    /// Per handle: the buffer while it is resident (`None` while spilled),
    /// and when it was last inserted, faulted in or read.
    slots: Vec<(Option<Vec<C32>>, u64)>,
    /// Buffer `h` spills to bytes `h·b .. (h+1)·b` of this file.
    file: File,
    path: PathBuf,
    clock: u64,
    spills: u64,
    faults: u64,
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
            resident_bytes: 0,
            buf_len: 0,
            slots: Vec::new(),
            file,
            path,
            clock: 0,
            spills: 0,
            faults: 0,
        })
    }

    /// Stores a buffer, spilling cold buffers if the budget overflows, and
    /// returns its handle. Panics when its length is not the first one's.
    pub fn insert(&mut self, data: Vec<C32>) -> usize {
        if self.slots.is_empty() {
            self.buf_len = data.len();
        }
        assert_eq!(data.len(), self.buf_len, "one buffer length per store");
        self.resident_bytes += buf_bytes(self.buf_len);
        self.clock += 1;
        self.slots.push((Some(data), self.clock));
        self.evict_to_budget(None);
        self.slots.len() - 1
    }

    /// Accesses a buffer, faulting it in from disk if it was spilled
    /// (possibly evicting others to make room).
    pub fn with<R>(&mut self, handle: usize, f: impl FnOnce(&[C32]) -> R) -> R {
        self.clock += 1;
        self.slots[handle].1 = self.clock;
        if self.slots[handle].0.is_none() {
            let mut bytes = vec![0u8; buf_bytes(self.buf_len)];
            let offset = (handle * bytes.len()) as u64;
            self.file
                .seek(SeekFrom::Start(offset))
                .expect("seek spill file");
            self.file.read_exact(&mut bytes).expect("read spill file");
            let data = bytes.chunks_exact(8).map(|c| C32 {
                re: f32::from_le_bytes(c[0..4].try_into().unwrap()),
                im: f32::from_le_bytes(c[4..8].try_into().unwrap()),
            });
            self.slots[handle].0 = Some(data.collect());
            self.resident_bytes += bytes.len();
            self.faults += 1;
            self.evict_to_budget(Some(handle));
        }
        f(self.slots[handle].0.as_deref().expect("resident"))
    }

    /// Number of buffers spilled to disk so far.
    pub fn spill_count(&self) -> u64 {
        self.spills
    }

    /// Number of faults (spilled buffers read back) so far.
    pub fn fault_count(&self) -> u64 {
        self.faults
    }

    /// Spills the least recently touched resident buffers other than
    /// `keep` until the resident bytes fit the budget.
    fn evict_to_budget(&mut self, keep: Option<usize>) {
        while self.resident_bytes > self.budget_bytes {
            let resident = self.slots.iter().enumerate();
            let victim = resident
                .filter(|&(h, slot)| slot.0.is_some() && Some(h) != keep)
                .min_by_key(|(_, slot)| slot.1);
            let Some((victim, _)) = victim else {
                break;
            };
            let data = self.slots[victim].0.take().expect("resident");
            let bytes: Vec<u8> = (data.iter())
                .flat_map(|v| [v.re.to_le_bytes(), v.im.to_le_bytes()])
                .flatten()
                .collect();
            let offset = (victim * bytes.len()) as u64;
            self.file
                .seek(SeekFrom::Start(offset))
                .expect("seek spill file");
            self.file.write_all(&bytes).expect("write spill file");
            self.resident_bytes -= bytes.len();
            self.spills += 1;
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
        let mut store = SpillStore::new(1 << 20).unwrap();
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
        let mut store = SpillStore::new(2 * B100).unwrap();
        let h1 = store.insert(buf(1, 100));
        let h2 = store.insert(buf(2, 100));
        let h3 = store.insert(buf(3, 100)); // evicts h1 (coldest)
        assert_eq!(store.spill_count(), 1);
        assert!(store.resident_bytes <= 2 * B100);
        // h1 faults back intact
        store.with(h1, |d| assert_eq!(d[0].re, 1000.0));
        assert_eq!(store.fault_count(), 1);
        // everyone still intact
        store.with(h2, |d| assert_eq!(d[0].re, 2000.0));
        store.with(h3, |d| assert_eq!(d[0].re, 3000.0));
    }

    #[test]
    fn lru_access_protects_hot_buffers() {
        let mut store = SpillStore::new(2 * B100).unwrap();
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
    fn many_buffers_survive_heavy_thrash() {
        let mut store = SpillStore::new(3 * B100).unwrap();
        let hs: Vec<usize> = (0..20).map(|i| store.insert(buf(i, 100))).collect();
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
}

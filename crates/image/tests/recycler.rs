//! The process-wide buffer recycler (`stitch_image::buf`): best-fit reuse,
//! zeroed contents, the bound on the bytes it holds, hand-over between
//! threads and separate free lists per element layout.
//!
//! The recycler is one per process, so these tests run one at a time, and
//! each uses element types of its own layout so no other test's buffers
//! can answer its requests.

use std::sync::{Mutex, MutexGuard};

use stitch_image::buf::{self, MIN_BYTES};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// An element of `N` bytes at alignment 1: a layout per test.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Bytes<const N: usize>([u8; N]);

impl<const N: usize> Default for Bytes<N> {
    fn default() -> Self {
        Bytes([0; N])
    }
}

/// The layout of a single-precision complex sample (`stitch_fft::C32`).
#[derive(Clone, Copy, Default, PartialEq, Debug)]
#[repr(C)]
struct Complex32 {
    re: f32,
    im: f32,
}

/// Keeps as many bytes live as lie idle now, plus `extra`, so that the
/// bound leaves room for everything the test then gives back. The buffer
/// is dropped as a plain `Vec`: it never returns to the recycler.
fn room(extra: usize) -> Vec<Bytes<3>> {
    buf::take((buf::usage().idle + extra).div_ceil(3))
}

fn address<T>(v: &[T]) -> usize {
    v.as_ptr() as usize
}

#[test]
fn best_fit_reuses_within_an_eighth_and_not_past_it() {
    let _serial = serial();
    type E = Bytes<5>;
    let len = MIN_BYTES / 5 * 4;
    let _room = room(4 * len * 5);
    // three idle buffers, about 6 %, 10 % and 17 % longer than `len`
    let held: Vec<Vec<E>> = [len, len + len / 25, len + len / 10]
        .into_iter()
        .map(buf::take)
        .collect();
    let caps: Vec<usize> = held.iter().map(Vec::capacity).collect();
    assert!(caps[0] >= len && caps[1] - len <= len / 8 && caps[2] - len > len / 8);
    let addrs: Vec<usize> = held.iter().map(|v| address(v)).collect();
    held.into_iter().rev().for_each(buf::give);

    let first: Vec<E> = buf::take(len);
    assert_eq!(
        (address(&first), first.len()),
        (addrs[0], len),
        "smallest fit first"
    );
    let second: Vec<E> = buf::take(len);
    assert_eq!(address(&second), addrs[1], "then the next within len/8");
    let third: Vec<E> = buf::take(len);
    assert_ne!(address(&third), addrs[2], "17 % longer is past len/8");
    assert_eq!(third.capacity(), len + len / 16, "a fresh buffer");
    // the longer one still serves a request it fits
    let longer: Vec<E> = buf::take(len + len / 12);
    assert_eq!(address(&longer), addrs[2]);
    [first, second, third, longer]
        .into_iter()
        .for_each(buf::give);
}

#[test]
fn reused_buffers_come_back_zeroed() {
    let _serial = serial();
    let len = MIN_BYTES / 7 + 100;
    let _room = room(2 * len * 7);
    let mut dirty: Vec<Bytes<7>> = buf::take(len);
    assert!(dirty.iter().all(|&b| b == Bytes::default()));
    dirty.iter_mut().for_each(|b| *b = Bytes([0xAB; 7]));
    let at = address(&dirty);
    buf::give(dirty);
    let again: Vec<Bytes<7>> = buf::take(len - 3);
    assert_eq!(address(&again), at, "the same storage");
    assert_eq!(again.len(), len - 3);
    assert!(again.iter().all(|&b| b == Bytes::default()), "not zeroed");
    buf::give(again);
}

#[test]
fn held_bytes_stay_within_twice_the_high_water() {
    let _serial = serial();
    type E = Bytes<9>;
    let _room = room(2 * MIN_BYTES);
    let held = |u: buf::Usage| u.live + u.idle;
    let before = buf::usage();
    assert!(held(before) + 2 * MIN_BYTES <= 2 * before.peak);
    // a buffer that fits under the bound is kept...
    let fits: Vec<E> = Vec::with_capacity(MIN_BYTES.div_ceil(9));
    let kept = fits.capacity() * 9;
    buf::give(fits);
    assert_eq!(buf::usage().idle, before.idle + kept);
    // ...one past it goes back to the allocator
    let u = buf::usage();
    let past = 2 * u.peak - held(u) + MIN_BYTES;
    buf::give(Vec::<E>::with_capacity(past.div_ceil(9)));
    let after = buf::usage();
    assert_eq!(after.idle, before.idle + kept, "kept past the bound");
    assert!(held(after) <= 2 * after.peak);
    // and so does everything under the threshold
    buf::give(Vec::<E>::with_capacity(MIN_BYTES / 9 - 1));
    assert_eq!(buf::usage().idle, after.idle);
    let _: Vec<E> = buf::take(MIN_BYTES.div_ceil(9));
}

#[test]
fn a_buffer_given_on_one_thread_is_taken_on_another() {
    let _serial = serial();
    type E = Bytes<11>;
    let len = MIN_BYTES / 11 + 5;
    let _room = room(2 * len * 11);
    let given = std::thread::spawn(move || {
        let v: Vec<E> = buf::take(len);
        let at = address(&v);
        buf::give(v);
        at
    })
    .join()
    .unwrap();
    let taken = std::thread::spawn(move || {
        let v: Vec<E> = buf::take(len);
        let at = address(&v);
        buf::give(v);
        at
    })
    .join()
    .unwrap();
    assert_eq!(given, taken);
}

#[test]
fn layouts_never_mix() {
    let _serial = serial();
    let len = MIN_BYTES;
    let _room = room(16 * len);
    let tile: Vec<u16> = buf::take(len);
    let at = address(&tile);
    buf::give(tile);
    // as many samples or spectrum bins as the buffer has pixels: the same
    // element count, so only the layout keeps them off that buffer
    let samples: Vec<f32> = buf::take(len);
    assert_ne!(address(&samples), at, "a u16 buffer came back as f32");
    let spectrum: Vec<Complex32> = buf::take(len);
    assert_ne!(address(&spectrum), at, "a u16 buffer came back as complex");
    let again: Vec<u16> = buf::take(len);
    assert_eq!(address(&again), at, "the u16 buffer waited for a u16 request");
    buf::give(samples);
    buf::give(spectrum);
    buf::give(again);
}

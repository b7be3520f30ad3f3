//! Property-based tests for the simulated device: memory accounting,
//! pool discipline, stream ordering, and kernel correctness under
//! arbitrary shapes.

use proptest::prelude::*;
use std::sync::Arc;
use stitch_fft::RowBand;
use stitch_gpu::{Device, DeviceConfig, MaxLoc};

fn device(bytes: usize) -> Device {
    Device::new(0, DeviceConfig::small(bytes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Allocation accounting is exact for any alloc/drop sequence.
    #[test]
    fn memory_accounting_exact(sizes in proptest::collection::vec(1usize..2048, 1..12)) {
        let dev = device(16 << 20);
        let mut live = Vec::new();
        let mut expected = 0usize;
        for (i, &len) in sizes.iter().enumerate() {
            let buf = dev.alloc::<u64>(len).unwrap();
            expected += len * 8;
            live.push(buf);
            if i % 3 == 2 {
                let dropped = live.remove(0);
                expected -= dropped.len() * 8;
                drop(dropped);
            }
            prop_assert_eq!(dev.memory_used(), expected);
        }
        live.clear();
        prop_assert_eq!(dev.memory_used(), 0);
    }

    /// The buffer pool never hands out more than its capacity and always
    /// recovers everything.
    #[test]
    fn pool_discipline(count in 1usize..8, churn in 1usize..64) {
        let dev = device(16 << 20);
        let pool = dev.buffer_pool::<u8>(128, count).unwrap();
        let mut held = Vec::new();
        for i in 0..churn {
            if i % 2 == 0 && held.len() < count {
                held.push(pool.acquire());
            } else {
                held.pop();
            }
            prop_assert_eq!(pool.available() + held.len(), count);
        }
        held.clear();
        prop_assert_eq!(pool.available(), count);
    }

    /// Round trip h2d → d2h is the identity for arbitrary data.
    #[test]
    fn copy_round_trip(data in proptest::collection::vec(any::<u16>(), 1..2048)) {
        let dev = device(16 << 20);
        let s = dev.create_stream("t");
        let buf = dev.alloc::<u16>(data.len()).unwrap();
        s.h2d(Arc::new(data.clone()), &buf);
        let back = s.d2h(&buf).wait();
        prop_assert_eq!(back, data);
    }

    /// The top-1 peak reduction agrees with a host-side scan.
    #[test]
    fn max_reduce_agrees_with_host(values in proptest::collection::vec(-1000.0..1000.0f32, 1..512)) {
        let dev = device(16 << 20);
        let s = dev.create_stream("t");
        let buf = dev.alloc::<f32>(values.len()).unwrap();
        s.h2d(Arc::new(values.clone()), &buf);
        let MaxLoc { index, value } = s.top_abs_peaks(&buf, values.len(), values.len(), RowBand::all(1), 1).wait()[0];
        let host_best = values
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap();
        prop_assert_eq!(index, host_best.0);
        prop_assert_eq!(value, f64::from(host_best.1.abs()));
    }

    /// Commands on one stream execute strictly in order for any program.
    #[test]
    fn stream_program_order(ops in proptest::collection::vec(0u8..3, 1..40)) {
        let dev = device(16 << 20);
        let s = dev.create_stream("t");
        let buf = dev.alloc::<u64>(1).unwrap();
        let mut expected = 0u64;
        for op in &ops {
            let b = buf.clone();
            match op {
                0 => {
                    s.launch("add", move |tok| b.map(tok, |d| d[0] = d[0].wrapping_add(7)));
                    expected = expected.wrapping_add(7);
                }
                1 => {
                    s.launch("mul", move |tok| b.map(tok, |d| d[0] = d[0].wrapping_mul(3)));
                    expected = expected.wrapping_mul(3);
                }
                _ => {
                    s.launch("xor", move |tok| b.map(tok, |d| d[0] ^= 0x5a5a));
                    expected ^= 0x5a5a;
                }
            }
        }
        let got = s.d2h(&buf).wait()[0];
        prop_assert_eq!(got, expected);
    }

    /// Top-k peaks are sorted descending and suppression-consistent.
    #[test]
    fn top_peaks_sorted_and_distinct(seed in 0u64..5000, k in 1usize..8) {
        let (w, h) = (24usize, 16usize);
        let dev = device(16 << 20);
        let s = dev.create_stream("t");
        let host: Vec<f32> = (0..w * h)
            .map(|i| {
                let v = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(seed);
                ((v >> 16) % 2000) as f32 - 1000.0
            })
            .collect();
        let buf = dev.alloc::<f32>(w * h).unwrap();
        s.h2d(Arc::new(host), &buf);
        let peaks = s.top_abs_peaks(&buf, w * h, w, RowBand::all(h), k).wait();
        prop_assert!(!peaks.is_empty() && peaks.len() <= k);
        for pair in peaks.windows(2) {
            prop_assert!(pair[0].value >= pair[1].value, "descending order");
            // suppression: no two peaks within Chebyshev distance 2
            let (x0, y0) = ((pair[0].index % w) as i64, (pair[0].index / w) as i64);
            let (x1, y1) = ((pair[1].index % w) as i64, (pair[1].index / w) as i64);
            prop_assert!((x0 - x1).abs() > 2 || (y0 - y1).abs() > 2);
        }
    }
}

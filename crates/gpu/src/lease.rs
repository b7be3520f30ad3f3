//! Stream leasing — arbitration for callers that share one device.
//!
//! [`Device::create_stream`](crate::Device::create_stream) is free-form:
//! any caller can open any number of streams, which is the right contract
//! *within* one pipeline run. A multi-job scheduler needs the opposite:
//! a hard bound on how many concurrent command queues the device serves,
//! plus accounting it can assert on after cancellations. A
//! [`StreamLease`] is a [`Stream`] checked out against the device's
//! `stream_slots` budget; it behaves exactly like the stream it wraps and
//! returns its slot on drop — including a drop that happens because the
//! owning job panicked and unwound.

use std::sync::atomic::Ordering;

use crate::device::Device;
use crate::semaphore::OwnedPermit;
use crate::stream::Stream;

/// A [`Stream`] on lease from a [`Device`]; see
/// [`Device::lease_stream`]. Dereferences to the stream; the slot and
/// the lease accounting release on drop, after the stream has drained.
pub struct StreamLease {
    // Declaration order is the drop order: the stream drains its queue
    // first, then the slot frees, then the active-lease gauge drops.
    stream: Stream,
    _permit: Option<OwnedPermit>,
    accounting: LeaseAccounting,
}

struct LeaseAccounting {
    device: Device,
}

impl Drop for LeaseAccounting {
    fn drop(&mut self) {
        self.device
            .inner
            .active_stream_leases
            .fetch_sub(1, Ordering::AcqRel);
    }
}

impl StreamLease {
    pub(crate) fn grant(device: &Device, name: &str, permit: Option<OwnedPermit>) -> StreamLease {
        device
            .inner
            .active_stream_leases
            .fetch_add(1, Ordering::AcqRel);
        device
            .inner
            .total_stream_leases
            .fetch_add(1, Ordering::AcqRel);
        StreamLease {
            stream: device.create_stream(name),
            _permit: permit,
            accounting: LeaseAccounting {
                device: device.clone(),
            },
        }
    }

    /// The device this lease came from.
    pub fn device(&self) -> &Device {
        &self.accounting.device
    }

    /// The leased stream (also reachable through `Deref`).
    pub fn stream(&self) -> &Stream {
        &self.stream
    }
}

impl std::ops::Deref for StreamLease {
    type Target = Stream;
    fn deref(&self) -> &Stream {
        &self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use std::sync::Arc;

    fn free_slots(d: &Device) -> usize {
        d.inner.stream_slots.as_ref().expect("bounded").available()
    }

    #[test]
    fn lease_counters_track_grant_and_drop() {
        let d = Device::new(0, DeviceConfig::small(1 << 20));
        assert_eq!(d.active_stream_leases(), 0);
        let a = d.lease_stream("a");
        let b = d.lease_stream("b");
        assert_eq!(d.active_stream_leases(), 2);
        assert_eq!(d.total_stream_leases(), 2);
        drop(a);
        drop(b);
        assert_eq!(d.active_stream_leases(), 0);
        assert_eq!(d.total_stream_leases(), 2);
    }

    #[test]
    fn slots_bound_concurrent_leases() {
        let cfg = DeviceConfig {
            stream_slots: Some(1),
            ..DeviceConfig::small(1 << 20)
        };
        let d = Device::new(0, cfg);
        let held = d.lease_stream("first");
        assert_eq!(free_slots(&d), 0, "slot is taken");
        drop(held);
        assert_eq!(free_slots(&d), 1, "slot freed on drop");
        assert_eq!(d.active_stream_leases(), 0);
    }

    #[test]
    fn leased_stream_executes_commands() {
        let d = Device::new(0, DeviceConfig::small(1 << 20));
        let lease = d.lease_stream("exec");
        let buf = d.alloc::<u16>(16).unwrap();
        let host: Arc<Vec<u16>> = Arc::new((0..16).collect());
        lease.h2d(Arc::clone(&host), &buf);
        assert_eq!(&lease.d2h(&buf).wait(), &*host);
    }

    #[test]
    fn lease_released_on_panic_unwind() {
        let cfg = DeviceConfig {
            stream_slots: Some(1),
            ..DeviceConfig::small(1 << 20)
        };
        let d = Device::new(0, cfg);
        let d2 = d.clone();
        let _ = std::panic::catch_unwind(move || {
            let _lease = d2.lease_stream("doomed");
            panic!("job failure mid-lease");
        });
        assert_eq!(d.active_stream_leases(), 0, "unwind must free the lease");
        assert_eq!(free_slots(&d), 1, "slot must be free again");
    }
}

//! The workspace's one content digest: FNV-1a, 64-bit.
//!
//! Change detection and determinism checks (region replies, testkit
//! battery digests) only need a cheap, stable, order-sensitive hash, not
//! a cryptographic one. Multi-byte values are fed little-endian.

/// Streaming FNV-1a 64 hasher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The FNV-1a 64-bit offset basis (the digest of no input).
    const OFFSET: u64 = 0xcbf29ce484222325;
    /// The FNV 64-bit prime.
    pub const PRIME: u64 = 0x100000001b3;

    /// A hasher with nothing written.
    pub fn new() -> Fnv64 {
        Fnv64(Fnv64::OFFSET)
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Fnv64::PRIME);
        }
    }

    /// Feeds 16-bit samples (pixels), each little-endian.
    pub fn write_u16s(&mut self, samples: &[u16]) {
        for s in samples {
            self.write(&s.to_le_bytes());
        }
    }

    /// Feeds one 64-bit value, little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_vectors() {
        assert_eq!(Fnv64::new().finish(), 0xcbf29ce484222325);
        let mut h = Fnv64::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
        let mut h = Fnv64::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn typed_writes_are_little_endian_byte_writes() {
        let mut typed = Fnv64::new();
        typed.write_u16s(&[0x0102, 0xfffe]);
        typed.write_u64(0x0807060504030201);
        let mut raw = Fnv64::new();
        raw.write(&[0x02, 0x01, 0xfe, 0xff]);
        raw.write(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(typed, raw);
    }

    #[test]
    fn order_and_length_sensitive() {
        let digest = |px: &[u16]| {
            let mut h = Fnv64::new();
            h.write_u16s(px);
            h.finish()
        };
        assert_ne!(digest(&[1, 2, 3]), digest(&[3, 2, 1]));
        assert_ne!(digest(&[0, 0]), digest(&[0, 0, 0]));
    }
}

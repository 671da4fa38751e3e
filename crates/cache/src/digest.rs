//! The 128-bit content digest and the config fingerprint.
//!
//! The build environment has no crates.io access, so the hash is hand-rolled:
//! FNV-1a widened to 128 bits (the offset basis and prime are the published
//! 128-bit FNV constants), consumed 8 bytes at a time with a final
//! xx-style avalanche fold. It is not cryptographic — it does not need to
//! be: the cache defends against *accidents* (torn writes, truncation, bit
//! rot, stale entries), not adversaries, and 128 bits make an accidental
//! collision between distinct artifacts astronomically unlikely.

/// 128-bit FNV offset basis.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV prime.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A 128-bit content digest. Printed and parsed as 32 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub u128);

impl Digest {
    /// Parse the 32-hex-digit form produced by `Display`.
    pub fn parse(s: &str) -> Option<Digest> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Digest)
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Incremental 128-bit hasher behind [`digest_bytes`]; exposed so callers
/// can hash structured data (particle arrays, key compositions) without
/// first serializing into one contiguous buffer.
#[derive(Debug, Clone)]
pub struct Hasher {
    state: u128,
    /// Bytes held back until a full 8-byte lane accumulates, so chunk
    /// boundaries across `update` calls cannot change the lane alignment.
    pending: [u8; 8],
    pending_len: usize,
    /// Total bytes consumed — folded into the result so a trailing
    /// zero-padded input does not collide with its unpadded form.
    len: u64,
}

impl Hasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Hasher {
        Hasher {
            state: FNV_OFFSET,
            pending: [0; 8],
            pending_len: 0,
            len: 0,
        }
    }

    fn mix_lane(&mut self, lane: u64) {
        // 8 bytes per multiply: byte-order-sensitive mixing like FNV-1a
        // byte-at-a-time over a u64 lane, ~8x fewer multiplies.
        self.state = (self.state ^ lane as u128).wrapping_mul(FNV_PRIME);
    }

    /// Consume `data`. Chunk boundaries do not affect the result.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.pending_len > 0 {
            let take = (8 - self.pending_len).min(data.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&data[..take]);
            self.pending_len += take;
            data = &data[take..];
            if self.pending_len < 8 {
                return;
            }
            let lane = u64::from_le_bytes(self.pending);
            self.mix_lane(lane);
            self.pending_len = 0;
        }
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            self.mix_lane(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// Finish with an avalanche fold so low-entropy inputs still spread
    /// across all 128 bits.
    pub fn finish(&self) -> Digest {
        let mut s = self.state;
        // Flush the partial lane zero-padded; the length fold below keeps
        // padded and unpadded inputs distinct.
        if self.pending_len > 0 {
            let mut tail = [0u8; 8];
            tail[..self.pending_len].copy_from_slice(&self.pending[..self.pending_len]);
            s = (s ^ u64::from_le_bytes(tail) as u128).wrapping_mul(FNV_PRIME);
        }
        let mut s = (s ^ self.len as u128).wrapping_mul(FNV_PRIME);
        s ^= s >> 67;
        s = s.wrapping_mul(FNV_PRIME);
        s ^= s >> 59;
        Digest(s)
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher::new()
    }
}

/// Digest of one contiguous byte buffer (file contents, serialized
/// containers).
pub fn digest_bytes(data: &[u8]) -> Digest {
    let mut h = Hasher::new();
    h.update(data);
    h.finish()
}

/// A fingerprint over configuration: which *parameters* produced an
/// artifact, as opposed to which *input bytes* went in. Two runs with the
/// same input data but a different linking length must not share cache
/// entries; the fingerprint is the second half of every [`CacheKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(pub Digest);

impl Fingerprint {
    /// Fold a namespace fingerprint into this one, yielding a fingerprint
    /// that can only collide with the same parameters *in the same
    /// namespace*. The workflow service derives a namespace from each
    /// campaign's spec and scopes every product fingerprint with it, so
    /// concurrent campaigns sharing one `ArtifactCache` can never read each
    /// other's entries — while re-running the *same* campaign (solo or in a
    /// service) still hits the same keys.
    pub fn scoped(self, namespace: Fingerprint) -> Fingerprint {
        let mut b = FingerprintBuilder::new();
        b.push_fingerprint(namespace).push_fingerprint(self);
        b.finish()
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// Builds a [`Fingerprint`] from typed fields. Every push is prefixed with a
/// one-byte type tag so `push_u64(1); push_u64(2)` cannot collide with
/// `push_str("\x01\0…")` field reorderings of equal bytes.
#[derive(Debug, Clone, Default)]
pub struct FingerprintBuilder {
    h: Hasher,
}

impl FingerprintBuilder {
    /// An empty fingerprint builder.
    pub fn new() -> FingerprintBuilder {
        FingerprintBuilder { h: Hasher::new() }
    }

    /// Add a string field (length-prefixed).
    pub fn push_str(&mut self, s: &str) -> &mut Self {
        self.h.update(&[1]);
        self.h.update(&(s.len() as u64).to_le_bytes());
        self.h.update(s.as_bytes());
        self
    }

    /// Add an integer field.
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.h.update(&[2]);
        self.h.update(&v.to_le_bytes());
        self
    }

    /// Add a float field (bit pattern, so `-0.0 != 0.0` and NaNs are stable).
    pub fn push_f64(&mut self, v: f64) -> &mut Self {
        self.h.update(&[3]);
        self.h.update(&v.to_bits().to_le_bytes());
        self
    }

    /// Add a nested fingerprint field (namespacing / composition).
    fn push_fingerprint(&mut self, fp: Fingerprint) -> &mut Self {
        self.h.update(&[4]);
        self.h.update(&fp.0 .0.to_le_bytes());
        self
    }

    /// Finish into a fingerprint.
    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.h.finish())
    }
}

/// The key an artifact is stored under: `(operation, input digest, config
/// fingerprint)` composed into one 128-bit id. The operation name separates
/// different analyses of the same input (FOF catalog vs post centers), the
/// input digest binds the entry to exact input bytes, and the fingerprint
/// binds it to the algorithm parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(pub Digest);

impl CacheKey {
    /// Compose a key from its three components.
    pub fn compose(op: &str, input: Digest, fingerprint: Fingerprint) -> CacheKey {
        let mut h = Hasher::new();
        h.update(&(op.len() as u64).to_le_bytes());
        h.update(op.as_bytes());
        h.update(&input.0.to_le_bytes());
        h.update(&fingerprint.0 .0.to_le_bytes());
        CacheKey(h.finish())
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_and_chunking_invariant() {
        let a = digest_bytes(b"the quick brown fox jumps over the lazy dog");
        let b = digest_bytes(b"the quick brown fox jumps over the lazy dog");
        assert_eq!(a, b);
        let mut h = Hasher::new();
        h.update(b"the quick brown fox ");
        h.update(b"jumps over the lazy dog");
        assert_eq!(h.finish(), a);
        // Odd split across the 8-byte lane boundary.
        let mut h = Hasher::new();
        h.update(b"the");
        h.update(b" quick brown fox jumps over the lazy dog");
        assert_eq!(h.finish(), a);
    }

    #[test]
    fn digest_distinguishes_near_misses() {
        let base = digest_bytes(b"abcdefgh");
        assert_ne!(base, digest_bytes(b"abcdefgi"));
        assert_ne!(base, digest_bytes(b"abcdefgh\0"));
        assert_ne!(base, digest_bytes(b"abcdefg"));
        assert_ne!(digest_bytes(b""), digest_bytes(b"\0"));
    }

    #[test]
    fn digest_hex_roundtrips() {
        let d = digest_bytes(b"roundtrip");
        let s = d.to_string();
        assert_eq!(s.len(), 32);
        assert_eq!(Digest::parse(&s), Some(d));
        assert_eq!(Digest::parse("xyz"), None);
        assert_eq!(Digest::parse(&s[..31]), None);
    }

    #[test]
    fn fingerprint_fields_are_typed_and_ordered() {
        let mut a = FingerprintBuilder::new();
        a.push_u64(1).push_u64(2);
        let mut b = FingerprintBuilder::new();
        b.push_u64(2).push_u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = FingerprintBuilder::new();
        c.push_f64(1.0);
        let mut d = FingerprintBuilder::new();
        d.push_u64(1.0f64.to_bits());
        assert_ne!(c.finish(), d.finish(), "type tags must separate kinds");
    }

    #[test]
    fn scoped_fingerprints_partition_the_key_space_by_namespace() {
        let fp = FingerprintBuilder::new().push_f64(0.168).finish();
        let ns_a = FingerprintBuilder::new().push_str("campaign-a").finish();
        let ns_b = FingerprintBuilder::new().push_str("campaign-b").finish();

        // Deterministic: the same campaign always lands on the same keys.
        assert_eq!(fp.scoped(ns_a), fp.scoped(ns_a));
        // Distinct namespaces never share a fingerprint, even for identical
        // parameters — this is what prevents cross-campaign cache bleed.
        assert_ne!(fp.scoped(ns_a), fp.scoped(ns_b));
        // Scoping is not a no-op, and direction matters (ns(fp) != fp(ns)).
        assert_ne!(fp.scoped(ns_a), fp);
        assert_ne!(fp.scoped(ns_a), ns_a.scoped(fp));

        let input = digest_bytes(b"same input bytes");
        let ka = CacheKey::compose("centers", input, fp.scoped(ns_a));
        let kb = CacheKey::compose("centers", input, fp.scoped(ns_b));
        assert_ne!(ka, kb);
    }

    #[test]
    fn push_fingerprint_is_tagged_against_collisions() {
        let inner = FingerprintBuilder::new().push_u64(9).finish();
        let mut nested = FingerprintBuilder::new();
        nested.push_fingerprint(inner);
        // A nested fingerprint must not collide with pushing its raw bits
        // through another field type.
        let mut raw_lo = FingerprintBuilder::new();
        raw_lo.push_u64(inner.0 .0 as u64);
        assert_ne!(nested.finish(), raw_lo.finish());
    }

    #[test]
    fn key_composition_separates_all_three_components() {
        let input = digest_bytes(b"input");
        let other_input = digest_bytes(b"other");
        let fp = FingerprintBuilder::new().push_u64(7).finish();
        let other_fp = FingerprintBuilder::new().push_u64(8).finish();
        let k = CacheKey::compose("fof", input, fp);
        assert_eq!(k, CacheKey::compose("fof", input, fp));
        assert_ne!(k, CacheKey::compose("centers", input, fp));
        assert_ne!(k, CacheKey::compose("fof", other_input, fp));
        assert_ne!(k, CacheKey::compose("fof", input, other_fp));
    }
}

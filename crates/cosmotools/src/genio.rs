//! A GenericIO-like binary particle container.
//!
//! HACC writes its Level 1/2 data with GenericIO: self-describing blocks,
//! per-block checksums, aggregated files ("the results from 128 nodes were
//! aggregated in one file, resulting in 128 files containing 128 blocks
//! each", §4.1). This module reproduces the essentials: a magic/version
//! header, named metadata, multiple per-rank *blocks* each carrying its own
//! CRC, and corruption detection on read.
//!
//! The codec writes whole 36-byte records into a buffer sized up front and
//! decodes straight from the input slice. Every count a decoder reads is
//! untrusted: it is multiplied with checked arithmetic, and no capacity is
//! ever taken from it beyond what the bytes still unread can hold — a forged
//! count is `Truncated`, never an allocation.

use bytes::Bytes;
use nbody::particle::Particle;

/// File magic.
const MAGIC: &[u8; 4] = b"HCIO";
/// Format version.
const VERSION: u32 = 1;

/// Errors reading a container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenioError {
    /// Not a container (wrong magic).
    BadMagic,
    /// Version newer than this reader.
    UnsupportedVersion(u32),
    /// Data ends before the declared payload does.
    Truncated,
    /// A block's CRC does not match its contents.
    ChecksumMismatch {
        /// Index of the corrupt block.
        block: usize,
    },
    /// Chunks being assembled disagree on metadata or total, carry a
    /// duplicate index, or an index out of range.
    ChunkMismatch,
    /// A chunk set is missing pieces (`have` of `want` arrived).
    ChunkSetIncomplete {
        /// Distinct chunks present.
        have: usize,
        /// Chunks the set declares.
        want: usize,
    },
    /// An image container's payload or axis code contradicts its header,
    /// or its counts contradict each other (CRC passed, so the writer — not
    /// the wire — was wrong).
    BadImage,
    /// Bytes follow the last one the header declares.
    TrailingBytes,
}

impl std::fmt::Display for GenioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenioError::BadMagic => write!(f, "not a HCIO container"),
            GenioError::UnsupportedVersion(v) => write!(f, "unsupported HCIO version {v}"),
            GenioError::Truncated => write!(f, "container truncated"),
            GenioError::ChecksumMismatch { block } => {
                write!(f, "checksum mismatch in block {block}")
            }
            GenioError::ChunkMismatch => write!(f, "chunks from different snapshots or duplicated"),
            GenioError::ChunkSetIncomplete { have, want } => {
                write!(f, "chunk set incomplete: {have} of {want}")
            }
            GenioError::BadImage => write!(f, "image payload contradicts its header"),
            GenioError::TrailingBytes => write!(f, "bytes after the declared payload"),
        }
    }
}

impl std::error::Error for GenioError {}

/// Slice-by-8 tables of the reflected IEEE polynomial: `CRC_TABLES[0]` is
/// the classic byte table, and `CRC_TABLES[k][b]` is `CRC_TABLES[0][b]`
/// carried through `k` further zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    const POLY: u32 = 0xEDB8_8320;
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE, reflected), slice-by-8: eight bytes per step, each looked
/// up in the table that carries it through the bytes after it in the step,
/// then the tail byte by byte — the same value as the bytewise loop.
fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let (words, tail) = data.as_chunks::<8>();
    let mut crc = !0u32;
    for w in words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in tail {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Snapshot-level metadata carried in the header.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotMeta {
    /// Simulation step index.
    pub step: u64,
    /// Redshift of the snapshot.
    pub redshift: f64,
    /// Box side (Mpc/h).
    pub box_size: f64,
}

/// A container: metadata plus one particle block per writing rank.
#[derive(Debug, Clone, PartialEq)]
pub struct Container {
    /// Snapshot metadata.
    pub meta: SnapshotMeta,
    /// Per-rank particle blocks.
    pub blocks: Vec<Vec<Particle>>,
}

impl Container {
    /// Total particles across blocks.
    pub fn total_particles(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).sum()
    }
}

/// Bytes per serialized particle record: position, velocity, mass (`f32`
/// little-endian each), then the `u64` tag.
const RECORD_BYTES: usize = 36;

/// Bytes of a container header: magic, version, step, redshift, box side
/// and block count.
const HEADER_BYTES: usize = 36;

/// Bytes in front of each block's records: its record count and CRC.
const BLOCK_HEADER_BYTES: usize = 12;

/// Bytes of a chunk header: magic, version, step, redshift, box side, index,
/// total, record count and CRC.
const CHUNK_HEADER_BYTES: usize = 52;

/// One particle's record.
fn record(p: &Particle) -> [u8; RECORD_BYTES] {
    let mut r = [0u8; RECORD_BYTES];
    let words = p.pos.iter().chain(&p.vel).chain([&p.mass]);
    for (out, v) in r.chunks_exact_mut(4).zip(words) {
        out.copy_from_slice(&v.to_le_bytes());
    }
    r[28..].copy_from_slice(&p.tag.to_le_bytes());
    r
}

/// The particle a record holds.
fn particle(r: &[u8; RECORD_BYTES]) -> Particle {
    let (words, tag) = r.split_at(28);
    let (words, _) = words.as_chunks::<4>();
    let f = |i: usize| f32::from_le_bytes(words[i]);
    let mut t = [0u8; 8];
    t.copy_from_slice(tag);
    Particle {
        pos: [f(0), f(1), f(2)],
        vel: [f(3), f(4), f(5)],
        mass: f(6),
        tag: u64::from_le_bytes(t),
    }
}

/// Append the snapshot metadata: step, redshift, box side.
fn put_meta(buf: &mut Vec<u8>, meta: &SnapshotMeta) {
    buf.extend_from_slice(&meta.step.to_le_bytes());
    buf.extend_from_slice(&meta.redshift.to_le_bytes());
    buf.extend_from_slice(&meta.box_size.to_le_bytes());
}

/// Append one block: its record count and CRC, then the records, whose CRC
/// is taken where they landed.
fn put_block(buf: &mut Vec<u8>, block: &[Particle]) {
    buf.extend_from_slice(&(block.len() as u64).to_le_bytes());
    let crc_at = buf.len();
    buf.extend_from_slice(&[0; 4]);
    for p in block {
        buf.extend_from_slice(&record(p));
    }
    let crc = crc32(&buf[crc_at + 4..]);
    buf[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
}

/// Serialize a container.
pub fn write_container(c: &Container) -> Bytes {
    let len = HEADER_BYTES
        + c.blocks
            .iter()
            .map(|b| BLOCK_HEADER_BYTES + b.len() * RECORD_BYTES)
            .sum::<usize>();
    let _span = telemetry::span!("cosmotools.genio", "encode", len);
    let mut buf = Vec::with_capacity(len);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    put_meta(&mut buf, &c.meta);
    buf.extend_from_slice(&(c.blocks.len() as u32).to_le_bytes());
    for block in &c.blocks {
        put_block(&mut buf, block);
    }
    debug_assert_eq!(buf.len(), len);
    Bytes::from(buf)
}

/// A read cursor over untrusted bytes: a read past the end is
/// [`GenioError::Truncated`], never a panic.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Check the magic, then the version.
    fn open(data: &'a [u8], magic: &[u8; 4]) -> Result<Self, GenioError> {
        let Some((head, rest)) = data.split_first_chunk::<4>() else {
            return Err(GenioError::BadMagic);
        };
        if head != magic {
            return Err(GenioError::BadMagic);
        }
        let mut r = Reader { rest };
        let version = r.u32()?;
        if version != VERSION {
            return Err(GenioError::UnsupportedVersion(version));
        }
        Ok(r)
    }

    fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The end of the data: the encoders write nothing after the payload.
    fn finish(self) -> Result<(), GenioError> {
        self.rest
            .is_empty()
            .then_some(())
            .ok_or(GenioError::TrailingBytes)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], GenioError> {
        let (head, rest) = self.rest.split_at_checked(n).ok_or(GenioError::Truncated)?;
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], GenioError> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(GenioError::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    fn u32(&mut self) -> Result<u32, GenioError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, GenioError> {
        self.array().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Result<f64, GenioError> {
        self.array().map(f64::from_le_bytes)
    }

    fn meta(&mut self) -> Result<SnapshotMeta, GenioError> {
        Ok(SnapshotMeta {
            step: self.u64()?,
            redshift: self.f64()?,
            box_size: self.f64()?,
        })
    }

    /// A block's records — `count` of them, a count the bytes must bear out
    /// (checked multiply, then a bounds check) — verified against `crc`.
    fn records(&mut self, count: u64, crc: u32, block: usize) -> Result<Vec<Particle>, GenioError> {
        let len = usize::try_from(count)
            .ok()
            .and_then(|n| n.checked_mul(RECORD_BYTES))
            .ok_or(GenioError::Truncated)?;
        let body = self.take(len)?;
        if crc32(body) != crc {
            return Err(GenioError::ChecksumMismatch { block });
        }
        Ok(body.as_chunks().0.iter().map(particle).collect())
    }
}

/// Deserialize and verify a container.
pub fn read_container(data: &[u8]) -> Result<Container, GenioError> {
    let _span = telemetry::span!("cosmotools.genio", "decode", data.len());
    let mut r = Reader::open(data, MAGIC)?;
    let meta = r.meta()?;
    let nblocks = r.u32()? as usize;
    // Every block takes at least its header: no more can be present.
    let mut blocks = Vec::with_capacity(nblocks.min(r.remaining() / BLOCK_HEADER_BYTES));
    for bi in 0..nblocks {
        let n = r.u64()?;
        let crc = r.u32()?;
        blocks.push(r.records(n, crc, bi)?);
    }
    r.finish()?;
    Ok(Container { meta, blocks })
}

/// Write a container to a file.
pub fn write_file(path: &std::path::Path, c: &Container) -> std::io::Result<()> {
    write_file_digest(path, c).map(|_| ())
}

/// Write a container to a file and return the content digest of the bytes
/// written — the artifact-cache identity of this Level 1/2 product. The
/// container is serialized exactly once, so the digest is over precisely
/// what landed on disk.
pub fn write_file_digest(path: &std::path::Path, c: &Container) -> std::io::Result<cache::Digest> {
    let bytes = write_container(c);
    let digest = cache::digest_bytes(&bytes);
    std::fs::write(path, bytes)?;
    Ok(digest)
}

/// Content digest of a container's serialized form (equals
/// [`write_file_digest`]'s result without touching the filesystem).
pub fn container_digest(c: &Container) -> cache::Digest {
    cache::digest_bytes(&write_container(c))
}

/// Content digest of an on-disk container file (hashes the raw bytes; does
/// not parse them — a torn file digests to something, it just won't match
/// any stamped artifact).
pub fn file_digest(path: &std::path::Path) -> std::io::Result<cache::Digest> {
    Ok(cache::digest_bytes(&std::fs::read(path)?))
}

/// Read a container from a file.
pub fn read_file(path: &std::path::Path) -> std::io::Result<Result<Container, GenioError>> {
    Ok(read_container(&std::fs::read(path)?))
}

// ---------------------------------------------------------------------------
// Streaming chunks: the in-transit wire format.
//
// The streaming Level-2 path ships a snapshot one *block* at a time instead
// of rendezvousing on the whole container: chunk i carries block i plus
// enough header (snapshot metadata, index, declared total) for the ingest
// edge to know when a step's set is complete. [`assemble_chunks`] then
// rebuilds a [`Container`] **equal to the original**, so
// `write_container(assemble(chunks)) == write_container(original)` — the
// streamed and whole-file paths serialize to identical bytes, identical
// digests, identical cache keys, and therefore byte-identical catalogs.
// ---------------------------------------------------------------------------

/// Chunk magic (distinct from the container's, so a chunk fed to
/// [`read_container`] is rejected instead of misparsed).
const CHUNK_MAGIC: &[u8; 4] = b"HCCK";

/// Decoded header of one streamed chunk.
#[derive(Debug, Clone, PartialEq)]
struct ChunkHeader {
    /// Snapshot metadata (identical across a step's chunk set).
    meta: SnapshotMeta,
    /// This chunk's block index, `0..total`.
    index: u32,
    /// Number of chunks (= blocks) in the step's set. `0` is the sentinel
    /// for a block-less container: the set is one empty chunk.
    total: u32,
}

/// Encode block `index` of `total` as one self-verifying chunk.
fn encode_chunk(meta: &SnapshotMeta, index: u32, total: u32, block: &[Particle]) -> Bytes {
    let len = CHUNK_HEADER_BYTES + block.len() * RECORD_BYTES;
    let _span = telemetry::span!("cosmotools.genio", "encode", len);
    let mut buf = Vec::with_capacity(len);
    buf.extend_from_slice(CHUNK_MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    put_meta(&mut buf, meta);
    buf.extend_from_slice(&index.to_le_bytes());
    buf.extend_from_slice(&total.to_le_bytes());
    put_block(&mut buf, block);
    debug_assert_eq!(buf.len(), len);
    Bytes::from(buf)
}

/// Decode and verify one chunk.
fn decode_chunk(data: &[u8]) -> Result<(ChunkHeader, Vec<Particle>), GenioError> {
    let _span = telemetry::span!("cosmotools.genio", "decode", data.len());
    let mut r = Reader::open(data, CHUNK_MAGIC)?;
    let meta = r.meta()?;
    let index = r.u32()?;
    let total = r.u32()?;
    let n = r.u64()?;
    let crc = r.u32()?;
    let parts = r.records(n, crc, index as usize)?;
    r.finish()?;
    Ok((ChunkHeader { meta, index, total }, parts))
}

/// Split a container into its chunk set, one chunk per block (a block-less
/// container becomes a single `total = 0` sentinel carrying just the meta).
pub fn chunk_container(c: &Container) -> Vec<Bytes> {
    if c.blocks.is_empty() {
        return vec![encode_chunk(&c.meta, 0, 0, &[])];
    }
    let total = c.blocks.len() as u32;
    c.blocks
        .iter()
        .enumerate()
        .map(|(i, block)| encode_chunk(&c.meta, i as u32, total, block))
        .collect()
}

/// Rebuild a container from a step's chunk set, in any arrival order.
///
/// Verifies every chunk (CRC), that all chunks agree on metadata and
/// declared total, that each index `0..total` is present exactly once, and
/// returns a container equal to the one [`chunk_container`] split — so the
/// serialized bytes (and every digest derived from them) are identical to
/// the whole-file path.
///
/// The declared total is untrusted, so nothing is sized from it: blocks are
/// kept by index as they arrive, at most one per chunk given.
pub fn assemble_chunks(chunks: &[impl AsRef<[u8]>]) -> Result<Container, GenioError> {
    let mut set: Option<(SnapshotMeta, u32)> = None;
    let mut blocks = std::collections::BTreeMap::new();
    for raw in chunks {
        let (header, parts) = decode_chunk(raw.as_ref())?;
        let (meta, total) = set.get_or_insert_with(|| (header.meta.clone(), header.total));
        if header.meta != *meta || header.total != *total {
            return Err(GenioError::ChunkMismatch);
        }
        let total = *total;
        let legal = if total == 0 {
            // Sentinel for a block-less container; only index 0 is legal.
            header.index == 0 && parts.is_empty()
        } else {
            header.index < total
        };
        if !legal || blocks.insert(header.index, parts).is_some() {
            return Err(GenioError::ChunkMismatch);
        }
    }
    let Some((meta, total)) = set else {
        return Err(GenioError::ChunkSetIncomplete { have: 0, want: 1 });
    };
    let want = total.max(1) as usize;
    if blocks.len() < want {
        return Err(GenioError::ChunkSetIncomplete {
            have: blocks.len(),
            want,
        });
    }
    // `want` distinct indices below `total`: exactly `0..total`, in order.
    let blocks = if total == 0 {
        Vec::new()
    } else {
        blocks.into_values().collect()
    };
    Ok(Container { meta, blocks })
}

// ---------------------------------------------------------------------------
// Image containers: the in-situ visualization wire format.
//
// Rendered frames ride the same infrastructure as the Level 1/2 containers —
// content digests for the artifact cache, CRC verification on read, a magic
// distinct from both HCIO and HCCK so misrouted bytes are rejected instead of
// misparsed. The payload is the frame's binary PGM, so the container is
// directly viewable after stripping the fixed header.
// ---------------------------------------------------------------------------

/// Image container magic.
const IMAGE_MAGIC: &[u8; 4] = b"HCIM";

/// Fixed size of the HCIM header preceding the PGM payload.
pub const IMAGE_HEADER_BYTES: u64 = 69;

use crate::render::{decode_pgm, encode_pgm, Axis, ImageFrame};

/// Serialize a rendered frame as an HCIM container.
pub fn write_image(frame: &ImageFrame) -> Bytes {
    let payload = encode_pgm(frame.width, frame.height, &frame.pixels);
    let mut buf = Vec::with_capacity(IMAGE_HEADER_BYTES as usize + payload.len());
    buf.extend_from_slice(IMAGE_MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&frame.step.to_le_bytes());
    buf.push(frame.axis.code());
    buf.extend_from_slice(&frame.width.to_le_bytes());
    buf.extend_from_slice(&frame.height.to_le_bytes());
    for v in [
        frame.selected,
        frame.total,
        frame.byte_budget,
        frame.nonfinite_pixels,
        payload.len() as u64,
    ] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf.extend_from_slice(&crc32(&payload).to_le_bytes());
    debug_assert_eq!(buf.len() as u64, IMAGE_HEADER_BYTES);
    buf.extend_from_slice(&payload);
    Bytes::from(buf)
}

/// Deserialize and verify an HCIM container.
pub fn read_image(data: &[u8]) -> Result<ImageFrame, GenioError> {
    let mut r = Reader::open(data, IMAGE_MAGIC)?;
    let step = r.u64()?;
    let [axis_code] = r.array()?;
    let width = r.u32()?;
    let height = r.u32()?;
    let selected = r.u64()?;
    let total = r.u64()?;
    let byte_budget = r.u64()?;
    let nonfinite_pixels = r.u64()?;
    let payload_len = usize::try_from(r.u64()?).map_err(|_| GenioError::Truncated)?;
    let crc_expect = r.u32()?;
    let payload = r.take(payload_len)?;
    r.finish()?;
    if crc32(payload) != crc_expect {
        return Err(GenioError::ChecksumMismatch { block: 0 });
    }
    let axis = Axis::from_code(axis_code).ok_or(GenioError::BadImage)?;
    let (w, h, pixels) = decode_pgm(payload).ok_or(GenioError::BadImage)?;
    // A frame keeps at most what it was offered, and counts at most one
    // non-finite bin per pixel.
    let counts_agree = selected <= total && nonfinite_pixels <= pixels.len() as u64;
    if (w, h) != (width, height) || !counts_agree {
        return Err(GenioError::BadImage);
    }
    Ok(ImageFrame {
        step,
        axis,
        width,
        height,
        pixels,
        nonfinite_pixels,
        selected,
        total,
        byte_budget,
    })
}

/// Content digest of a frame's serialized HCIM form — its artifact-cache
/// identity (equals [`write_image_file`]'s result without touching disk).
pub fn image_digest(frame: &ImageFrame) -> cache::Digest {
    cache::digest_bytes(&write_image(frame))
}

/// Write a frame to a file and return the content digest of the bytes
/// written.
pub fn write_image_file(
    path: &std::path::Path,
    frame: &ImageFrame,
) -> std::io::Result<cache::Digest> {
    let bytes = write_image(frame);
    let digest = cache::digest_bytes(&bytes);
    std::fs::write(path, bytes)?;
    Ok(digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(nblocks: usize, per_block: usize) -> Container {
        let mut blocks = Vec::new();
        let mut tag = 0;
        for b in 0..nblocks {
            let mut parts = Vec::new();
            for i in 0..per_block {
                parts.push(Particle {
                    pos: [b as f32, i as f32, 0.5],
                    vel: [0.1, -0.2, 0.3],
                    mass: 1.0,
                    tag,
                });
                tag += 1;
            }
            blocks.push(parts);
        }
        Container {
            meta: SnapshotMeta {
                step: 100,
                redshift: 0.0,
                box_size: 162.5,
            },
            blocks,
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let c = sample(4, 100);
        let bytes = write_container(&c);
        let back = read_container(&bytes).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.total_particles(), 400);
    }

    #[test]
    fn empty_container_roundtrips() {
        let c = Container {
            meta: SnapshotMeta {
                step: 0,
                redshift: 10.0,
                box_size: 1.0,
            },
            blocks: vec![],
        };
        let back = read_container(&write_container(&c)).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn record_size_is_36_bytes() {
        // The serialized record must match the paper's 36 B/particle.
        let c = sample(1, 10);
        let with = write_container(&c).len();
        let c0 = sample(1, 0);
        let without = write_container(&c0).len();
        assert_eq!(with - without, 10 * 36);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(read_container(b"NOPE1234"), Err(GenioError::BadMagic));
        assert_eq!(read_container(b""), Err(GenioError::BadMagic));
    }

    #[test]
    fn truncation_detected() {
        let bytes = write_container(&sample(2, 50));
        for cut in [5, 20, bytes.len() - 1] {
            let err = read_container(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, GenioError::Truncated),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn corruption_detected_by_crc() {
        let bytes = write_container(&sample(2, 50));
        let mut corrupt = bytes.to_vec();
        // Flip a byte inside the second block's payload.
        let idx = bytes.len() - 10;
        corrupt[idx] ^= 0xFF;
        assert_eq!(
            read_container(&corrupt),
            Err(GenioError::ChecksumMismatch { block: 1 })
        );
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = write_container(&sample(1, 1)).to_vec();
        bytes[4] = 99; // version LE byte
        assert_eq!(
            read_container(&bytes),
            Err(GenioError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32/IEEE of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The definition slice-by-8 must equal: one byte per step through a
    /// table built here from the polynomial.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let table: Vec<u32> = (0..256u32)
            .map(|i| {
                (0..8).fold(i, |c, _| {
                    if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    }
                })
            })
            .collect();
        !data.iter().fold(!0u32, |crc, &b| {
            table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8)
        })
    }

    #[test]
    fn slice_by_8_equals_the_bytewise_loop() {
        let mut x = 0x9E37_79B9u32;
        let buf: Vec<u8> = (0..(1 << 20) + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        // Every alignment of every tail length, and whole words around them.
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        let mib = &buf[..1 << 20];
        assert_eq!(crc32(mib), crc32_bytewise(mib));
    }

    /// A container header declaring `nblocks` blocks.
    fn container_header(nblocks: u32) -> Vec<u8> {
        let mut h = write_container(&sample(0, 0)).to_vec();
        h[32..36].copy_from_slice(&nblocks.to_le_bytes());
        h
    }

    /// `⌊u64::MAX / 36⌋ + 1` records: `n · 36` wraps to 20, so a CRC over
    /// the 20 bytes that follow matched and the decoders went on to size a
    /// `Vec` from `n` ("capacity overflow").
    fn wrapping_count_and_body() -> (u64, [u8; 20]) {
        let n = u64::MAX / RECORD_BYTES as u64 + 1;
        assert_eq!(n.wrapping_mul(RECORD_BYTES as u64), 20);
        (n, [0xA5; 20])
    }

    #[test]
    fn forged_record_count_is_truncated_not_an_allocation() {
        let (n, body) = wrapping_count_and_body();
        let mut data = container_header(1);
        data.extend(n.to_le_bytes());
        data.extend(crc32(&body).to_le_bytes());
        data.extend(body);
        assert_eq!(read_container(&data), Err(GenioError::Truncated));
    }

    #[test]
    fn forged_block_count_is_truncated_not_an_allocation() {
        // A bare header declaring 2³² − 1 blocks used to reserve 100 GB.
        assert_eq!(
            read_container(&container_header(u32::MAX)),
            Err(GenioError::Truncated)
        );
    }

    #[test]
    fn forged_chunk_record_count_is_truncated_not_an_allocation() {
        let (n, body) = wrapping_count_and_body();
        let mut chunk = encode_chunk(&sample(0, 0).meta, 0, 1, &[]).to_vec();
        chunk[40..48].copy_from_slice(&n.to_le_bytes());
        chunk[48..52].copy_from_slice(&crc32(&body).to_le_bytes());
        chunk.extend(body);
        assert_eq!(decode_chunk(&chunk), Err(GenioError::Truncated));
        assert_eq!(assemble_chunks(&[chunk]), Err(GenioError::Truncated));
    }

    #[test]
    fn forged_chunk_total_is_an_incomplete_set_not_an_allocation() {
        // Valid CRC, one chunk, a declared set of 2³² − 1: the assembler
        // used to size its slot table from the total before checking it.
        let c = sample(1, 3);
        let chunk = encode_chunk(&c.meta, 0, u32::MAX, &c.blocks[0]);
        assert_eq!(
            assemble_chunks(&[chunk]),
            Err(GenioError::ChunkSetIncomplete {
                have: 1,
                want: u32::MAX as usize
            })
        );
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("hcio_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap100.hcio");
        let c = sample(3, 20);
        write_file(&path, &c).unwrap();
        let back = read_file(&path).unwrap().unwrap();
        assert_eq!(back, c);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunk_roundtrip_is_byte_identical_to_whole_file() {
        // The streaming in-transit guarantee: chunk → reassemble →
        // serialize produces the *same bytes* as serializing the original,
        // so digests, cache keys, and catalogs cannot diverge between the
        // streamed and whole-file paths.
        for (nblocks, per_block) in [(1, 7), (3, 20), (5, 1), (2, 0)] {
            let c = sample(nblocks, per_block);
            let chunks = chunk_container(&c);
            assert_eq!(chunks.len(), nblocks);
            let back = assemble_chunks(&chunks).unwrap();
            assert_eq!(back, c);
            assert_eq!(write_container(&back), write_container(&c));
        }
    }

    #[test]
    fn chunks_assemble_in_any_arrival_order() {
        let c = sample(4, 12);
        let mut chunks = chunk_container(&c);
        chunks.reverse();
        chunks.swap(0, 2);
        assert_eq!(assemble_chunks(&chunks).unwrap(), c);
    }

    #[test]
    fn blockless_container_streams_as_a_sentinel_chunk() {
        let c = Container {
            meta: SnapshotMeta {
                step: 7,
                redshift: 3.0,
                box_size: 64.0,
            },
            blocks: vec![],
        };
        let chunks = chunk_container(&c);
        assert_eq!(chunks.len(), 1);
        let back = assemble_chunks(&chunks).unwrap();
        assert_eq!(back, c);
        assert_eq!(write_container(&back), write_container(&c));
    }

    #[test]
    fn incomplete_duplicate_and_mixed_chunk_sets_are_rejected() {
        let c = sample(3, 5);
        let chunks = chunk_container(&c);
        assert_eq!(
            assemble_chunks(&chunks[..2]),
            Err(GenioError::ChunkSetIncomplete { have: 2, want: 3 })
        );
        let dup = vec![chunks[0].clone(), chunks[0].clone(), chunks[1].clone()];
        assert_eq!(assemble_chunks(&dup), Err(GenioError::ChunkMismatch));
        // A chunk from a different snapshot cannot sneak into the set.
        let mut other = sample(3, 5);
        other.meta.step = 999;
        let alien = chunk_container(&other);
        let mixed = vec![chunks[0].clone(), alien[1].clone(), chunks[2].clone()];
        assert_eq!(assemble_chunks(&mixed), Err(GenioError::ChunkMismatch));
        let empty: Vec<Bytes> = vec![];
        assert!(assemble_chunks(&empty).is_err());
    }

    #[test]
    fn chunk_corruption_and_truncation_are_detected() {
        let c = sample(2, 9);
        let chunks = chunk_container(&c);
        let mut corrupt = chunks[1].to_vec();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        assert_eq!(
            decode_chunk(&corrupt),
            Err(GenioError::ChecksumMismatch { block: 1 })
        );
        assert_eq!(
            decode_chunk(&chunks[0][..chunks[0].len() - 4]),
            Err(GenioError::Truncated)
        );
        // Container and chunk magics are mutually exclusive.
        assert_eq!(read_container(&chunks[0]), Err(GenioError::BadMagic));
        assert_eq!(
            decode_chunk(&write_container(&c)),
            Err(GenioError::BadMagic)
        );
    }

    fn sample_frame() -> ImageFrame {
        ImageFrame {
            step: 12,
            axis: Axis::Y,
            width: 4,
            height: 4,
            pixels: (0..16).map(|i| (i * 16) as u8).collect(),
            nonfinite_pixels: 1,
            selected: 90,
            total: 120,
            byte_budget: 90 * 36,
        }
    }

    #[test]
    fn image_roundtrip_preserves_everything() {
        let frame = sample_frame();
        let bytes = write_image(&frame);
        assert_eq!(
            bytes.len() as u64,
            IMAGE_HEADER_BYTES + frame.pgm_bytes(),
            "header size constant must match the writer"
        );
        assert_eq!(read_image(&bytes).unwrap(), frame);
    }

    #[test]
    fn image_magic_is_disjoint_from_other_containers() {
        let frame = sample_frame();
        let bytes = write_image(&frame);
        assert_eq!(read_container(&bytes), Err(GenioError::BadMagic));
        assert_eq!(decode_chunk(&bytes), Err(GenioError::BadMagic));
        assert_eq!(
            read_image(&write_container(&sample(1, 1))),
            Err(GenioError::BadMagic)
        );
    }

    #[test]
    fn image_corruption_truncation_and_version_detected() {
        let bytes = write_image(&sample_frame());
        let mut corrupt = bytes.to_vec();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        assert_eq!(
            read_image(&corrupt),
            Err(GenioError::ChecksumMismatch { block: 0 })
        );
        assert_eq!(
            read_image(&bytes[..bytes.len() - 3]),
            Err(GenioError::Truncated)
        );
        assert_eq!(read_image(&bytes[..10]), Err(GenioError::Truncated));
        let mut vers = bytes.to_vec();
        vers[4] = 77;
        assert_eq!(read_image(&vers), Err(GenioError::UnsupportedVersion(77)));
        // A bad axis code survives the CRC (header is not covered) but is
        // rejected as a writer bug.
        let mut axis = bytes.to_vec();
        axis[16] = 9;
        assert_eq!(read_image(&axis), Err(GenioError::BadImage));
    }

    #[test]
    fn image_payload_with_a_non_canonical_pgm_header_is_rejected() {
        // A payload the encoder never writes (`+W H`), stamped with its own
        // length and CRC so that only the PGM header is wrong.
        let frame = sample_frame();
        let bytes = write_image(&frame);
        let mut payload = format!("P5\n+{} {}\n255\n", frame.width, frame.height).into_bytes();
        payload.extend_from_slice(&frame.pixels);
        let mut forged = bytes[..IMAGE_HEADER_BYTES as usize - 12].to_vec();
        forged.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        forged.extend_from_slice(&crc32(&payload).to_le_bytes());
        forged.extend_from_slice(&payload);
        assert_eq!(read_image(&forged), Err(GenioError::BadImage));
    }

    #[test]
    fn image_with_trailing_bytes_is_rejected() {
        let mut bytes = write_image(&sample_frame()).to_vec();
        bytes.extend_from_slice(&[0; 4]);
        assert_eq!(read_image(&bytes), Err(GenioError::TrailingBytes));
    }

    #[test]
    fn container_with_trailing_bytes_is_rejected() {
        let mut bytes = write_container(&sample(2, 5)).to_vec();
        bytes.extend_from_slice(&[0; 4]);
        assert_eq!(read_container(&bytes), Err(GenioError::TrailingBytes));
        let mut chunk = chunk_container(&sample(2, 5))[1].to_vec();
        chunk.push(0);
        assert_eq!(decode_chunk(&chunk), Err(GenioError::TrailingBytes));
    }

    #[test]
    fn image_whose_counts_contradict_each_other_is_rejected() {
        // The header is outside the CRC: `selected` at byte 25, `total` at
        // 33, `nonfinite_pixels` at 49, each a little-endian `u64`.
        let frame = sample_frame();
        let bytes = write_image(&frame);
        let forge = |at: usize, v: u64| {
            let mut forged = bytes.to_vec();
            forged[at..at + 8].copy_from_slice(&v.to_le_bytes());
            read_image(&forged)
        };
        assert_eq!(forge(25, frame.total + 1), Err(GenioError::BadImage));
        assert_eq!(forge(49, 17), Err(GenioError::BadImage));
        assert_eq!(forge(49, 16).map(|f| f.nonfinite_pixels), Ok(16));
        assert_eq!(forge(25, frame.total).map(|f| f.selected), Ok(120));
    }

    #[test]
    fn image_digest_agrees_between_memory_and_disk() {
        let dir = std::env::temp_dir().join("hcim_digest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frame.hcim");
        let frame = sample_frame();
        let stamped = write_image_file(&path, &frame).unwrap();
        assert_eq!(stamped, image_digest(&frame));
        assert_eq!(stamped, file_digest(&path).unwrap());
        assert_eq!(read_image(&std::fs::read(&path).unwrap()).unwrap(), frame);
        let mut other = frame.clone();
        other.pixels[3] ^= 0xFF;
        assert_ne!(stamped, image_digest(&other));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn digest_stamping_agrees_between_memory_and_disk() {
        let dir = std::env::temp_dir().join("hcio_digest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stamped.hcio");
        let c = sample(2, 15);
        let stamped = write_file_digest(&path, &c).unwrap();
        assert_eq!(stamped, container_digest(&c));
        assert_eq!(stamped, file_digest(&path).unwrap());
        // A different container gets a different identity.
        assert_ne!(stamped, container_digest(&sample(2, 16)));
        // Flipping one byte on disk changes the file digest (so a stale or
        // corrupted Level 2 file can never alias a cached analysis).
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert_ne!(stamped, file_digest(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }
}

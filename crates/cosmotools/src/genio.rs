//! A GenericIO-like binary particle container.
//!
//! HACC writes its Level 1/2 data with GenericIO: self-describing blocks,
//! per-block checksums, aggregated files ("the results from 128 nodes were
//! aggregated in one file, resulting in 128 files containing 128 blocks
//! each", §4.1). This module reproduces the essentials: a magic/version
//! header, named metadata, multiple per-rank *blocks* each carrying its own
//! CRC, and corruption detection on read.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use nbody::particle::Particle;

/// File magic.
pub const MAGIC: &[u8; 4] = b"HCIO";
/// Format version.
pub const VERSION: u32 = 1;

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
    /// An image container's payload or axis code contradicts its header
    /// (CRC passed, so the writer — not the wire — was wrong).
    BadImage,
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
        }
    }
}

impl std::error::Error for GenioError {}

/// CRC-32 (IEEE, reflected), table-driven.
pub fn crc32(data: &[u8]) -> u32 {
    const POLY: u32 = 0xEDB8_8320;
    // Build the table on first use.
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        t
    });
    let mut crc = !0u32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
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

fn put_particle(buf: &mut BytesMut, p: &Particle) {
    for d in 0..3 {
        buf.put_f32_le(p.pos[d]);
    }
    for d in 0..3 {
        buf.put_f32_le(p.vel[d]);
    }
    buf.put_f32_le(p.mass);
    buf.put_u64_le(p.tag);
}

fn get_particle(buf: &mut Bytes) -> Particle {
    let mut pos = [0.0f32; 3];
    let mut vel = [0.0f32; 3];
    for v in &mut pos {
        *v = buf.get_f32_le();
    }
    for v in &mut vel {
        *v = buf.get_f32_le();
    }
    let mass = buf.get_f32_le();
    let tag = buf.get_u64_le();
    Particle {
        pos,
        vel,
        mass,
        tag,
    }
}

/// Bytes per serialized particle record.
const RECORD_BYTES: usize = 36;

/// Serialize a container.
pub fn write_container(c: &Container) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(c.meta.step);
    buf.put_f64_le(c.meta.redshift);
    buf.put_f64_le(c.meta.box_size);
    buf.put_u32_le(c.blocks.len() as u32);
    for block in &c.blocks {
        let mut body = BytesMut::with_capacity(block.len() * RECORD_BYTES);
        for p in block {
            put_particle(&mut body, p);
        }
        let body = body.freeze();
        buf.put_u64_le(block.len() as u64);
        buf.put_u32_le(crc32(&body));
        buf.put_slice(&body);
    }
    buf.freeze()
}

/// Deserialize and verify a container.
pub fn read_container(data: &[u8]) -> Result<Container, GenioError> {
    let mut buf = Bytes::copy_from_slice(data);
    if buf.remaining() < 4 || &buf.copy_to_bytes(4)[..] != MAGIC {
        return Err(GenioError::BadMagic);
    }
    if buf.remaining() < 4 {
        return Err(GenioError::Truncated);
    }
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(GenioError::UnsupportedVersion(version));
    }
    if buf.remaining() < 8 + 8 + 8 + 4 {
        return Err(GenioError::Truncated);
    }
    let step = buf.get_u64_le();
    let redshift = buf.get_f64_le();
    let box_size = buf.get_f64_le();
    let nblocks = buf.get_u32_le() as usize;
    let mut blocks = Vec::with_capacity(nblocks);
    for bi in 0..nblocks {
        if buf.remaining() < 8 + 4 {
            return Err(GenioError::Truncated);
        }
        let n = buf.get_u64_le() as usize;
        let crc_expect = buf.get_u32_le();
        let nbytes = n * RECORD_BYTES;
        if buf.remaining() < nbytes {
            return Err(GenioError::Truncated);
        }
        let body = buf.copy_to_bytes(nbytes);
        if crc32(&body) != crc_expect {
            return Err(GenioError::ChecksumMismatch { block: bi });
        }
        let mut body = body;
        let mut parts = Vec::with_capacity(n);
        for _ in 0..n {
            parts.push(get_particle(&mut body));
        }
        blocks.push(parts);
    }
    Ok(Container {
        meta: SnapshotMeta {
            step,
            redshift,
            box_size,
        },
        blocks,
    })
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
pub const CHUNK_MAGIC: &[u8; 4] = b"HCCK";

/// Decoded header of one streamed chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkHeader {
    /// Snapshot metadata (identical across a step's chunk set).
    pub meta: SnapshotMeta,
    /// This chunk's block index, `0..total`.
    pub index: u32,
    /// Number of chunks (= blocks) in the step's set. `0` is the sentinel
    /// for a block-less container: the set is one empty chunk.
    pub total: u32,
}

/// Encode block `index` of `total` as one self-verifying chunk.
pub fn encode_chunk(meta: &SnapshotMeta, index: u32, total: u32, block: &[Particle]) -> Bytes {
    let mut body = BytesMut::with_capacity(block.len() * RECORD_BYTES);
    for p in block {
        put_particle(&mut body, p);
    }
    let body = body.freeze();
    let mut buf = BytesMut::with_capacity(44 + body.len());
    buf.put_slice(CHUNK_MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(meta.step);
    buf.put_f64_le(meta.redshift);
    buf.put_f64_le(meta.box_size);
    buf.put_u32_le(index);
    buf.put_u32_le(total);
    buf.put_u64_le(block.len() as u64);
    buf.put_u32_le(crc32(&body));
    buf.put_slice(&body);
    buf.freeze()
}

/// Decode and verify one chunk.
pub fn decode_chunk(data: &[u8]) -> Result<(ChunkHeader, Vec<Particle>), GenioError> {
    let mut buf = Bytes::copy_from_slice(data);
    if buf.remaining() < 4 || &buf.copy_to_bytes(4)[..] != CHUNK_MAGIC {
        return Err(GenioError::BadMagic);
    }
    if buf.remaining() < 4 {
        return Err(GenioError::Truncated);
    }
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(GenioError::UnsupportedVersion(version));
    }
    if buf.remaining() < 8 + 8 + 8 + 4 + 4 + 8 + 4 {
        return Err(GenioError::Truncated);
    }
    let meta = SnapshotMeta {
        step: buf.get_u64_le(),
        redshift: buf.get_f64_le(),
        box_size: buf.get_f64_le(),
    };
    let index = buf.get_u32_le();
    let total = buf.get_u32_le();
    let n = buf.get_u64_le() as usize;
    let crc_expect = buf.get_u32_le();
    let nbytes = n * RECORD_BYTES;
    if buf.remaining() < nbytes {
        return Err(GenioError::Truncated);
    }
    let mut body = buf.copy_to_bytes(nbytes);
    if crc32(&body) != crc_expect {
        return Err(GenioError::ChecksumMismatch {
            block: index as usize,
        });
    }
    let mut parts = Vec::with_capacity(n);
    for _ in 0..n {
        parts.push(get_particle(&mut body));
    }
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
pub fn assemble_chunks(chunks: &[impl AsRef<[u8]>]) -> Result<Container, GenioError> {
    if chunks.is_empty() {
        return Err(GenioError::ChunkSetIncomplete { have: 0, want: 1 });
    }
    let mut meta: Option<SnapshotMeta> = None;
    let mut total: Option<u32> = None;
    let mut blocks: Vec<Option<Vec<Particle>>> = Vec::new();
    for raw in chunks {
        let (header, parts) = decode_chunk(raw.as_ref())?;
        match (&meta, &total) {
            (None, None) => {
                meta = Some(header.meta.clone());
                total = Some(header.total);
                blocks.resize(header.total.max(1) as usize, None);
            }
            (Some(m), Some(t)) => {
                if *m != header.meta || *t != header.total {
                    return Err(GenioError::ChunkMismatch);
                }
            }
            _ => unreachable!("meta and total are set together"),
        }
        let want = total.expect("set above");
        if header.total == 0 {
            // Sentinel for a block-less container; only index 0 is legal.
            if header.index != 0 || !parts.is_empty() {
                return Err(GenioError::ChunkMismatch);
            }
        } else if header.index >= want {
            return Err(GenioError::ChunkMismatch);
        }
        let slot = &mut blocks[header.index as usize];
        if slot.is_some() {
            return Err(GenioError::ChunkMismatch);
        }
        *slot = Some(parts);
    }
    let want = if total.expect("nonempty set") == 0 {
        1
    } else {
        total.expect("nonempty set") as usize
    };
    let have = blocks.iter().filter(|b| b.is_some()).count();
    if have < want {
        return Err(GenioError::ChunkSetIncomplete { have, want });
    }
    let meta = meta.expect("nonempty set");
    if total == Some(0) {
        return Ok(Container {
            meta,
            blocks: Vec::new(),
        });
    }
    Ok(Container {
        meta,
        blocks: blocks.into_iter().map(|b| b.expect("checked")).collect(),
    })
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
pub const IMAGE_MAGIC: &[u8; 4] = b"HCIM";

/// Fixed size of the HCIM header preceding the PGM payload.
pub const IMAGE_HEADER_BYTES: u64 = 69;

use crate::render::{decode_pgm, encode_pgm, Axis, ImageFrame};

/// Serialize a rendered frame as an HCIM container.
pub fn write_image(frame: &ImageFrame) -> Bytes {
    let payload = encode_pgm(frame.width, frame.height, &frame.pixels);
    let mut buf = BytesMut::with_capacity(IMAGE_HEADER_BYTES as usize + payload.len());
    buf.put_slice(IMAGE_MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u64_le(frame.step);
    buf.put_u8(frame.axis.code());
    buf.put_u32_le(frame.width);
    buf.put_u32_le(frame.height);
    buf.put_u64_le(frame.selected);
    buf.put_u64_le(frame.total);
    buf.put_u64_le(frame.byte_budget);
    buf.put_u64_le(frame.nonfinite_pixels);
    buf.put_u64_le(payload.len() as u64);
    buf.put_u32_le(crc32(&payload));
    debug_assert_eq!(buf.len() as u64, IMAGE_HEADER_BYTES);
    buf.put_slice(&payload);
    buf.freeze()
}

/// Deserialize and verify an HCIM container.
pub fn read_image(data: &[u8]) -> Result<ImageFrame, GenioError> {
    let mut buf = Bytes::copy_from_slice(data);
    if buf.remaining() < 4 || &buf.copy_to_bytes(4)[..] != IMAGE_MAGIC {
        return Err(GenioError::BadMagic);
    }
    if buf.remaining() < 4 {
        return Err(GenioError::Truncated);
    }
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(GenioError::UnsupportedVersion(version));
    }
    if buf.remaining() < (IMAGE_HEADER_BYTES as usize - 8) {
        return Err(GenioError::Truncated);
    }
    let step = buf.get_u64_le();
    let axis_code = buf.get_u8();
    let width = buf.get_u32_le();
    let height = buf.get_u32_le();
    let selected = buf.get_u64_le();
    let total = buf.get_u64_le();
    let byte_budget = buf.get_u64_le();
    let nonfinite_pixels = buf.get_u64_le();
    let payload_len = buf.get_u64_le() as usize;
    let crc_expect = buf.get_u32_le();
    if buf.remaining() < payload_len {
        return Err(GenioError::Truncated);
    }
    let payload = buf.copy_to_bytes(payload_len);
    if crc32(&payload) != crc_expect {
        return Err(GenioError::ChecksumMismatch { block: 0 });
    }
    let axis = Axis::from_code(axis_code).ok_or(GenioError::BadImage)?;
    let (w, h, pixels) = decode_pgm(&payload).ok_or(GenioError::BadImage)?;
    if w != width || h != height {
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

/// Read a frame from a file.
pub fn read_image_file(path: &std::path::Path) -> std::io::Result<Result<ImageFrame, GenioError>> {
    Ok(read_image(&std::fs::read(path)?))
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
    fn image_digest_agrees_between_memory_and_disk() {
        let dir = std::env::temp_dir().join("hcim_digest_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frame.hcim");
        let frame = sample_frame();
        let stamped = write_image_file(&path, &frame).unwrap();
        assert_eq!(stamped, image_digest(&frame));
        assert_eq!(stamped, file_digest(&path).unwrap());
        assert_eq!(read_image_file(&path).unwrap().unwrap(), frame);
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

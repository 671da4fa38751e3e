//! In-transit streaming: the pub/sub edge between a running simulation and
//! the analysis ranks.
//!
//! The whole-file Level-2 path writes `l2_NNNN.hcio` to a shared directory
//! and lets the listener discover it by scanning. The streaming path skips
//! the filesystem hand-off entirely: the emitter chunks each step's halo
//! particle container ([`cosmotools::genio::chunk_container`]), publishes
//! every chunk into the distributed artifact store as it is produced, and
//! announces it on a [`StreamHub`] topic. Analysis ranks drain the topic
//! with a cursor, fetch chunk payloads back out of the store (paying the
//! modeled remote-fetch cost when a chunk's replicas live on another node),
//! and reassemble the exact container bytes — the chunk protocol is
//! byte-lossless, so digests, cache keys, and final catalogs are identical
//! to the whole-file run.
//!
//! The hub itself is deliberately tiny: an in-memory multi-topic bulletin
//! board. Durability lives in the store (chunks are content-addressed
//! artifacts); the hub only carries *announcements*, so a restarted emitter
//! republishing the same [`ChunkRef`]s is harmless — consumers key pending
//! work by `(step, index)` and re-announcement of an already-assembled step
//! is filtered by the listener's handled-set.
//!
//! `StreamSource` is that analysis side, the *announcement source* of the
//! one journaled consumer in [`crate::listener`]: hub cursor, pending chunk
//! sets, fetch-and-reassemble. It names each step by the virtual key
//! `<drop>/l2_NNNN.hcio` the whole-file path would have written, so journals,
//! recovery and execution accounting cannot tell the two modes apart.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::journal::Journal;
use crate::listener::{Progress, Source};
use cache::{CacheKey, Digest, DistributedStore};
use cosmotools::{assemble_chunks, write_container};
use parking_lot::Mutex;

/// An announcement that one chunk of a step's Level-2 container is now
/// available in the artifact store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRef {
    /// Simulation step the chunk belongs to.
    pub step: u64,
    /// Chunk index within the step, `0..total`.
    pub index: u32,
    /// Total chunks in the step (`0` for the block-less sentinel chunk).
    pub total: u32,
    /// Store key the chunk payload was inserted under.
    pub key: CacheKey,
    /// Encoded chunk length in bytes (for transfer accounting).
    pub len: u64,
}

/// A multi-topic in-memory pub/sub board. Topics are campaign ids; each
/// topic is an append-only list of [`ChunkRef`]s that consumers drain with
/// an explicit cursor, so many analysis shards can read the same topic
/// without coordination.
#[derive(Debug, Default)]
pub struct StreamHub {
    topics: Mutex<BTreeMap<u64, Vec<ChunkRef>>>,
}

impl StreamHub {
    /// An empty hub.
    pub fn new() -> StreamHub {
        StreamHub::default()
    }

    /// Publish a chunk announcement on `topic`.
    pub fn publish(&self, topic: u64, chunk: ChunkRef) {
        self.topics.lock().entry(topic).or_default().push(chunk);
    }

    /// Everything published on `topic` at or after `cursor`, plus the new
    /// cursor to pass next time. A topic that does not exist yet drains
    /// empty at cursor 0 — publish order and drain order are independent.
    pub fn drain_from(&self, topic: u64, cursor: usize) -> (Vec<ChunkRef>, usize) {
        match self.topics.lock().get(&topic) {
            Some(log) if cursor < log.len() => (log[cursor..].to_vec(), log.len()),
            Some(log) => (Vec::new(), log.len()),
            None => (Vec::new(), cursor),
        }
    }

    /// Number of announcements ever published on `topic`.
    #[cfg(test)]
    fn published(&self, topic: u64) -> usize {
        self.topics.lock().get(&topic).map_or(0, Vec::len)
    }

    /// Drop a finished campaign's topic. Late publishes recreate it; late
    /// drains see an empty topic and keep their cursor.
    pub fn drop_topic(&self, topic: u64) {
        self.topics.lock().remove(&topic);
    }
}

/// File name of one step's Level-2 drop — on disk in whole-file mode, the
/// virtual key's last component in streaming mode.
pub(crate) fn drop_name(step: usize) -> String {
    format!("l2_{step:04}.hcio")
}

/// One ready Level-2 drop inside the service: its bytes, read or assembled
/// once, and their digest, hashed once — the product gate and the analysis
/// job both work from this.
pub(crate) struct Payload {
    pub(crate) bytes: Vec<u8>,
    pub(crate) digest: Digest,
}

impl Payload {
    /// Hash `bytes`, counting the load (`service.drops_loaded`).
    pub(crate) fn new(bytes: Vec<u8>) -> Payload {
        telemetry::count!("service", "drops_loaded", 1);
        let digest = cache::digest_bytes(&bytes);
        Payload { bytes, digest }
    }
}

/// The announcement source of one streamed campaign. Its virtual keys never
/// exist on disk: they are live while the campaign is registered, i.e. while
/// this source exists (detach drops the campaign's journal entries itself).
pub(crate) struct StreamSource {
    topic: u64,
    dir: PathBuf,
    hub: Arc<StreamHub>,
    store: Arc<DistributedStore>,
    /// Read position in the hub topic.
    cursor: usize,
    /// Announced chunks of steps not handled yet, `virtual key → index →
    /// ref`. A step leaves this map only once handled.
    pending: BTreeMap<PathBuf, BTreeMap<u32, ChunkRef>>,
}

impl StreamSource {
    /// Follow `topic`, naming its steps under the (virtual) directory `dir`.
    pub(crate) fn new(
        topic: u64,
        dir: PathBuf,
        hub: &Arc<StreamHub>,
        store: &Arc<DistributedStore>,
    ) -> StreamSource {
        StreamSource {
            topic,
            dir,
            hub: Arc::clone(hub),
            store: Arc::clone(store),
            cursor: 0,
            pending: BTreeMap::new(),
        }
    }
}

impl Source for StreamSource {
    type Item = Payload;

    /// Drain the topic and name every step whose chunk set is complete
    /// (`total == 0` is the block-less sentinel: one chunk is the whole set).
    fn candidates(&mut self, progress: &Mutex<Progress>, _: Option<&Journal>) -> Vec<PathBuf> {
        let (batch, next) = self.hub.drain_from(self.topic, self.cursor);
        self.cursor = next;
        for r in batch {
            let key = self.dir.join(drop_name(r.step as usize));
            self.pending.entry(key).or_default().insert(r.index, r);
        }
        // Handled since the last sweep, by a previous incarnation, or
        // announced twice: nothing left to do for these.
        let handled = progress.lock();
        self.pending.retain(|key, _| !handled.is_handled(key));
        let complete = |chunks: &BTreeMap<u32, ChunkRef>| {
            let first = chunks.values().next();
            first.is_some_and(|r| chunks.len() >= r.total.max(1) as usize)
        };
        let ready = self.pending.iter().filter(|(_, chunks)| complete(chunks));
        ready.map(|(key, _)| key.clone()).collect()
    }

    /// Fetch the step's chunks back out of the store (replica routing and
    /// remote-fetch costs apply) and reassemble the container byte-exactly.
    /// `None` while a chunk is unreachable (replicas down, or a torn set
    /// from a crashed emitter): the step stays pending until a heal or the
    /// restarted emitter's re-publish makes a later sweep whole.
    fn fetch(&mut self, key: &Path) -> Option<Payload> {
        let chunks = self.pending.get(key)?.values();
        let encoded: Option<Vec<Vec<u8>>> = chunks.map(|r| self.store.lookup(r.key)).collect();
        let Some(container) = encoded.and_then(|e| assemble_chunks(&e).ok()) else {
            telemetry::count!("service", "stream_stalls", 1);
            return None;
        };
        Some(Payload::new(write_container(&container).to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache::{digest_bytes, FingerprintBuilder};

    fn chunk(step: u64, index: u32, total: u32) -> ChunkRef {
        let fp = FingerprintBuilder::new().push_u64(step).finish();
        ChunkRef {
            step,
            index,
            total,
            key: CacheKey::compose("l2chunk", digest_bytes(&[index as u8]), fp),
            len: 100,
        }
    }

    #[test]
    fn drain_with_cursor_sees_each_announcement_exactly_once() {
        let hub = StreamHub::new();
        hub.publish(1, chunk(0, 0, 2));
        hub.publish(1, chunk(0, 1, 2));
        let (batch, cur) = hub.drain_from(1, 0);
        assert_eq!(batch.len(), 2);
        assert_eq!(cur, 2);
        let (batch, cur) = hub.drain_from(1, cur);
        assert!(batch.is_empty());
        assert_eq!(cur, 2);
        hub.publish(1, chunk(1, 0, 1));
        let (batch, cur) = hub.drain_from(1, cur);
        assert_eq!(batch, vec![chunk(1, 0, 1)]);
        assert_eq!(cur, 3);
    }

    #[test]
    fn topics_are_independent_and_unknown_topics_drain_empty() {
        let hub = StreamHub::new();
        hub.publish(7, chunk(0, 0, 1));
        let (batch, cur) = hub.drain_from(8, 0);
        assert!(batch.is_empty());
        assert_eq!(cur, 0);
        let (batch, _) = hub.drain_from(7, 0);
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn two_consumers_drain_the_same_topic_independently() {
        let hub = StreamHub::new();
        for i in 0..5 {
            hub.publish(3, chunk(i, 0, 1));
        }
        let (a, _) = hub.drain_from(3, 0);
        let (b, _) = hub.drain_from(3, 2);
        assert_eq!(a.len(), 5);
        assert_eq!(b.len(), 3);
        assert_eq!(&a[2..], &b[..]);
    }

    #[test]
    fn drop_topic_resets_the_log_but_not_foreign_cursors() {
        let hub = StreamHub::new();
        hub.publish(2, chunk(0, 0, 1));
        assert_eq!(hub.published(2), 1);
        hub.drop_topic(2);
        assert_eq!(hub.published(2), 0);
        let (batch, cur) = hub.drain_from(2, 5);
        assert!(batch.is_empty());
        assert_eq!(cur, 5, "a dropped topic leaves a stale cursor alone");
    }
}

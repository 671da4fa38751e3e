//! # cache — content-addressed artifact store with incremental re-execution
//!
//! The paper's economics (Tables 3/4) assume the workflow never pays for the
//! same analysis twice: a listener crash-restart, a re-queued co-scheduled
//! job, or a sweep of every strategy over identical inputs should reuse existing
//! L3 products, not recompute them. This crate is that memory:
//!
//! * [`Digest`]/[`digest_bytes`] — a hand-rolled 128-bit FNV-style content
//!   hash (this build environment has no crates.io access, so no external
//!   hash crates).
//! * [`FingerprintBuilder`]/[`Fingerprint`] — a typed hash over the
//!   *configuration* that produced an artifact (runner strategy, algorithm
//!   parameters, simulation seed), so changed parameters can never alias a
//!   cached result.
//! * [`CacheKey::compose`] — `(operation, input digest, fingerprint)` in one
//!   128-bit key.
//! * [`ArtifactCache`] — the store: objects at `objects/<digest>` written
//!   tmp+rename and deduplicated by digest; a `put`/`del` index log over
//!   the durable [`LineLog`] (torn-append healing, staged rewrites; shared
//!   with `core::journal`) that self-compacts past a size threshold;
//!   verify-on-lookup so a poisoned or torn entry degrades to a recompute,
//!   never a wrong catalog; LRU byte-budget eviction driven by an ordered
//!   recency structure (an eviction storm is O(k log n)); a metadata-level
//!   [`ArtifactCache::contains_verified`] resubmission gate; fault sites
//!   `cache.read` / `cache.verify` for the chaos harness; and a telemetry
//!   layer (`cache`) with hit/miss/evict counters and a verify-time
//!   histogram.
//! * [`ShardRouter`] / [`DistributedStore`] — the scale-out layer: the same
//!   content-addressed semantics sharded across simulated nodes by
//!   rendezvous hashing, with R-way replication, remote-fetch costs charged
//!   through a [`RemoteFetchModel`] (numbers drawn from `simhpc`'s machine
//!   model by the workflow glue), node kill/revive/wipe for failure drills,
//!   a [`heal`](DistributedStore::heal) pass restoring full replication,
//!   and fault sites [`SITE_REPLICATE`] / [`SITE_FETCH_REMOTE`] so the
//!   crash-schedule explorer can prove that the death of any single
//!   replica-holding node leaves every artifact reachable.

#![warn(missing_docs)]

mod digest;
mod index;
mod linelog;
mod router;
mod shard;
mod store;

pub use digest::{digest_bytes, CacheKey, Digest, Fingerprint, FingerprintBuilder, Hasher};
pub use index::{Index, IndexEntry};
pub use linelog::{compaction_due, LineLog};
pub use router::ShardRouter;
pub use shard::{
    DistStats, DistributedConfig, DistributedStore, RemoteFetchModel, SITE_FETCH_REMOTE,
    SITE_REPLICATE,
};
pub use store::{ArtifactCache, CacheStats};

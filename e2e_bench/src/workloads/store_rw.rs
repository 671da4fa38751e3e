//! `store_rw` — the distributed artifact store driven directly, as a writer
//! and as a reader side by side, so a gain for one that costs the other is
//! visible (inserts and lookups run over an order of magnitude apart). In a
//! traced run the same put/get sequence repeats on `ArtifactCache` and on a
//! 1-node / 1-replica `DistributedStore`: the evidence needed before the
//! two store APIs are merged.
//!
//! The scratch directory is on whatever disk holds the checkout. Inserts of
//! megabyte payloads then run at the disk's pace (17–92 MB/s from one run to
//! the next on the ext4 volume this was written on; 360–415 MB/s on tmpfs),
//! so the time metric every workload shares, `time_to_solution_s`, is taken
//! over the lookups, which the page cache serves, and the writer side is
//! reported as `put_mb_s` and `mixed_ops_per_s`.

use super::{probe, record_trace, timed_loop, timed_setup, Outcome, Params, SplitMix};
use crate::host::Scratch;
use crate::stats::median;
use crate::trace::{SpanId, Tracer, ROOT_LAYER};
use cache::{
    ArtifactCache, CacheKey, Digest, DistributedConfig, DistributedStore, FingerprintBuilder,
};
use std::path::Path;
use std::time::Instant;

/// Payload sizes and their share of the payload count, in percent: centers
/// and frames, small Level-2 chunks, HCCK-sized chunks.
const SIZE_MIX: [(usize, usize); 3] = [(4 << 10, 70), (64 << 10, 25), (1 << 20, 5)];
const SIZE_CLASSES: [&str; 3] = ["4k", "64k", "1m"];
/// Lookup passes of the `get` phase and of the `degraded` phase.
const GET_PASSES: usize = 3;
const DEGRADED_PASSES: usize = 5;

/// One payload and what the store must give back for it.
pub struct Payload {
    /// Store key.
    pub key: CacheKey,
    /// Content.
    pub bytes: Vec<u8>,
    /// Digest `insert` must return and looked-up bytes must hash to.
    pub digest: Digest,
}

impl Payload {
    fn class(&self) -> usize {
        SIZE_MIX
            .iter()
            .position(|(size, _)| *size == self.bytes.len())
            .expect("a size of the mix")
    }
}

/// `count` payloads in exactly the [`SIZE_MIX`] shares (so every seed moves
/// the same bytes), in seeded order, keys and contents pure functions of
/// `(seed, stream)`. `count` should be a multiple of 20.
pub fn payloads(seed: u64, stream: u64, count: usize) -> Vec<Payload> {
    let mut rng = SplitMix(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mut sizes: Vec<usize> = SIZE_MIX
        .iter()
        .flat_map(|&(size, share)| std::iter::repeat_n(size, count * share / 100))
        .collect();
    sizes.resize(count, SIZE_MIX[0].0);
    rng.shuffle(&mut sizes);
    sizes
        .into_iter()
        .enumerate()
        .map(|(i, size)| {
            let mut bytes = Vec::with_capacity(size);
            while bytes.len() < size {
                bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
            let digest = cache::digest_bytes(&bytes);
            let fingerprint = FingerprintBuilder::new()
                .push_str("e2e-store_rw")
                .push_u64(stream)
                .push_u64(i as u64)
                .finish();
            Payload {
                key: CacheKey::compose("payload", digest, fingerprint),
                bytes,
                digest,
            }
        })
        .collect()
}

/// The seeded inputs of one run.
struct Fixture {
    /// Inserted cold, then looked up.
    base: Vec<Payload>,
    /// Fresh keys for the `mixed` phase.
    mixed: Vec<Payload>,
    /// Inserted while a node is dead, so `heal` has replicas to restore.
    late: Vec<Payload>,
}

/// The two store shapes behind one put/get surface.
trait Store {
    fn put(&self, key: CacheKey, bytes: &[u8]) -> std::io::Result<Digest>;
    fn get(&self, key: CacheKey) -> Option<Vec<u8>>;
}

impl Store for DistributedStore {
    fn put(&self, key: CacheKey, bytes: &[u8]) -> std::io::Result<Digest> {
        self.insert(key, bytes)
    }
    fn get(&self, key: CacheKey) -> Option<Vec<u8>> {
        self.lookup(key)
    }
}

impl Store for ArtifactCache {
    fn put(&self, key: CacheKey, bytes: &[u8]) -> std::io::Result<Digest> {
        self.insert(key, bytes)
    }
    fn get(&self, key: CacheKey) -> Option<Vec<u8>> {
        self.lookup(key)
    }
}

/// Per-operation clock: verification runs between operations, off the
/// clock, so a phase's seconds are the store's own.
#[derive(Default)]
struct Phase {
    seconds: f64,
    bytes: u64,
    /// `(size class, seconds)` per operation.
    ops: Vec<(usize, f64)>,
}

impl Phase {
    fn mb_s(&self) -> f64 {
        self.bytes as f64 / 1e6 / self.seconds
    }

    fn class_us(&self, class: usize) -> Vec<f64> {
        self.ops
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|(_, s)| s * 1e6)
            .collect()
    }
}

/// Spans of a traced iteration hang under this.
type Spans<'a> = Option<(&'a Tracer, SpanId)>;

/// Run `f` under a `cache` span when the iteration is traced.
fn spanned<R>(spans: Spans, name: &str, f: impl FnOnce() -> R) -> R {
    match spans {
        Some((tracer, parent)) => tracer.scope(parent, "cache", name, |_| f()),
        None => f(),
    }
}

/// `f` and the seconds it took.
fn clocked<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let result = f();
    (result, t.elapsed().as_secs_f64())
}

fn put(store: &dyn Store, pl: &Payload, phase: &mut Phase, out: &mut Outcome, spans: Spans) {
    let (got, s) = spanned(spans, "insert", || clocked(|| store.put(pl.key, &pl.bytes)));
    phase.seconds += s;
    phase.bytes += pl.bytes.len() as u64;
    phase.ops.push((pl.class(), s));
    out.op(got.is_ok_and(|d| d == pl.digest));
}

fn get(store: &dyn Store, pl: &Payload, phase: &mut Phase, out: &mut Outcome, spans: Spans) {
    let (got, s) = spanned(spans, "lookup", || clocked(|| store.get(pl.key)));
    phase.seconds += s;
    phase.bytes += pl.bytes.len() as u64;
    phase.ops.push((pl.class(), s));
    let intact = spanned(spans, "digest_bytes", || {
        got.is_some_and(|b| cache::digest_bytes(&b) == pl.digest)
    });
    out.op(intact);
}

/// Shuffled lookup passes over `set`.
fn get_passes(
    store: &dyn Store,
    set: &[Payload],
    passes: usize,
    rng: &mut SplitMix,
    out: &mut Outcome,
    spans: Spans,
) -> Phase {
    let mut phase = Phase::default();
    let mut order: Vec<usize> = (0..set.len()).collect();
    for _ in 0..passes {
        rng.shuffle(&mut order);
        for &i in &order {
            get(store, &set[i], &mut phase, out, spans);
        }
    }
    phase
}

/// Phases of one iteration on the 3-node / 2-replica store.
struct Iteration {
    put: Phase,
    get: Phase,
    mixed: Phase,
    degraded: Phase,
    heal_s: f64,
    /// Wall seconds including the harness's own checks.
    real_s: f64,
}

impl Iteration {
    /// Operation clocks of every lookup: `get`, the gets of `mixed`, and
    /// `degraded`.
    fn lookups(&self) -> impl Iterator<Item = f64> + '_ {
        let gets_of_mixed = self
            .mixed
            .ops
            .chunks(5)
            .flat_map(|one_put_four_gets| &one_put_four_gets[1..]);
        self.get
            .ops
            .iter()
            .chain(gets_of_mixed)
            .chain(&self.degraded.ops)
            .map(|(_, s)| *s)
    }
}

fn open(dir: &Path, nodes: usize, replicas: usize) -> DistributedStore {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = DistributedConfig {
        nodes,
        replicas,
        ..DistributedConfig::default()
    };
    DistributedStore::open(dir, cfg).expect("open store")
}

fn iterate(
    fx: &Fixture,
    p: &Params,
    dir: &Path,
    out: &mut Outcome,
    tracer: Option<&Tracer>,
) -> (Iteration, DistributedStore) {
    let t_real = Instant::now();
    let mut rng = SplitMix(p.seed);
    let root = tracer.map(|t| (t, t.begin(None, ROOT_LAYER, "iteration", 0)));
    let under = |name: &str| root.map(|(t, r)| (t, t.begin(Some(r), ROOT_LAYER, name, 0)));
    let close = |span: Spans| {
        if let Some((t, id)) = span {
            t.end(id);
        }
    };
    let store = spanned(root, "open", || open(dir, 3, 2));

    let spans = under("phase:put");
    let mut put_phase = Phase::default();
    for pl in &fx.base {
        put(&store, pl, &mut put_phase, out, spans);
    }
    close(spans);

    let spans = under("phase:get");
    let get_phase = get_passes(&store, &fx.base, GET_PASSES, &mut rng, out, spans);
    close(spans);

    // One put of a fresh key to four gets of present ones.
    let spans = under("phase:mixed");
    let mut mixed = Phase::default();
    for pl in &fx.mixed {
        put(&store, pl, &mut mixed, out, spans);
        for _ in 0..4 {
            let i = rng.below(fx.base.len() as u64) as usize;
            get(&store, &fx.base[i], &mut mixed, out, spans);
        }
    }
    close(spans);

    // One node dead: every lookup must still hit, through the replica.
    let spans = under("phase:degraded");
    store.kill_node(0);
    let degraded = get_passes(&store, &fx.base, DEGRADED_PASSES, &mut rng, out, spans);
    let mut late = Phase::default();
    for pl in &fx.late {
        put(&store, pl, &mut late, out, spans);
    }
    close(spans);

    // The node returns: heal must restore exactly the replicas the late
    // inserts could not place on it.
    let spans = under("phase:heal");
    store.revive_node(0);
    let owed = fx
        .late
        .iter()
        .filter(|pl| store.router().placement(pl.key).contains(&0))
        .count() as u64;
    let (restored, heal_s) = spanned(spans, "heal", || clocked(|| store.heal()));
    out.op(restored.is_ok_and(|n| n == owed) != p.corrupt);
    close(spans);
    close(root);

    let iteration = Iteration {
        put: put_phase,
        get: get_phase,
        mixed,
        degraded,
        heal_s,
        real_s: t_real.elapsed().as_secs_f64(),
    };
    (iteration, store)
}

/// Run the workload.
pub fn run(p: &Params, scratch: &Scratch) -> Outcome {
    let mut out = Outcome::default();
    let (n_base, n_mixed, n_late) = if p.quick {
        (100, 20, 20)
    } else {
        (200, 40, 20)
    };
    let fx = timed_setup(p, &mut out, 15, || {
        let mut fx = Fixture {
            base: payloads(p.seed, 1, n_base),
            mixed: payloads(p.seed, 2, n_mixed),
            late: payloads(p.seed, 3, n_late),
        };
        if p.corrupt {
            for pl in fx.base.iter_mut().chain(&mut fx.mixed).chain(&mut fx.late) {
                pl.digest = Digest(pl.digest.0 ^ 1);
            }
        }
        fx
    });
    let dir = scratch.path().join("store");

    drop(iterate(&fx, p, &dir, &mut out, None));
    let mut iterations = Vec::new();
    let mut last_store = None;
    timed_loop(p, 1.0, 2, || {
        let (it, store) = iterate(&fx, p, &dir, &mut out, None);
        out.iteration(it.lookups().sum());
        iterations.push(it);
        last_store = Some(store);
    });
    let column = |f: fn(&Iteration) -> f64| iterations.iter().map(f).collect::<Vec<f64>>();
    out.set_samples("put_mb_s", &column(|it| it.put.mb_s()));
    out.set_samples("get_mb_s", &column(|it| it.get.mb_s()));
    out.set_samples(
        "mixed_ops_per_s",
        &column(|it| it.mixed.ops.len() as f64 / it.mixed.seconds),
    );

    if p.trace {
        out.set_samples(
            "cache.dist.degraded_get_mb_s",
            &column(|it| it.degraded.mb_s()),
        );
        out.set_samples("cache.heal_s", &column(|it| it.heal_s));
        let last = iterations.last().expect("an iteration ran");
        let store = last_store.expect("an iteration ran");
        class_metrics(&mut out, "dist", &last.put, &last.get);
        counters(&mut out, &store);
        cache_probes(&mut out, &fx, &store);
        drop(store);
        let untraced = last.real_s;

        // The same put/get sequence on the two single-directory shapes.
        let mut rng = SplitMix(p.seed);
        let twin_dir = scratch.path().join("twin");
        let _ = std::fs::remove_dir_all(&twin_dir);
        let artifact = ArtifactCache::open(&twin_dir, None).expect("open cache");
        twin(&mut out, "artifact", &artifact, &fx, &mut rng);
        drop(artifact);
        twin(&mut out, "dist1", &open(&twin_dir, 1, 1), &fx, &mut rng);

        let tracer = Tracer::new();
        drop(iterate(&fx, p, &dir, &mut out, Some(&tracer)));
        record_trace(&mut out, &tracer, untraced);
    }
    out
}

fn class_metrics(out: &mut Outcome, shape: &str, put: &Phase, get: &Phase) {
    for (class, label) in SIZE_CLASSES.iter().enumerate() {
        for (verb, phase) in [("put", put), ("get", get)] {
            let name = crate::metrics::find(&format!("cache.{shape}.{verb}_us_{label}"))
                .expect("declared")
                .name;
            out.set_samples(name, &phase.class_us(class));
        }
    }
}

fn twin(out: &mut Outcome, shape: &str, store: &dyn Store, fx: &Fixture, rng: &mut SplitMix) {
    let mut put_phase = Phase::default();
    for pl in &fx.base {
        put(store, pl, &mut put_phase, out, None);
    }
    let get_phase = get_passes(store, &fx.base, 1, rng, out, None);
    class_metrics(out, shape, &put_phase, &get_phase);
}

/// `cache.*` counters of the iteration's store and its shards.
fn counters(out: &mut Outcome, store: &DistributedStore) {
    let s = store.stats();
    out.set("cache.local_hits", s.local_hits as f64);
    out.set("cache.remote_hits", s.remote_hits as f64);
    out.set("cache.misses", s.misses as f64);
    out.set("cache.replica_writes", s.replica_writes as f64);
    out.set("cache.dead_skips", s.dead_skips as f64);
    out.set("cache.remote_bytes", s.remote_bytes as f64);
    let shards = (0..store.nodes()).map(|k| store.shard_stats(k));
    let (verify_failures, evictions) =
        shards.fold((0, 0), |(v, e), s| (v + s.verify_failures, e + s.evictions));
    out.set("cache.verify_failures", verify_failures as f64);
    out.set("cache.evictions", evictions as f64);
}

/// `cache.digest_mb_s` and `cache.contains_verified_us`.
fn cache_probes(out: &mut Outcome, fx: &Fixture, store: &DistributedStore) {
    let big = fx
        .base
        .iter()
        .max_by_key(|pl| pl.bytes.len())
        .expect("payloads");
    let per_call = probe(20, 1.0, || cache::digest_bytes(&big.bytes));
    out.set(
        "cache.digest_mb_s",
        big.bytes.len() as f64 / 1e6 / median(&per_call),
    );
    let mut i = 0;
    let verified = probe(500, 1e6, || {
        i = (i + 1) % fx.base.len();
        store.contains_verified(fx.base[i].key)
    });
    out.set_samples("cache.contains_verified_us", &verified);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_are_a_pure_function_of_seed_and_stream() {
        let fingerprint = |seed, stream| -> Vec<(CacheKey, Digest, usize)> {
            payloads(seed, stream, 40)
                .iter()
                .map(|p| (p.key, p.digest, p.bytes.len()))
                .collect()
        };
        assert_eq!(fingerprint(5, 1), fingerprint(5, 1));
        assert_ne!(fingerprint(5, 1), fingerprint(6, 1));
        assert_ne!(fingerprint(5, 1), fingerprint(5, 2));
        for pl in payloads(5, 1, 40) {
            assert_eq!(cache::digest_bytes(&pl.bytes), pl.digest);
            assert!(SIZE_MIX.iter().any(|(size, _)| *size == pl.bytes.len()));
        }
    }

    #[test]
    fn size_mix_is_exact_for_every_seed() {
        for seed in [1, 2, 20150715] {
            let set = payloads(seed, 1, 400);
            let count = |size: usize| set.iter().filter(|p| p.bytes.len() == size).count();
            assert_eq!(
                (count(4 << 10), count(64 << 10), count(1 << 20)),
                (280, 100, 20)
            );
        }
        let order = |seed| -> Vec<usize> {
            payloads(seed, 1, 40)
                .iter()
                .map(|p| p.bytes.len())
                .collect()
        };
        assert_ne!(order(1), order(2), "the order is seeded");
    }
}

//! `service` — the long-lived multi-campaign service under two closed-loop
//! clients. The drops are tiny, so kernels are negligible; `core::service`,
//! `core::listener`, `core::journal`, `core::stream`, the distributed store
//! and `simhpc` admission do the work. The service is paced by its 1 ms
//! polls: gains in polling, journaling, stealing or admission show here and
//! on no other workload.
//!
//! Not one of the workloads `BENCHMARK.json` lists (see
//! [`crate::metrics::UNGATED`]): three quarters of a session is `fdatasync`
//! on the disk that holds the checkout.

use super::{timed_loop, timed_setup, Outcome, Params, SplitMix};
use crate::host::{self, Scratch};
use crate::probes;
use crate::stats;
use crate::trace::{Tracer, ROOT_LAYER};
use hacc_core::service::reference_catalog;
use hacc_core::{CampaignSpec, CampaignStatus, ServiceConfig, ServiceError, WorkflowService};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Campaigns per timed iteration (one session).
const BATCH: usize = 50;
/// Campaigns of the untimed warm-up that ends the set-up.
const WARMUP: usize = 20;
/// Drop counts cycle through these.
const STEPS: [usize; 3] = [4, 8, 12];

/// Campaign `index` of the list `seed` generates: a pure function of both.
/// Whole-file and streamed campaigns alternate; names are unique per index
/// within `generation` (one service instance).
pub fn campaign(seed: u64, generation: usize, index: usize) -> CampaignSpec {
    let drop_seed = SplitMix(seed ^ (index as u64).wrapping_mul(0xA24B_AED4_963E_E407)).next_u64();
    let name = format!("g{generation}-c{index:05}");
    let steps = STEPS[index % STEPS.len()];
    if index.is_multiple_of(2) {
        CampaignSpec::new(name, drop_seed, steps)
    } else {
        CampaignSpec::streamed(name, drop_seed, steps)
    }
}

/// What the clients saw over one batch.
#[derive(Default)]
struct Batch {
    wall: f64,
    latencies_ms: Vec<f64>,
    ok: u64,
    bad: u64,
    saturated: u64,
    stream_chunks: u64,
}

/// Chunks a streamed campaign published, read off its catalog: one framed
/// payload per step, one center per non-empty block, one chunk per block.
fn chunks_in(catalog: &[u8]) -> u64 {
    let mut rest = catalog;
    let mut chunks = 0;
    while rest.len() >= 8 {
        let len = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes")) as usize;
        chunks += (len / cosmotools::CENTER_RECORD_BYTES) as u64;
        rest = rest.get(8 + len..).unwrap_or(&[]);
    }
    chunks
}

/// Drive campaigns `range` of the list through `service` with
/// [`host::CLIENTS`] closed-loop clients: submit → wait → check → next.
fn run_batch(
    service: &WorkflowService,
    p: &Params,
    generation: usize,
    range: std::ops::Range<usize>,
) -> Batch {
    let next = AtomicUsize::new(range.start);
    let saturated = AtomicU64::new(0);
    let t = Instant::now();
    let per_client: Vec<Batch> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..host::CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Batch::default();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= range.end {
                            return mine;
                        }
                        let spec = campaign(p.seed, generation, index);
                        let t_submit = Instant::now();
                        let id = loop {
                            match service.submit_campaign(spec.clone()) {
                                Ok(id) => break id,
                                Err(ServiceError::Saturated { .. }) => {
                                    saturated.fetch_add(1, Ordering::Relaxed);
                                    std::thread::sleep(Duration::from_millis(1));
                                }
                                Err(e) => panic!("submit {}: {e}", spec.name),
                            }
                        };
                        let status = service.wait(id).expect("campaign is registered");
                        mine.latencies_ms
                            .push(t_submit.elapsed().as_secs_f64() * 1e3);

                        let report = service.report(id).expect("campaign is registered");
                        let mut expected = reference_catalog(&spec);
                        if p.corrupt {
                            expected.push(0);
                        }
                        let ok = status == CampaignStatus::Completed
                            && report.catalog.as_deref() == Some(&expected[..])
                            && report.executions.len() == spec.steps
                            && report.executions.values().all(|&n| n == 1);
                        if ok {
                            mine.ok += 1;
                        } else {
                            mine.bad += 1;
                        }
                        if spec.stream {
                            mine.stream_chunks += report.catalog.as_deref().map_or(0, chunks_in);
                        }
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let mut batch = Batch {
        wall: t.elapsed().as_secs_f64(),
        saturated: saturated.load(Ordering::Relaxed),
        ..Batch::default()
    };
    for c in per_client {
        batch.latencies_ms.extend(c.latencies_ms);
        batch.ok += c.ok;
        batch.bad += c.bad;
        batch.stream_chunks += c.stream_chunks;
    }
    batch
}

/// One service instance from start to shutdown: what the clients saw and
/// what the service reported.
struct Session {
    batch: Batch,
    report: hacc_core::ServiceReport,
}

/// Start a service on a fresh root, drive `campaigns` campaigns through it,
/// shut it down and remove its root.
fn session(p: &Params, scratch: &Scratch, generation: usize, campaigns: usize) -> Session {
    let root = scratch.fresh(&format!("service-g{generation}"));
    let cfg = ServiceConfig {
        shards: 2,
        pool_workers: host::WORKERS,
        poll_interval: Duration::from_millis(1),
        store_nodes: 3,
        store_replicas: 2,
        ..ServiceConfig::new(&root)
    };
    let service = WorkflowService::start(cfg).expect("start service");
    let batch = run_batch(&service, p, generation, 0..campaigns);
    let report = service.shutdown();
    let _ = std::fs::remove_dir_all(root);
    Session { batch, report }
}

/// Run the workload.
///
/// Every timed iteration is a service of its own, started empty: the
/// store's index compaction makes an insert cost grow with the entries
/// already there, so a long-lived instance slows down batch after batch
/// (100-campaign batches took 3.9, 6.0, 8.0, 10.4 s in a row) and a number
/// taken from it would depend on how long the run was. Shorter sessions,
/// more of them, also give the median more to stand on.
pub fn run(p: &Params, scratch: &Scratch) -> Outcome {
    let mut out = Outcome::default();
    let (batch_size, warmup) = if p.quick { (40, 4) } else { (BATCH, WARMUP) };
    let fold = |out: &mut Outcome, b: &Batch| {
        out.attempted += b.ok + b.bad;
        out.failed += b.bad;
    };

    // Set-up: a throw-away service and the warm-up campaigns through it.
    let mut generation = 0;
    let mut warm = Vec::new();
    timed_setup(p, &mut out, 5, || {
        generation += 1;
        warm.push(session(p, scratch, generation, warmup).batch);
    });
    for b in &warm {
        fold(&mut out, b);
    }

    // At least four sessions: the tail percentile needs 200 latencies.
    let mut sessions: Vec<Session> = Vec::new();
    let mut one_more = |sessions: &mut Vec<Session>| {
        generation += 1;
        sessions.push(session(p, scratch, generation, batch_size));
    };
    timed_loop(p, 1.0, 4, || one_more(&mut sessions));
    // A traced run is a single pass, but its tail needs the latencies too
    // (the traced session below supplies the last 50).
    while p.trace && !p.quick && (sessions.len() + 1) * batch_size < 200 {
        one_more(&mut sessions);
    }
    let mut latencies_ms = Vec::new();
    for s in &sessions {
        fold(&mut out, &s.batch);
        latencies_ms.extend(&s.batch.latencies_ms);
        out.iteration(s.batch.wall);
    }
    let rates: Vec<f64> = sessions
        .iter()
        .map(|s| (s.batch.ok + s.batch.bad) as f64 / s.batch.wall)
        .collect();
    out.set_samples("campaigns_per_s", &rates);
    out.set_samples("campaign_latency_ms", &latencies_ms);

    if p.trace {
        // Listener- and thread-driven: no span tree from outside; one span
        // around a further session gives the overhead figure only, and
        // coverage is not applicable (reported as 0).
        let tracer = Tracer::new();
        let root = tracer.begin(None, ROOT_LAYER, "iteration", 0);
        let traced = tracer.scope(root, "core.service", "session", |_| {
            session(p, scratch, generation + 1, batch_size)
        });
        tracer.end(root);
        fold(&mut out, &traced.batch);
        latencies_ms.extend(&traced.batch.latencies_ms);
        out.set(
            "trace.overhead_frac",
            traced.batch.wall / sessions[0].batch.wall - 1.0,
        );
        out.spans = tracer.spans();

        // Counters per session (medians over the sessions).
        let column = |f: &dyn Fn(&Session) -> f64| sessions.iter().map(f).collect::<Vec<f64>>();
        let campaigns = |s: &Session, f: fn(&hacc_core::CampaignReport) -> u64| -> f64 {
            s.report.campaigns.values().map(f).sum::<u64>() as f64
        };
        out.set_samples("service.scans", &column(&|s| s.report.scans as f64));
        out.set_samples("service.steals", &column(&|s| s.report.steals as f64));
        out.set_samples(
            "service.scans_per_drop",
            &column(&|s| s.report.scans as f64 / campaigns(s, |c| c.handled as u64).max(1.0)),
        );
        out.set_samples(
            "service.saturated_rejects",
            &column(&|s| s.batch.saturated as f64),
        );
        out.set_samples(
            "service.assembly_misses",
            &column(&|s| campaigns(s, |c| c.assembly_misses)),
        );
        out.set_samples(
            "listener.retries",
            &column(&|s| campaigns(s, |c| c.listener.submit_retries)),
        );
        out.set_samples(
            "listener.cache_skipped",
            &column(&|s| campaigns(s, |c| c.listener.cache_skipped.len() as u64)),
        );
        out.set_samples("stream.chunks", &column(&|s| s.batch.stream_chunks as f64));
        if stats::tail_supported(latencies_ms.len(), 95.0) {
            out.set(
                "service.campaign_latency_p95_ms",
                stats::percentile(&latencies_ms, 95.0),
            );
        }
        probes::listener_journal_stream(&mut out, scratch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_list_is_a_pure_function_of_the_seed() {
        let list = |seed| (0..50).map(|i| campaign(seed, 1, i)).collect::<Vec<_>>();
        assert_eq!(list(7), list(7));
        assert_ne!(list(7), list(8));
        let l = list(7);
        assert!(l.iter().step_by(2).all(|c| !c.stream));
        assert!(l.iter().skip(1).step_by(2).all(|c| c.stream));
        assert_eq!(
            l.iter().take(3).map(|c| c.steps).collect::<Vec<_>>(),
            STEPS.to_vec()
        );
        let names: std::collections::BTreeSet<_> = l.iter().map(|c| &c.name).collect();
        assert_eq!(names.len(), l.len());
    }

    #[test]
    fn chunks_are_read_off_the_framed_catalog() {
        // Two steps: two centers, then three.
        let mut catalog = Vec::new();
        for centers in [2usize, 3] {
            let payload = vec![0u8; centers * cosmotools::CENTER_RECORD_BYTES];
            catalog.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            catalog.extend_from_slice(&payload);
        }
        assert_eq!(chunks_in(&catalog), 5);
        assert_eq!(chunks_in(&[]), 0);
        // A truncated frame counts what its header claims and stops.
        assert_eq!(chunks_in(&catalog[..catalog.len() - 1]), 5);
    }
}

//! Layer probes: the harness calls a layer's public function on inputs the
//! workload generated and times it from outside. Each probe runs on the
//! workload that drives its layer; the other workloads report 0 for it.

use crate::workloads::{probe, probe_with, Outcome};
use dpp::{Backend, PoolStats};
use nbody::{Particle, ParticleSoA, SimConfig, Simulation};

/// Repetitions of a millisecond-scale probe.
const REPS: usize = 5;

/// Run `work` and push what it added to the pool's counters onto `deltas`.
pub fn with_pool_delta<R>(
    backend: &dyn Backend,
    deltas: &mut Vec<PoolStats>,
    work: impl FnOnce() -> R,
) -> R {
    let before = backend.pool_stats().unwrap_or_default();
    let result = work();
    deltas.push(
        backend
            .pool_stats()
            .unwrap_or_default()
            .delta_since(&before),
    );
    result
}

/// `dpp.*` report metrics: pool counters per iteration (medians over the
/// iterations' deltas).
pub fn pool_report(out: &mut Outcome, deltas: &[PoolStats]) {
    let column = |f: fn(&PoolStats) -> f64| deltas.iter().map(f).collect::<Vec<f64>>();
    out.set_samples("dpp.dispatches", &column(|d| d.dispatches as f64));
    out.set_samples(
        "dpp.small_n_dispatches",
        &column(|d| d.small_n_dispatches as f64),
    );
    out.set_samples(
        "dpp.dispatch_busy_s",
        &column(|d| d.total_dispatch_nanos as f64 * 1e-9),
    );
}

/// `dpp.roundtrip_us`: one 4096-element map through the pool — just above
/// the small-n inline threshold, so it pays a real dispatch.
pub fn dpp_roundtrip(out: &mut Outcome, backend: &dyn Backend) {
    let input: Vec<u64> = (0..4096).collect();
    let samples = probe(200, 1e6, || {
        dpp::ops::map(backend, &input, |x| x.wrapping_mul(3))
    });
    out.set_samples("dpp.roundtrip_us", &samples);
}

/// `nbody.*` and `fft.*`: initial conditions, one step, the SoA CIC deposit,
/// the Poisson solve and the two 3-D transforms, at the workload's size.
pub fn nbody_and_fft(
    out: &mut Outcome,
    backend: &dyn Backend,
    cfg: &SimConfig,
    particles: &[Particle],
) {
    let mut sim = None;
    let ic = probe(2, 1.0, || sim = Some(Simulation::new(backend, cfg.clone())));
    out.set_samples("nbody.ic_s", &ic);
    let mut sim = sim.expect("probe ran");
    // Distinct steps of one run: the state advances, the cost does not.
    out.set_samples("nbody.step_ms", &probe(REPS, 1e3, || sim.step(backend)));

    let (ng, box_size) = (cfg.ng, cfg.cosmology.box_size);
    let soa = ParticleSoA::from_aos(particles);
    let deposit = || nbody::cic_deposit_soa(backend, &soa, ng, box_size);
    out.set_samples("nbody.cic_deposit_ms", &probe(REPS, 1e3, deposit));
    let delta = deposit();
    out.set_samples(
        "nbody.poisson_ms",
        &probe(REPS, 1e3, || nbody::poisson_accel(backend, &delta, 1.5)),
    );
    out.set_samples(
        "fft.forward_ms",
        &probe(REPS, 1e3, || {
            fft::forward_real(backend, &delta).expect("cubic mesh")
        }),
    );
    let spectrum = fft::forward_real(backend, &delta).expect("cubic mesh");
    out.set_samples(
        "fft.inverse_ms",
        &probe_with(
            REPS,
            1e3,
            || spectrum.clone(),
            |mut grid| fft::inverse_to_real(backend, &mut grid).expect("cubic mesh"),
        ),
    );
}

/// `halo.fof_ms` / `halo.mbp_ms`, `comm.*` and `genio.*`, on the inputs the
/// `posthoc` fixture holds: rank 0's particles, the Level-1 container and
/// the Level-2 container of halos above the split threshold.
pub fn halo_comm_genio(
    out: &mut Outcome,
    backend: &dyn Backend,
    bed: &hacc_core::TestBed,
    scratch: &crate::host::Scratch,
) {
    use comm::{CartDecomp, World};
    use cosmotools::Container;
    use halo::Coords;

    let cfg = &bed.cfg;
    let fof = cfg.fof();
    let per_rank = bed.distributed();
    let nranks = cfg.nranks;
    let decomp = CartDecomp::new(nranks, cfg.sim.cosmology.box_size);

    // halo: serial FOF over rank 0's block, MBP over its largest group.
    let coords = Coords::from_particles(&per_rank[0]);
    out.set_samples(
        "halo.fof_ms",
        &probe(REPS, 1e3, || {
            halo::fof_kdtree_cols(&coords, fof.link_length)
        }),
    );
    let labels = halo::fof_kdtree_cols(&coords, fof.link_length);
    let largest = halo::members_by_group(&labels)
        .into_iter()
        .max_by_key(Vec::len)
        .unwrap_or_default();
    let members: Vec<Particle> = largest.iter().map(|&i| per_rank[0][i as usize]).collect();
    if !members.is_empty() {
        let (mc, masses) = (Coords::from_particles(&members), vec![1.0; members.len()]);
        out.set_samples(
            "halo.mbp_ms",
            &probe(REPS, 1e3, || {
                halo::mbp_brute_cols(backend, &mc, &masses, cfg.softening)
            }),
        );
    }

    // comm: the off-line strategy's redistribution (round-robin blocks to
    // spatial owners) and FOF's overload exchange, in a 2-rank world.
    let world = World::new(nranks);
    out.set_samples(
        "comm.redistribute_ms",
        &probe(REPS, 1e3, || {
            world.run(|c| {
                let mine = per_rank[(c.rank() + 1) % nranks].clone();
                comm::redistribute(c, &decomp, mine).len()
            })
        }),
    );
    let mut ghosts = 0;
    out.set_samples(
        "comm.overload_ms",
        &probe(REPS, 1e3, || {
            let received = world.run(|c| {
                comm::exchange_overload(c, &decomp, fof.overload_width, &per_rank[c.rank()]).len()
            });
            ghosts = received.iter().sum();
        }),
    );
    // Every particle starts on the wrong rank above, so all of them move;
    // ghosts are counted where they arrive. Computed, not measured.
    let moved = if nranks > 1 { bed.particles.len() } else { 0 };
    out.set(
        "comm.bytes_moved",
        ((moved + ghosts) * nbody::PARTICLE_BYTES) as f64,
    );

    // genio: Level-1 file write/read, Level-2 chunking and reassembly.
    let level1 = Container {
        meta: bed.meta.clone(),
        blocks: per_rank.clone(),
    };
    let path = scratch.path().join("probe-level1.hcio");
    let write = probe(REPS, 1.0, || {
        cosmotools::write_file(&path, &level1).expect("write level 1")
    });
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len()) as f64;
    let read = probe(REPS, 1.0, || {
        cosmotools::read_file(&path)
            .expect("io")
            .expect("valid container")
    });
    let mb_s = |seconds: &[f64]| -> Vec<f64> { seconds.iter().map(|s| bytes / 1e6 / s).collect() };
    out.set_samples("genio.write_mb_s", &mb_s(&write));
    out.set_samples("genio.read_mb_s", &mb_s(&read));
    out.set("genio.level1_bytes", bytes);
    let _ = std::fs::remove_file(&path);

    let catalogs = world.run(|c| {
        halo::fof_and_centers_timed(
            c,
            &decomp,
            &per_rank[c.rank()],
            &fof,
            backend,
            cfg.softening,
            cfg.threshold,
        )
        .0
    });
    let mut large = halo::HaloCatalog::new();
    for cat in catalogs {
        large.merge(cat.split_by_size(cfg.threshold).1);
    }
    let level2 = cosmotools::write_level2_container(&large, bed.meta.clone());
    out.set(
        "genio.level2_bytes",
        cosmotools::write_container(&level2).len() as f64,
    );
    out.set_samples(
        "genio.chunk_ms",
        &probe(REPS, 1e3, || cosmotools::chunk_container(&level2)),
    );
    let chunks = cosmotools::chunk_container(&level2);
    out.set_samples(
        "genio.assemble_ms",
        &probe(REPS, 1e3, || {
            cosmotools::assemble_chunks(&chunks).expect("complete chunk set")
        }),
    );
}

/// `render.frame_ms`, `render.lod_select_ms`, `render.encode_ms`, on the
/// run's final-step particles. The LOD probe budgets half the particles, so
/// selection sorts and truncates as a budgeted frame would.
pub fn render(
    out: &mut Outcome,
    backend: &dyn Backend,
    cfg: &SimConfig,
    render_ng: usize,
    particles: &[Particle],
) {
    use cosmotools::{RenderParams, PARTICLE_RENDER_BYTES};
    let params = RenderParams {
        ng: render_ng,
        ..RenderParams::default()
    };
    let box_size = cfg.cosmology.box_size;
    let frame = || cosmotools::render_frame(backend, particles, box_size, &params, 0);
    out.set_samples("render.frame_ms", &probe(REPS, 1e3, frame));
    let budget = particles.len() as u64 / 2 * PARTICLE_RENDER_BYTES;
    out.set_samples(
        "render.lod_select_ms",
        &probe(REPS, 1e3, || {
            cosmotools::lod_select(particles, params.lod_seed, budget)
        }),
    );
    let image = frame();
    out.set_samples(
        "render.encode_ms",
        &probe(50, 1e3, || cosmotools::write_image(&image)),
    );
}

/// `listener.detect_latency_ms`, `listener.drain_files_per_s`, `journal.*`
/// and `stream.publish_drain_us`, on standalone instances of the three
/// pieces the service is built from.
pub fn listener_journal_stream(out: &mut Outcome, scratch: &crate::host::Scratch) {
    use hacc_core::{ChunkRef, Journal, Listener, ListenerConfig, StreamHub};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    let cfg = || ListenerConfig {
        poll_interval: Duration::from_millis(1),
        suffix: ".hcio".into(),
        ..ListenerConfig::default()
    };

    // Detection: a file renamed into place → the submit callback, one file
    // at a time (the quiescence gate costs two polls).
    let dir = scratch.fresh("probe-listener");
    let (tx, rx) = mpsc::channel();
    let listener = Listener::spawn(dir.clone(), cfg(), move |path| {
        let _ = tx.send(path.to_path_buf());
    });
    let mut detect = Vec::new();
    for i in 0..200 {
        let staged = dir.join(format!("l2_{i:04}.tmp"));
        std::fs::write(&staged, [0u8; 64]).expect("write drop");
        let t = Instant::now();
        std::fs::rename(&staged, dir.join(format!("l2_{i:04}.hcio"))).expect("rename drop");
        rx.recv_timeout(Duration::from_secs(10))
            .expect("listener saw the drop");
        detect.push(t.elapsed().as_secs_f64() * 1e3);
    }
    listener.stop_report();
    out.set_samples("listener.detect_latency_ms", &detect);

    // Drain: a 2000-file backlog present before the listener starts.
    let dir = scratch.fresh("probe-backlog");
    let backlog = 2000;
    for i in 0..backlog {
        std::fs::write(dir.join(format!("l2_{i:04}.hcio")), [0u8; 64]).expect("write drop");
    }
    let t = Instant::now();
    let listener = Listener::spawn(dir, cfg(), |_| {});
    while listener.handled() < backlog {
        std::thread::sleep(Duration::from_micros(200));
    }
    let drain = t.elapsed().as_secs_f64();
    listener.stop_report();
    out.set("listener.drain_files_per_s", backlog as f64 / drain);

    // Journal: durable appends, then a 10k-entry load.
    let dir = scratch.fresh("probe-journal");
    let journal = Journal::new(dir.join("append.journal"));
    let mut n = 0;
    let appends = probe(100, 1e6, || {
        n += 1;
        journal
            .append(&dir.join(format!("l2_{n:05}.hcio")))
            .expect("journal append")
    });
    out.set_samples("journal.append_us", &appends);
    let big = Journal::new(dir.join("load.journal"));
    let entries = (0..10_000)
        .map(|i| dir.join(format!("l2_{i:05}.hcio")))
        .collect();
    big.rewrite(&entries).expect("write journal");
    out.set_samples(
        "journal.load_ms",
        &probe(REPS, 1e3, || big.load().expect("load journal").len()),
    );

    // Stream hub: publish one announcement and drain it, per chunk.
    let hub = StreamHub::new();
    let chunk = |i: u32| ChunkRef {
        step: u64::from(i / 3),
        index: i % 3,
        total: 3,
        key: cache::CacheKey::compose(
            "l2chunk",
            cache::digest_bytes(&i.to_le_bytes()),
            cache::FingerprintBuilder::new()
                .push_u64(u64::from(i))
                .finish(),
        ),
        len: 4096,
    };
    let chunks: Vec<ChunkRef> = (0..1000).map(chunk).collect();
    let mut cursor = 0;
    let per_chunk = probe(REPS, 1e6 / chunks.len() as f64, || {
        for c in &chunks {
            hub.publish(1, *c);
            cursor = hub.drain_from(1, cursor).1;
        }
    });
    out.set_samples("stream.publish_drain_us", &per_chunk);
}

//! `cosched` — the paper's headline path. `run_combined_coscheduled` re-runs
//! the simulation with the in-situ hook, a live listener and overlapped
//! post-processing jobs. `nbody`, `fft` and `dpp` do most of the work;
//! `halo`, `listener` and `genio` little — a kernel or dispatch gain shows
//! here, an I/O or store gain must not.

use super::testbed::{self, CatalogCheck};
use super::{timed_loop, timed_setup, Outcome, Params};
use crate::host::{self, Scratch};
use crate::probes;
use crate::trace::{Tracer, ROOT_LAYER};
use std::time::Instant;

/// Steps between Level-2 emissions of the co-scheduled run.
const EMIT_EVERY: usize = 4;

/// Run the workload.
pub fn run(p: &Params, scratch: &Scratch) -> Outcome {
    let mut out = Outcome::default();
    let backend = host::backend();
    let fx = timed_setup(p, &mut out, 2, || {
        testbed::build(p, scratch.fresh("cosched"), &backend)
    });
    let mut check = CatalogCheck::default();
    let mut pool_deltas = Vec::new();
    let mut last = None;
    let mut iteration = |out: &mut Outcome, timed: bool| {
        let t = Instant::now();
        let run = probes::with_pool_delta(&backend, &mut pool_deltas, || {
            fx.bed.run_combined_coscheduled(&backend, EMIT_EVERY)
        });
        let wall = t.elapsed().as_secs_f64();
        out.op(check.check(&fx.reference, &run));
        if timed {
            out.iteration(wall);
        }
        last = Some(run);
        wall
    };
    iteration(&mut out, false);
    timed_loop(p, 1.0, 2, || {
        iteration(&mut out, true);
    });

    if p.trace {
        // Thread- and listener-driven: one span around the whole run is all
        // the harness can honestly record from outside, so coverage is not
        // applicable (reported as 0) and the layer numbers below come from
        // the run's own report and from probes.
        let tracer = Tracer::new();
        let root = tracer.begin(None, ROOT_LAYER, "iteration", 0);
        let wall = tracer.scope(root, "core.runner", "run_combined_coscheduled", |_| {
            iteration(&mut out, false)
        });
        tracer.end(root);
        out.set("trace.overhead_frac", wall / out.iter_s[0] - 1.0);
        out.spans = tracer.spans();

        let run = last.as_ref().expect("an iteration ran");
        out.set("runner.cosched.wall_s", out.iter_s[0]);
        out.set("runner.cosched.analysis_s", run.phases.analysis);
        out.set("runner.cosched.overlapped_jobs", run.overlapped_jobs as f64);
        probes::pool_report(&mut out, &pool_deltas);
        probes::dpp_roundtrip(&mut out, &backend);
        probes::nbody_and_fft(&mut out, &backend, &fx.bed.cfg.sim, &fx.bed.particles);
        // The listener this run drives, and the journal and stream hub it is
        // paired with in the service, on standalone instances.
        probes::listener_journal_stream(&mut out, scratch);
    }
    out
}

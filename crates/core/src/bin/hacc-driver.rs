//! The stand-alone CosmoTools driver as an executable (paper §3.1/§3.2):
//! the same binary the listener's generated batch scripts would invoke.
//!
//! ```text
//! hacc-driver sim --deck deck.ini --out /tmp/run           # simulation + in-situ analysis
//! hacc-driver analyze --level1 /tmp/run/level1.hcio        # full off-line analysis
//! hacc-driver centers --level2 /tmp/run/level2.hcio        # off-line center finding
//! hacc-driver listen --dir /tmp/run --max-files 3          # co-scheduling listener
//! hacc-driver experiments [table1|table2|table3|fig3|fig4|qcontinuum|all]
//! hacc-driver sim --deck deck.ini --out /tmp/run --trace t.json  # + Chrome trace export
//! hacc-driver trace-check t.json                           # validate an exported trace
//! ```

use cosmotools::{
    centers_from_level2, Config, HaloFinderTask, InSituAnalysisManager, PowerSpectrumTask, Product,
    SnapshotMeta, SoMassTask, SubsampleTask,
};
use dpp::Threaded;
use hacc_core::experiments as exp;
use hacc_core::{Listener, ListenerConfig, TitanFrame};
use nbody::{Cosmology, SimConfig, Simulation};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    // `--trace <file>` on any command: record the run and export a Chrome
    // trace-event JSON (load in Perfetto / chrome://tracing) plus a summary
    // table on stdout.
    let trace_out = opt(rest, "--trace");
    let guard = trace_out.as_ref().map(|_| {
        telemetry::install(std::sync::Arc::new(telemetry::Recorder::new(
            telemetry::Clock::Wall,
        )))
    });
    let result = match cmd.as_str() {
        "sim" => cmd_sim(rest),
        "analyze" => cmd_analyze(rest),
        "centers" => cmd_centers(rest),
        "listen" => cmd_listen(rest),
        "experiments" => cmd_experiments(rest),
        "trace-check" => cmd_trace_check(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    let result = result.and_then(|()| {
        if let (Some(g), Some(path)) = (guard, trace_out) {
            let trace = g.finish();
            print!("{}", trace.summary_table());
            std::fs::write(&path, trace.chrome_json()).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote trace {path}");
        }
        Ok(())
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  hacc-driver sim --deck <file> --out <dir>
  hacc-driver analyze --level1 <file> [--link <frac>] [--min-size <n>]
  hacc-driver centers --level2 <file>
  hacc-driver listen --dir <dir> [--suffix <s>] [--max-files <n>] [--timeout-ms <t>]
  hacc-driver experiments [table1|table2|table3|fig3|fig4|qcontinuum|all]
  hacc-driver trace-check <trace.json>
options (any command):
  --trace <file>   record the run and export a Chrome trace-event JSON";

/// Pull `--key value` from an argument list.
fn opt(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn req(args: &[String], key: &str) -> Result<String, String> {
    opt(args, key).ok_or_else(|| format!("missing required option {key}"))
}

fn cmd_sim(args: &[String]) -> Result<(), String> {
    let deck_path = req(args, "--deck")?;
    let out_dir = PathBuf::from(req(args, "--out")?);
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let text = std::fs::read_to_string(&deck_path).map_err(|e| format!("{deck_path}: {e}"))?;
    let deck = Config::parse(&text).map_err(|e| e.to_string())?;

    // Simulation parameters come from the deck's [simulation] section.
    let cfg = SimConfig {
        np: deck.get_usize("simulation", "np").unwrap_or(32),
        ng: deck.get_usize("simulation", "ng").unwrap_or(32),
        nsteps: deck.get_usize("simulation", "nsteps").unwrap_or(30),
        seed: deck
            .get_usize("simulation", "seed")
            .map(|s| s as u64)
            .unwrap_or(20150715),
        z_init: deck.get_f64("simulation", "z_init").unwrap_or(30.0),
        z_final: deck.get_f64("simulation", "z_final").unwrap_or(0.0),
        cosmology: Cosmology {
            box_size: deck.get_f64("simulation", "box_size").unwrap_or(162.5),
            ..Cosmology::default()
        },
    };
    let box_size = cfg.cosmology.box_size;
    let backend = Threaded::with_available_parallelism();

    let mut manager = InSituAnalysisManager::new();
    manager.register(Box::new(PowerSpectrumTask::new()));
    manager.register(Box::new(HaloFinderTask::new()));
    manager.register(Box::new(SoMassTask::new()));
    manager.register(Box::new(SubsampleTask::new()));
    manager.configure(&deck).map_err(|e| e.to_string())?;

    println!(
        "sim: {}^3 particles, {} steps, box {} Mpc/h -> {}",
        cfg.np,
        cfg.nsteps,
        box_size,
        out_dir.display()
    );
    let mut sim = Simulation::new(&backend, cfg);
    sim.run_with_hook(&backend, |step, sim| {
        let ran = manager.execute_at(
            step,
            sim.total_steps(),
            sim.redshift(),
            sim.particles(),
            box_size,
            &backend,
        );
        if ran > 0 {
            println!("  step {step:>4}: z = {:.3}, {ran} task(s)", sim.redshift());
        }
    });

    // Write products: Level 1 (if asked), Level 2 + center records.
    if deck.get_bool("simulation", "write_level1").unwrap_or(false) {
        let container = cosmotools::Container {
            meta: SnapshotMeta {
                step: sim.step_index() as u64,
                redshift: sim.redshift(),
                box_size,
            },
            blocks: vec![sim.particles().to_vec()],
        };
        let p = out_dir.join("level1.hcio");
        cosmotools::write_file(&p, &container).map_err(|e| e.to_string())?;
        println!("wrote {}", p.display());
    }
    for prod in manager.take_products() {
        match prod {
            Product::Halos { step, catalog } => {
                let threshold = deck
                    .get_usize("halofinder", "center_threshold")
                    .unwrap_or(300_000);
                let (small, large) = catalog.split_by_size(threshold);
                let centers = cosmotools::centers_from_catalog(&small);
                let txt: String = centers
                    .iter()
                    .map(|c| {
                        format!(
                            "{} {} {:.6} {:.6} {:.6}\n",
                            c.halo_id, c.count, c.center[0], c.center[1], c.center[2]
                        )
                    })
                    .collect();
                let p = out_dir.join(format!("centers_step{step:04}.txt"));
                std::fs::write(&p, txt).map_err(|e| e.to_string())?;
                println!("wrote {} ({} centers)", p.display(), centers.len());
                if !large.is_empty() {
                    let l2 = cosmotools::write_level2_container(
                        &large,
                        SnapshotMeta {
                            step: step as u64,
                            redshift: sim.redshift(),
                            box_size,
                        },
                    );
                    let p = out_dir.join(format!("l2_step{step:04}.hcio"));
                    cosmotools::write_file(&p, &l2).map_err(|e| e.to_string())?;
                    println!(
                        "wrote {} ({} large halos for off-line centering)",
                        p.display(),
                        large.len()
                    );
                }
            }
            Product::PowerSpectrum { step, bins } => {
                let txt: String = bins
                    .iter()
                    .map(|(k, p)| format!("{k:.6e} {p:.6e}\n"))
                    .collect();
                let p = out_dir.join(format!("pk_step{step:04}.txt"));
                std::fs::write(&p, txt).map_err(|e| e.to_string())?;
                println!("wrote {}", p.display());
            }
            other => println!("product `{}` @ step {}", other.name(), other.step()),
        }
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let path = PathBuf::from(req(args, "--level1")?);
    let link: f64 = opt(args, "--link")
        .map(|s| s.parse().unwrap_or(0.2))
        .unwrap_or(0.2);
    let min_size: usize = opt(args, "--min-size")
        .map(|s| s.parse().unwrap_or(40))
        .unwrap_or(40);
    let container = cosmotools::read_file(&path)
        .map_err(|e| e.to_string())?
        .map_err(|e| e.to_string())?;
    println!(
        "level 1: step {}, z = {:.3}, {} particles in {} block(s)",
        container.meta.step,
        container.meta.redshift,
        container.total_particles(),
        container.blocks.len()
    );
    let backend = Threaded::with_available_parallelism();
    let catalog = cosmotools::analyze_level1(&backend, &container, link, min_size, 1e-3);
    println!(
        "found {} halos (min size {min_size}, b = {link})",
        catalog.len()
    );
    for h in catalog.halos.iter().take(10) {
        println!(
            "  halo {:>8}: {:>8} particles, center {:?}",
            h.id,
            h.count(),
            h.mbp_center
                .map(|c| [c[0] as f32, c[1] as f32, c[2] as f32])
        );
    }
    if catalog.len() > 10 {
        println!("  ... and {} more", catalog.len() - 10);
    }
    Ok(())
}

fn cmd_centers(args: &[String]) -> Result<(), String> {
    let path = PathBuf::from(req(args, "--level2")?);
    let container = cosmotools::read_file(&path)
        .map_err(|e| e.to_string())?
        .map_err(|e| e.to_string())?;
    let backend = Threaded::with_available_parallelism();
    let centers = centers_from_level2(&backend, &container, 1e-3);
    println!("{} halos centered:", centers.len());
    for c in &centers {
        println!(
            "halo {:>10} n={:<9} center=({:.4}, {:.4}, {:.4}) phi={:.4e}",
            c.halo_id, c.count, c.center[0], c.center[1], c.center[2], c.potential
        );
    }
    Ok(())
}

fn cmd_listen(args: &[String]) -> Result<(), String> {
    let dir = PathBuf::from(req(args, "--dir")?);
    let suffix = opt(args, "--suffix").unwrap_or_else(|| ".hcio".into());
    let max_files: usize = opt(args, "--max-files")
        .map(|s| s.parse().unwrap_or(usize::MAX))
        .unwrap_or(usize::MAX);
    let timeout_ms: u64 = opt(args, "--timeout-ms")
        .map(|s| s.parse().unwrap_or(60_000))
        .unwrap_or(60_000);
    println!(
        "listening on {} for *{suffix} (max {max_files}, {timeout_ms} ms)",
        dir.display()
    );
    let listener = Listener::spawn(
        dir,
        ListenerConfig {
            suffix,
            ..Default::default()
        },
        |p| println!("submit: analysis job for {}", p.display()),
    );
    let t0 = std::time::Instant::now();
    while listener.handled() < max_files && t0.elapsed().as_millis() < timeout_ms as u128 {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let report = listener.stop_report();
    println!("listener handled {} file(s)", report.submitted.len());
    Ok(())
}

fn cmd_trace_check(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return Err("usage: hacc-driver trace-check <trace.json>".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = telemetry::json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .ok_or_else(|| format!("{path}: missing `traceEvents` array"))?;
    let mut layers: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("cat").and_then(|c| c.as_str()))
        .collect();
    layers.sort_unstable();
    layers.dedup();
    println!(
        "{path}: {} event(s) across {} layer(s){}{}",
        events.len(),
        layers.len(),
        if layers.is_empty() { "" } else { ": " },
        layers.join(", ")
    );
    Ok(())
}

fn cmd_experiments(args: &[String]) -> Result<(), String> {
    // The experiment selector is the first non-flag argument (`--out` /
    // `--trace` may come without one).
    let which = args
        .first()
        .map(|s| s.as_str())
        .filter(|s| !s.starts_with("--"))
        .unwrap_or("all");
    let frame = TitanFrame::default();
    if let Some(out) = opt(args, "--out") {
        let report = hacc_core::full_report(&frame, 20150715);
        std::fs::write(&out, report).map_err(|e| format!("{out}: {e}"))?;
        println!("wrote {out}");
        return Ok(());
    }
    let run = |name: &str| -> bool { which == "all" || which == name };
    if run("table1") {
        println!("{}", exp::format_table1(&exp::table1()));
    }
    if run("table2") {
        println!("{}", exp::format_table2(&exp::table2(&frame)));
    }
    if run("table3") {
        let costs = exp::table3_4(&frame, 7);
        println!("{}", exp::format_table3(&costs));
        println!("{}", hacc_core::format_table4(&costs));
    }
    if run("fig3") {
        println!("{}", exp::format_fig3(&exp::fig3(40)));
    }
    if run("fig4") {
        println!("{}", exp::format_fig4(&exp::fig4(&frame, 20150715)));
    }
    if run("qcontinuum") {
        println!("{}", exp::qcontinuum_report(&frame));
    }
    if ![
        "table1",
        "table2",
        "table3",
        "fig3",
        "fig4",
        "qcontinuum",
        "all",
    ]
    .contains(&which)
    {
        return Err(format!("unknown experiment `{which}`"));
    }
    Ok(())
}

//! The CosmoTools in-situ framework (paper §3.1).
//!
//! `CosmoTools defines a pure abstract base class, InSituAlgorithm, from
//! which specific analysis tasks inherit. Each algorithm subclass must
//! implement three virtual functions: SetParameters() for configuration,
//! ShouldExecute() to determine if the analysis should be executed at a
//! given time step, and Execute() to perform the analysis. The
//! InSituAnalysisManager class holds a list of references to concrete
//! InSituAlgorithm instances and serves as the primary object interacting
//! with the simulation code.`
//!
//! The Rust rendering: [`InSituAlgorithm`] is a trait (dynamic dispatch, the
//! same "small virtual-call overhead" the paper notes and deems negligible),
//! and [`InSituAnalysisManager`] owns boxed instances. Algorithms operate
//! directly on the already-distributed particle slice ("zero copy").

use crate::config::{Config, ConfigError};
use dpp::Backend;
use halo::HaloCatalog;
use nbody::particle::Particle;
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Everything an algorithm may see at a time step. Borrowed views only — no
/// deep copies of simulation state (the framework's "zero copy" principle).
pub struct AnalysisContext<'a> {
    /// Simulation step index (1-based after the first step).
    pub step: usize,
    /// Total steps configured.
    pub total_steps: usize,
    /// Redshift at this step.
    pub redshift: f64,
    /// The rank-local (or whole-box) particle set — Level 1 data in memory.
    pub particles: &'a [Particle],
    /// Periodic box side.
    pub box_size: f64,
    /// Execution backend for the data-parallel kernels.
    pub backend: &'a dyn Backend,
    /// The most recent halo catalog produced earlier in this step's pipeline
    /// (halo-dependent tasks run after the halo finder, paper §4.1: "the
    /// three halo analysis steps have to be carried out in sequence").
    pub catalog: Option<&'a HaloCatalog>,
}

/// An analysis product emitted by an algorithm.
#[derive(Debug, Clone)]
pub enum Product {
    /// Binned matter power spectrum.
    PowerSpectrum {
        /// Step that produced it.
        step: usize,
        /// `(k, P(k))` rows.
        bins: Vec<(f64, f64)>,
    },
    /// FOF halos (+ centers where computed).
    Halos {
        /// Step that produced it.
        step: usize,
        /// The catalog (particle membership = Level 2; centers = Level 3).
        catalog: HaloCatalog,
    },
    /// Spherical-overdensity masses per halo.
    SoMasses {
        /// Step that produced it.
        step: usize,
        /// `(halo id, SO mass)` rows.
        masses: Vec<(u64, f64)>,
    },
    /// A rendered projection image (in-situ visualization).
    Image {
        /// Step that produced it.
        step: usize,
        /// The frame (pixels + provenance).
        frame: crate::render::ImageFrame,
    },
}

impl Product {
    /// A short product name.
    pub fn name(&self) -> &'static str {
        match self {
            Product::PowerSpectrum { .. } => "power-spectrum",
            Product::Halos { .. } => "halos",
            Product::SoMasses { .. } => "so-masses",
            Product::Image { .. } => "image",
        }
    }

    /// Step that emitted the product.
    pub fn step(&self) -> usize {
        match self {
            Product::PowerSpectrum { step, .. }
            | Product::Halos { step, .. }
            | Product::SoMasses { step, .. }
            | Product::Image { step, .. } => *step,
        }
    }
}

/// The paper's abstract analysis-task interface.
pub trait InSituAlgorithm {
    /// Algorithm name (matches its config section).
    fn name(&self) -> &str;

    /// Configure from the CosmoTools configuration file.
    fn set_parameters(&mut self, config: &Config) -> Result<(), ConfigError>;

    /// Should the analysis run at this step?
    fn should_execute(&self, step: usize, total_steps: usize, redshift: f64) -> bool;

    /// Perform the analysis; may consult `ctx.catalog` from earlier
    /// algorithms in the same step.
    fn execute(&mut self, ctx: &AnalysisContext<'_>) -> Vec<Product>;
}

/// Timing record for one algorithm execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionRecord {
    /// Algorithm name.
    pub algorithm: String,
    /// Step at which it ran.
    pub step: usize,
    /// Wall seconds spent in `execute`.
    pub seconds: f64,
}

/// An algorithm's name as a telemetry span name. Span names are `'static` and
/// an algorithm's name is whatever its implementor returns, so each distinct
/// name is leaked once, the first time it is traced.
fn span_name(name: &str) -> &'static str {
    static NAMES: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut names = NAMES.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(known) = names.get(name) {
        return known;
    }
    let leaked: &'static str = Box::leak(name.into());
    names.insert(leaked);
    leaked
}

/// Owns the algorithm list and drives it from the simulation's main loop.
#[derive(Default)]
pub struct InSituAnalysisManager {
    algorithms: Vec<Box<dyn InSituAlgorithm>>,
    products: Vec<Product>,
    records: Vec<ExecutionRecord>,
}

impl InSituAnalysisManager {
    /// Empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an algorithm (runs in registration order — order matters for
    /// halo-dependent tasks).
    pub fn register(&mut self, algo: Box<dyn InSituAlgorithm>) {
        self.algorithms.push(algo);
    }

    /// Number of registered algorithms.
    pub fn len(&self) -> usize {
        self.algorithms.len()
    }

    /// True when no algorithms are registered.
    pub fn is_empty(&self) -> bool {
        self.algorithms.is_empty()
    }

    /// Configure every algorithm from the deck.
    pub fn configure(&mut self, config: &Config) -> Result<(), ConfigError> {
        for a in &mut self.algorithms {
            a.set_parameters(config)?;
        }
        Ok(())
    }

    /// The call site inside the simulation loop: run whichever algorithms
    /// elect to execute at this step. Returns how many ran.
    pub fn execute_at(
        &mut self,
        step: usize,
        total_steps: usize,
        redshift: f64,
        particles: &[Particle],
        box_size: f64,
        backend: &dyn Backend,
    ) -> usize {
        let mut ran = 0;
        // Where in `self.products` this step's most recent catalog sits, for
        // dependent tasks to borrow.
        let mut step_catalog: Option<usize> = None;
        for a in &mut self.algorithms {
            if !a.should_execute(step, total_steps, redshift) {
                continue;
            }
            let ctx = AnalysisContext {
                step,
                total_steps,
                redshift,
                particles,
                box_size,
                backend,
                catalog: step_catalog.and_then(|i| match &self.products[i] {
                    Product::Halos { catalog, .. } => Some(catalog),
                    _ => None,
                }),
            };
            let span = telemetry::is_armed()
                .then(|| telemetry::enter_span("insitu", span_name(a.name()), step as u64));
            let t0 = std::time::Instant::now();
            let products = a.execute(&ctx);
            let seconds = t0.elapsed().as_secs_f64();
            drop(span);
            self.records.push(ExecutionRecord {
                algorithm: a.name().to_string(),
                step,
                seconds,
            });
            for p in products {
                if matches!(p, Product::Halos { .. }) {
                    step_catalog = Some(self.products.len());
                }
                self.products.push(p);
            }
            ran += 1;
        }
        ran
    }

    /// Products emitted so far.
    pub fn products(&self) -> &[Product] {
        &self.products
    }

    /// Drain the products (e.g. to write them to the storage system).
    pub fn take_products(&mut self) -> Vec<Product> {
        std::mem::take(&mut self.products)
    }

    /// Per-execution timing records.
    pub fn records(&self) -> &[ExecutionRecord] {
        &self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted algorithm for manager tests.
    struct Probe {
        name: String,
        every: usize,
        executed_at: Vec<usize>,
        saw_catalog: Vec<bool>,
        emit_halos: bool,
    }

    impl Probe {
        fn new(name: &str, every: usize, emit_halos: bool) -> Self {
            Probe {
                name: name.into(),
                every,
                executed_at: Vec::new(),
                saw_catalog: Vec::new(),
                emit_halos,
            }
        }
    }

    impl InSituAlgorithm for Probe {
        fn name(&self) -> &str {
            &self.name
        }

        fn set_parameters(&mut self, config: &Config) -> Result<(), ConfigError> {
            if config.has_section(&self.name) {
                self.every = config.get_usize(&self.name, "every")?;
            }
            Ok(())
        }

        fn should_execute(&self, step: usize, _total: usize, _z: f64) -> bool {
            step.is_multiple_of(self.every)
        }

        fn execute(&mut self, ctx: &AnalysisContext<'_>) -> Vec<Product> {
            self.executed_at.push(ctx.step);
            self.saw_catalog.push(ctx.catalog.is_some());
            if self.emit_halos {
                vec![Product::Halos {
                    step: ctx.step,
                    catalog: HaloCatalog::new(),
                }]
            } else {
                vec![Product::PowerSpectrum {
                    step: ctx.step,
                    bins: vec![(0.1, 1.0)],
                }]
            }
        }
    }

    fn drive(mgr: &mut InSituAnalysisManager, steps: usize) {
        for s in 1..=steps {
            mgr.execute_at(s, steps, 0.0, &[], 100.0, &dpp::Serial);
        }
    }

    #[test]
    fn should_execute_gates_execution() {
        let mut mgr = InSituAnalysisManager::new();
        mgr.register(Box::new(Probe::new("p", 3, false)));
        drive(&mut mgr, 10);
        assert_eq!(mgr.records().len(), 3); // steps 3, 6, 9
        assert_eq!(mgr.products().len(), 3);
        assert!(mgr.records().iter().all(|r| r.step % 3 == 0));
    }

    #[test]
    fn configure_applies_deck_values() {
        let mut mgr = InSituAnalysisManager::new();
        mgr.register(Box::new(Probe::new("p", 1, false)));
        let cfg = Config::parse("[p]\nevery = 5\n").unwrap();
        mgr.configure(&cfg).unwrap();
        drive(&mut mgr, 10);
        assert_eq!(mgr.records().len(), 2); // steps 5, 10
    }

    #[test]
    fn later_algorithms_see_earlier_catalog() {
        let mut mgr = InSituAnalysisManager::new();
        mgr.register(Box::new(Probe::new("halos", 1, true)));
        mgr.register(Box::new(Probe::new("dependent", 1, false)));
        mgr.execute_at(1, 1, 0.0, &[], 100.0, &dpp::Serial);
        // Downcast via records order: the dependent ran second and the
        // catalog context must have been present. We verify through a fresh
        // probe pair below instead of downcasting boxed traits.
        assert_eq!(mgr.records().len(), 2);
        assert_eq!(mgr.records()[0].algorithm, "halos");
        assert_eq!(mgr.records()[1].algorithm, "dependent");
    }

    /// Emits a fixed two-halo catalog, or records the container bytes of the
    /// catalog it was handed.
    struct CatalogProbe {
        emit: bool,
        saw: std::sync::Arc<Mutex<Vec<Option<Vec<u8>>>>>,
    }

    fn catalog_bytes(catalog: &HaloCatalog) -> Vec<u8> {
        let meta = crate::genio::SnapshotMeta {
            step: 0,
            redshift: 0.0,
            box_size: 100.0,
        };
        crate::write_container(&crate::write_level2_container(catalog, meta)).to_vec()
    }

    impl InSituAlgorithm for CatalogProbe {
        fn name(&self) -> &str {
            "catalog-probe"
        }

        fn set_parameters(&mut self, _config: &Config) -> Result<(), ConfigError> {
            Ok(())
        }

        fn should_execute(&self, _step: usize, _total: usize, _z: f64) -> bool {
            true
        }

        fn execute(&mut self, ctx: &AnalysisContext<'_>) -> Vec<Product> {
            if !self.emit {
                self.saw
                    .lock()
                    .unwrap()
                    .push(ctx.catalog.map(catalog_bytes));
                return Vec::new();
            }
            let halo = |tag0: u64| {
                let at = |i: u64| Particle::at_rest([i as f32, 2.0, 3.0], 1.5, tag0 + i);
                halo::Halo::from_particles((0..5).map(at).collect())
            };
            let mut catalog = HaloCatalog::new();
            catalog.halos = vec![halo(100 * ctx.step as u64), halo(7)];
            vec![Product::Halos {
                step: ctx.step,
                catalog,
            }]
        }
    }

    #[test]
    fn dependent_task_borrows_the_catalog_just_pushed() {
        let saw = std::sync::Arc::new(Mutex::new(Vec::new()));
        let probe = |emit| CatalogProbe {
            emit,
            saw: saw.clone(),
        };
        let mut mgr = InSituAnalysisManager::new();
        mgr.register(Box::new(probe(false)));
        mgr.register(Box::new(probe(true)));
        mgr.register(Box::new(probe(false)));
        drive(&mut mgr, 2);
        let emitted: Vec<Vec<u8>> = mgr
            .products()
            .iter()
            .map(|p| match p {
                Product::Halos { catalog, .. } => catalog_bytes(catalog),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(emitted.len(), 2);
        assert_ne!(emitted[0], emitted[1], "each step emits its own catalog");
        // Before the finder: nothing, not even the previous step's catalog.
        // After it: the bytes of the product pushed in this step.
        let want = vec![
            None,
            Some(emitted[0].clone()),
            None,
            Some(emitted[1].clone()),
        ];
        assert_eq!(*saw.lock().unwrap(), want);
    }

    #[test]
    fn take_products_drains() {
        let mut mgr = InSituAnalysisManager::new();
        mgr.register(Box::new(Probe::new("p", 1, false)));
        drive(&mut mgr, 3);
        let prods = mgr.take_products();
        assert_eq!(prods.len(), 3);
        assert!(mgr.products().is_empty());
    }

    #[test]
    fn product_metadata() {
        let p = Product::PowerSpectrum {
            step: 7,
            bins: vec![(0.1, 2.0), (0.2, 1.0)],
        };
        assert_eq!(p.name(), "power-spectrum");
        assert_eq!(p.step(), 7);
    }
}

//! An in-situ analysis is a function of the particle set, not of the machine
//! that runs it: a density frame and a power spectrum of a real 32³ state
//! come out bit for bit the same at 1, 2, 3 and 8 workers, under the static
//! scheduler, and — for the frame — from a shuffled particle array. So does
//! the stepper's own deposit, the gravity source. All of them deposit
//! through the exact fixed-point CIC sum, whose grid no summation order can
//! move; a deposit whose chunks follow the worker count fails the spectrum
//! and stepper halves, and one whose sum follows the particle order fails
//! the frame and stepper halves.

use cosmotools::{compute_power_spectrum, render_frame, render_projection, RenderParams};
use dpp::{Backend, Serial, StaticThreaded, Threaded};
use nbody::{cic_deposit_soa, Particle, ParticleSoA, SimConfig, Simulation};

/// A 32³ state four steps in: 32 768 particles, several deposit chunks on
/// every pool below.
fn state() -> (Vec<Particle>, f64) {
    let cfg = SimConfig {
        np: 32,
        ng: 32,
        nsteps: 4,
        seed: 36,
        ..SimConfig::default()
    };
    let box_size = cfg.cosmology.box_size;
    let mut sim = Simulation::new(&Serial, cfg);
    sim.run(&Serial);
    (sim.particles().to_vec(), box_size)
}

fn backends() -> Vec<(&'static str, Box<dyn Backend>)> {
    vec![
        ("threaded-1", Box::new(Threaded::new(1))),
        ("threaded-2", Box::new(Threaded::new(2))),
        ("threaded-3", Box::new(Threaded::new(3))),
        ("threaded-8", Box::new(Threaded::new(8))),
        ("static-3", Box::new(StaticThreaded::new(3))),
    ]
}

#[test]
fn frames_are_byte_identical_across_workers_and_orders() {
    let (particles, box_size) = state();
    let shuffled = conformance::inputs::shuffled(&particles, 36);
    let n = particles.len() as u64;
    for byte_budget in [0, n / 2 * cosmotools::PARTICLE_RENDER_BYTES] {
        let params = RenderParams {
            byte_budget,
            ..RenderParams::default()
        };
        let want = render_frame(&Serial, &particles, box_size, &params, 4);
        let (map, _) = render_projection(&Serial, &particles, box_size, &params);
        let want_map: Vec<u64> = map.iter().map(|v| v.to_bits()).collect();
        for (name, backend) in backends() {
            for (order, data) in [("stored", &particles), ("shuffled", &shuffled)] {
                let label = format!("{name}/{order}/budget={byte_budget}");
                let got = render_frame(backend.as_ref(), data, box_size, &params, 4);
                assert!(got == want, "{label}: the frame differs");
                let (map, _) = render_projection(backend.as_ref(), data, box_size, &params);
                let got_map: Vec<u64> = map.iter().map(|v| v.to_bits()).collect();
                assert!(got_map == want_map, "{label}: the projection differs");
            }
        }
    }
}

#[test]
fn power_spectrum_is_bit_identical_across_workers() {
    let (particles, box_size) = state();
    let bits = |backend: &dyn Backend| -> Vec<[u64; 3]> {
        compute_power_spectrum(backend, &particles, 32, box_size, 12)
            .iter()
            .map(|b| [b.k.to_bits(), b.power.to_bits(), b.modes])
            .collect()
    };
    let want = bits(&Serial);
    assert!(!want.is_empty());
    for (name, backend) in backends() {
        assert_eq!(bits(backend.as_ref()), want, "{name}: the bins differ");
    }
}

#[test]
fn stepper_deposit_is_bit_identical_across_workers_and_orders() {
    let (particles, box_size) = state();
    let shuffled = conformance::inputs::shuffled(&particles, 36);
    let cells = |backend: &dyn Backend, data: &[Particle]| -> Vec<u64> {
        let grid = cic_deposit_soa(backend, &ParticleSoA::from_aos(data), 32, box_size);
        grid.as_slice().iter().map(|v| v.to_bits()).collect()
    };
    let want = cells(&Serial, &particles);
    for (name, backend) in backends() {
        for (order, data) in [("stored", &particles), ("shuffled", &shuffled)] {
            let got = cells(backend.as_ref(), data);
            let differ = got.iter().zip(&want).filter(|(g, w)| g != w).count();
            assert_eq!(differ, 0, "{name}/{order}: cells of {} differ", want.len());
        }
    }
}

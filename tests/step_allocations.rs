//! The PM solve's allocation budget. A solve writes `δ` into the third of
//! the three half spectra it allocates, and each spectrum becomes its real
//! force grid in place; they are dropped after the gather, so the in-situ
//! hook that runs after the step can reuse the memory. What a solve may
//! allocate mesh-sized is those three spectra and the exact deposit's
//! integer grid per worker chunk: a solve that allocates `δ` on its own, or
//! a spectrum more, has lost that reuse.
//!
//! A counting global allocator over `std::alloc::System` records every
//! allocation of at least `ng³·8` bytes (one `f64` grid) made while it is
//! armed, on any thread: the pool's workers allocate on the caller's behalf.
//! This file holds one test, so nothing else allocates while it is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use dpp::Threaded;
use nbody::{Cosmology, SimConfig, Simulation};

/// Allocations of at least `THRESHOLD` bytes while `ARMED`.
struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
static LARGE: AtomicUsize = AtomicUsize::new(0);

impl Counting {
    fn note(size: usize) {
        if ARMED.load(Ordering::Relaxed) && size >= THRESHOLD.load(Ordering::Relaxed) {
            LARGE.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Mesh-sized allocations made by `f`.
fn large_allocations(threshold: usize, f: impl FnOnce()) -> usize {
    THRESHOLD.store(threshold, Ordering::Relaxed);
    LARGE.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    f();
    ARMED.store(false, Ordering::Relaxed);
    LARGE.load(Ordering::Relaxed)
}

#[test]
fn a_solve_allocates_three_spectra_and_no_delta() {
    let (ng, workers) = (32, 2);
    let cfg = SimConfig {
        cosmology: Cosmology {
            box_size: 64.0,
            ..Cosmology::default()
        },
        np: ng,
        ng,
        z_init: 30.0,
        z_final: 0.0,
        nsteps: 8,
        seed: 32,
    };
    let backend = Threaded::new(workers);
    let mut sim = Simulation::new(&backend, cfg);
    sim.step(&backend);
    sim.step(&backend);

    // A warmed step solves once (the opening kick's force is carried), one
    // that follows a discarded carry twice.
    let (grid, budget) = (ng * ng * ng * 8, 3 + workers);
    let one = large_allocations(grid, || sim.step(&backend));
    sim.particles_mut();
    let two = large_allocations(grid, || sim.step(&backend));
    assert!(
        one <= budget && two <= 2 * budget,
        "{ng}³ steps of one and two solves made {one} and {two} allocations of \
         at least one f64 grid; a solve may make {budget}"
    );
    assert_eq!(sim.step_index(), 4);
}

//! Proof that the MCMC hot path is allocation-free after warm-up: a
//! counting global allocator wraps the system allocator, and a warmed-up
//! `run_with_scratch` call must not change the allocation counter.
//!
//! This file holds exactly one test so no concurrent test can pollute the
//! global counter.

use bayesperf_inference::{Gaussian, McmcConfig, McmcSampler, McmcScratch, Target};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A factor-structured target (two coupled Gaussians) whose evaluation
/// allocates nothing — mirroring the slice sites the corrector builds.
struct Coupled;

impl Target for Coupled {
    fn dim(&self) -> usize {
        2
    }
    fn log_density(&self, x: &[f64]) -> f64 {
        Gaussian::new(2.0, 1.0).log_pdf(x[0]) + Gaussian::new(x[0], 0.25).log_pdf(x[1])
    }
    fn log_density_delta(&mut self, x: &mut [f64], i: usize, new: f64) -> f64 {
        let old = x[i];
        let before = self.log_density(x);
        x[i] = new;
        let after = self.log_density(x);
        x[i] = old;
        after - before
    }
}

#[test]
fn run_with_scratch_allocates_nothing_after_warmup() {
    let sampler = McmcSampler::new(McmcConfig::default());
    let mut scratch = McmcScratch::new();
    let mut rng = StdRng::seed_from_u64(99);

    // Warm-up: buffers grow to the target dimension.
    sampler.run_with_scratch(
        &mut Coupled,
        &[0.0, 0.0],
        &[1.0, 1.0],
        &mut rng,
        &mut scratch,
    );

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..5 {
        sampler.run_with_scratch(
            &mut Coupled,
            &[0.0, 0.0],
            &[1.0, 1.0],
            &mut rng,
            &mut scratch,
        );
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "warmed-up run_with_scratch must not allocate ({} allocations observed)",
        after - before
    );

    // Sanity: the runs still produce sensible moments.
    assert!((scratch.mean()[0] - 2.0).abs() < 0.5);
    assert!(scratch.var()[0] > 0.0);
    assert!(scratch.acceptance() > 0.05 && scratch.acceptance() < 0.95);
}

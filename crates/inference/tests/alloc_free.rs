//! Proof that a scratch sized by `AnalyticScratch::with_capacity` never
//! allocates: `begin`, `add_term`, `solve_mean`, `solve` and `irls` leave
//! the global allocation counter where it was, from the first solve on,
//! at a band within one register window and at one past the widest
//! (the corrector's allocation test starts counting after its first
//! chunk, so it cannot see a buffer that only the first solve grows).
//!
//! This file holds exactly one test so no concurrent test can pollute the
//! global counter.

use bayesperf_inference::{AnalyticScratch, Gaussian};
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

#[test]
fn a_presized_scratch_allocates_nothing_from_the_first_solve() {
    // A chunk-shaped component: 6 slices of 5 variables, slice-major, so
    // the random walk sits at bandwidth 5.
    let (n, slices) = (5usize, 6usize);
    let d = n * slices;
    let prior: Vec<Gaussian> = (0..d)
        .map(|i| Gaussian::new(0.1 * i as f64, 1.0 + 0.05 * i as f64))
        .collect();
    let locals: Vec<usize> = (0..d).collect();
    let coeffs: Vec<f64> = (0..n).map(|p| 1.0 + 0.25 * p as f64).collect();
    // Observations weighted at the current estimate, the walk, and one
    // slice-wide invariant per slice, over the first `slices_in` slices.
    let add_terms = |ws: &mut AnalyticScratch, slices_in: usize| {
        for t in 0..slices_in {
            let slice = &locals[t * n..(t + 1) * n];
            for (p, &i) in slice.iter().enumerate() {
                let x = ws.mean().get(i).copied().unwrap_or(0.0);
                ws.add_term(&[i], &[1.0], 0.5 * p as f64, 0.2 + 0.01 * x * x);
                if t > 0 {
                    ws.add_term(&[i - n, i], &[-1.0, 1.0], 0.0, 0.3);
                }
            }
            ws.add_term(slice, &coeffs, 2.0 * t as f64, 0.05);
        }
    };

    // A band past the widest register window (32 lanes): 3 slices of 40
    // variables at bandwidth 40, on a scratch presized for it.
    let (wide_n, wide_slices) = (40usize, 3usize);
    let wide_d = wide_n * wide_slices;
    let wide_prior: Vec<Gaussian> = (0..wide_d)
        .map(|i| Gaussian::new(0.05 * i as f64, 1.0 + 0.01 * i as f64))
        .collect();
    let wide_locals: Vec<usize> = (0..wide_d).collect();
    let wide_coeffs: Vec<f64> = (0..wide_n).map(|p| 1.0 - 0.02 * p as f64).collect();

    let mut ws = AnalyticScratch::with_capacity(d, n);
    let mut wide = AnalyticScratch::with_capacity(wide_d, wide_n);
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    ws.begin(&prior, n);
    add_terms(&mut ws, slices);
    assert!(ws.solve());
    ws.begin(&prior, n);
    add_terms(&mut ws, slices);
    assert!(ws.solve_mean());
    // A smaller system, then a narrower band.
    ws.begin(&prior[..2 * n], n);
    add_terms(&mut ws, 2);
    assert!(ws.solve());
    ws.begin(&prior, 0);
    for (i, g) in prior.iter().enumerate() {
        ws.add_term(&[i], &[1.0], g.mean + 1.0, 0.5);
    }
    assert!(ws.solve());
    assert!(ws.irls(&prior, n, prior.iter().map(|g| g.mean), |ws| {
        add_terms(ws, slices);
        true
    }));
    for mean_only in [false, true] {
        wide.begin(&wide_prior, wide_n);
        for (t, slice) in wide_locals.chunks(wide_n).enumerate() {
            for &i in slice {
                wide.add_term(&[i], &[1.0], 0.3 * t as f64, 0.4);
                if i >= wide_n {
                    wide.add_term(&[i - wide_n, i], &[-1.0, 1.0], 0.0, 0.3);
                }
            }
            wide.add_term(slice, &wide_coeffs, 1.0, 0.1);
        }
        assert!(if mean_only {
            wide.solve_mean()
        } else {
            wide.solve()
        });
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "a presized scratch must not allocate ({} allocations observed)",
        after - before
    );

    // Sanity: the last solve really produced marginals.
    assert_eq!(ws.var().len(), d);
    assert!(ws.var().iter().all(|&v| v.is_finite() && v > 0.0));
    assert!(ws.mean().iter().all(|m| m.is_finite()));
}

//! Proof that the steady-state corrector loop is allocation-free: after
//! the first chunk, pushing further chunks through the streaming API must
//! not change the global allocation counter — observation swap, prior
//! composition, the chunk solve, chain-prior capture and posterior reads
//! included — and neither must a ragged tail, solved on the same engine,
//! nor a full chunk after it.
//!
//! This file holds exactly one test so no concurrent test can pollute the
//! global counter.

use bayesperf_core::corrector::{Corrector, CorrectorConfig};
use bayesperf_events::{Arch, Catalog, Semantic};
use bayesperf_simcpu::{pack_round_robin, Pmu, PmuConfig, Sample};
use bayesperf_workloads::kmeans;
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
fn steady_state_corrector_loop_allocates_nothing() {
    let cat = Catalog::new(Arch::X86SkyLake);
    let mut truth = kmeans().instantiate(&cat, 0);
    let pmu = Pmu::new(&cat, PmuConfig::for_catalog(&cat));
    let events = vec![
        cat.require(Semantic::L1dMisses),
        cat.require(Semantic::LlcMisses),
    ];
    let schedule = pack_round_robin(&cat, &events).unwrap();
    let n_windows = 13;
    let run = pmu.run_multiplexed(&mut truth, &schedule, n_windows);

    let mut config = CorrectorConfig::for_run(&run);
    config.model.slices = 2;
    let mut corrector = Corrector::new(&cat, config);

    // Pre-build all chunk slices outside the measured region: six full
    // chunks and a 1-window tail.
    let windows: Vec<&[Sample]> = run.windows.iter().map(|w| w.samples.as_slice()).collect();
    let (full, tail) = windows.split_at(12);
    let chunks: Vec<&[&[Sample]]> = full.chunks(2).collect();
    let probe = cat.require(Semantic::LlcReferences);

    // Chunk 1 (cold): grows the engine caches, workspaces and history.
    corrector.push_chunk(chunks[0]);

    // Windows 2+ (every later chunk): the warm loop must be allocation-free,
    // including reading posteriors back out.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let mut checksum = 0.0f64;
    for chunk in &chunks[1..5] {
        let stats = corrector.push_chunk(chunk);
        assert!(stats.sweeps_run >= 1);
        for t in 0..2 {
            checksum += corrector.posterior(t, probe).mean;
        }
    }
    let (_, stats) = corrector.push_tail(tail).expect("a 1-window tail");
    assert_eq!(stats.sweeps_run, 1);
    checksum += corrector.posterior(0, probe).mean;
    corrector.push_chunk(chunks[5]);
    for t in 0..2 {
        checksum += corrector.posterior(t, probe).mean;
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state push_chunk and push_tail must not allocate ({} \
         allocations observed across {} chunks and a tail)",
        after - before,
        chunks.len() - 1
    );

    // Sanity: the loop really inferred something.
    assert!(checksum.is_finite() && checksum > 0.0);
}

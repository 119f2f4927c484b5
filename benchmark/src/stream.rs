//! `stream_kmeans`: the paper's online deployment. KMeans on x86 SkyLake,
//! measured through the §6.2 derived-event HPC set packed round-robin, is
//! pushed into one `Monitor` in an open loop — one window every 10 ms —
//! while the producer polls the snapshot stamp and times reads.

use crate::monitor::{self, Jobs, Pace, Program};
use crate::{Args, Outcome};
use bayesperf_events::{Arch, Catalog, EventId};
use bayesperf_simcpu::{pack_round_robin, Pmu, PmuConfig};
use std::collections::BTreeSet;
use std::time::Duration;

/// One window is due every `PERIOD`: about twice the warm per-window
/// inference time, so the service is roughly half busy and queueing shows
/// without the backlog growing.
const PERIOD: Duration = Duration::from_millis(10);
/// Monitor set-ups before and again after the pass; `setup_s` is their
/// median.
const SETUP_REPS: usize = 31;
/// Windows per KMeans job: the stream is a machine running one job after
/// another, each on its own input.
const WINDOWS_PER_JOB: usize = 125;

/// The programmable HPC events the catalog's derived events read (the
/// §6.2 measurement set).
pub fn derived_event_hpcs(catalog: &Catalog) -> Vec<EventId> {
    let set: BTreeSet<EventId> = catalog
        .derived_events()
        .iter()
        .flat_map(|d| d.events())
        .collect();
    set.into_iter()
        .filter(|&e| catalog.event(e).is_programmable())
        .collect()
}

/// The run's inputs: as many windows as `seconds` of 10 ms periods, plus
/// one if that would leave no ragged tail, over back-to-back KMeans jobs.
pub fn program(seed: u64, seconds: u64) -> Program {
    let catalog = Catalog::new(Arch::X86SkyLake);
    let events = derived_event_hpcs(&catalog);
    let schedule = pack_round_robin(&catalog, &events).expect("the derived-event set packs");
    let pmu_config = PmuConfig {
        seed,
        ..PmuConfig::for_catalog(&catalog)
    };
    let windows = (seconds * 1000 / PERIOD.as_millis() as u64) as usize;
    let generate = |n: usize| {
        let mut truth = Jobs::new(
            &bayesperf_workloads::kmeans(),
            &catalog,
            seed,
            n.div_ceil(WINDOWS_PER_JOB),
            WINDOWS_PER_JOB as u64 * pmu_config.quantum_ticks,
        );
        Pmu::new(&catalog, pmu_config).run_multiplexed(&mut truth, &schedule, n)
    };
    let mut prog = Program {
        name: "kmeans/x86".into(),
        run: generate(windows),
        catalog: catalog.clone(),
        events,
    };
    if windows.is_multiple_of(prog.chunk()) {
        prog.run = generate(windows + 1);
    }
    prog
}

pub fn run(args: &Args) -> Outcome {
    let programs = [program(args.seed, args.seconds)];
    monitor::run_workload(&programs, Pace::Open(PERIOD), SETUP_REPS, args)
}

//! `suite_batch`: a closed batch over the workload suite. TeraSort, ALS,
//! Scan and Join each run on the x86 SkyLake and ppc64 Power9 catalogs
//! with 16 programmable events; every program gets a fresh `Monitor`,
//! its samples are pushed as fast as the monitor takes them, and `flush`
//! corrects the ragged tail.

use crate::monitor::{self, Jobs, Pace, Program};
use crate::{Args, Outcome};
use bayesperf_events::{Arch, Catalog};
use bayesperf_simcpu::{pack_round_robin, Pmu, PmuConfig};

const PROGRAMS: [&str; 4] = ["TeraSort", "ALS", "Scan", "Join"];
/// Programmable events each program multiplexes.
const EVENTS: usize = 16;
/// Windows per program per second of `--seconds`: the 8 programs together
/// take about `--seconds` of inference.
const WINDOWS_PER_SECOND: u64 = 36;
/// Monitor set-ups per program before and again after its pass; each
/// program's median is summed.
const SETUP_REPS: usize = 9;
/// Windows per job: each program runs as back-to-back jobs on their own
/// inputs.
const WINDOWS_PER_JOB: usize = 60;

pub fn programs(seed: u64, seconds: u64) -> Vec<Program> {
    let windows = (seconds * WINDOWS_PER_SECOND) as usize;
    let mut out = Vec::new();
    for (a, arch) in Arch::all().into_iter().enumerate() {
        for (p, name) in PROGRAMS.into_iter().enumerate() {
            let catalog = Catalog::new(arch);
            let events: Vec<_> = catalog
                .programmable_events()
                .into_iter()
                .take(EVENTS)
                .collect();
            let schedule = pack_round_robin(&catalog, &events).expect("16 events pack");
            let program = bayesperf_workloads::by_name(name).expect("in the suite");
            let run_seed = seed
                .wrapping_mul(8)
                .wrapping_add((a * PROGRAMS.len() + p) as u64);
            let pmu_config = PmuConfig {
                seed: run_seed,
                ..PmuConfig::for_catalog(&catalog)
            };
            let generate = |n: usize| {
                let mut truth = Jobs::new(
                    &program,
                    &catalog,
                    run_seed,
                    n.div_ceil(WINDOWS_PER_JOB),
                    WINDOWS_PER_JOB as u64 * pmu_config.quantum_ticks,
                );
                Pmu::new(&catalog, pmu_config).run_multiplexed(&mut truth, &schedule, n)
            };
            let mut prog = Program {
                name: format!("{name}/{arch}"),
                run: generate(windows),
                catalog: catalog.clone(),
                events,
            };
            if windows.is_multiple_of(prog.chunk()) {
                prog.run = generate(windows + 1);
            }
            out.push(prog);
        }
    }
    out
}

pub fn run(args: &Args) -> Outcome {
    let programs = programs(args.seed, args.seconds);
    monitor::run_workload(&programs, Pace::Closed, SETUP_REPS, args)
}

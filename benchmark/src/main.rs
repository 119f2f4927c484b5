//! The BayesPerf benchmark: one command that runs a workload through the
//! public API, checks every answer, and prints its metrics as one JSON
//! line.
//!
//! ```text
//! bayesperf-benchmark --workload <stream_kmeans|suite_batch|fleet_scrape>
//!                     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output carries the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics
//! of a traced pass, which runs after an untraced pass of the same inputs
//! so the tracing overhead is their difference. Progress and context go
//! to standard error. A failed correctness check exits with status 1;
//! bad arguments with status 2. See `README.md` for every metric.

mod batch;
mod fleet;
mod measure;
mod monitor;
mod score;
mod stream;

use measure::{Metrics, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed: windows for the monitor
    /// workloads, rounds plus reads for `fleet_scrape`.
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// End-to-end metrics of the untraced pass.
    pub end_to_end: Metrics,
    /// Per-layer metrics of the traced pass (traced runs only).
    pub layers: Metrics,
}

impl Outcome {
    /// Records a failed check that fails `ops` operations.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.failures.push(why);
    }
}

const USAGE: &str =
    "usage: bayesperf-benchmark --workload <stream_kmeans|suite_batch|fleet_scrape> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Renders the result line. Metrics the table names but the run did not
/// set are 0 for per-layer tables (the workload does not reach that
/// layer) and a failure for the end-to-end table.
fn result_line(outcome: &mut Outcome, trace: bool) -> String {
    let (table, values) = if trace {
        (PER_LAYER, &outcome.layers)
    } else {
        (END_TO_END, &outcome.end_to_end)
    };
    let mut bad = Vec::new();
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match values.get(name) {
            Some(&v) if v.is_finite() => v,
            Some(_) => {
                bad.push(format!("metric {name} is not finite"));
                0.0
            }
            None if trace => 0.0,
            None => {
                bad.push(format!("metric {name} was not measured"));
                0.0
            }
        };
        fields.push(format!(
            r#""{name}": {{"value": {value:?}, "unit": "{unit}"}}"#
        ));
    }
    for why in bad {
        outcome.fail(0, why);
    }
    let correct = outcome.failures.is_empty();
    format!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "stream_kmeans" => stream::run(&args),
        "suite_batch" => batch::run(&args),
        "fleet_scrape" => fleet::run(&args),
        other => {
            eprintln!("error: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let line = result_line(&mut outcome, args.trace);
    for why in &outcome.failures {
        eprintln!("check failed: {why}");
    }
    println!("{line}");
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

//! `afs-e2e`: the full-stack benchmark of the Amoeba file service.
//!
//! ```text
//! afs-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! afs-e2e run --seed <n> [--seconds <s>]      # every workload, both modes
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; everything for humans goes to
//! standard error.  See `README.md` for the topology, the workloads and the
//! metric glossary.

mod hist;
mod rng;
mod run;
#[cfg(test)]
mod smoke;
mod topology;
mod trace;
mod workload;

use std::path::PathBuf;
use std::time::Duration;

use run::{Outcome, Plan};
use workload::Workload;

/// Where traces and the replay probe's scratch file go: the build directory,
/// which is inside the checkout and ignored by git.
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")))
}

fn json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// A run that outlives its plan by a minute is stuck: say so and leave.
/// Detached on purpose — it must fire even when every other thread hangs.
fn watchdog(what: &'static str, runs: u32, seconds: f64) {
    let limit = Duration::from_secs_f64(seconds * 2.0 + 60.0) * runs;
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("afs-e2e: {what}: watchdog expired after {limit:?}");
        std::process::exit(3);
    });
}

fn one(workload: Workload, seed: u64, seconds: f64, traced: bool) -> bool {
    let outcome = run::run(
        workload,
        seed,
        &Plan::for_seconds(seconds, traced),
        traced,
        &out_dir(),
    );
    println!("{}", json(&outcome));
    if let Some(error) = &outcome.first_error {
        eprintln!(
            "afs-e2e: {}: {} of {} failed, first: {error}",
            workload.name(),
            outcome.failed,
            outcome.attempted
        );
    }
    outcome.failed == 0
}

fn usage() -> ! {
    eprintln!(
        "usage: afs-e2e --workload <{}> --seed <u64> --seconds <s> --trace <0|1>\n       afs-e2e run --seed <u64> [--seconds <s>]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.first().is_some_and(|a| a == "run");
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (1u64, 15.0f64, false);
    let mut rest = args[usize::from(all)..].iter();
    while let Some(flag) = rest.next() {
        let Some(value) = rest.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).unwrap_or_else(|| usage())),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !(1.0..=600.0).contains(&seconds) {
        usage();
    }

    let ok = if all {
        watchdog("run", 2 * Workload::ALL.len() as u32, seconds);
        let mut ok = true;
        for workload in Workload::ALL {
            for traced in [false, true] {
                eprintln!("afs-e2e: {} --trace {}", workload.name(), u8::from(traced));
                ok &= one(workload, seed, seconds, traced);
            }
        }
        // This benchmark is the ruler, not a result.
        println!(r#"{{"seed": {seed}, "seconds": {seconds}, "correct": {ok}, "claim": null}}"#);
        ok
    } else {
        let Some(workload) = workload else { usage() };
        watchdog(workload.name(), 1, seconds);
        one(workload, seed, seconds, traced)
    };
    std::process::exit(i32::from(!ok));
}

//! The market benchmark: one command, three workloads against the real
//! stack, every end-to-end metric by name and unit, correctness checked.
//!
//! ```text
//! cargo run --release --manifest-path marketbench/Cargo.toml -- \
//!     --workload dec_market --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 1` runs the same workload with tracing on and prints the
//! per-layer metrics instead. A run shorter than a canonical one is a
//! smoke run and files its results under `out/smoke/`. The last line
//! of standard output is the JSON verdict; the exit code is 0 only for
//! a run whose every operation and check succeeded.

mod closed;
mod common;
mod dec;
mod door;
mod layers;
mod pbs;
mod report;
mod stats;
mod trace;

use report::{Cfg, Outcome};

const USAGE: &str = "usage: marketbench --workload <dec_market|door_mix|pbs_market> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<Cfg, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(2.0..=120.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside [2, 120]"));
    }
    Ok(Cfg {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() {
    let cfg = match parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let ticks = common::cpu_ticks();
    let result = match cfg.workload.as_str() {
        "dec_market" => dec::run(&cfg),
        "door_mix" => door::run(&cfg),
        "pbs_market" => pbs::run(&cfg),
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut out = result.unwrap_or_else(|e| {
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        out.fail(e);
        out
    });
    if let (Some((t0, s0)), Some((t1, s1))) = (ticks, common::cpu_ticks()) {
        out.notes.push(format!(
            "cpu steal during the run: {:.1}% of this machine's CPU time",
            100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
        ));
    }
    std::process::exit(report::finish(&cfg, &out));
}

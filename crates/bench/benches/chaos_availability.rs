//! Chaos availability: runs the full service market under increasing
//! frame-drop rates (plus mild duplication) with the retrying clients,
//! and reports availability (fraction of runs that converge to the
//! fault-free ledger) and the latency the retry layer adds. Emits
//! `BENCH_chaos.json` at the repo root on a full run (EXPERIMENTS.md A9).
//!
//! ```text
//! cargo bench -p ppms-bench --bench chaos_availability
//! ```

use ppms_core::sim::{run_service_market, run_service_market_chaos, TransportKind};
use ppms_core::{FaultPlan, SimNetConfig};
use std::time::Instant;

const SEED: u64 = 0xE0;
const SHARDS: usize = 2;
const N_SPS: usize = 3;
const W: u64 = 3;
const RUNS_PER_RATE: u64 = 3;
const DROP_RATES: [f64; 5] = [0.0, 0.05, 0.10, 0.20, 0.30];

struct Row {
    drop_rate: f64,
    availability: f64,
    mean_ms: f64,
    added_ms: f64,
    retries: u64,
    dedup_replays: u64,
}

fn main() {
    // Ground truth: the fault-free in-process ledger.
    let expected =
        run_service_market(SEED, 1, N_SPS, W, TransportKind::InProc).expect("baseline market");

    let mut rows: Vec<Row> = Vec::new();
    println!("chaos availability: {RUNS_PER_RATE} seeded runs per drop rate");
    println!(
        "{:>6} {:>6} {:>9} {:>9} {:>8} {:>8}",
        "drop", "avail", "mean-ms", "added-ms", "retries", "replays"
    );
    for &drop_rate in &DROP_RATES {
        let mut ok = 0u64;
        let mut total_ms = 0.0;
        let mut retries = 0u64;
        let mut replays = 0u64;
        for run in 0..RUNS_PER_RATE {
            let plan = FaultPlan {
                net: SimNetConfig {
                    latency_micros: 0,
                    jitter_micros: 0,
                    drop_rate,
                    seed: 0xC4A0 + run,
                },
                duplicate_rate: drop_rate / 2.0,
                reorder_rate: 0.0,
                corrupt_rate: 0.0,
            };
            let t0 = Instant::now();
            let result = run_service_market_chaos(SEED, SHARDS, N_SPS, W, plan, None);
            total_ms += t0.elapsed().as_secs_f64() * 1e3;
            if let Ok((outcome, faults)) = result {
                if outcome == expected {
                    ok += 1;
                }
                retries += faults.retries;
                replays += faults.dedup_replays;
            }
        }
        let mean_ms = total_ms / RUNS_PER_RATE as f64;
        let added_ms = rows
            .first()
            .map(|base: &Row| mean_ms - base.mean_ms)
            .unwrap_or(0.0);
        let availability = ok as f64 / RUNS_PER_RATE as f64;
        println!(
            "{drop_rate:>6.2} {availability:>6.2} {mean_ms:>9.2} {added_ms:>9.2} {retries:>8} {replays:>8}"
        );
        rows.push(Row {
            drop_rate,
            availability,
            mean_ms,
            added_ms,
            retries,
            dedup_replays: replays,
        });
    }

    // Hand-rolled JSON (the workspace's serde_json is a build stub).
    let cells: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"drop_rate\": {:.2}, \"availability\": {:.3}, \"mean_ms\": {:.3}, \
                 \"added_ms\": {:.3}, \"retries\": {}, \"dedup_replays\": {}}}",
                r.drop_rate, r.availability, r.mean_ms, r.added_ms, r.retries, r.dedup_replays
            )
        })
        .collect();
    let json = format!("[\n{}\n]\n", cells.join(",\n"));
    ppms_bench::write_bench_artifact("BENCH_chaos.json", &json);

    assert!(
        rows.iter().all(|r| r.availability == 1.0),
        "every seeded run must converge"
    );
}

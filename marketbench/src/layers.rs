//! The per-layer metrics of a traced run. Every traced run prints the
//! same list; a layer a workload does not reach reads 0. Two sources:
//! the benchmark's own spans and request latencies, and the delta of
//! the program's registry over the traced window. The registry's
//! process-global part (`ring.*`, `rsa.*`, `zkp.*`, `ecash.*`) counts
//! the client's and the MA's crypto together: both run in this process.

use crate::common::REQUEST_LABELS;
use crate::report::Metric;
use crate::stats::{hist_count_busy_ms, percentile};
use ppms_obs::Snapshot;
use std::collections::BTreeMap;

/// Inputs a workload hands over for its per-layer report.
#[derive(Default)]
pub struct LayerInputs {
    /// Registry delta over the traced window (service + global).
    pub delta: Snapshot,
    /// Request latencies by request label, µs, over the window.
    pub calls_us: BTreeMap<&'static str, Vec<f64>>,
    /// Benchmark-measured values by metric name (client crypto per
    /// round, PBS step times, set-up keygen, budget, overhead, …).
    pub extra: BTreeMap<&'static str, f64>,
}

/// Benchmark-measured per-layer names (reported from `extra`, 0 when
/// a workload does not measure them), with units.
pub const EXTRA: [(&str, &str); 19] = [
    ("client.mint_ms", "ms"),
    ("client.cl_sign_ms", "ms"),
    ("client.build_payment_ms", "ms"),
    ("client.receive_payment_ms", "ms"),
    ("pbs.register_job_ms", "ms"),
    ("pbs.labor_registration_ms", "ms"),
    ("pbs.pay_and_deposit_ms", "ms"),
    ("setup.keygen_ms", "ms"),
    ("mem.run_peak_mb", "MiB"),
    ("recovery.ms", "ms"),
    ("budget.round_ms", "ms"),
    ("budget.accounted_ms", "ms"),
    ("budget.unaccounted_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("door.light_lateness_us", "us"),
    ("door.heavy_lateness_us", "us"),
    ("door.ladder_lateness_us", "us"),
    ("door.knee_rps", "1/s"),
    ("rounds.traced", "count"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, in a fixed order.
pub fn metrics(inp: &LayerInputs) -> Vec<Metric> {
    let d = &inp.delta;
    let c = |name: &str| d.counter(name) as f64;
    let mut out = Vec::new();

    // tcp / frame / wire
    let (requests, request_busy_ms) = hist_count_busy_ms(d, "tcp.request_ns");
    out.push(Metric::new("tcp.requests", requests, "count"));
    out.push(Metric::new("tcp.request_busy_ms", request_busy_ms, "ms"));
    out.push(Metric::new("tcp.shed", c("tcp.shed"), "count"));
    out.push(Metric::new("tcp.refused", c("tcp.refused"), "count"));
    let frames_per_tick = d.histogram("tcp.frames_per_tick").map_or(0.0, |h| h.mean());
    out.push(Metric::new("tcp.frames_per_tick", frames_per_tick, "count"));
    let (mut client_us, mut handle_us, mut n_calls) = (0.0, 0.0, 0.0);
    for label in REQUEST_LABELS {
        let mut lat = inp.calls_us.get(label).cloned().unwrap_or_default();
        lat.sort_by(f64::total_cmp);
        let n = lat.len();
        let p50 = percentile(&lat, 0.5).map_or(0.0, |p| p.value);
        let p99 = percentile(&lat, 0.99).map_or(0.0, |p| p.value);
        let (h_n, h_ms) = hist_count_busy_ms(d, &format!("ma.op.{label}_ns"));
        let mean = if n > 0 {
            lat.iter().sum::<f64>() / n as f64
        } else {
            0.0
        };
        let handle_mean_us = ratio(h_ms * 1e3, h_n);
        let outside = if n > 0 && h_n > 0.0 {
            client_us += mean * n as f64;
            handle_us += handle_mean_us * n as f64;
            n_calls += n as f64;
            mean - handle_mean_us
        } else {
            0.0
        };
        out.push(Metric::over(format!("call.{label}.p50_us"), p50, "us", n));
        out.push(Metric::over(format!("call.{label}.p99_us"), p99, "us", n));
        out.push(Metric::over(
            format!("call.{label}.outside_us"),
            outside,
            "us",
            n,
        ));
    }
    out.push(Metric::over(
        "door.outside_us",
        ratio(client_us - handle_us, n_calls),
        "us",
        n_calls as usize,
    ));

    // gate
    for g in ["gate.admitted", "gate.challenges", "gate.denied"] {
        out.push(Metric::new(g, c(g), "count"));
    }

    // service batching
    let drains = c("batch.drains");
    out.push(Metric::new(
        "service.mean_batch",
        ratio(c("batch.items"), drains),
        "count",
    ));
    out.push(Metric::new(
        "service.deadline_flush_share",
        ratio(c("batch.flush_deadline"), drains),
        "ratio",
    ));
    out.push(Metric::new(
        "service.direct_routed_share",
        ratio(
            c("ma.direct_routed"),
            c("ma.dedup.hits") + c("ma.dedup.misses"),
        ),
        "ratio",
    ));
    out.push(Metric::new(
        "service.dedup_hits",
        c("ma.dedup.hits"),
        "count",
    ));

    // wal / storage
    let (appends, append_ms) = hist_count_busy_ms(d, "wal.append_ns");
    let (_, fsync_ms) = hist_count_busy_ms(d, "wal.fsync_ns");
    let (_, replay_ms) = hist_count_busy_ms(d, "wal.replay_ns");
    out.push(Metric::new("wal.records", appends, "count"));
    out.push(Metric::new("wal.fsyncs", c("wal.fsyncs"), "count"));
    out.push(Metric::new(
        "wal.fsyncs_per_write",
        ratio(c("wal.fsyncs"), appends),
        "ratio",
    ));
    out.push(Metric::new("wal.fsync_busy_ms", fsync_ms, "ms"));
    out.push(Metric::new("wal.append_busy_ms", append_ms, "ms"));
    out.push(Metric::new("wal.snapshots", c("wal.snapshots"), "count"));
    out.push(Metric::new("wal.replay_ms", replay_ms, "ms"));

    // ecash
    let (verifies, verify_ms) = hist_count_busy_ms(d, "ecash.spend_verify_ns");
    let (batch_verifies, batch_verify_ms) = hist_count_busy_ms(d, "ecash.batch_verify_ns");
    let (_, deposit_ms) = hist_count_busy_ms(d, "ecash.deposit_ns");
    out.push(Metric::new("ecash.spend_verifies", verifies, "count"));
    out.push(Metric::new("ecash.spend_verify_busy_ms", verify_ms, "ms"));
    out.push(Metric::new("ecash.batch_verifies", batch_verifies, "count"));
    out.push(Metric::new(
        "ecash.batch_verify_busy_ms",
        batch_verify_ms,
        "ms",
    ));
    out.push(Metric::new("ecash.deposit_busy_ms", deposit_ms, "ms"));
    let mean_batch = d.histogram("deposit.batch_size").map_or(0.0, |h| h.mean());
    out.push(Metric::new("deposit.mean_batch", mean_batch, "count"));

    // crypto
    for (metric, hist) in [
        ("zkp.verify_busy_ms", "zkp.verify_ns"),
        ("zkp.batch_verify_busy_ms", "zkp.batch_verify_ns"),
        ("rsa.blind_sign_busy_ms", "rsa.blind_sign_ns"),
        ("rsa.pbs_sign_busy_ms", "rsa.pbs_sign_ns"),
        ("rsa.pbs_verify_busy_ms", "rsa.pbs_verify_ns"),
    ] {
        out.push(Metric::new(metric, hist_count_busy_ms(d, hist).1, "ms"));
    }

    // bigint
    for op in ["pow", "pow_fixed", "multi_pow_n", "pow_crt"] {
        let (n, ms) = hist_count_busy_ms(d, &format!("ring.{op}_ns"));
        out.push(Metric::new(format!("ring.{op}.count"), n, "count"));
        out.push(Metric::new(format!("ring.{op}.busy_ms"), ms, "ms"));
    }

    // benchmark-measured: client crypto, PBS steps, primes, budget
    for (name, unit) in EXTRA {
        out.push(Metric::new(
            name,
            inp.extra.get(name).copied().unwrap_or(0.0),
            unit,
        ));
    }
    out
}

//! The benchmark's statistics: percentiles that refuse to extrapolate,
//! the open-loop knee rule, and deltas of the program's metrics
//! registry over a measured window.

use ppms_obs::{HistSnapshot, Snapshot};
use std::time::Instant;

/// Samples a reported percentile must have *beyond* it. A p99 over
/// 500 samples rests on five values and is noise; such a percentile is
/// refused rather than printed.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile's value (same unit as the samples).
    pub value: f64,
    /// How many samples it was taken over.
    pub samples: usize,
    /// How many samples lie strictly beyond its rank.
    pub beyond: usize,
}

/// Nearest-rank quantile `q ∈ [0, 1]` of an ascending slice, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond the chosen rank
/// (the median of an empty slice is `None` too).
pub fn percentile(sorted: &[f64], q: f64) -> Option<Pct> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if q > 0.5 && beyond < MIN_BEYOND {
        return None;
    }
    Some(Pct {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// A tail percentile that one burst cannot carry: the samples, in the
/// order they were taken, are cut into consecutive blocks just large
/// enough that each block's `q`-percentile has [`MIN_BEYOND`] samples
/// beyond it, and the median of the blocks' percentiles is reported.
/// A few slow seconds on a shared machine move one block, not the
/// result. `None` when the samples do not fill one block.
pub fn block_percentile(in_order: &[f64], q: f64) -> Option<Pct> {
    let per_block = block_values(in_order, q)?;
    let size = in_order.len() / per_block.len();
    Some(Pct {
        value: median(&per_block),
        samples: in_order.len(),
        beyond: size - (q * size as f64).ceil() as usize,
    })
}

/// The per-block `q`-percentiles behind [`block_percentile`], in order.
pub fn block_values(in_order: &[f64], q: f64) -> Option<Vec<f64>> {
    let block = ((MIN_BEYOND as f64 / (1.0 - q)).ceil() as usize).max(1);
    let blocks = in_order.len() / block;
    (0..blocks)
        .map(|b| {
            let (lo, hi) = (
                b * in_order.len() / blocks,
                (b + 1) * in_order.len() / blocks,
            );
            let mut v = in_order[lo..hi].to_vec();
            v.sort_by(f64::total_cmp);
            percentile(&v, q).map(|p| p.value)
        })
        .collect::<Option<Vec<f64>>>()
        .filter(|v| !v.is_empty())
}

/// How the benchmark reports a percentile of samples taken in order:
/// the median over all of them, a tail percentile per
/// [`block_percentile`]. Errs, naming `what`, when the samples cannot
/// support it.
pub fn robust(in_order: &[f64], q: f64, what: &str) -> Result<Pct, String> {
    let p = if q > 0.5 {
        block_percentile(in_order, q)
    } else {
        let mut v = in_order.to_vec();
        v.sort_by(f64::total_cmp);
        percentile(&v, q)
    };
    p.ok_or_else(|| format!("{what}: too few samples ({})", in_order.len()))
}

/// Median of unsorted values (the lower middle for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    v[(v.len() - 1) / 2]
}

/// One repeat of one offered rate in the open-loop ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct RepeatOutcome {
    /// The offered rate, requests per second.
    pub rate: f64,
    /// Requests that failed (refused, `Busy`, timed out, wrong answer).
    pub failed: usize,
    /// p99 latency from the scheduled slot, µs, if supported.
    pub p99_us: Option<f64>,
    /// Median generator lateness (send time − slot) over the first
    /// and the last fifth of the window, µs.
    pub lateness_head_us: f64,
    /// See `lateness_head_us`.
    pub lateness_tail_us: f64,
}

/// Latency limit of the knee rule.
pub const SLO_P99_US: f64 = 5_000.0;

/// Lateness the generator may show at the end of a window before the
/// backlog counts as growing, µs: a queue that is not draining makes
/// every later slot later still, so the tail of the window is late by
/// much more than its head.
pub const BACKLOG_SLACK_US: f64 = 1_000.0;

/// Whether one repeat meets the knee rule: no failures, a supported
/// p99 within [`SLO_P99_US`], and a backlog that does not grow.
pub fn repeat_passes(r: &RepeatOutcome) -> bool {
    let slo = matches!(r.p99_us, Some(p) if p <= SLO_P99_US);
    let steady = r.lateness_tail_us <= r.lateness_head_us + BACKLOG_SLACK_US;
    r.failed == 0 && slo && steady
}

/// The knee: the highest ladder rate whose every repeat passes, with
/// every lower rate passing too (a rate above a failing one does not
/// count — the ladder is climbed, not sampled). `None` if the lowest
/// rung already fails.
pub fn knee(outcomes: &[RepeatOutcome]) -> Option<f64> {
    let mut rates: Vec<f64> = outcomes.iter().map(|r| r.rate).collect();
    rates.sort_by(f64::total_cmp);
    rates.dedup();
    let mut best = None;
    for rate in rates {
        let all_pass = outcomes
            .iter()
            .filter(|r| r.rate == rate)
            .all(repeat_passes);
        if !all_pass {
            break;
        }
        best = Some(rate);
    }
    best
}

/// Host CPU steal over a measured window, as the intervals between
/// consecutive samples of the machine's (total, stolen) CPU ticks. On
/// a shared host, time another tenant took from this machine's CPUs
/// stalls whatever was running; samples taken in such intervals
/// measure the neighbours. An interval counts as clean when its steal
/// share is at most [`STEAL_LIMIT`], or at most the median interval's
/// share when steal never lets up, so that the quieter half is kept.
#[derive(Debug, Clone, Default)]
pub struct StealWindows {
    windows: Vec<(Instant, Instant, f64)>,
    limit: f64,
}

/// Steal share an interval may show and still count as clean.
pub const STEAL_LIMIT: f64 = 0.02;

impl StealWindows {
    /// Intervals between consecutive `(when, total_ticks, steal_ticks)`
    /// samples.
    pub fn new(samples: &[(Instant, u64, u64)]) -> StealWindows {
        let windows: Vec<(Instant, Instant, f64)> = samples
            .windows(2)
            .map(|w| {
                let total = w[1].1.saturating_sub(w[0].1);
                let steal = w[1].2.saturating_sub(w[0].2);
                (w[0].0, w[1].0, steal as f64 / total.max(1) as f64)
            })
            .collect();
        let shares: Vec<f64> = windows.iter().map(|w| w.2).collect();
        StealWindows {
            limit: STEAL_LIMIT.max(median(&shares)),
            windows,
        }
    }

    /// Whether `t` falls in a clean interval. Without samples every
    /// instant is clean.
    pub fn is_clean(&self, t: Instant) -> bool {
        match self.windows.iter().find(|w| w.0 <= t && t < w.1) {
            Some(w) => w.2 <= self.limit,
            None => self.windows.is_empty(),
        }
    }

    /// Seconds of clean intervals between `from` and `to`.
    pub fn clean_seconds(&self, from: Instant, to: Instant) -> f64 {
        if self.windows.is_empty() {
            return to.saturating_duration_since(from).as_secs_f64();
        }
        self.windows
            .iter()
            .filter(|w| w.2 <= self.limit)
            .map(|w| {
                let (a, b) = (w.0.max(from), w.1.min(to));
                b.saturating_duration_since(a).as_secs_f64()
            })
            .sum()
    }

    /// Share of intervals that are clean, and the host's overall steal
    /// share over all of them.
    pub fn summary(&self) -> (f64, f64) {
        let n = self.windows.len().max(1) as f64;
        let clean = self.windows.iter().filter(|w| w.2 <= self.limit).count() as f64;
        let steal = self.windows.iter().map(|w| w.2).sum::<f64>() / n;
        (clean / n, steal)
    }
}

/// `after − before` for every counter and histogram. Counters that
/// did not exist before start from zero; gauges keep their `after`
/// value (they are levels, not totals). Histogram buckets subtract
/// bucket-wise, so quantiles of the delta describe the window alone.
pub fn registry_delta(before: &Snapshot, after: &Snapshot) -> Snapshot {
    let mut out = Snapshot {
        gauges: after.gauges.clone(),
        ..Snapshot::default()
    };
    for (name, v) in &after.counters {
        out.counters
            .insert(name.clone(), v.saturating_sub(before.counter(name)));
    }
    for (name, h) in &after.histograms {
        let delta = match before.histogram(name) {
            Some(b) => hist_delta(b, h),
            None => h.clone(),
        };
        out.histograms.insert(name.clone(), delta);
    }
    out
}

fn hist_delta(before: &HistSnapshot, after: &HistSnapshot) -> HistSnapshot {
    let mut d = after.clone();
    d.count = after.count.saturating_sub(before.count);
    d.sum = after.sum.saturating_sub(before.sum);
    for (b, a) in d.buckets.iter_mut().zip(before.buckets.iter()) {
        *b = b.saturating_sub(*a);
    }
    // `max` is not subtractable; keep the window's bound only when the
    // window recorded anything.
    if d.count == 0 {
        d.max = 0;
    }
    d
}

/// Count and busy milliseconds of a histogram in a delta (0 if absent).
pub fn hist_count_busy_ms(delta: &Snapshot, name: &str) -> (f64, f64) {
    delta
        .histogram(name)
        .map(|h| (h.count as f64, h.sum as f64 / 1e6))
        .unwrap_or((0.0, 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppms_obs::Registry;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, ten beyond it.
        let p = percentile(&ascending(1000), 0.99).expect("supported");
        assert_eq!((p.value, p.samples, p.beyond), (990.0, 1000, 10));
        // 999 samples leave only nine beyond rank 990.
        assert!(percentile(&ascending(999), 0.99).is_none());
        // The median never needs a tail.
        let m = percentile(&ascending(3), 0.5).expect("median");
        assert_eq!(m.value, 2.0);
        assert!(percentile(&[], 0.5).is_none());
        // p95 over 200 samples: rank 190, ten beyond.
        assert_eq!(
            percentile(&ascending(200), 0.95).map(|p| p.value),
            Some(190.0)
        );
        assert!(percentile(&ascending(199), 0.95).is_none());
    }

    #[test]
    fn block_percentile_is_the_median_of_block_percentiles() {
        // 3000 samples, p99 blocks of 1000: a burst of huge values in
        // the first block moves only that block's p99.
        let mut v: Vec<f64> = (0..3000).map(|i| (i % 1000) as f64).collect();
        for x in v.iter_mut().take(50) {
            *x = 1e9;
        }
        let p = block_percentile(&v, 0.99).expect("three blocks");
        assert_eq!((p.value, p.samples, p.beyond), (989.0, 3000, 10));
        // A plain p99 over the same samples is carried by the burst.
        let mut sorted = v.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(percentile(&sorted, 0.99).map(|p| p.value), Some(1e9));
        // Fewer samples than one block: refused.
        assert!(block_percentile(&v[..999], 0.99).is_none());
        // p95 blocks hold 200 samples.
        assert!(block_percentile(&v[..200], 0.95).is_some());
    }

    #[test]
    fn steal_windows_keep_the_quiet_intervals() {
        use std::time::Duration;
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Four 250 ms intervals of 50 ticks: 0, 10, 0 and 1 stolen.
        let samples = [
            (at(0), 0, 0),
            (at(250), 50, 0),
            (at(500), 100, 10),
            (at(750), 150, 10),
            (at(1000), 200, 11),
        ];
        let w = StealWindows::new(&samples);
        assert!(w.is_clean(at(100)));
        assert!(!w.is_clean(at(300)), "20% steal is not clean");
        assert!(w.is_clean(at(900)), "2% steal is within the limit");
        assert!(!w.is_clean(at(1500)), "outside the sampled window");
        assert!((w.clean_seconds(at(0), at(1000)) - 0.75).abs() < 1e-9);
        assert!((w.clean_seconds(at(100), at(600)) - 0.25).abs() < 1e-9);
        assert_eq!(w.summary().0, 0.75);
        // Steal that never lets up: the quieter half stays clean.
        let busy = [
            (at(0), 0, 0),
            (at(250), 50, 10),
            (at(500), 100, 15),
            (at(750), 150, 30),
        ];
        let w = StealWindows::new(&busy);
        assert!(w.is_clean(at(100)) && w.is_clean(at(300)) && !w.is_clean(at(600)));
        // No samples: everything is clean.
        let none = StealWindows::new(&[]);
        assert!(none.is_clean(at(5)));
        assert!((none.clean_seconds(at(0), at(500)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    fn outcome(rate: f64, p99: Option<f64>, head: f64, tail: f64, failed: usize) -> RepeatOutcome {
        RepeatOutcome {
            rate,
            failed,
            p99_us: p99,
            lateness_head_us: head,
            lateness_tail_us: tail,
        }
    }

    #[test]
    fn knee_rule_applies_to_every_repeat() {
        let ok = |rate| outcome(rate, Some(900.0), 50.0, 60.0, 0);
        // 3000 passes twice; 4000 passes once and misses the SLO once.
        let runs = vec![
            ok(2000.0),
            ok(2000.0),
            ok(3000.0),
            ok(3000.0),
            ok(4000.0),
            outcome(4000.0, Some(6_000.0), 50.0, 60.0, 0),
        ];
        assert_eq!(knee(&runs), Some(3000.0));
    }

    #[test]
    fn knee_rule_rejects_growing_backlog_failures_and_thin_tails() {
        let ok = |rate| outcome(rate, Some(900.0), 50.0, 60.0, 0);
        // Latency within the SLO but the generator falls ever further
        // behind: the backlog grows.
        assert!(!repeat_passes(&outcome(1.0, Some(900.0), 50.0, 4_000.0, 0)));
        // One failed request misses the SLO by definition.
        assert!(!repeat_passes(&outcome(1.0, Some(900.0), 50.0, 60.0, 1)));
        // An unsupported p99 cannot pass.
        assert!(!repeat_passes(&outcome(1.0, None, 50.0, 60.0, 0)));
        // A pass above a failing rung does not extend the knee.
        let runs = vec![
            ok(1000.0),
            outcome(2000.0, Some(9_000.0), 50.0, 60.0, 0),
            ok(3000.0),
        ];
        assert_eq!(knee(&runs), Some(1000.0));
        assert_eq!(knee(&[outcome(1000.0, None, 0.0, 0.0, 0)]), None);
    }

    #[test]
    fn registry_delta_covers_only_the_window() {
        let reg = Registry::new();
        reg.counter("c").add(5);
        reg.gauge("g").set(7);
        let h = reg.histogram("h");
        for v in [1_000, 2_000, 4_000] {
            h.record(v);
        }
        let before = reg.snapshot();
        reg.counter("c").add(3);
        reg.counter("fresh").add(2);
        reg.gauge("g").set(9);
        for _ in 0..10 {
            h.record(1 << 20);
        }
        let d = registry_delta(&before, &reg.snapshot());
        assert_eq!(d.counter("c"), 3);
        assert_eq!(d.counter("fresh"), 2);
        assert_eq!(d.gauge("g"), 9, "gauges are levels, not deltas");
        let dh = d.histogram("h").expect("histogram delta");
        assert_eq!(dh.count, 10);
        assert_eq!(dh.sum, 10 << 20);
        // Every pre-window sample is gone: the median is the window's.
        assert!(dh.p50() >= 1 << 20);
        let (n, busy_ms) = hist_count_busy_ms(&d, "h");
        assert_eq!(n, 10.0);
        assert!((busy_ms - (10u64 << 20) as f64 / 1e6).abs() < 1e-9);
        assert_eq!(hist_count_busy_ms(&d, "absent"), (0.0, 0.0));
    }
}

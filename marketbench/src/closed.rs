//! The closed loop `dec_market` and `pbs_market` share: every client
//! thread runs rounds back to back for a fixed time; rounds that start
//! inside the measured window count.

use crate::common::{Recorder, StealSampler};
use crate::report::{Outcome, Samples};
use crate::stats::StealWindows;
use crate::trace::{self, SpanRec};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What one client thread measured, in the order it measured it.
#[derive(Default)]
struct Seg {
    rounds: Vec<(Instant, f64)>,
    calls: Vec<(&'static str, f64, Instant)>,
    attempted: u64,
    errors: Vec<String>,
    spans: Vec<SpanRec>,
}

/// All clients' rounds, timed calls and spans of one drive (each
/// client's samples in the order taken, one client after the other).
pub struct Merged {
    /// `(end, ms)` of every measured round.
    pub rounds: Vec<(Instant, f64)>,
    /// `(name, µs, end)` of every timed call inside measured rounds.
    pub calls: Vec<(&'static str, f64, Instant)>,
    /// Benchmark-side spans (traced drives only).
    pub spans: Vec<SpanRec>,
    /// Host CPU steal over the measured window.
    pub steal: StealWindows,
    /// The measured window.
    pub window: (Instant, Instant),
}

impl Merged {
    /// Every measured round's duration, ms.
    pub fn round_ms(&self) -> Vec<f64> {
        self.rounds.iter().map(|&(_, ms)| ms).collect()
    }

    /// The end-to-end samples: the rounds, light and heavy calls that
    /// ended in clean intervals (see [`StealWindows`]), and rounds per
    /// clean second.
    pub fn samples(&self, light: &[&str], heavy: &[&str]) -> Samples {
        let clean = |t: &Instant| self.steal.is_clean(*t);
        let calls = |names: &[&str]| -> Vec<f64> {
            self.calls
                .iter()
                .filter(|(n, _, t)| names.contains(n) && clean(t))
                .map(|&(_, us, _)| us)
                .collect()
        };
        let round_ms: Vec<f64> = self
            .rounds
            .iter()
            .filter(|(t, _)| clean(t))
            .map(|&(_, ms)| ms)
            .collect();
        let (from, to) = self.window;
        Samples {
            rounds_per_s: round_ms.len() as f64 / self.steal.clean_seconds(from, to).max(1e-9),
            round_ms,
            light_us: calls(light),
            heavy_us: calls(heavy),
            steal: self.steal.summary(),
        }
    }

    /// Latencies by call name.
    pub fn calls_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for &(n, us, _) in &self.calls {
            by.entry(n).or_default().push(us);
        }
        by
    }
}

/// Runs `step` on every client, each on its own thread, for
/// `warmup + window`. `step` returns the round's duration (ms) and the
/// operations it attempted; its first error stops that client and
/// counts as a failed operation. Spans are recorded inside the window
/// when `trace_on`.
pub fn drive<C, F>(
    clients: &mut [C],
    step: &F,
    trace_on: bool,
    warmup: Duration,
    window: Duration,
    out: &mut Outcome,
) -> Merged
where
    C: Send,
    F: Fn(&mut C, &mut Recorder) -> Result<(f64, u64), String> + Sync,
{
    let epoch = Instant::now();
    let measure_from = epoch + warmup;
    let end = measure_from + window;
    let sampler = StealSampler::start();
    let segs: Vec<Seg> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(idx, c)| {
                s.spawn(move || {
                    let mut rec = Recorder::new(false, epoch, idx);
                    let mut seg = Seg::default();
                    loop {
                        let now = Instant::now();
                        if now >= end {
                            break;
                        }
                        let measured = now >= measure_from;
                        rec.tracer.set_on(trace_on && measured);
                        match step(c, &mut rec) {
                            Ok((ms, ops)) => {
                                seg.attempted += ops;
                                if measured {
                                    seg.rounds.push((Instant::now(), ms));
                                    seg.calls.append(&mut rec.calls);
                                }
                            }
                            Err(e) => {
                                seg.attempted += 1;
                                seg.errors.push(format!("client {idx}: {e}"));
                                break;
                            }
                        }
                        rec.calls.clear();
                    }
                    seg.spans = rec.tracer.into_spans();
                    seg
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut m = Merged {
        rounds: Vec::new(),
        calls: Vec::new(),
        spans: Vec::new(),
        steal: sampler.stop(),
        window: (measure_from, end),
    };
    let mut spans = Vec::new();
    for s in segs {
        out.attempted += s.attempted;
        for e in s.errors {
            out.fail(e);
        }
        m.rounds.extend(s.rounds);
        m.calls.extend(s.calls);
        spans.push(s.spans);
    }
    m.spans = trace::merge(spans);
    m
}

/// Splits a run of `seconds` into warm-up and measured window.
pub fn windows(seconds: f64) -> (Duration, Duration) {
    let total = Duration::from_secs_f64(seconds);
    let warmup = Duration::from_secs(1).min(total / 4);
    (warmup, total - warmup)
}

//! Benchmark-side spans: one record around each public call the
//! benchmark makes, kept in memory per client thread and written out
//! when the run ends. With tracing off nothing is recorded.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// What was called (`withdrawal-request`, `client.mint`, `round`, …).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index (in the same thread's list, plus one) of the span that
    /// caused this one; 0 for a root.
    pub parent: usize,
    /// The round or request this span belongs to.
    pub id: u64,
    /// Client thread that recorded it.
    pub thread: usize,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: usize,
    spans: Vec<SpanRec>,
}

impl Tracer {
    /// A recorder for client thread `thread`; records only when `on`.
    pub fn new(on: bool, epoch: Instant, thread: usize) -> Tracer {
        Tracer {
            on,
            epoch,
            thread,
            spans: Vec::new(),
        }
    }

    /// Starts or stops recording.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its handle (0 when tracing is off).
    pub fn open(&mut self, name: &'static str, parent: usize, id: u64) -> usize {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
            thread: self.thread,
        });
        self.spans.len()
    }

    /// Closes the span `handle` returned by [`Tracer::open`].
    pub fn close(&mut self, handle: usize) {
        if handle == 0 {
            return;
        }
        let end = self.now_ns();
        self.spans[handle - 1].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let h = self.open(name, parent, id);
        let out = f();
        self.close(h);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<SpanRec> {
        self.spans
    }
}

/// Concatenates per-thread span lists into one, re-basing each
/// thread's parent links onto the combined indices.
pub fn merge(threads: Vec<Vec<SpanRec>>) -> Vec<SpanRec> {
    let mut out: Vec<SpanRec> = Vec::new();
    for spans in threads {
        let base = out.len();
        out.extend(spans.into_iter().map(|mut s| {
            if s.parent > 0 {
                s.parent += base;
            }
            s
        }));
    }
    out
}

/// The layer budget of the rounds nearest the median round: the mean
/// per-round time of each child span name, over the rounds whose
/// duration lies between the 40th and 60th percentile, plus those
/// rounds' mean duration. The per-name times add up to the accounted
/// part of a typical round.
pub fn median_round_budget(
    spans: &[SpanRec],
    round_name: &str,
) -> (BTreeMap<&'static str, f64>, f64) {
    let mut rounds: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == round_name)
        .collect();
    rounds.sort_by_key(|&i| spans[i].dur_ns());
    if rounds.is_empty() {
        return (BTreeMap::new(), 0.0);
    }
    let lo = rounds.len() * 2 / 5;
    let hi = (rounds.len() * 3 / 5).max(lo + 1);
    let band = &rounds[lo..hi];
    let mut in_band = vec![false; spans.len()];
    for &i in band {
        in_band[i] = true;
    }
    let mut per_name: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        if s.parent > 0 && in_band[s.parent - 1] {
            *per_name.entry(s.name).or_default() += s.dur_ns() as f64 / 1e6;
        }
    }
    let n = band.len() as f64;
    for v in per_name.values_mut() {
        *v /= n;
    }
    let mean_ms = band
        .iter()
        .map(|&i| spans[i].dur_ns() as f64 / 1e6)
        .sum::<f64>()
        / n;
    (per_name, mean_ms)
}

/// Chrome `trace_event` JSON lines, one complete event per span.
pub fn to_jsonl(spans: &[SpanRec]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
             \"args\":{{\"span\":{},\"parent\":{},\"id\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.thread,
            i + 1,
            s.parent,
            s.id
        );
    }
    out
}

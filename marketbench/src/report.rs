//! Run configuration, the result every workload returns, provenance,
//! and the output: human-readable lines, a results record under
//! `out/`, and the one-line JSON verdict the benchmark ends with.

use crate::common::out_dir;
use crate::stats;
use crate::trace::SpanRec;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Shortest run whose results count as canonical; anything shorter is
/// a smoke run and is filed under `out/smoke/`.
pub const CANONICAL_SECONDS: f64 = 30.0;

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

impl Cfg {
    /// Whether this run's results are canonical.
    pub fn canonical(&self) -> bool {
        self.seconds >= CANONICAL_SECONDS
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind it (percentiles and means), if any.
    pub samples: Option<usize>,
}

impl Metric {
    /// A metric without a sample count.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        }
    }

    /// A metric taken over `n` samples.
    pub fn over(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            samples: Some(n),
            ..Metric::new(name, value, unit)
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (refused, busy, timed out, wrong result).
    pub failed: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (lateness per rate, budgets, …).
    pub notes: Vec<String>,
    /// Benchmark-side spans (traced run only).
    pub spans: Vec<SpanRec>,
}

impl Outcome {
    /// Records a failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 16 {
            self.errors.push(what.into());
        }
    }

    /// Whether every operation and every check succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }
}

/// Provenance of a result: which code, which machine, which inputs.
fn provenance(cfg: &Cfg, runs_so_far: usize) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    format!(
        "{{\"commit\":\"{}\",\"source_fnv64\":\"{:016x}\",\"features\":\"default\",\
         \"nproc\":{nproc},\"seed\":{},\"seconds\":{},\"trace\":{},\"canonical\":{},\
         \"run\":{}}}",
        git_head(&root).unwrap_or_else(|| "none".into()),
        source_digest(&root),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        cfg.canonical(),
        runs_so_far + 1
    )
}

/// The checked-out commit, read from `.git` without running git
/// (absent in an exported tree).
fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(r) => {
            if let Ok(id) = std::fs::read_to_string(git.join(r)) {
                return Some(id.trim().to_string());
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        }
    }
}

/// FNV-1a over the program's sources (every file under `crates/`,
/// `vendor/` and the benchmark's `src/`, plus the manifests), so a
/// result names the code it measured even where no `.git` exists.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            if name == "target" || name == "out" {
                continue;
            }
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in ["crates", "vendor", "marketbench/src"] {
        walk(&root.join(d), &mut files);
    }
    for f in ["Cargo.toml", "Cargo.lock", "marketbench/Cargo.toml"] {
        files.push(root.join(f));
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(&f).unwrap_or_default();
        for b in rel.bytes().chain(body) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let cells: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", cells.join(", "))
}

/// Prints the outcome, files it under `out/`, and returns the process
/// exit code (0 only for a correct run).
pub fn finish(cfg: &Cfg, out: &Outcome) -> i32 {
    let correct = out.correct();
    let kind = if cfg.trace { "per-layer" } else { "end-to-end" };
    println!(
        "{} seed {} ({} s{}): {} operations attempted, {} failed",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        if cfg.trace { ", traced" } else { "" },
        out.attempted,
        out.failed
    );
    for e in &out.errors {
        println!("  FAILED: {e}");
    }
    for n in &out.notes {
        println!("  {n}");
    }
    if correct {
        println!("  {kind} metrics:");
        for m in &out.metrics {
            let samples = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            println!("    {:<34} {:>14.4} {}{samples}", m.name, m.value, m.unit);
        }
    }

    let metrics = if correct {
        metrics_json(&out.metrics)
    } else {
        "{}".into()
    };
    if let Err(e) = file_results(cfg, out, &metrics, correct) {
        eprintln!("results not filed: {e}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted,
        out.failed.max(u64::from(!correct))
    );
    if correct {
        0
    } else {
        1
    }
}

/// Appends this run's record (provenance + metrics) to
/// `out/<workload>.jsonl`, or to `out/smoke/…` for a smoke run, and
/// writes a traced run's spans next to it.
fn file_results(cfg: &Cfg, out: &Outcome, metrics: &str, correct: bool) -> Result<(), String> {
    let dir = if cfg.canonical() {
        out_dir()
    } else {
        out_dir().join("smoke")
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let suffix = if cfg.trace { "-trace" } else { "" };
    let path = dir.join(format!("{}{suffix}.jsonl", cfg.workload));
    let runs_so_far = std::fs::read_to_string(&path)
        .map(|s| s.lines().count())
        .unwrap_or(0);
    let prov = provenance(cfg, runs_so_far);
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"provenance\": {prov}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \
         \"metrics\": {metrics}}}",
        out.attempted, out.failed
    );
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(f, "{line}").map_err(|e| format!("write {}: {e}", path.display()))?;
    if !out.spans.is_empty() {
        let spans = dir.join(format!("{}-seed{}.spans.jsonl", cfg.workload, cfg.seed));
        std::fs::write(&spans, crate::trace::to_jsonl(&out.spans))
            .map_err(|e| format!("write {}: {e}", spans.display()))?;
    }
    println!("  provenance: {}", prov.replace('"', ""));
    Ok(())
}

/// What every workload measures end to end: its rounds (a market round,
/// or for `door_mix` one request) and its light and heavy operations,
/// each in the order taken.
pub struct Samples {
    /// Round durations, ms.
    pub round_ms: Vec<f64>,
    /// Completed rounds per second of the window.
    pub rounds_per_s: f64,
    /// Latencies of the light operations, µs.
    pub light_us: Vec<f64>,
    /// Latencies of the heavy operations, µs.
    pub heavy_us: Vec<f64>,
    /// Share of the window's intervals kept as clean, and the host's
    /// mean steal share over the window.
    pub steal: (f64, f64),
}

impl Samples {
    /// The gated end-to-end metrics: medians, throughput, set-up time
    /// and the process's high-water RSS once set up (the run itself
    /// grows the ledger, so a later high-water mark would grow with
    /// throughput).
    pub fn end_to_end(&self, setup_s: f64, setup_rss_mb: f64) -> Result<Vec<Metric>, String> {
        let r50 = stats::robust(&self.round_ms, 0.5, "round p50")?;
        let l50 = stats::robust(&self.light_us, 0.5, "light p50")?;
        let h50 = stats::robust(&self.heavy_us, 0.5, "heavy p50")?;
        Ok(vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("peak_rss_mb", setup_rss_mb, "MiB"),
            Metric::over("round_p50_ms", r50.value, "ms", r50.samples),
            Metric::over(
                "rounds_per_s",
                self.rounds_per_s,
                "1/s",
                self.round_ms.len(),
            ),
            Metric::over("light_p50_us", l50.value, "us", l50.samples),
            Metric::over("heavy_p50_us", h50.value, "us", h50.samples),
        ])
    }

    /// The tails: round p95, light and heavy p99, each the median of
    /// per-block percentiles with ten samples beyond each block's rank
    /// (0 where the samples do not fill a block). Printed, and
    /// reported per layer, but not gated: on a shared host they move
    /// with other tenants' load far more than with this program.
    pub fn tails(&self) -> Vec<Metric> {
        let tail = |name: &str, v: &[f64], q: f64, unit: &'static str| {
            let p = stats::robust(v, q, name).ok();
            Metric::over(name, p.map_or(0.0, |p| p.value), unit, v.len())
        };
        vec![
            tail("tail.round_p95_ms", &self.round_ms, 0.95, "ms"),
            tail("tail.light_p99_us", &self.light_us, 0.99, "us"),
            tail("tail.heavy_p99_us", &self.heavy_us, 0.99, "us"),
        ]
    }

    /// One line describing the tails, for the run's notes.
    pub fn tail_note(&self) -> String {
        let cells: Vec<String> = self
            .tails()
            .iter()
            .map(|m| {
                format!(
                    "{} {:.1} {} (n={})",
                    m.name,
                    m.value,
                    m.unit,
                    m.samples.unwrap_or(0)
                )
            })
            .collect();
        format!(
            "tails (block medians, not gated): {}; samples from the {:.0}% of intervals \
             with little CPU steal (host steal {:.1}% over the window)",
            cells.join(", "),
            100.0 * self.steal.0,
            100.0 * self.steal.1
        )
    }
}

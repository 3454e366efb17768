//! What every workload shares: the market under test (sharded MA with
//! a write-ahead log behind the paid TCP door), key pools, process
//! memory, and request plumbing that turns every non-answer into a
//! counted failure.

use crate::stats::StealWindows;
use crate::trace::Tracer;
use ppms_core::bank::BankSnapshot;
use ppms_core::service::{MaClient, MaRequest, MaResponse, MaService, ServiceConfig};
use ppms_core::transport::request_label;
use ppms_core::{
    DurabilityConfig, SimStorage, TcpClientConfig, TcpConfig, TcpFrontDoor, TcpTransport,
};
use ppms_crypto::rsa::{self, RsaPrivateKey};
use ppms_ecash::{DecParams, Spend};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bank/one-time RSA modulus size used across the repository.
pub const RSA_BITS: usize = 512;
/// Type-A pairing size (CL withdrawal authentication).
pub const PAIRING_BITS: usize = 40;
/// Coin depth L: face value 2^L = 4096.
pub const LEVELS: usize = 12;
/// Stadler cut-and-choose rounds of the root proof.
pub const ZKP_ROUNDS: usize = 8;
/// MA shard workers.
pub const SHARDS: usize = 2;
/// Client threads, each with one connection.
pub const CLIENTS: usize = 2;
/// How often set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Where results and traces go: the benchmark's own (git-ignored)
/// `out/` directory.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The DEC parameters every DEC workload runs at.
pub fn dec_params() -> DecParams {
    DecParams::fixture(LEVELS, ZKP_ROUNDS)
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        shards: SHARDS,
        ..ServiceConfig::default()
    }
}

/// The default durable tier (fsync per append, manual checkpoints)
/// over simulated storage: the log and recovery run, only the device
/// is memory, because on a shared virtual disk fsync latency follows
/// the other tenants' I/O. Automatic checkpoints stay off: under door
/// traffic a checkpoint can cover a request whose `Begin` precedes its
/// cut and whose `Commit` follows it (the reactor routes into shard
/// queues while the checkpoint barriers the shards one by one), and
/// recovery then refuses the log with "commit without begin".
fn durability(storage: Arc<SimStorage>) -> DurabilityConfig {
    DurabilityConfig::new(storage)
}

/// The system under test: a durable MA behind the paid door.
pub struct Market {
    /// The MA service (taken by [`Market::crash_and_recover`]).
    pub svc: Option<MaService>,
    /// The front door (dropped before the service).
    pub door: Option<TcpFrontDoor>,
    storage: Arc<SimStorage>,
    svc_seed: u64,
}

impl Market {
    /// Spawns the MA over fresh storage plus the default door (paid
    /// admission on).
    pub fn spawn(seed: u64) -> Result<Market, String> {
        let storage = Arc::new(SimStorage::new());
        let svc_seed = seed ^ 0x5EC0_4D5A;
        let mut rng = StdRng::seed_from_u64(svc_seed);
        let svc = MaService::spawn_durable(
            &mut rng,
            dec_params(),
            RSA_BITS,
            PAIRING_BITS,
            service_config(),
            durability(storage.clone()),
        )
        .map_err(|e| format!("spawn_durable: {e}"))?;
        let door = TcpFrontDoor::spawn(&svc, "127.0.0.1:0", TcpConfig::default())
            .map_err(|e| format!("front door: {e}"))?;
        Ok(Market {
            svc: Some(svc),
            door: Some(door),
            storage,
            svc_seed,
        })
    }

    /// The running service.
    pub fn svc(&self) -> &MaService {
        self.svc.as_ref().expect("service is running")
    }

    /// A fresh client connection carrying `wallet` for admission fees.
    pub fn connect(&self, wallet: Vec<Spend>) -> Arc<TcpTransport> {
        let door = self.door.as_ref().expect("door is running");
        let t = TcpTransport::new(TcpClientConfig {
            reply_timeout: Duration::from_secs(10),
            ..TcpClientConfig::new(door.addr())
        });
        t.load_wallet(wallet);
        Arc::new(t)
    }

    /// Crashes the MA: stops the door, takes the storage's crash image
    /// (what survives a power cut: synced bytes plus a torn tail) and
    /// recovers a new service from it. Returns the recovery time and
    /// the recovered ledger.
    pub fn crash_and_recover(&mut self) -> Result<(Duration, BankSnapshot), String> {
        drop(self.door.take());
        let image = Arc::new(self.storage.crash_image(self.svc_seed));
        drop(self.svc.take());
        let mut rng = StdRng::seed_from_u64(self.svc_seed);
        let t = Instant::now();
        let (svc, _report) = MaService::recover(
            &mut rng,
            dec_params(),
            RSA_BITS,
            PAIRING_BITS,
            service_config(),
            durability(image),
        )
        .map_err(|e| format!("recover: {e}"))?;
        let took = t.elapsed();
        let ledger = svc.bank.snapshot();
        svc.shutdown();
        Ok((took, ledger))
    }
}

impl Drop for Market {
    fn drop(&mut self) {
        // The door routes into the service: stop it first.
        drop(self.door.take());
        drop(self.svc.take());
    }
}

/// Generates `n` RSA keys on two threads (set-up work; keygen is the
/// `primes` layer). Deterministic in `seed`.
pub fn keygen_pool(seed: u64, n: usize) -> Vec<RsaPrivateKey> {
    let half = n.div_ceil(2);
    let mut out = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let hs: Vec<_> = (0..2u64)
            .map(|k| {
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (0x6B65_7973 + k));
                    (0..half)
                        .map(|_| rsa::keygen(&mut rng, RSA_BITS))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in hs {
            out.extend(h.join().expect("keygen thread panicked"));
        }
    });
    out.truncate(n);
    out
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read process status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in process status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unparsable VmHWM")?;
    Ok(kb / 1024.0)
}

/// Total and stolen CPU time of the machine so far, in clock ticks
/// (the `cpu` line of `/proc/stat`): on a shared host, steal is time
/// this machine's CPUs wanted but another tenant got.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// Samples [`cpu_ticks`] every 250 ms on a thread of its own until
/// [`StealSampler::stop`], which joins it.
pub struct StealSampler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<Vec<(Instant, u64, u64)>>>,
}

impl StealSampler {
    /// Starts sampling now.
    pub fn start() -> StealSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            loop {
                if let Some((total, steal)) = cpu_ticks() {
                    samples.push((Instant::now(), total, steal));
                }
                if flag.load(Ordering::SeqCst) {
                    return samples;
                }
                std::thread::sleep(Duration::from_millis(250));
            }
        });
        StealSampler {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops sampling (after one last sample) and returns the windows.
    pub fn stop(mut self) -> StealWindows {
        StealWindows::new(&self.join())
    }

    fn join(&mut self) -> Vec<(Instant, u64, u64)> {
        self.stop.store(true, Ordering::SeqCst);
        match self.handle.take() {
            Some(h) => h.join().expect("steal sampler panicked"),
            None => Vec::new(),
        }
    }
}

impl Drop for StealSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Every request type the door carries, by the service's own label
/// (`ppms_core::transport::request_label`): the name of its spans and
/// `call.<label>.*` metrics, and of its `ma.op.<label>_ns` histogram.
pub const REQUEST_LABELS: [&str; 12] = [
    "register-jo",
    "register-sp",
    "job-registration",
    "withdrawal-request",
    "labor-registration",
    "labor-fetch",
    "payment-submission",
    "data-report",
    "payment-fetch",
    "data-fetch",
    "deposit",
    "balance",
];

/// A client thread's instruments: its span recorder plus the latency
/// of every request it made, by request label.
pub struct Recorder {
    /// Benchmark-side spans.
    pub tracer: Tracer,
    /// `(call name, µs)` per request, in order.
    pub calls: Vec<(&'static str, f64, Instant)>,
}

impl Recorder {
    /// Runs `f` inside a `name` span and records its latency.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let h = self.tracer.open(name, parent, id);
        let t = Instant::now();
        let out = f();
        self.calls
            .push((name, t.elapsed().as_secs_f64() * 1e6, Instant::now()));
        self.tracer.close(h);
        out
    }

    /// A recorder for client thread `thread`.
    pub fn new(trace: bool, epoch: Instant, thread: usize) -> Recorder {
        Recorder {
            tracer: Tracer::new(trace, epoch, thread),
            calls: Vec::new(),
        }
    }

    /// Sends one request through the door inside a span named by its
    /// request label
    /// and records its latency. Transport errors, `Busy` and
    /// `MaResponse::Err` all come back as `Err` — a failed operation.
    pub fn call(
        &mut self,
        client: &MaClient,
        parent: usize,
        id: u64,
        request: MaRequest,
    ) -> Result<MaResponse, String> {
        self.call_as(request_label(&request), client, parent, id, request)
    }

    /// [`Recorder::call`] under an explicit span/latency name.
    pub fn call_as(
        &mut self,
        name: &'static str,
        client: &MaClient,
        parent: usize,
        id: u64,
        request: MaRequest,
    ) -> Result<MaResponse, String> {
        let answer = self.time(name, parent, id, || client.try_call(request));
        match answer {
            Ok(MaResponse::Err(e)) => Err(format!("{name}: refused: {e:?}")),
            Ok(MaResponse::Busy) => Err(format!("{name}: busy")),
            Ok(resp) => Ok(resp),
            Err(e) => Err(format!("{name}: {e}")),
        }
    }
}

//! `door_mix`: an open loop at fixed absolute offered rates through
//! the paid TCP door, over the same durable sharded MA as
//! `dec_market`. Two client connections each follow their own fixed
//! schedule of slots; a request is timed from its slot, so a stall
//! charges every request queued behind it. The mix is about 70% reads
//! (`Balance`, `FetchLabor`, `FetchPayment`, `FetchData`), 28% cheap
//! writes (`RegisterSpAccount`, `LaborRegister`, `SubmitData` with
//! 256 B of data) and 2% one-leaf deposits.

use crate::common::{self, Market, Recorder, StealSampler, CLIENTS, SETUP_REPEATS};
use crate::layers::{self, LayerInputs};
use crate::report::{Cfg, Outcome, Samples};
use crate::stats::{self, RepeatOutcome, StealWindows};
use crate::trace;
use ppms_core::service::{MaClient, MaRequest, MaResponse};
use ppms_core::{AccountId, Party};
use ppms_ecash::Spend;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Offered rate where the door idles between requests, req/s.
pub const LIGHT_RPS: f64 = 250.0;
/// Offered rate near half the knee, req/s.
pub const HEAVY_RPS: f64 = 600.0;
/// The knee ladder of the traced run, req/s, climbed
/// [`LADDER_REPEATS`] times.
pub const LADDER_RPS: [f64; 4] = [700.0, 900.0, 1100.0, 1300.0];
/// Climbs of the ladder; the knee rule must hold on every one.
pub const LADDER_REPEATS: usize = 2;

/// Shares of an end-to-end run: warm-up, light, heavy.
const E2E_SHARES: [f64; 3] = [0.05, 0.55, 0.4];
/// Shares of a traced run: warm-up, untraced reference light and
/// heavy, traced light and heavy, and the ladder (all rungs, all
/// climbs).
const TRACE_SHARES: [f64; 6] = [0.05, 0.1, 0.1, 0.175, 0.175, 0.4];

/// Pre-published jobs and pre-opened accounts per connection.
const JOBS: usize = 32;
const ACCOUNTS: usize = 16;
/// Payments held for delivery per connection (each `FetchPayment`
/// target is delivered once, then reads `None`).
const HELD: usize = 32;
/// Bytes of sensing data per `SubmitData`.
const DATA_BYTES: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Balance,
    FetchLabor,
    FetchPayment,
    FetchData,
    RegisterSp,
    LaborRegister,
    SubmitData,
    Deposit,
}

/// Draws the next request kind: 70% reads, 28% writes, 2% deposits.
fn draw(rng: &mut StdRng) -> Op {
    match rng.random_range(0..1000u32) {
        0..175 => Op::Balance,
        175..350 => Op::FetchLabor,
        350..525 => Op::FetchPayment,
        525..700 => Op::FetchData,
        700..793 => Op::RegisterSp,
        793..887 => Op::LaborRegister,
        887..980 => Op::SubmitData,
        _ => Op::Deposit,
    }
}

struct Job {
    id: u64,
    labor: Vec<Vec<u8>>,
    data: Vec<Vec<u8>>,
}

/// One connection's client and everything it expects the MA to hold.
struct Conn {
    idx: usize,
    client: MaClient,
    rng: StdRng,
    accounts: Vec<(AccountId, u64)>,
    jobs: Vec<Job>,
    held: Vec<(Vec<u8>, Option<Vec<u8>>)>,
    deposits: Vec<Spend>,
    cursor: u64,
    deposited: u64,
}

/// One phase of the schedule.
#[derive(Debug, Clone, Copy)]
struct Phase {
    label: &'static str,
    rate: f64,
    seconds: f64,
    traced: bool,
}

fn plan(seconds: f64, trace: bool) -> Vec<Phase> {
    let p = |label, rate, share: f64, traced| Phase {
        label,
        rate,
        seconds: seconds * share,
        traced,
    };
    if !trace {
        let [warm, light, heavy] = E2E_SHARES;
        return vec![
            p("warm", LIGHT_RPS, warm, false),
            p("light", LIGHT_RPS, light, false),
            p("heavy", HEAVY_RPS, heavy, false),
        ];
    }
    let [warm, ref_light, ref_heavy, light, heavy, ladder] = TRACE_SHARES;
    let mut phases = vec![
        p("warm", LIGHT_RPS, warm, false),
        p("light", LIGHT_RPS, ref_light, false),
        p("heavy", HEAVY_RPS, ref_heavy, false),
        p("light", LIGHT_RPS, light, true),
        p("heavy", HEAVY_RPS, heavy, true),
    ];
    let rung = ladder / (LADDER_RPS.len() * LADDER_REPEATS) as f64;
    for _ in 0..LADDER_REPEATS {
        for r in LADDER_RPS {
            phases.push(p("ladder", r, rung, true));
        }
    }
    phases
}

/// Slots one connection owns in a phase.
fn slots(phase: &Phase) -> usize {
    (phase.rate / CLIENTS as f64 * phase.seconds).round() as usize
}

fn setup(cfg: &Cfg) -> Result<(Market, Vec<Conn>), String> {
    let market = Market::spawn(cfg.seed)?;
    let svc = market.svc();
    let phases = plan(cfg.seconds, cfg.trace);
    let per_conn: usize = phases.iter().map(slots).sum();
    // One admission fee per 32 requests (default price 1, 32 requests
    // per token); the schedule's deposits are about 2% of the slots.
    let fees = per_conn / 32 + 16;
    let deposits = per_conn / 40 + 16;
    let mut pool =
        ppms_core::sim::mint_admission_spends(svc, cfg.seed ^ 0xD00E, CLIENTS * (fees + deposits))
            .map_err(|e| format!("mint spends: {e}"))?;
    let inproc = svc.client();
    let mut conns = Vec::with_capacity(CLIENTS);
    for idx in 0..CLIENTS {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0xD0_0400 + idx as u64));
        let setup_call = |req: MaRequest| match inproc.try_call(req) {
            Ok(MaResponse::Err(e)) => Err(format!("set-up refused: {e:?}")),
            Ok(r) => Ok(r),
            Err(e) => Err(format!("set-up: {e}")),
        };
        let mut accounts = Vec::with_capacity(ACCOUNTS);
        for _ in 0..ACCOUNTS {
            match setup_call(MaRequest::RegisterSpAccount)? {
                MaResponse::Account(a) => accounts.push((a, 0)),
                other => return Err(format!("set-up account: {other:?}")),
            }
        }
        let mut jobs = Vec::with_capacity(JOBS);
        for j in 0..JOBS {
            match setup_call(MaRequest::PublishJob {
                description: format!("noise survey {idx}/{j}"),
                payment: 1,
                pseudonym: random_bytes(&mut rng, 64),
            })? {
                MaResponse::JobId(id) => jobs.push(Job {
                    id,
                    labor: Vec::new(),
                    data: Vec::new(),
                }),
                other => return Err(format!("set-up job: {other:?}")),
            }
        }
        let mut held = Vec::with_capacity(HELD);
        for h in 0..HELD {
            let key = random_bytes(&mut rng, 64);
            let ct = random_bytes(&mut rng, 512);
            setup_call(MaRequest::SubmitPayment {
                sp_pubkey: key.clone(),
                ciphertext: ct.clone(),
            })?;
            setup_call(MaRequest::SubmitData {
                job_id: jobs[h % JOBS].id,
                sp_pubkey: key.clone(),
                data: Vec::new(),
            })?;
            held.push((key, Some(ct)));
        }
        // Drain the set-up data reports so reads start from a known state.
        for job in &jobs {
            setup_call(MaRequest::FetchData { job_id: job.id })?;
        }
        let wallet = pool.split_off(pool.len() - fees);
        let deposits = pool.split_off(pool.len() - deposits);
        let transport = market.connect(wallet);
        conns.push(Conn {
            idx,
            client: MaClient::new(transport, Party::Sp),
            rng,
            accounts,
            jobs,
            held,
            deposits,
            cursor: 0,
            deposited: 0,
        });
    }
    Ok((market, conns))
}

fn random_bytes(rng: &mut StdRng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.random::<u8>()).collect()
}

/// Issues the connection's next request and checks the answer against
/// what the generator tracked.
fn exec(c: &mut Conn, rec: &mut Recorder) -> Result<(), String> {
    c.cursor += 1;
    let id = ((c.idx as u64) << 40) | c.cursor;
    let op = draw(&mut c.rng);
    let pick = |rng: &mut StdRng, n: usize| rng.random_range(0..n);
    match op {
        Op::Balance => {
            let i = pick(&mut c.rng, c.accounts.len());
            let (account, expect) = c.accounts[i];
            match rec.call(&c.client, 0, id, MaRequest::Balance { account })? {
                MaResponse::Balance(b) if b == expect => Ok(()),
                other => Err(format!(
                    "balance of {account:?}: {other:?}, expected {expect}"
                )),
            }
        }
        Op::FetchLabor => {
            let j = pick(&mut c.rng, c.jobs.len());
            let job = &c.jobs[j];
            match rec.call(&c.client, 0, id, MaRequest::FetchLabor { job_id: job.id })? {
                MaResponse::Labor(keys) if keys == job.labor => Ok(()),
                other => Err(format!("labor of job {}: {other:?}", job.id)),
            }
        }
        Op::FetchPayment => {
            let h = pick(&mut c.rng, c.held.len());
            let sp_pubkey = c.held[h].0.clone();
            let expect = c.held[h].1.take();
            match rec.call(&c.client, 0, id, MaRequest::FetchPayment { sp_pubkey })? {
                MaResponse::Payment(p) if p == expect => Ok(()),
                other => Err(format!("payment fetch: {other:?}")),
            }
        }
        Op::FetchData => {
            let j = pick(&mut c.rng, c.jobs.len());
            let job = &mut c.jobs[j];
            let expect = std::mem::take(&mut job.data);
            match rec.call(&c.client, 0, id, MaRequest::FetchData { job_id: job.id })? {
                MaResponse::Data(d) if d == expect => Ok(()),
                other => Err(format!(
                    "data of job {}: {} reports",
                    job.id,
                    match other {
                        MaResponse::Data(d) => d.len(),
                        _ => 0,
                    }
                )),
            }
        }
        Op::RegisterSp => match rec.call(&c.client, 0, id, MaRequest::RegisterSpAccount)? {
            MaResponse::Account(a) => {
                c.accounts.push((a, 0));
                Ok(())
            }
            other => Err(format!("register SP: {other:?}")),
        },
        Op::LaborRegister => {
            let j = pick(&mut c.rng, c.jobs.len());
            let key = random_bytes(&mut c.rng, 64);
            let job_id = c.jobs[j].id;
            let resp = rec.call(
                &c.client,
                0,
                id,
                MaRequest::LaborRegister {
                    job_id,
                    sp_pubkey: key.clone(),
                },
            )?;
            if !matches!(resp, MaResponse::Ok) {
                return Err(format!("labor register: {resp:?}"));
            }
            c.jobs[j].labor.push(key);
            Ok(())
        }
        Op::SubmitData => {
            let j = pick(&mut c.rng, c.jobs.len());
            let data = random_bytes(&mut c.rng, DATA_BYTES);
            let job_id = c.jobs[j].id;
            let resp = rec.call(
                &c.client,
                0,
                id,
                MaRequest::SubmitData {
                    job_id,
                    sp_pubkey: id.to_be_bytes().to_vec(),
                    data: data.clone(),
                },
            )?;
            if !matches!(resp, MaResponse::Ok) {
                return Err(format!("submit data: {resp:?}"));
            }
            c.jobs[j].data.push(data);
            Ok(())
        }
        Op::Deposit => {
            let spend = c
                .deposits
                .pop()
                .ok_or("deposit pool exhausted (schedule outran set-up)")?;
            let i = pick(&mut c.rng, c.accounts.len());
            let account = c.accounts[i].0;
            match rec.call(
                &c.client,
                0,
                id,
                MaRequest::DepositBatch {
                    account,
                    spends: vec![spend],
                },
            )? {
                MaResponse::BatchDeposited {
                    total: 1,
                    accepted: 1,
                    rejected: 0,
                } => {
                    c.accounts[i].1 += 1;
                    c.deposited += 1;
                    Ok(())
                }
                other => Err(format!("one-leaf deposit: {other:?}")),
            }
        }
    }
}

/// Sleeps until `t`: through the OS to within [`SPIN`] of it, then
/// spinning, so a slot is met closely while the generator keeps its
/// hands off the two CPUs the server shares with it.
fn sleep_until(t: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    let now = Instant::now();
    if t > now + SPIN {
        std::thread::sleep(t - now - SPIN);
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
}

/// One phase as both connections ran it.
#[derive(Default)]
struct PhaseRun {
    /// Latency from the slot, µs, in slot order (one connection after
    /// the other).
    lat_us: Vec<f64>,
    /// When each of those requests completed.
    done: Vec<Instant>,
    /// Host CPU steal over the phase.
    steal: StealWindows,
    /// Per connection: lateness (send − slot) of every slot, in slot
    /// order, µs.
    lateness_us: Vec<Vec<f64>>,
    scheduled: usize,
    failed: usize,
    errors: Vec<String>,
    /// Phase start to the last completion, s.
    wall_s: f64,
    calls_us: BTreeMap<&'static str, Vec<f64>>,
    spans: Vec<trace::SpanRec>,
}

impl PhaseRun {
    fn achieved(&self) -> f64 {
        self.lat_us.len() as f64 / self.wall_s.max(1e-9)
    }

    /// Median lateness over the first and last fifth of each
    /// connection's slots.
    fn lateness_head_tail(&self) -> (f64, f64) {
        let (mut head, mut tail) = (Vec::new(), Vec::new());
        for l in &self.lateness_us {
            let k = (l.len() / 5).max(1).min(l.len());
            head.extend_from_slice(&l[..k]);
            tail.extend_from_slice(&l[l.len() - k..]);
        }
        (stats::median(&head), stats::median(&tail))
    }
}

fn run_phase(conns: &mut [Conn], phase: &Phase, epoch: Instant) -> PhaseRun {
    let n = slots(phase);
    let interval = Duration::from_secs_f64(CLIENTS as f64 / phase.rate);
    let start = Instant::now() + Duration::from_millis(20);
    let sampler = StealSampler::start();
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|c| {
                s.spawn(move || {
                    let mut rec = Recorder::new(phase.traced, epoch, c.idx);
                    // Connections interleave: connection i owns the
                    // slots offset by i/CLIENTS of an interval.
                    let offset = interval.mul_f64(c.idx as f64 / CLIENTS as f64);
                    let (mut lat, mut done, mut late, mut errors) =
                        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
                    for k in 0..n {
                        let slot = start + offset + interval.mul_f64(k as f64);
                        sleep_until(slot);
                        late.push(slot.elapsed().as_secs_f64() * 1e6);
                        let r = exec(c, &mut rec);
                        let now = Instant::now();
                        lat.push((now - slot).as_secs_f64() * 1e6);
                        done.push(now);
                        if let Err(e) = r {
                            errors.push(format!("connection {}: {e}", c.idx));
                        }
                    }
                    (lat, done, late, errors, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let mut run = PhaseRun {
        scheduled: n * CLIENTS,
        steal: sampler.stop(),
        ..PhaseRun::default()
    };
    let mut spans = Vec::new();
    for (lat, done, late, errors, rec) in results {
        run.lat_us.extend(lat);
        run.done.extend(done);
        run.lateness_us.push(late);
        run.failed += errors.len();
        run.errors.extend(errors);
        let Recorder { tracer, calls } = rec;
        for (name, us, _) in calls {
            run.calls_us.entry(name).or_default().push(us);
        }
        spans.push(tracer.into_spans());
    }
    run.spans = trace::merge(spans);
    let last = run.done.iter().copied().max().unwrap_or(start);
    run.wall_s = (last - start).as_secs_f64();
    run
}

fn repeat_outcome(phase: &Phase, run: &PhaseRun) -> RepeatOutcome {
    let (head, tail) = run.lateness_head_tail();
    RepeatOutcome {
        rate: phase.rate,
        failed: run.failed,
        p99_us: stats::robust(&run.lat_us, 0.99, "").ok().map(|p| p.value),
        lateness_head_us: head,
        lateness_tail_us: tail,
    }
}

fn describe(phase: &Phase, run: &PhaseRun) -> String {
    let p50 = stats::robust(&run.lat_us, 0.5, "").map_or(0.0, |p| p.value);
    let p99 = stats::robust(&run.lat_us, 0.99, "").map_or("n/a".to_string(), |p| {
        format!("{:.1}us (n={}, {} beyond)", p.value, p.samples, p.beyond)
    });
    let (head, tail) = run.lateness_head_tail();
    let all_late: Vec<f64> = run.lateness_us.iter().flatten().copied().collect();
    let blocks: Vec<String> = stats::block_values(&run.lat_us, 0.99)
        .unwrap_or_default()
        .iter()
        .map(|v| format!("{v:.0}"))
        .collect();
    format!(
        "{:<6} offered {:>6.0}/s achieved {:>7.1}/s  p50 {:>8.1}us  p99 {p99} [blocks {}]  \
         lateness median {:.1}us (head {head:.1}us, tail {tail:.1}us)  failed {}",
        phase.label,
        phase.rate,
        run.achieved(),
        p50,
        blocks.join(" "),
        stats::median(&all_late),
        run.failed
    )
}

/// The end-to-end samples of the light and heavy phases (traced or
/// not): a "round" of the open loop is one request. Only requests that
/// completed in clean intervals of their phase count towards the
/// latencies (see [`StealWindows`]).
fn samples(runs: &[(Phase, PhaseRun)], traced: bool) -> Samples {
    let pick = |label: &str| {
        runs.iter()
            .find(|(p, _)| p.label == label && p.traced == traced)
            .map(|(_, r)| r)
            .expect("phase is planned")
    };
    let clean = |r: &PhaseRun| -> Vec<f64> {
        r.lat_us
            .iter()
            .zip(&r.done)
            .filter(|(_, t)| r.steal.is_clean(**t))
            .map(|(us, _)| *us)
            .collect()
    };
    let (light, heavy) = (pick("light"), pick("heavy"));
    let (light_us, heavy_us) = (clean(light), clean(heavy));
    let round_ms: Vec<f64> = light_us
        .iter()
        .chain(&heavy_us)
        .map(|us| us / 1e3)
        .collect();
    let (l, h) = (light.steal.summary(), heavy.steal.summary());
    let (nl, nh) = (light.lat_us.len() as f64, heavy.lat_us.len() as f64);
    Samples {
        // An open loop completes what it is offered unless it falls
        // behind, steal or not: its throughput counts every request.
        rounds_per_s: (light.lat_us.len() + heavy.lat_us.len()) as f64
            / (light.wall_s + heavy.wall_s),
        round_ms,
        light_us,
        heavy_us,
        steal: (
            (l.0 * nl + h.0 * nh) / (nl + nh),
            (l.1 * nl + h.1 * nh) / (nl + nh),
        ),
    }
}

/// Runs `door_mix`.
pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    ppms_obs::set_enabled(false);
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let t = Instant::now();
        let s = setup(cfg)?;
        setup_times.push(t.elapsed().as_secs_f64());
        kept = Some(s);
    }
    let (mut market, mut conns) = kept.expect("set-up ran");
    let setup_s = stats::median(&setup_times);
    let setup_rss_mb = common::peak_rss_mb()?;

    let phases = plan(cfg.seconds, cfg.trace);
    let mut runs: Vec<(Phase, PhaseRun)> = Vec::with_capacity(phases.len());
    let mut before = None;
    let epoch = Instant::now();
    for phase in &phases {
        if phase.traced && before.is_none() {
            ppms_obs::set_enabled(true);
            before = Some(market.svc().obs_snapshot());
        }
        let run = run_phase(&mut conns, phase, epoch);
        out.attempted += run.scheduled as u64;
        for e in &run.errors {
            out.fail(e.clone());
        }
        out.notes.push(describe(phase, &run));
        runs.push((*phase, run));
    }
    let after = market.svc().obs_snapshot();
    ppms_obs::set_enabled(false);

    // The ledger the generator acknowledged, then crash and recover.
    drop(market.door.take());
    let acknowledged = market.svc().bank.snapshot();
    for c in &conns {
        for &(account, expect) in &c.accounts {
            out.attempted += 1;
            match market.svc().bank.balance(account) {
                Ok(b) if b == expect => {}
                other => out.fail(format!("account {account:?}: {other:?}, expected {expect}")),
            }
        }
    }
    let deposited: u64 = conns.iter().map(|c| c.deposited).sum();
    let (recovery, recovered) = market.crash_and_recover()?;
    out.attempted += 1;
    if recovered != acknowledged {
        out.fail("recovered ledger differs from the acknowledged one");
    }
    out.notes.push(format!(
        "{deposited} one-leaf deposits credited; recovery {:.1} ms",
        recovery.as_secs_f64() * 1e3
    ));

    if !cfg.trace {
        let samples = samples(&runs, false);
        out.notes.push(samples.tail_note());
        if out.errors.is_empty() {
            match samples.end_to_end(setup_s, setup_rss_mb) {
                Ok(m) => out.metrics = m,
                Err(e) => out.fail(e),
            }
        }
        return Ok(out);
    }

    let pick = |label: &str, traced: bool| -> Vec<&PhaseRun> {
        runs.iter()
            .filter(|(p, _)| p.label == label && p.traced == traced)
            .map(|(_, r)| r)
            .collect()
    };
    let ladder: Vec<RepeatOutcome> = runs
        .iter()
        .filter(|(p, _)| p.label == "ladder")
        .map(|(p, r)| repeat_outcome(p, r))
        .collect();
    let knee = stats::knee(&ladder);
    out.notes.push(format!(
        "knee rule (p99 <= {} us, no growing backlog, every climb): {}",
        stats::SLO_P99_US,
        knee.map_or("below the ladder".into(), |k| format!(
            "{k:.0} req/s offered"
        ))
    ));
    let delta = stats::registry_delta(&before.expect("a traced phase ran"), &after);
    let mut inp = LayerInputs {
        delta,
        ..LayerInputs::default()
    };
    for (p, r) in &runs {
        if p.traced {
            for (k, v) in &r.calls_us {
                inp.calls_us.entry(k).or_default().extend(v);
            }
            out.spans.extend(r.spans.iter().cloned());
        }
    }
    let late = |label: &str| {
        let v: Vec<f64> = pick(label, true)
            .iter()
            .flat_map(|r| r.lateness_us.iter().flatten().copied())
            .collect();
        stats::median(&v)
    };
    inp.extra.insert("door.light_lateness_us", late("light"));
    inp.extra.insert("door.heavy_lateness_us", late("heavy"));
    inp.extra.insert("door.ladder_lateness_us", late("ladder"));
    inp.extra.insert("door.knee_rps", knee.unwrap_or(0.0));
    let p50 = |r: &PhaseRun| stats::robust(&r.lat_us, 0.5, "").map_or(0.0, |p| p.value);
    let (base, traced) = (p50(pick("heavy", false)[0]), p50(pick("heavy", true)[0]));
    inp.extra.insert(
        "trace.overhead_pct",
        100.0 * (traced / base.max(1e-9) - 1.0),
    );
    inp.extra
        .insert("recovery.ms", recovery.as_secs_f64() * 1e3);
    out.notes.push(format!(
        "tracing overhead at the heavy rate: p50 {traced:.1} us traced vs {base:.1} us untraced"
    ));
    inp.extra.insert("mem.run_peak_mb", common::peak_rss_mb()?);
    out.metrics = layers::metrics(&inp);
    out.metrics.extend(samples(&runs, true).tails());
    Ok(out)
}

//! `pbs_market`: closed-loop PPMSpbs rounds (paper Alg. 4) on one
//! shared in-process `PbsMarket` from two client threads. A round is
//! `register_job` → `labor_registration` → `pay_and_deposit`, with a
//! fresh serial and a one-time key drawn from a pool generated in
//! set-up. No door, no WAL, no DEC tower: RSA-512 and the shared bank
//! and serial set only.

use crate::closed;
use crate::common::{self, Recorder, CLIENTS, RSA_BITS, SETUP_REPEATS};
use crate::layers::{self, LayerInputs};
use crate::report::{Cfg, Outcome};
use crate::stats;
use crate::trace;
use ppms_core::ppmspbs::{PbsJobOwner, PbsParticipant};
use ppms_core::{MarketError, PbsMarket};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Registered SPs per client (their keys are the pool; it cycles).
const SP_POOL: usize = 8;
/// JO funds: far more credits than any run pays.
const JO_FUNDS: u64 = 1 << 40;
/// Every Nth round the SP re-deposits under its last serial; the
/// bank must refuse it.
const REPLAY_EVERY: u64 = 64;
/// Serial length in bytes (as the market draws them).
const SERIAL_LEN: usize = 16;
const DATA: &[u8] = b"noise=54dBA;lat=52.37;lon=4.89";

struct Client {
    idx: usize,
    rng: StdRng,
    jo: PbsJobOwner,
    sps: Vec<PbsParticipant>,
    /// Credits each pool SP was acknowledged.
    credited: Vec<u64>,
    rounds: u64,
    last: Option<PbsParticipant>,
}

fn setup(seed: u64) -> Result<(PbsMarket, Vec<Client>, f64), String> {
    let mut market = PbsMarket::new();
    let t = Instant::now();
    let mut clients = Vec::with_capacity(CLIENTS);
    for idx in 0..CLIENTS {
        let mut rng = StdRng::seed_from_u64(seed ^ (0x9B5_0000 + idx as u64));
        let jo = market.register_jo(&mut rng, JO_FUNDS, RSA_BITS);
        let sps = (0..SP_POOL)
            .map(|_| market.register_sp(&mut rng, RSA_BITS))
            .collect();
        clients.push(Client {
            idx,
            rng,
            jo,
            sps,
            credited: vec![0; SP_POOL],
            rounds: 0,
            last: None,
        });
    }
    let keygen_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok((market, clients, keygen_ms))
}

/// This round's SP: a pool entry's account and keys under a fresh serial.
fn participant(c: &mut Client, slot: usize) -> PbsParticipant {
    let sp = &c.sps[slot];
    let mut serial = vec![0u8; SERIAL_LEN];
    c.rng.fill_bytes(&mut serial);
    PbsParticipant {
        account: sp.account,
        account_key: sp.account_key.clone(),
        one_time: sp.one_time.clone(),
        serial,
    }
}

fn step(market: &PbsMarket, c: &mut Client, rec: &mut Recorder) -> Result<(f64, u64), String> {
    let slot = (c.rounds as usize) % SP_POOL;
    let sp = participant(c, slot);
    let id = ((c.idx as u64) << 40) | c.rounds;
    c.rounds += 1;
    let description = format!("noise map, street {}", c.rounds);
    let t0 = Instant::now();
    let root = rec.tracer.open("round", 0, id);
    let body = (|| {
        rec.time("pbs.register_job", root, id, || {
            market.register_job(&c.jo, &description)
        });
        rec.time("pbs.labor_registration", root, id, || {
            market.labor_registration(&mut c.rng, &c.jo, &sp)
        })
        .map_err(|e| format!("labor registration: {e}"))?;
        rec.time("pbs.pay_and_deposit", root, id, || {
            market.pay_and_deposit(&mut c.rng, &c.jo, &sp, DATA)
        })
        .map_err(|e| format!("pay and deposit: {e}"))
    })();
    rec.tracer.close(root);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    match body? {
        1 => c.credited[slot] += 1,
        n => return Err(format!("round credited {n}, not 1")),
    }
    let mut ops = 1;
    if c.rounds.is_multiple_of(REPLAY_EVERY) {
        if let Some(last) = c.last.take() {
            ops += 1;
            match market.pay_and_deposit(&mut c.rng, &c.jo, &last, DATA) {
                Err(MarketError::StaleSerial) => {}
                other => return Err(format!("replayed serial was not refused: {other:?}")),
            }
        }
    }
    c.last = Some(sp);
    Ok((ms, ops))
}

/// Checks conservation and every acknowledged credit.
fn audit(market: &PbsMarket, clients: &[Client], out: &mut Outcome) {
    let paid: u64 = clients.iter().flat_map(|c| &c.credited).sum();
    out.attempted += 1;
    let supply = market.bank.total_supply();
    if supply != CLIENTS as u64 * JO_FUNDS {
        out.fail(format!(
            "total supply {supply} is not the {CLIENTS} JOs' funds"
        ));
    }
    for c in clients {
        for (sp, &n) in c.sps.iter().zip(&c.credited) {
            out.attempted += 1;
            match market.bank.balance(sp.account) {
                Ok(b) if b == n => {}
                other => out.fail(format!("SP {:?}: {other:?}, credited {n}", sp.account)),
            }
        }
        out.attempted += 1;
        let jo_paid: u64 = c.credited.iter().sum();
        match market.bank.balance(c.jo.account) {
            Ok(b) if b == JO_FUNDS - jo_paid => {}
            other => out.fail(format!(
                "JO {:?}: {other:?} after paying {jo_paid}",
                c.jo.account
            )),
        }
    }
    out.notes
        .push(format!("{paid} credits paid, supply conserved at {supply}"));
}

const LIGHT_CALLS: [&str; 1] = ["pbs.labor_registration"];
const HEAVY_CALLS: [&str; 1] = ["pbs.pay_and_deposit"];

/// Runs `pbs_market`.
pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    ppms_obs::set_enabled(false);
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let t = Instant::now();
        let s = setup(cfg.seed)?;
        setup_times.push(t.elapsed().as_secs_f64());
        kept = Some(s);
    }
    let (market, mut clients, keygen_ms) = kept.expect("set-up ran");
    let setup_s = stats::median(&setup_times);
    let setup_rss_mb = common::peak_rss_mb()?;
    let step = |c: &mut Client, rec: &mut Recorder| step(&market, c, rec);
    let (warmup, run_for) = closed::windows(cfg.seconds);

    if !cfg.trace {
        let m = closed::drive(&mut clients, &step, false, warmup, run_for, &mut out);
        audit(&market, &clients, &mut out);
        if out.errors.is_empty() {
            let samples = m.samples(&LIGHT_CALLS, &HEAVY_CALLS);
            out.notes.push(samples.tail_note());
            match samples.end_to_end(setup_s, setup_rss_mb) {
                Ok(metrics) => out.metrics = metrics,
                Err(e) => out.fail(e),
            }
        }
        return Ok(out);
    }

    // Traced run: an untraced reference third, then the traced rest.
    let reference = run_for / 3;
    let base = closed::drive(&mut clients, &step, false, warmup, reference, &mut out);
    ppms_obs::set_enabled(true);
    let before = ppms_obs::global().snapshot();
    let m = closed::drive(
        &mut clients,
        &step,
        true,
        Duration::ZERO,
        run_for - reference,
        &mut out,
    );
    let delta = stats::registry_delta(&before, &ppms_obs::global().snapshot());
    ppms_obs::set_enabled(false);
    audit(&market, &clients, &mut out);

    let mut inp = LayerInputs {
        delta,
        ..LayerInputs::default()
    };
    let by_name = m.calls_by_name();
    for (metric, calls) in [
        ("pbs.register_job_ms", "pbs.register_job"),
        ("pbs.labor_registration_ms", "pbs.labor_registration"),
        ("pbs.pay_and_deposit_ms", "pbs.pay_and_deposit"),
    ] {
        let v = by_name.get(calls).map_or(&[][..], |v| &v[..]);
        inp.extra
            .insert(metric, v.iter().sum::<f64>() / v.len().max(1) as f64 / 1e3);
    }
    let (budget, band_ms) = trace::median_round_budget(&m.spans, "round");
    let accounted: f64 = budget.values().sum();
    let p50 = stats::robust(&m.round_ms(), 0.5, "").map_or(0.0, |p| p.value);
    let base_p50 = stats::robust(&base.round_ms(), 0.5, "").map_or(0.0, |p| p.value);
    inp.extra.insert("budget.round_ms", band_ms);
    inp.extra.insert("budget.accounted_ms", accounted);
    inp.extra.insert(
        "budget.unaccounted_pct",
        100.0 * (1.0 - accounted / band_ms.max(1e-9)),
    );
    inp.extra.insert(
        "trace.overhead_pct",
        100.0 * (p50 / base_p50.max(1e-9) - 1.0),
    );
    inp.extra.insert("setup.keygen_ms", keygen_ms);
    inp.extra.insert("rounds.traced", m.rounds.len() as f64);
    out.notes.push(format!(
        "round p50 traced {p50:.4} ms vs untraced {base_p50:.4} ms; median round {band_ms:.4} ms, \
         {accounted:.4} ms in the three steps"
    ));
    inp.extra.insert("mem.run_peak_mb", common::peak_rss_mb()?);
    out.metrics = layers::metrics(&inp);
    out.metrics
        .extend(m.samples(&LIGHT_CALLS, &HEAVY_CALLS).tails());
    out.spans = m.spans;
    Ok(out)
}

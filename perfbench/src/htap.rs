//! `htap-mix`: the executor, columnar and scheduler layers.
//!
//! TPC-H-lite at SF 0.5 (lineitem ≈ 30k rows, orders 7,500) with column
//! indexes on `lineitem` and `orders` (§VI-E). Connection A runs a
//! closed loop over Q1, Q6, Q3, Q12 and Q14; connection B is an
//! open-loop TP stream at 20 statements/s alternating a point SELECT and
//! a point UPDATE on `orders`, each timed from its scheduled send. The
//! column index speeds the SELECT up and slows the UPDATE down (every
//! write to an indexed table rebuilds its index today), so one change
//! can help one kind and hurt the other.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use polardbx_common::time::mono_now;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use polardbx::{ClusterConfig, PolarDbx};
use polardbx_common::{DcId, Row, Value};
use polardbx_front::FrontClient;
use polardbx_workloads::tpch::{self, ScaleFactor};

use crate::rig::{self, e, setup_median, BResult, Counters, Rig};
use crate::stats::{Lat, Tally};
use crate::trace::{replay_increment, Replayer};
use crate::{Args, Outcome};

const SF: f64 = 0.5;
const SHARDS: u32 = 8;
const SETUPS: usize = 5;
/// The AP cycle, as (kind, TPC-H query number).
const AP_CYCLE: [(&str, usize); 5] = [("q1", 1), ("q6", 6), ("q3", 3), ("q12", 12), ("q14", 14)];
const AP_KINDS: [&str; 5] = ["q1", "q6", "q3", "q12", "q14"];
const ALL_KINDS: [&str; 7] = ["q1", "q6", "q3", "q12", "q14", "tp_select", "tp_update"];
const TP_RATE: f64 = 20.0;
/// `o_shippriority` is column 6 of `orders`.
const PRIORITY_COL: usize = 6;
const Q1_COUNT: &str = "SELECT COUNT(*) FROM lineitem WHERE l_shipdate <= 2450";
const TRACE_AP_EACH: usize = 3;
const TRACE_TP_EACH: usize = 10;

/// A loaded cluster and the answers fixed at set-up time.
struct Loaded {
    rig: Rig,
    orders: i64,
    lineitems: i64,
    /// Rows Q1 aggregates (its filtered COUNT(*)).
    q1_rows: f64,
    /// Q6's revenue: `lineitem` is never written, so it never changes.
    q6: f64,
}

fn setup(seed: u64) -> BResult<Loaded> {
    let rig = Rig::start(ClusterConfig::default())?;
    let session = rig.db.connect(DcId(1));
    tpch::create_schema(&session, SHARDS).map_err(e("tpch schema"))?;
    let lineitems = tpch::load(&rig.db, ScaleFactor(SF), seed).map_err(e("tpch load"))?;
    for t in ["lineitem", "orders"] {
        rig.db
            .enable_column_index(t)
            .map_err(e("enable_column_index"))?;
    }
    let orders = rig.db.count_rows("orders").map_err(e("count orders"))? as i64;
    let mut c = rig.client()?;
    let q1_rows = rig::scalar(&mut c, Q1_COUNT)?;
    let q6 = rig::scalar(&mut c, tpch::query_sql(6))?;
    c.quit().map_err(e("quit"))?;
    Ok(Loaded {
        rig,
        orders,
        lineitems,
        q1_rows,
        q6,
    })
}

/// Check one AP result against what set-up fixed.
fn check_ap(l: &Loaded, q: usize, rows: &[Row]) -> BResult<()> {
    match q {
        1 => {
            let mut n = 0.0;
            for r in rows {
                n += rig::num(r, 7)?;
            }
            if n != l.q1_rows {
                return Err(format!(
                    "Q1 groups count {n} rows, its filtered COUNT(*) is {}",
                    l.q1_rows
                ));
            }
        }
        6 => {
            let v = rows
                .first()
                .map(|r| rig::num(r, 0))
                .transpose()?
                .unwrap_or(f64::NAN);
            // Parallel aggregation may sum in another order: allow
            // rounding, but not a missing result (NaN).
            if v.is_nan() || (v - l.q6).abs() > 1e-9 * l.q6.abs().max(1.0) {
                return Err(format!("Q6 revenue {v}, set-up value {}", l.q6));
            }
        }
        14 if rows.len() != 1 => return Err(format!("Q14 returned {} rows", rows.len())),
        _ => {}
    }
    Ok(())
}

/// Closed AP loop over the cycle. Returns the tally and every answer
/// that failed its check: the TP stream never writes `lineitem`, so a
/// wrong answer is a consistency bug, not just a failed statement.
fn ap_loop(l: &Loaded, stop: &AtomicBool) -> BResult<(Tally, Vec<String>)> {
    let mut c = l.rig.client()?;
    let (mut tally, mut wrong) = (Tally::default(), Vec::new());
    for &(kind, q) in AP_CYCLE.iter().cycle() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let start = mono_now();
        let r = c.query(tpch::query_sql(q)).map_err(e(kind));
        let took = mono_now().saturating_sub(start);
        match r.map(|rows| check_ap(l, q, &rows)) {
            Ok(Ok(())) => tally.ok(kind, took),
            Ok(Err(err)) => {
                wrong.push(err.clone());
                tally.fail(kind, err);
            }
            Err(err) => tally.fail(kind, err),
        }
    }
    c.quit().map_err(e("quit"))?;
    Ok((tally, wrong))
}

#[derive(Clone, Copy)]
enum Tp {
    Select(i64),
    Update(i64),
}

impl Tp {
    fn nth(k: u64, rng: &mut StdRng, orders: i64) -> Tp {
        let key = rng.gen_range(0..orders);
        if k.is_multiple_of(2) {
            Tp::Select(key)
        } else {
            Tp::Update(key)
        }
    }

    fn kind(self) -> &'static str {
        match self {
            Tp::Select(_) => "tp_select",
            Tp::Update(_) => "tp_update",
        }
    }

    fn sql(self) -> String {
        match self {
            Tp::Select(k) => format!(
                "SELECT o_orderkey, o_custkey, o_totalprice, o_shippriority FROM orders WHERE o_orderkey = {k}"
            ),
            Tp::Update(k) => {
                format!("UPDATE orders SET o_shippriority = o_shippriority + 1 WHERE o_orderkey = {k}")
            }
        }
    }

    fn run(self, c: &mut FrontClient) -> BResult<()> {
        match self {
            Tp::Select(k) => {
                let rows = c.query(&self.sql()).map_err(e("tp select"))?;
                match rows.as_slice() {
                    [r] if r.get(0).ok() == Some(&Value::Int(k)) => Ok(()),
                    _ => Err(format!("point select {k} returned {} rows", rows.len())),
                }
            }
            Tp::Update(k) => match c.execute(&self.sql()).map_err(e("tp update"))? {
                1 => Ok(()),
                n => Err(format!("update {k} affected {n} rows")),
            },
        }
    }
}

/// Open-loop TP stream: statement `k` is due at `k / TP_RATE` seconds
/// and is timed from then, so a stall is charged to the statements
/// queued behind it. Returns the tally, the generator's lateness and the
/// UPDATEs whose outcome the client did not learn.
fn tp_stream(l: &Loaded, seed: u64, stop: &AtomicBool) -> BResult<(Tally, Lat, u64)> {
    let mut c = l.rig.client()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut tally, mut late, mut unsure) = (Tally::default(), Lat::default(), 0);
    let t0 = mono_now();
    for k in 0u64.. {
        let due = t0 + Duration::from_secs_f64(k as f64 / TP_RATE);
        rig::sleep_until(due);
        if stop.load(Ordering::Relaxed) {
            break;
        }
        late.record(mono_now().saturating_sub(due));
        let op = Tp::nth(k, &mut rng, l.orders);
        let r = op.run(&mut c);
        let took = mono_now().saturating_sub(due);
        match r {
            Ok(()) => {
                tally.ok(op.kind(), took);
                tally.rows_written += matches!(op, Tp::Update(_)) as u64;
            }
            Err(err) => {
                unsure += matches!(op, Tp::Update(_)) as u64;
                tally.fail(op.kind(), err);
            }
        }
    }
    c.quit().map_err(e("quit"))?;
    Ok((tally, late, unsure))
}

/// What one phase of load produced.
#[derive(Default)]
struct Phase {
    tally: Tally,
    /// AP answers that failed their check.
    wrong: Vec<String>,
    late: Lat,
    unsure: u64,
    elapsed: f64,
}

/// Run the AP loop and/or the TP stream while `fg` runs on this thread.
fn with_load<T>(
    l: &Loaded,
    seed: u64,
    ap: bool,
    tp: bool,
    fg: impl FnOnce() -> T,
) -> BResult<(T, Phase)> {
    let stop = AtomicBool::new(false);
    let t0 = mono_now();
    let (out, a, t) = std::thread::scope(|s| {
        let stop = &stop;
        let a = ap.then(|| s.spawn(move || ap_loop(l, stop)));
        let t = tp.then(|| s.spawn(move || tp_stream(l, seed, stop)));
        let out = fg();
        stop.store(true, Ordering::Relaxed);
        let a = a.map(|h| {
            h.join()
                .unwrap_or_else(|_| Err("AP thread panicked".into()))
        });
        let t = t.map(|h| {
            h.join()
                .unwrap_or_else(|_| Err("TP thread panicked".into()))
        });
        (out, a, t)
    });
    let mut phase = Phase {
        elapsed: mono_now().saturating_sub(t0).as_secs_f64(),
        ..Phase::default()
    };
    if let Some((tally, wrong)) = a.transpose()? {
        phase.tally.merge(tally);
        phase.wrong = wrong;
    }
    if let Some((tally, late, unsure)) = t.transpose()? {
        phase.tally.merge(tally);
        phase.late = late;
        phase.unsure = unsure;
    }
    Ok((out, phase))
}

pub fn run(args: &Args) -> BResult<Outcome> {
    let (l, setup_s) = setup_median(SETUPS, || setup(args.seed), |l: Loaded| l.rig.stop())?;
    let rig = &l.rig;
    let mut report = vec![format!(
        "htap-mix: {} · TPC-H-lite SF {SF}: lineitem={} orders={} · column indexes on lineitem, \
         orders · AP closed loop Q1/Q6/Q3/Q12/Q14 + open-loop TP {TP_RATE}/s · setup (median of \
         {SETUPS}) {setup_s:.3} s",
        rig.shape(),
        l.lineitems,
        l.orders
    )];
    let base = Counters::read(rig);
    let ((), measured) = with_load(&l, args.seed, true, true, || std::thread::sleep(args.run))?;
    let m = &measured.tally;
    let elapsed = measured.elapsed;
    let ap = merged(m, &AP_KINDS);
    report.push(format!(
        "measured {elapsed:.2} s (AP {:.2} queries/s, p50 {:.1} ms, p90 {:.1} ms):",
        ap.len() as f64 / elapsed,
        ap.p50_us() / 1e3,
        ap.quantile_us(0.9) / 1e3
    ));
    m.report(&mut report);
    report.push(measured.late.line("tp late"));
    let late_tail = measured.late.tail().map_or(0.0, |t| t.us);
    report.push(format!("bench.generator_late_tail_us {late_tail:.0}"));
    let (mut attempted, mut failed) = (m.attempted, m.failed);
    let mut wrong = measured.wrong.clone();
    let mut acked_updates = m.rows_written;
    let mut unsure = measured.unsure;

    let mut replayer = None;
    if args.trace {
        // Traced phase A: AP queries replayed while the TP stream runs.
        let (replay_ap, phase_a) = with_load(&l, args.seed ^ 0x7470, false, true, || {
            let mut rp = Replayer::new(rig)?;
            let (mut errs, mut wrong) = (Vec::new(), Vec::new());
            for _ in 0..TRACE_AP_EACH {
                for (kind, q) in AP_CYCLE {
                    let check = |rows: &[Row]| match check_ap(&l, q, rows) {
                        Ok(()) => true,
                        Err(err) => {
                            wrong.push(err);
                            false
                        }
                    };
                    if let Err(err) = rp.select(kind, tpch::query_sql(q), check, true) {
                        errs.push(err);
                    }
                }
            }
            BResult::Ok((rp, errs, wrong))
        })?;
        // Traced phase B: TP statements replayed while the AP loop runs.
        let (rp_errs, phase_b) = with_load(&l, args.seed, true, false, || {
            let (mut rp, mut errs, wrong) = replay_ap?;
            let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5eed);
            let mut acked = 0u64;
            for k in 0..2 * TRACE_TP_EACH as u64 {
                let op = Tp::nth(k, &mut rng, l.orders);
                let sql = op.sql();
                let r = match op {
                    Tp::Select(key) => rp
                        .select("tp_select", &sql, |r| r.len() == 1, true)
                        .and_then(|()| rp.probe_point("tp_select", "orders", &[Value::Int(key)])),
                    Tp::Update(key) => {
                        let db: &PolarDbx = &rig.db;
                        let done = rp.dml("tp_update", &sql, 1, |tr, s, at| {
                            replay_increment(tr, db, s, at, "orders", key, PRIORITY_COL)
                        });
                        acked += done.acked as u64;
                        match done.error {
                            None => rp.probe_point("tp_update", "orders", &[Value::Int(key)]),
                            Some(err) => {
                                unsure += 1;
                                Err(err)
                            }
                        }
                    }
                };
                if let Err(err) = r {
                    errs.push(err);
                }
            }
            BResult::Ok((rp, errs, acked, wrong))
        })?;
        let (mut rp, errs, acked, replay_wrong) = rp_errs?;
        acked_updates += acked;
        wrong.extend(replay_wrong);
        for p in [&phase_a, &phase_b] {
            wrong.extend(p.wrong.iter().cloned());
            attempted += p.tally.attempted;
            failed += p.tally.failed;
            acked_updates += p.tally.rows_written;
            unsure += p.unsure;
        }
        attempted += (AP_CYCLE.len() * TRACE_AP_EACH + 4 * TRACE_TP_EACH) as u64;
        failed += errs.len() as u64;
        for err in errs.iter().take(5) {
            report.push(format!("  replay error: {err}"));
        }
        for _ in 0..3 {
            rp.select("check", Q1_COUNT, |r| r.len() == 1, false)?;
        }
        replayer = Some(rp);
    }

    let mut check = end_check(&l, acked_updates, unsure, &mut report)?;
    failed += check.lost;
    check.unexplained.extend(wrong);
    for u in &check.unexplained {
        report.push(format!("  CHECK FAILED: {u}"));
    }
    let metrics = match replayer {
        Some(rp) => {
            let mut layers = rp.finish("htap-mix", args.seed, m, &mut report);
            layers.extend(Counters::read(rig).since(&base));
            layers.push(("bench.stale_after_ack", check.stale as f64));
            layers
        }
        None => vec![
            ("setup_s", setup_s),
            ("ops_per_s", m.completed(&ALL_KINDS) as f64 / elapsed),
            ("rows_per_s", m.rows_written as f64 / elapsed),
            ("main_p50_us", ap.p50_us()),
            ("read_p50_us", m.p50_us("tp_select")),
            ("write_p50_us", m.p50_us("tp_update")),
        ],
    };
    if let Some(t) = m.tail_of(&["tp_select", "tp_update"]) {
        report.push(format!(
            "tp tail: p{} {:.0} us over {} TP statements",
            t.pct, t.us, t.samples
        ));
    }
    report.push(format!(
        "wal: {}",
        if rig::wal_present(rig) {
            "present"
        } else {
            "absent on the served path"
        }
    ));
    for line in &report {
        println!("{line}");
    }
    let correct = check.unexplained.is_empty();
    l.rig.stop();
    Ok(Outcome {
        attempted,
        failed,
        correct,
        metrics,
    })
}

fn merged(t: &Tally, kinds: &[&str]) -> Lat {
    let mut all = Lat::default();
    for k in kinds {
        if let Some(l) = t.lat.get(k) {
            all.merge(l);
        }
    }
    all
}

struct Check {
    lost: u64,
    stale: u64,
    unexplained: Vec<String>,
}

/// Q1's groups must cover its filtered `COUNT(*)`, Q6 must still equal
/// its set-up value, and `SUM(o_shippriority)` must equal the
/// acknowledged UPDATEs (one writer, so nothing may be lost).
fn end_check(l: &Loaded, acked: u64, unsure: u64, report: &mut Vec<String>) -> BResult<Check> {
    let mut c = l.rig.client()?;
    let mut unexplained = Vec::new();
    let now_q1 = rig::scalar(&mut c, Q1_COUNT)?;
    if now_q1 != l.q1_rows {
        unexplained.push(format!(
            "Q1 filtered COUNT(*) {now_q1}, set-up value {}",
            l.q1_rows
        ));
    }
    for q in [1, 6] {
        let rows = c.query(tpch::query_sql(q)).map_err(e("end check query"))?;
        if let Err(err) = check_ap(l, q, &rows) {
            unexplained.push(err);
        }
    }
    let sum_sql = "SELECT SUM(o_shippriority) FROM orders";
    let (first, last) = rig::settle(Duration::from_secs(2), acked as f64, || {
        rig::scalar(&mut c, sum_sql)
    })?;
    c.quit().map_err(e("quit"))?;
    let lost = (acked as f64 - last).max(0.0) as u64;
    if lost > 0 {
        unexplained.push(format!("{lost} acknowledged UPDATEs of orders missing"));
    }
    if last > (acked + unsure) as f64 {
        unexplained.push(format!(
            "SUM(o_shippriority) {last} exceeds {acked} acked + {unsure} unsure"
        ));
    }
    let stale = (last - first).max(0.0) as u64;
    report.push(format!(
        "end check: Q1 rows {now_q1}, Q6 {}, SUM(o_shippriority) right after the run {first}, \
         settled {last}, acked UPDATEs {acked} ({unsure} unsure) · lost {lost} · stale-after-ack {stale}",
        l.q6
    ));
    Ok(Check {
        lost,
        stale,
        unexplained,
    })
}

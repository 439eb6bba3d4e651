//! `point-oltp`: the TP statement path (parse → plan → route →
//! executor/txn → storage) on a 20,000-row table.
//!
//! Two closed-loop wire connections; each op is 50 % point SELECT by
//! primary key, 10 % 10-row primary-key range SELECT and 40 %
//! `UPDATE … SET v = v + 1` by primary key. Both connections draw ids
//! uniformly from the whole table: there are no private rows, so two
//! updates of one row can race.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use polardbx_common::time::mono_now;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use polardbx::ClusterConfig;
use polardbx_common::Value;
use polardbx_front::FrontClient;

use crate::rig::{self, e, setup_median, BResult, Counters, Rig};
use crate::stats::Tally;
use crate::trace::{replay_increment, Replayer};
use crate::{Args, Outcome};

const ROWS: i64 = 20_000;
const CONNS: usize = 2;
const KINDS: [&str; 3] = ["select", "range", "update"];
const SETUPS: usize = 5;
const LOAD_BATCH: i64 = 200;
/// `v` is column 2 of `sbtest`.
const V_COL: usize = 2;
/// Traced replays per statement kind (at least).
const TRACE_PER_KIND: usize = 10;

#[derive(Clone, Copy)]
enum Op {
    Select(i64),
    Range(i64),
    Update(i64),
}

impl Op {
    fn draw(rng: &mut StdRng) -> Op {
        let roll = rng.gen_range(0..100);
        if roll < 50 {
            Op::Select(rng.gen_range(0..ROWS))
        } else if roll < 60 {
            Op::Range(rng.gen_range(0..ROWS - 9))
        } else {
            Op::Update(rng.gen_range(0..ROWS))
        }
    }

    fn kind(self) -> &'static str {
        match self {
            Op::Select(_) => "select",
            Op::Range(_) => "range",
            Op::Update(_) => "update",
        }
    }

    fn sql(self) -> String {
        match self {
            Op::Select(id) => format!("SELECT id, k, v, c FROM sbtest WHERE id = {id}"),
            Op::Range(id) => {
                format!(
                    "SELECT id, v FROM sbtest WHERE id BETWEEN {id} AND {}",
                    id + 9
                )
            }
            Op::Update(id) => format!("UPDATE sbtest SET v = v + 1 WHERE id = {id}"),
        }
    }
}

/// One UPDATE's interval on one connection, for attributing lost
/// increments to racing writers.
struct Write {
    id: i64,
    conn: usize,
    start: Duration,
    end: Duration,
    /// Increments acknowledged by this entry (the traced replay of one
    /// UPDATE runs it three times).
    acked: u32,
    /// Executions whose outcome the client did not learn (an error).
    unsure: u32,
}

#[derive(Default)]
struct Conn {
    tally: Tally,
    writes: Vec<Write>,
}

/// Run one op over the wire and check its result.
fn run_op(c: &mut FrontClient, op: Op) -> BResult<()> {
    let sql = op.sql();
    match op {
        Op::Select(id) => {
            let rows = c.query(&sql).map_err(e("select"))?;
            match rows.as_slice() {
                [r] if r.get(0).ok() == Some(&Value::Int(id)) => Ok(()),
                _ => Err(format!("point select {id} returned {} rows", rows.len())),
            }
        }
        Op::Range(id) => {
            let rows = c.query(&sql).map_err(e("range"))?;
            if rows.len() == 10 {
                Ok(())
            } else {
                Err(format!("range {id} returned {} rows", rows.len()))
            }
        }
        Op::Update(id) => match c.execute(&sql).map_err(e("update"))? {
            1 => Ok(()),
            n => Err(format!("update {id} affected {n} rows")),
        },
    }
}

/// The sysbench-style table.
const SBTEST_DDL: &str = "CREATE TABLE sbtest (id BIGINT NOT NULL, k INT, v INT, \
     c VARCHAR(120), PRIMARY KEY (id)) PARTITION BY HASH(id) PARTITIONS 8";

/// A multi-row INSERT of fresh `sbtest` rows with ids `ids` and `v = 0`.
fn sbtest_insert(ids: std::ops::Range<i64>, k_max: i64, rng: &mut StdRng) -> String {
    let mut sql = String::from("INSERT INTO sbtest (id, k, v, c) VALUES ");
    for (i, id) in ids.enumerate() {
        if i > 0 {
            sql.push_str(", ");
        }
        let k = rng.gen_range(0..k_max.max(1));
        sql.push_str(&format!("({id}, {k}, 0, '{}')", filler(rng)));
    }
    sql
}

/// sysbench-style 120-character filler for the `c` column.
fn filler(rng: &mut StdRng) -> String {
    let mut s = String::with_capacity(120);
    for i in 0..120 {
        if i % 12 == 11 {
            s.push('-');
        } else {
            s.push(char::from(b'0' + rng.gen_range(0..10u8)));
        }
    }
    s
}

/// Closed loop on one connection until `stop` is set.
fn closed_loop(rig: &Rig, conn: usize, seed: u64, stop: &AtomicBool) -> BResult<Conn> {
    let mut c = rig.client()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Conn::default();
    while !stop.load(Ordering::Relaxed) {
        let op = Op::draw(&mut rng);
        let start = mono_now();
        let r = run_op(&mut c, op);
        let end = mono_now();
        if let Op::Update(id) = op {
            let ok = r.is_ok() as u32;
            out.writes.push(Write {
                id,
                conn,
                start,
                end,
                acked: ok,
                unsure: 1 - ok,
            });
            out.tally.rows_written += ok as u64;
        }
        match r {
            Ok(()) => out.tally.ok(op.kind(), end - start),
            Err(err) => out.tally.fail(op.kind(), err),
        }
    }
    c.quit().map_err(e("quit"))?;
    Ok(out)
}

fn setup(seed: u64) -> BResult<Rig> {
    let rig = Rig::start(ClusterConfig::default())?;
    let mut c = rig.client()?;
    c.execute(SBTEST_DDL).map_err(e("create sbtest"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    for lo in (0..ROWS).step_by(LOAD_BATCH as usize) {
        let sql = sbtest_insert(lo..lo + LOAD_BATCH, ROWS, &mut rng);
        let n = c.execute(&sql).map_err(e("load sbtest"))?;
        if n != LOAD_BATCH as u64 {
            return Err(format!("load inserted {n} rows, expected {LOAD_BATCH}"));
        }
    }
    c.quit().map_err(e("quit"))?;
    Ok(rig)
}

/// Run closed-loop connections `conns` while `fg` runs on this thread;
/// returns `fg`'s result, the joined connections and the elapsed time.
fn with_load<T>(
    rig: &Rig,
    seed: u64,
    conns: std::ops::Range<usize>,
    fg: impl FnOnce() -> T,
) -> (T, Vec<BResult<Conn>>, f64) {
    let stop = AtomicBool::new(false);
    let t0 = mono_now();
    let (out, joined) = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .map(|i| {
                let stop = &stop;
                s.spawn(move || {
                    closed_loop(rig, i, seed.wrapping_mul(31).wrapping_add(i as u64), stop)
                })
            })
            .collect();
        let out = fg();
        stop.store(true, Ordering::Relaxed);
        let joined = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load thread panicked".into()))
            })
            .collect::<Vec<_>>();
        (out, joined)
    });
    (out, joined, mono_now().saturating_sub(t0).as_secs_f64())
}

pub fn run(args: &Args) -> BResult<Outcome> {
    let (rig, setup_s) = setup_median(SETUPS, || setup(args.seed), Rig::stop)?;
    let mut report = vec![format!(
        "point-oltp: {} · sbtest rows={ROWS} partitions=8 · {CONNS} closed-loop wire connections · \
         setup (median of {SETUPS}) {setup_s:.3} s",
        rig.shape()
    )];
    let base = Counters::read(&rig);

    // Measured phase: every connection closed-loop for the run time.
    let ((), joined, elapsed) =
        with_load(&rig, args.seed, 0..CONNS, || std::thread::sleep(args.run));
    let mut measured = Tally::default();
    let mut writes = Vec::new();
    for c in joined {
        let c = c?;
        measured.merge(c.tally);
        writes.extend(c.writes);
    }
    report.push(format!(
        "measured {elapsed:.2} s (front door server p50 {} us):",
        rig.door.metrics().query_latency.percentile(0.5).as_micros()
    ));
    measured.report(&mut report);

    let mut attempted = measured.attempted;
    let mut failed = measured.failed;
    let mut replayer = None;
    if args.trace {
        // Traced phase: connection 1 is replaced by the replayer while
        // connection 2 keeps the same mix running.
        let (replay, joined, _) = with_load(&rig, args.seed ^ 0x7261, 1..CONNS, || {
            trace_sample(&rig, args.seed)
        });
        for c in joined {
            let c = c?;
            attempted += c.tally.attempted;
            failed += c.tally.failed;
            writes.extend(c.writes);
        }
        let (mut rp, replay_writes, r_attempted, r_failed, errs) = replay?;
        attempted += r_attempted;
        failed += r_failed;
        writes.extend(replay_writes);
        for err in errs {
            report.push(format!("  replay error: {err}"));
        }
        for _ in 0..3 {
            rp.select(
                "check",
                "SELECT SUM(v) FROM sbtest",
                |r| r.len() == 1,
                false,
            )?;
        }
        replayer = Some(rp);
    }

    let check = end_check(&rig, &writes, &mut report)?;
    failed += check.lost;
    let correct = check.unexplained.is_empty();
    for u in &check.unexplained {
        report.push(format!("  CHECK FAILED: {u}"));
    }

    let metrics = match replayer {
        Some(mut rp) => {
            // The column index is built last: once enabled, every later
            // UPDATE of the table would rebuild it.
            for _ in 0..3 {
                rp.probe_column_build("check", "sbtest")?;
            }
            let mut layers = rp.finish("point-oltp", args.seed, &measured, &mut report);
            layers.extend(Counters::read(&rig).since(&base));
            layers.push(("bench.stale_after_ack", check.stale as f64));
            layers
        }
        None => vec![
            ("setup_s", setup_s),
            ("ops_per_s", measured.completed(&KINDS) as f64 / elapsed),
            ("rows_per_s", measured.rows_written as f64 / elapsed),
            ("main_p50_us", measured.p50_us("select")),
            ("read_p50_us", measured.p50_us("range")),
            ("write_p50_us", measured.p50_us("update")),
        ],
    };
    if let Some(t) = measured.tail_of(&KINDS) {
        report.push(format!(
            "tp tail: p{} {:.0} us over {} TP statements",
            t.pct, t.us, t.samples
        ));
    }
    report.push(format!(
        "wal: {}",
        if rig::wal_present(&rig) {
            "present"
        } else {
            "absent on the served path"
        }
    ));
    for line in &report {
        println!("{line}");
    }
    rig.stop();
    Ok(Outcome {
        attempted,
        failed,
        correct,
        metrics,
    })
}

type ReplayResult<'a> = BResult<(Replayer<'a>, Vec<Write>, u64, u64, Vec<String>)>;

/// Replay a sample of the mix, drawn like a connection draws it, until
/// every kind has `TRACE_PER_KIND` replays.
fn trace_sample(rig: &Rig, seed: u64) -> ReplayResult<'_> {
    let mut rp = Replayer::new(rig)?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let mut seen: HashMap<&str, usize> = HashMap::new();
    let (mut attempted, mut failed, mut errs, mut writes) = (0, 0, Vec::new(), Vec::new());
    while KINDS
        .iter()
        .any(|k| seen.get(k).copied().unwrap_or(0) < TRACE_PER_KIND)
    {
        let op = Op::draw(&mut rng);
        *seen.entry(op.kind()).or_default() += 1;
        let sql = op.sql();
        let r = match op {
            Op::Select(id) => rp
                .select("select", &sql, |r| r.len() == 1, true)
                .and_then(|()| rp.probe_point("select", "sbtest", &[Value::Int(id)])),
            Op::Range(_) => rp.select("range", &sql, |r| r.len() == 10, true),
            Op::Update(id) => {
                let db = &rig.db;
                let start = mono_now();
                let done = rp.dml("update", &sql, 1, |tr, session, at| {
                    replay_increment(tr, db, session, at, "sbtest", id, V_COL)
                });
                let unsure = done.error.is_some() as u32;
                writes.push(Write {
                    id,
                    conn: CONNS,
                    start,
                    end: mono_now(),
                    acked: done.acked,
                    unsure,
                });
                attempted += 2; // two more executions than the one counted below
                match done.error {
                    None => rp.probe_point("update", "sbtest", &[Value::Int(id)]),
                    Some(err) => Err(err),
                }
            }
        };
        attempted += 1;
        if let Err(err) = r {
            failed += 1;
            if errs.len() < 5 {
                errs.push(err);
            }
        }
    }
    Ok((rp, writes, attempted, failed, errs))
}

struct Check {
    /// Acknowledged increments still missing after settling.
    lost: u64,
    /// Increments that were missing right after the run but appeared
    /// while settling.
    stale: u64,
    unexplained: Vec<String>,
}

/// `SUM(v)` must equal the acknowledged increments. A row that ends up
/// short is a lost update; it counts as failed operations, and the run
/// stays correct only when every such row had overlapping UPDATEs from
/// two connections (the race ROADMAP item 1 describes).
fn end_check(rig: &Rig, writes: &[Write], report: &mut Vec<String>) -> BResult<Check> {
    let mut acked: HashMap<i64, u64> = HashMap::new();
    let mut unsure: HashMap<i64, u64> = HashMap::new();
    for w in writes {
        *acked.entry(w.id).or_default() += w.acked as u64;
        *unsure.entry(w.id).or_default() += w.unsure as u64;
    }
    let want: u64 = acked.values().sum();
    let max_unsure: u64 = unsure.values().sum();
    let mut c = rig.client()?;
    let sum_sql = "SELECT SUM(v) FROM sbtest";
    let (first, last) = rig::settle(std::time::Duration::from_secs(2), want as f64, || {
        rig::scalar(&mut c, sum_sql)
    })?;
    let mut unexplained = Vec::new();
    let rows = c
        .query("SELECT id, v FROM sbtest")
        .map_err(e("read back"))?;
    c.quit().map_err(e("quit"))?;
    if rows.len() != ROWS as usize {
        unexplained.push(format!("sbtest has {} rows, expected {ROWS}", rows.len()));
    }
    let mut lost = 0u64;
    let mut row_sum = 0.0;
    for row in &rows {
        let id = rig::num(row, 0)? as i64;
        let v = rig::num(row, 1)? as u64;
        row_sum += v as f64;
        let a = acked.get(&id).copied().unwrap_or(0);
        let u = unsure.get(&id).copied().unwrap_or(0);
        if v > a + u {
            unexplained.push(format!(
                "row {id}: v={v} exceeds {a} acked + {u} unsure increments"
            ));
        } else if v < a {
            let short = a - v;
            lost += short;
            let races = racing_pairs(writes, id);
            if races < short {
                unexplained.push(format!(
                    "row {id}: {short} acked increments lost with {races} racing UPDATE pairs"
                ));
            }
        }
    }
    if row_sum != last {
        unexplained.push(format!(
            "SUM(v) {last} differs from the rows' sum {row_sum}"
        ));
    }
    if last > (want + max_unsure) as f64 {
        unexplained.push(format!(
            "SUM(v) {last} exceeds {want} acked + {max_unsure} unsure"
        ));
    }
    let stale = (last - first).max(0.0) as u64;
    report.push(format!(
        "end check: SUM(v) right after the run {first}, settled {last}, acked increments {want} \
         ({max_unsure} unsure) · lost {lost} · stale-after-ack {stale}"
    ));
    Ok(Check {
        lost,
        stale,
        unexplained,
    })
}

/// Pairs of UPDATEs of row `id` from different connections whose
/// intervals overlap.
fn racing_pairs(writes: &[Write], id: i64) -> u64 {
    let on: Vec<&Write> = writes.iter().filter(|w| w.id == id).collect();
    let mut n = 0;
    for (i, a) in on.iter().enumerate() {
        for b in &on[i + 1..] {
            if a.conn != b.conn && a.start < b.end && b.start < a.end {
                n += 1;
            }
        }
    }
    n
}

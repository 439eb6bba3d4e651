//! The traced replay: per-layer self times from outside the program.
//!
//! Nothing inside the program is instrumented. Instead a sample of the
//! workload's statements is replayed, one statement at a time, through
//! successively lower public entry points, each timed from here:
//!
//! 1. `FrontClient` (client round trip; the server's own time comes
//!    from a second `FrontDoor` whose histogram only this replay feeds);
//! 2. `Session::query_statement` / `execute_statement` on a parsed AST;
//! 3. `polardbx_sql::parse`, and `build_plan` + `optimize_with_stats` +
//!    `classify_with_threshold`;
//! 4. `execute_plan` (TP) or `MppExecutor::execute` (AP) on
//!    `PolarDbx::provider`, or the statement's `DistTxn`
//!    begin/scan/write/commit (DML);
//! 5. `StorageEngine` scans under the level above.
//!
//! Each timing is a span (name, start, end, parent, request id). A
//! span's parent is the entry point one level up for the same request,
//! so a layer's self time is its span's duration minus its children's:
//! the time the upper entry point spends beyond the lower one. Spans are
//! kept in memory and written out as JSON lines at the end.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use polardbx_common::time::mono_now;

use polardbx::{PolarDbx, Session};
use polardbx_common::{Key, Row, Value};
use polardbx_executor::{exec_metrics, execute_plan, ExecCtx, MppExecutor, TableProvider};
use polardbx_front::{FrontClient, FrontDoor};
use polardbx_optimizer::{classify_with_threshold, optimize_with_stats, WorkloadClass};
use polardbx_sql::Statement;
use polardbx_txn::WireWriteOp;

use crate::rig::{e, BResult, Rig};
use crate::stats::{median, Tally};

/// Span names on the path of a statement, in report order.
const CHAIN: &[&str] = &[
    "front",
    "front.server",
    "sql.parse",
    "core",
    "optimizer.plan",
    "executor",
    "txn.begin",
    "txn.scan",
    "txn.write",
    "txn.commit",
    "storage.scan",
    "columnar.build",
];

/// A share of attributed time further than this from 1 is flagged.
const ATTRIBUTION_TOLERANCE: f64 = 0.10;

pub struct Span {
    pub parent: Option<usize>,
    pub req: u64,
    pub kind: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Identifies the request a span belongs to and its parent span.
#[derive(Clone, Copy)]
pub struct At {
    pub req: u64,
    pub kind: &'static str,
    pub parent: Option<usize>,
}

impl At {
    pub fn under(self, parent: usize) -> At {
        At {
            parent: Some(parent),
            ..self
        }
    }
}

/// In-memory span store; times are `mono_now()` readings.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    pub fn record(&mut self, at: At, name: &'static str, start: Duration, end: Duration) -> usize {
        self.spans.push(Span {
            parent: at.parent,
            req: at.req,
            kind: at.kind,
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.max(start).as_nanos() as u64,
        });
        self.spans.len() - 1
    }

    pub fn time<T>(&mut self, at: At, name: &'static str, f: impl FnOnce() -> T) -> (T, usize) {
        let start = mono_now();
        let out = f();
        let id = self.record(at, name, start, mono_now());
        (out, id)
    }

    /// Self time of every span: its duration minus its children's.
    fn self_us(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] -= s.us();
            }
        }
        out
    }

    fn durations(&self, names: &[&str], filter: impl Fn(&Span) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| names.contains(&s.name) && filter(s))
            .map(Span::us)
            .collect()
    }

    fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map(|p| p.to_string())
                .unwrap_or_else(|| "null".into());
            writeln!(
                f,
                "{{\"id\": {id}, \"parent\": {parent}, \"req\": {}, \"kind\": \"{}\", \
                 \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.req, s.kind, s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

/// Provider wrapper counting the rows and time the executor pulls from
/// storage: row-store partitions and column-index snapshots alike.
struct CountingProvider {
    inner: polardbx::ClusterProvider,
    rows: AtomicU64,
    ns: AtomicU64,
}

impl TableProvider for CountingProvider {
    fn partitions(&self, table: &str) -> usize {
        self.inner.partitions(table)
    }

    fn scan_partition(&self, table: &str, partition: usize) -> polardbx_common::Result<Vec<Row>> {
        let t0 = mono_now();
        let rows = self.inner.scan_partition(table, partition)?;
        self.ns.fetch_add(
            mono_now().saturating_sub(t0).as_nanos() as u64,
            Ordering::Relaxed,
        );
        self.rows.fetch_add(rows.len() as u64, Ordering::Relaxed);
        Ok(rows)
    }

    fn columnar(&self, table: &str) -> Option<polardbx_columnar::ColumnSnapshot> {
        let t0 = mono_now();
        let snap = self.inner.columnar(table)?;
        self.ns.fetch_add(
            mono_now().saturating_sub(t0).as_nanos() as u64,
            Ordering::Relaxed,
        );
        self.rows.fetch_add(snap.len() as u64, Ordering::Relaxed);
        Some(snap)
    }
}

/// Executor operator time of one AP replay, from `exec_metrics` deltas.
struct OpTimes {
    query: &'static str,
    scan_ms: f64,
    filter_ms: f64,
    join_ms: f64,
    aggregate_ms: f64,
    ap_wait_ms: f64,
}

fn op_nanos() -> [u64; 4] {
    let m = exec_metrics();
    [
        m.scan.nanos.get(),
        m.filter.nanos.get(),
        m.join.nanos.get(),
        m.aggregate.nanos.get(),
    ]
}

/// Drives the replay of one workload's sample.
pub struct Replayer<'a> {
    rig: &'a Rig,
    door: FrontDoor,
    client: FrontClient,
    session: Session,
    tracer: Tracer,
    next_req: u64,
    dml_reqs: HashSet<u64>,
    /// Per statement kind of the workload (the end check excluded): how
    /// many replayed SELECTs the optimizer classified TP and AP.
    classes: BTreeMap<&'static str, [u64; 2]>,
    /// Row-store rows the TP executor pulled, and rows it returned.
    tp_rows_scanned: u64,
    tp_rows_returned: u64,
    /// Storage scan volume for the rows-per-ms rate.
    scan_rows: u64,
    scan_ns: u64,
    ap_ops: Vec<OpTimes>,
}

/// Outcome of replaying one DML statement: how many executions were
/// acknowledged before the first error, if any.
pub struct Replayed {
    pub acked: u32,
    pub error: Option<String>,
}

impl<'a> Replayer<'a> {
    /// A replayer whose wire connection and session sit on the same CN.
    pub fn new(rig: &'a Rig) -> BResult<Replayer<'a>> {
        let door = rig.second_door()?;
        let client = FrontClient::connect(door.addr(), rig.tenant).map_err(e("connect"))?;
        let session = rig.db.connect_nth(client.cn() as usize);
        Ok(Replayer {
            rig,
            door,
            client,
            session,
            tracer: Tracer::default(),
            next_req: 0,
            dml_reqs: HashSet::new(),
            classes: BTreeMap::new(),
            tp_rows_scanned: 0,
            tp_rows_returned: 0,
            scan_rows: 0,
            scan_ns: 0,
            ap_ops: Vec::new(),
        })
    }

    fn at(&mut self, kind: &'static str) -> At {
        self.next_req += 1;
        At {
            req: self.next_req,
            kind,
            parent: None,
        }
    }

    /// Level 1: the statement over the wire, with the server's share.
    fn wire<T>(
        &mut self,
        at: At,
        f: impl FnOnce(&mut FrontClient) -> polardbx_common::Result<T>,
    ) -> BResult<(T, usize)> {
        let hist = &self.door.metrics().query_latency;
        hist.reset();
        let start = mono_now();
        let out = f(&mut self.client);
        let end = mono_now();
        let out = out.map_err(e("wire"))?;
        let front = self.tracer.record(at, "front", start, end);
        let server = hist.max().min(end - start);
        let server = self
            .tracer
            .record(at.under(front), "front.server", end - server, end);
        Ok((out, server))
    }

    /// Replay one SELECT. `check` validates the wire result; `classify`
    /// counts it towards the AP share (the workload's own statements,
    /// not the end check).
    pub fn select(
        &mut self,
        kind: &'static str,
        sql: &str,
        check: impl FnOnce(&[Row]) -> bool,
        classify: bool,
    ) -> BResult<()> {
        let at = self.at(kind);
        let (rows, server) = self.wire(at, |c| c.query(sql))?;
        if !check(&rows) {
            return Err(format!(
                "{kind}: wrong result over the wire ({} rows)",
                rows.len()
            ));
        }
        let (stmt, _) = self
            .tracer
            .time(at.under(server), "sql.parse", || polardbx_sql::parse(sql));
        let Statement::Select(sel) = stmt.map_err(e("parse"))? else {
            return Err(format!("{kind}: not a SELECT"));
        };
        let session = &self.session;
        let (r, core) = self.tracer.time(at.under(server), "core", || {
            session.query_statement(sql, &sel)
        });
        let (core_rows, _) = r.map_err(e("session"))?;
        let db = &self.rig.db;
        let threshold = self.rig.config.ap_threshold;
        let (planned, plan_span) = self.tracer.time(at.under(core), "optimizer.plan", || {
            let stats = db.gms().statistics();
            let plan = polardbx_sql::build_plan(&sel, db.gms().as_ref())?;
            let plan = optimize_with_stats(plan, &stats);
            let class = classify_with_threshold(&plan, &stats, threshold);
            polardbx_common::Result::Ok((plan, class))
        });
        let (plan, class) = planned.map_err(e("plan"))?;
        if classify {
            self.classes.entry(kind).or_default()[(class == WorkloadClass::Ap) as usize] += 1;
        }
        let provider = Arc::new(CountingProvider {
            inner: db.provider(true),
            rows: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        });
        let ops0 = op_nanos();
        let start = mono_now();
        let exec_rows = match class {
            WorkloadClass::Tp => execute_plan(&plan, provider.as_ref(), &ExecCtx::unrestricted()),
            WorkloadClass::Ap => {
                let mpp =
                    MppExecutor::with_pool(self.rig.config.mpp_workers, Arc::clone(db.workload()));
                let dynp: Arc<dyn TableProvider> = provider.clone();
                mpp.execute(&plan, &dynp, &ExecCtx::unrestricted())
            }
        };
        let end = mono_now();
        let exec_rows = exec_rows.map_err(e("executor"))?;
        let exec = self.tracer.record(at.under(core), "executor", start, end);
        let (scanned, scan_ns) = (
            provider.rows.load(Ordering::Relaxed),
            provider.ns.load(Ordering::Relaxed),
        );
        self.scan_rows += scanned;
        self.scan_ns += scan_ns;
        match class {
            WorkloadClass::Tp => {
                // Serial row-store scans: a true child of the executor.
                let scan_end = start + std::time::Duration::from_nanos(scan_ns);
                self.tracer
                    .record(at.under(exec), "storage.scan", start, scan_end);
                self.tp_rows_scanned += scanned;
                self.tp_rows_returned += exec_rows.len() as u64;
            }
            WorkloadClass::Ap => {
                let ops1 = op_nanos();
                let ms = |i: usize| (ops1[i] - ops0[i]) as f64 / 1e6;
                let core_us = self.tracer.spans[core].us();
                let plan_exec_us = self.tracer.spans[exec].us() + self.tracer.spans[plan_span].us();
                self.ap_ops.push(OpTimes {
                    query: kind,
                    scan_ms: ms(0),
                    filter_ms: ms(1),
                    join_ms: ms(2),
                    aggregate_ms: ms(3),
                    ap_wait_ms: (core_us - plan_exec_us) / 1e3,
                });
            }
        }
        if core_rows.len() != rows.len() || exec_rows.len() != rows.len() {
            return Err(format!(
                "{kind}: row counts differ across entry points (wire {}, session {}, executor {})",
                rows.len(),
                core_rows.len(),
                exec_rows.len()
            ));
        }
        Ok(())
    }

    /// Replay one DML statement: over the wire, through the session,
    /// then `l4` replays the statement's DistTxn work under the session
    /// span. Each level is a real, acknowledged execution.
    pub fn dml(
        &mut self,
        kind: &'static str,
        sql: &str,
        affected: u64,
        l4: impl FnOnce(&mut Tracer, &Session, At) -> BResult<()>,
    ) -> Replayed {
        let mut acked = 0;
        let r = (|| -> BResult<()> {
            let at = self.at(kind);
            self.dml_reqs.insert(at.req);
            let (n, server) = self.wire(at, |c| c.execute(sql))?;
            if n != affected {
                return Err(format!(
                    "{kind}: wire affected {n} rows, expected {affected}"
                ));
            }
            acked += 1;
            let (stmt, _) = self
                .tracer
                .time(at.under(server), "sql.parse", || polardbx_sql::parse(sql));
            let stmt = stmt.map_err(e("parse"))?;
            let session = &self.session;
            let (n, core) = self.tracer.time(at.under(server), "core", || {
                session.execute_statement(sql, &stmt)
            });
            let n = n.map_err(e("session"))?;
            if n != affected {
                return Err(format!(
                    "{kind}: session affected {n} rows, expected {affected}"
                ));
            }
            acked += 1;
            l4(&mut self.tracer, &self.session, at.under(core))?;
            acked += 1;
            Ok(())
        })();
        Replayed {
            acked,
            error: r.err(),
        }
    }

    /// A measurement outside the statement path (a probe): a root span.
    fn probe<T>(&mut self, kind: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let at = self.at(kind);
        self.tracer.time(at, name, f).0
    }

    /// Point probes on one key of `table`: `DistTxn::read` and
    /// `StorageEngine::read` on the owning DN.
    pub fn probe_point(&mut self, kind: &'static str, table: &str, pk: &[Value]) -> BResult<()> {
        let (stid, dn) = self.session.route(table, pk).map_err(e("route"))?;
        let key = Key::encode(pk);
        let engine = self.engine(dn)?;
        let (read_at, engine_at) = (self.at(kind), self.at(kind));
        let coord = self.session.coordinator();
        let (found, _) = self.tracer.time(read_at, "probe.txn.read", || {
            let mut txn = coord.begin();
            let r = txn.read(dn, stid, &key);
            txn.abort();
            r
        });
        if found.map_err(e("txn read"))?.is_none() {
            return Err(format!("{kind}: key {pk:?} missing at DistTxn::read"));
        }
        let ts = coord.clock().now().raw();
        let (found, _) = self.tracer.time(engine_at, "probe.storage.read", || {
            engine.read(stid, &key, ts, None)
        });
        if found.map_err(e("storage read"))?.is_none() {
            return Err(format!("{kind}: key {pk:?} missing at StorageEngine::read"));
        }
        Ok(())
    }

    pub fn probe_column_build(&mut self, kind: &'static str, table: &str) -> BResult<()> {
        let db = &self.rig.db;
        self.probe(kind, "probe.columnar.build", || {
            db.enable_column_index(table)
        })
        .map_err(e("enable_column_index"))
    }

    fn engine(&self, dn: polardbx_common::NodeId) -> BResult<Arc<polardbx_storage::StorageEngine>> {
        self.rig
            .db
            .dns()
            .into_iter()
            .find(|d| d.id == dn)
            .map(|d| Arc::clone(&d.rw.engine))
            .ok_or_else(|| format!("no DN {dn}"))
    }

    /// Per-kind self-time table, attribution against the untraced run,
    /// the span file, and the per-layer metrics.
    pub fn finish(
        self,
        workload: &str,
        seed: u64,
        untraced: &Tally,
        report: &mut Vec<String>,
    ) -> Vec<(&'static str, f64)> {
        let tr = &self.tracer;
        let selfs = tr.self_us();
        let path = format!("perfbench/out/spans-{workload}-{seed}.jsonl");
        match tr.write_jsonl(&path) {
            Ok(()) => report.push(format!("spans: {} written to {path}", tr.spans.len())),
            Err(err) => report.push(format!("spans: not written ({err})")),
        }

        let kinds: Vec<&'static str> = {
            let mut k: Vec<_> = tr.spans.iter().map(|s| s.kind).collect();
            k.sort();
            k.dedup();
            k
        };
        report.push(format!(
            "self time per layer, median us per statement kind (untraced p50 from the measured run; \
             shares off by more than {:.0} % are flagged):",
            ATTRIBUTION_TOLERANCE * 100.0
        ));
        let mut shares = Vec::new();
        let mut overheads = Vec::new();
        let mut flagged = 0u64;
        for kind in kinds {
            let mut cells = Vec::new();
            let mut sum = 0.0;
            for name in CHAIN {
                let v: Vec<f64> = tr
                    .spans
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.kind == kind && s.name == *name)
                    .map(|(i, _)| selfs[i])
                    .collect();
                if !v.is_empty() {
                    let m = median(&v);
                    sum += m;
                    cells.push(format!("{name}={m:.0}"));
                }
            }
            if cells.is_empty() {
                continue;
            }
            let traced = median(&tr.durations(&["front"], |s| s.kind == kind));
            let untraced_p50 = untraced.p50_us(kind);
            let tail = if untraced_p50 > 0.0 {
                let share = sum / untraced_p50;
                let overhead = (traced - untraced_p50) / untraced_p50 * 100.0;
                shares.push(share);
                overheads.push(overhead);
                let flag = (share - 1.0).abs() > ATTRIBUTION_TOLERANCE;
                flagged += flag as u64;
                format!(
                    "sum {sum:.0} / untraced p50 {untraced_p50:.0} = share {share:.3}{} · traced p50 {traced:.0} (overhead {overhead:+.1} %)",
                    if flag { " FLAGGED" } else { "" }
                )
            } else {
                format!(
                    "sum {sum:.0} · traced p50 {traced:.0} (end check; not in the measured mix)"
                )
            };
            report.push(format!("  {kind:<12} {} · {tail}", cells.join(" ")));
        }
        let mut ap_kinds: Vec<&str> = Vec::new();
        for o in &self.ap_ops {
            if !ap_kinds.contains(&o.query) {
                ap_kinds.push(o.query);
            }
        }
        for kind in ap_kinds {
            let ops: Vec<&OpTimes> = self.ap_ops.iter().filter(|o| o.query == kind).collect();
            let m = |f: fn(&OpTimes) -> f64| median(&ops.iter().map(|o| f(o)).collect::<Vec<_>>());
            report.push(format!(
                "  {kind:<12} AP executor, median ms per query: scan {:.1} · filter {:.1} · join {:.1} · \
                 aggregate {:.1} · ap_wait (session minus plan and ungoverned MPP) {:.1}",
                m(|o| o.scan_ms),
                m(|o| o.filter_ms),
                m(|o| o.join_ms),
                m(|o| o.aggregate_ms),
                m(|o| o.ap_wait_ms)
            ));
        }
        let classes: Vec<String> = self
            .classes
            .iter()
            .map(|(k, [tp, ap])| format!("{k} TP {tp} / AP {ap}"))
            .collect();
        report.push(format!("optimizer class per kind: {}", classes.join(" · ")));
        let (tp, ap) = self
            .classes
            .values()
            .fold((0, 0), |(t, a), [tp, ap]| (t + tp, a + ap));

        let self_of = |names: &[&str]| -> Vec<f64> {
            tr.spans
                .iter()
                .enumerate()
                .filter(|(_, s)| names.contains(&s.name))
                .map(|(i, _)| selfs[i])
                .collect()
        };
        let dur = |names: &[&str]| median(&tr.durations(names, |_| true));
        let is_dml = |s: &Span| self.dml_reqs.contains(&s.req);
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let fold = |v: &[f64], f: fn(f64, f64) -> f64| v.iter().copied().reduce(f).unwrap_or(0.0);
        vec![
            ("front.server_us", dur(&["front.server"])),
            ("front.self_us", median(&self_of(&["front"]))),
            ("sql.parse_us", dur(&["sql.parse"])),
            ("optimizer.plan_us", dur(&["optimizer.plan"])),
            ("optimizer.ap_share", ratio(ap, tp + ap)),
            (
                "core.query_us",
                median(&tr.durations(&["core"], |s| !is_dml(s))),
            ),
            ("core.dml_us", median(&tr.durations(&["core"], is_dml))),
            ("core.self_us", median(&self_of(&["core"]))),
            ("executor.exec_us", dur(&["executor"])),
            (
                "executor.rows_scanned_per_row",
                ratio(self.tp_rows_scanned, self.tp_rows_returned),
            ),
            ("txn.begin_us", dur(&["txn.begin"])),
            ("txn.read_us", dur(&["probe.txn.read"])),
            ("txn.scan_shards_us", dur(&["txn.scan"])),
            ("txn.write_us", dur(&["txn.write"])),
            ("txn.commit_us", dur(&["txn.commit"])),
            ("storage.read_us", dur(&["probe.storage.read"])),
            (
                "storage.scan_rows_per_ms",
                ratio(self.scan_rows * 1_000_000, self.scan_ns.max(1)),
            ),
            (
                "columnar.build_ms",
                dur(&["columnar.build", "probe.columnar.build"]) / 1e3,
            ),
            ("bench.tracing_overhead_pct", mean(&overheads)),
            ("bench.attributed_share_min", fold(&shares, f64::min)),
            ("bench.attributed_share_max", fold(&shares, f64::max)),
            ("bench.flagged_kinds", flagged as f64),
        ]
    }
}

/// Every committed row of `table`, read with `DistTxn::scan` shard by
/// shard inside one transaction (what DML matching does today).
fn scan_all_shards(
    db: &PolarDbx,
    coord: &polardbx_txn::Coordinator,
    table: &str,
) -> BResult<Vec<(u32, Key, Row)>> {
    let schema = db.gms().table(table).map_err(e("table"))?;
    let mut txn = coord.begin();
    let mut out = Vec::new();
    for shard in 0..schema.partition.shard_count() {
        let dn = db.gms().shard_dn(schema.id, shard).map_err(e("shard_dn"))?;
        let stid = polardbx::gms::shard_table_id(schema.id, shard);
        let rows = txn.scan(dn, stid, None, None).map_err(e("txn scan"))?;
        out.extend(rows.into_iter().map(|(k, r)| (shard, k, r)));
    }
    txn.abort();
    Ok(out)
}

/// Level 4 of a point UPDATE that adds 1 to column `col` of the row with
/// primary key `pk`, the way `Session::update` does it: match by
/// scanning every shard (with the level-5 storage scans as its child),
/// then write and commit in a second transaction; a table with a column
/// index then has it rebuilt, as the session does.
pub fn replay_increment(
    tr: &mut Tracer,
    db: &PolarDbx,
    session: &Session,
    at: At,
    table: &str,
    pk: i64,
    col: usize,
) -> BResult<()> {
    let coord = session.coordinator();
    let ((), _) = tr.time(at, "txn.begin", || coord.begin().abort());
    let (matched, scan) = tr.time(at, "txn.scan", || scan_all_shards(db, coord, table));
    let key = Key::encode(&[Value::Int(pk)]);
    let (shard, _, old) = matched?
        .into_iter()
        .find(|(_, k, _)| *k == key)
        .ok_or_else(|| format!("{table} row {pk} not found by DistTxn::scan"))?;
    // Level 5: the same shards scanned straight on their engines.
    let schema = db.gms().table(table).map_err(e("table"))?;
    let engines = db.dns();
    let ts = coord.clock().now().raw();
    let (scanned, _) = tr.time(at.under(scan), "storage.scan", || {
        let mut n = 0;
        for s in 0..schema.partition.shard_count() {
            let (dn, _) = db
                .gms()
                .shard_dn_fenced(schema.id, s)
                .map_err(e("shard_dn"))?;
            let stid = polardbx::gms::shard_table_id(schema.id, s);
            let engine = engines.iter().find(|d| d.id == dn).ok_or("no DN")?;
            n += engine
                .rw
                .engine
                .scan_table(stid, ts)
                .map_err(e("engine scan"))?
                .len();
        }
        BResult::Ok(n)
    });
    scanned?;
    let mut new = old.clone();
    let v = match old.get(col).map_err(e("column"))? {
        Value::Int(v) => *v,
        other => return Err(format!("{table}.{col} is not an integer: {other:?}")),
    };
    new.set(col, Value::Int(v + 1)).map_err(e("set"))?;
    let mut txn = coord.begin();
    let (w, _) = tr.time(at, "txn.write", || {
        let (dn, epoch) = db.gms().shard_dn_fenced(schema.id, shard)?;
        let stid = polardbx::gms::shard_table_id(schema.id, shard);
        txn.pin_epoch(stid, epoch)?;
        txn.write(dn, stid, key, WireWriteOp::Update(new))
    });
    w.map_err(e("txn write"))?;
    let (c, _) = tr.time(at, "txn.commit", || txn.commit());
    c.map_err(e("txn commit"))?;
    if db.gms().statistics().get(table).has_column_index {
        let (b, _) = tr.time(at, "columnar.build", || db.enable_column_index(table));
        b.map_err(e("enable_column_index"))?;
    }
    Ok(())
}

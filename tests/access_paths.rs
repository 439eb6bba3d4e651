//! Tier-1 tests for primary-key access paths and DML that reads inside
//! its own transaction:
//!
//! * concurrent `v = v + 1` UPDATEs of one row lose no acked increment;
//! * a seeded differential test: every SELECT, UPDATE and DELETE through
//!   the key access path agrees with a full-scan oracle, across predicate
//!   shapes, table layouts and a shard re-home;
//! * count-based bounds: point and short-range statements read only the
//!   rows their keys name from storage;
//! * an AP read whose RO replica has not caught up falls back to the RW
//!   engine and is counted, instead of serving a stale snapshot.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use polardbx::{ClusterConfig, PolarDbx};
use polardbx_common::testseed::{format_seed, seed_from_env};
use polardbx_common::{DcId, Row, Value};
use polardbx_optimizer::WorkloadClass;
use polardbx_sql::{KeyAccess, LogicalPlan, Statement};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cluster(shards: u32) -> PolarDbx {
    PolarDbx::build(ClusterConfig {
        dns: 2,
        default_shards: shards,
        ..Default::default()
    })
    .unwrap()
}

/// Sessions on different CNs: HLC-SI orders a statement after the commits
/// its own CN has seen; a commit acknowledged through the other CN becomes
/// visible once this CN's clock passes its timestamp, within a
/// millisecond. Tests that hand rows between sessions wait that out.
fn settle_clocks() {
    std::thread::sleep(Duration::from_millis(5));
}

/// Rows every DN's RW engine has returned from reads and scans so far.
fn rows_read(db: &PolarDbx) -> u64 {
    db.dns().iter().map(|d| d.rw.engine.rows_read()).sum()
}

#[test]
fn concurrent_session_increments_of_one_row_lose_no_update() {
    let db = cluster(4);
    let s = db.connect(DcId(1));
    s.execute("CREATE TABLE t (id BIGINT NOT NULL, v INT, PRIMARY KEY (id))")
        .unwrap();
    s.execute("INSERT INTO t (id, v) VALUES (1, 0), (2, 0)")
        .unwrap();
    settle_clocks();

    // Four sessions spread over the two CNs, all incrementing row 1.
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..4)
        .map(|n| {
            let session = db.connect_nth(n);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || -> (u64, Option<polardbx_common::Error>) {
                let mut acked = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    match session.execute("UPDATE t SET v = v + 1 WHERE id = 1") {
                        Ok(1) => acked += 1,
                        Ok(n) => {
                            let e = polardbx_common::Error::invalid(format!("matched {n}"));
                            return (acked, Some(e));
                        }
                        Err(e) => return (acked, Some(e)),
                    }
                }
                (acked, None)
            })
        })
        .collect();
    std::thread::sleep(Duration::from_secs(1));
    stop.store(true, Ordering::Relaxed);
    let mut acked = 0;
    for w in writers {
        let (n, err) = w.join().unwrap();
        assert!(
            err.is_none(),
            "write conflicts are retried, never surfaced: {err:?}"
        );
        acked += n;
    }
    assert!(acked > 0, "writers made progress");
    eprintln!("acked increments: {acked}");
    settle_clocks();
    let rows = s.query("SELECT v FROM t WHERE id = 1").unwrap();
    assert_eq!(
        rows[0].get(0).unwrap(),
        &Value::Int(acked as i64),
        "every acked increment is in the final value (no lost update)"
    );
    let rows = s.query("SELECT v FROM t WHERE id = 2").unwrap();
    assert_eq!(
        rows[0].get(0).unwrap(),
        &Value::Int(0),
        "the other row is untouched"
    );
    db.shutdown();
}

/// A test table: DDL, a value generator for its rows, and predicate atoms.
struct TableCase {
    name: &'static str,
    ddl: &'static str,
    columns: &'static [&'static str],
    row: fn(i64) -> Vec<Value>,
    atoms: fn(&mut StdRng) -> String,
}

/// A predicate atom on integer column `key` (values drawn from `span`,
/// which overhangs the stored keys on both sides), or on non-key `other`.
fn int_atom(rng: &mut StdRng, key: &str, other: &str, span: std::ops::Range<i64>) -> String {
    let mut lit = || rng.gen_range(span.clone());
    let (a, b, c) = (lit(), lit(), lit());
    match rng.gen_range(0..16) {
        0 | 1 => format!("{key} = {a}"),
        2 => format!("{key} IN ({a}, {b}, {c})"),
        3 => format!("{key} BETWEEN {} AND {}", a.min(b), a.max(b)),
        4 => format!("{key} BETWEEN {} AND {}", a.max(b), a.min(b)),
        5 => format!("{key} < {a}"),
        6 => format!("{key} <= {a}"),
        7 => format!("{key} > {a}"),
        8 => format!("{key} >= {a}"),
        9 => format!("{a} < {key}"),
        10 => format!("{key} = {a} OR {key} = {b}"),
        11 => format!("{key} = NULL"),
        12 => format!("{key} = {a}.0"),
        13 => format!("{key} = -{}", a.abs()),
        14 => format!("{other} > {}", c % 7),
        _ => format!("{other} IS NULL"),
    }
}

fn int_row(i: i64) -> Vec<Value> {
    let v = if i % 11 == 0 {
        Value::Null
    } else {
        Value::Int(i % 7)
    };
    vec![Value::Int(i), Value::Int(i % 5), v]
}

fn cases() -> Vec<TableCase> {
    vec![
        TableCase {
            name: "pk",
            ddl: "CREATE TABLE pk (id BIGINT NOT NULL, k INT, v INT, PRIMARY KEY (id)) \
                  PARTITION BY HASH(id) PARTITIONS 8",
            columns: &["id", "k", "v"],
            row: int_row,
            atoms: |rng| int_atom(rng, "id", "v", -3..52),
        },
        TableCase {
            // The partition key is not part of the primary key: no pruning,
            // every shard is read with the same bounded access.
            name: "byk",
            ddl: "CREATE TABLE byk (id BIGINT NOT NULL, k INT, v INT, PRIMARY KEY (id)) \
                  PARTITION BY HASH(k) PARTITIONS 4",
            columns: &["id", "k", "v"],
            row: int_row,
            atoms: |rng| {
                if rng.gen_bool(0.2) {
                    format!("k = {}", rng.gen_range(0..5))
                } else {
                    int_atom(rng, "id", "v", -3..52)
                }
            },
        },
        TableCase {
            // Composite key partitioned by its first column: prefix ranges.
            name: "comp",
            ddl: "CREATE TABLE comp (a BIGINT NOT NULL, b BIGINT NOT NULL, v INT, \
                  PRIMARY KEY (a, b)) PARTITION BY HASH(a) PARTITIONS 6",
            columns: &["a", "b", "v"],
            row: |i| vec![Value::Int(i / 6), Value::Int(i % 6), Value::Int(i % 7)],
            atoms: |rng| match rng.gen_range(0..4) {
                0 => int_atom(rng, "a", "v", -1..10),
                1 => format!("a = {}", rng.gen_range(-1..10)),
                2 => int_atom(rng, "b", "v", -1..8),
                _ => format!("b IN ({}, {})", rng.gen_range(0..7), rng.gen_range(0..7)),
            },
        },
        TableCase {
            name: "named",
            ddl: "CREATE TABLE named (name VARCHAR(8) NOT NULL, v INT, PRIMARY KEY (name)) \
                  PARTITION BY HASH(name) PARTITIONS 4",
            columns: &["name", "v"],
            row: |i| vec![Value::str(format!("n{i:02}")), Value::Int(i % 7)],
            atoms: |rng| {
                let n = |rng: &mut StdRng| format!("'n{:02}'", rng.gen_range(0..45));
                match rng.gen_range(0..6) {
                    0 | 1 => format!("name = {}", n(rng)),
                    2 => format!("name IN ({}, {})", n(rng), n(rng)),
                    3 => format!("name BETWEEN {} AND {}", n(rng), n(rng)),
                    4 => format!("name > {}", n(rng)),
                    _ => "name < 'n1'".to_string(),
                }
            },
        },
        TableCase {
            // No declared key: an implicit one the predicate cannot name.
            name: "nokey",
            ddl: "CREATE TABLE nokey (id BIGINT, v INT)",
            columns: &["id", "v"],
            row: |i| vec![Value::Int(i), Value::Int(i % 7)],
            atoms: |rng| int_atom(rng, "id", "v", -3..52),
        },
    ]
}

/// The full-scan oracle: `predicate` evaluated on every row of `rows`.
fn oracle(rows: &[Row], columns: &[&str], predicate: &str) -> Vec<Row> {
    let Statement::Select(sel) =
        polardbx_sql::parse(&format!("SELECT * FROM x WHERE {predicate}")).unwrap()
    else {
        unreachable!()
    };
    let names: Vec<String> = columns.iter().map(|c| c.to_string()).collect();
    let p = sel.predicate.unwrap().resolve(&names).unwrap();
    rows.iter()
        .filter(|r| p.eval_bool(r).unwrap())
        .cloned()
        .collect()
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| a.values().cmp(b.values()));
    rows
}

#[test]
fn access_paths_agree_with_full_scan_oracle() {
    let seed = seed_from_env(0xACCE_55ED);
    eprintln!("access-path seed: POLARDBX_TEST_SEED={}", format_seed(seed));
    let mut rng = StdRng::seed_from_u64(seed);
    let db = cluster(8);
    let s = db.connect(DcId(1));
    let dns = db.gms().dns();
    let mut bounded = 0;
    for case in cases() {
        s.execute(case.ddl).unwrap();
        let mut model: Vec<Row> = (0..48).map(|i| Row::new((case.row)(i))).collect();
        let values: Vec<String> = model
            .iter()
            .map(|r| {
                let vals: Vec<String> = r.values().iter().map(sql_literal).collect();
                format!("({})", vals.join(", "))
            })
            .collect();
        s.execute(&format!(
            "INSERT INTO {} ({}) VALUES {}",
            case.name,
            case.columns.join(", "),
            values.join(", ")
        ))
        .unwrap();
        let schema = db.gms().table(case.name).unwrap();
        for step in 0..120 {
            if step == 60 {
                // Half of the run after every shard moved to another DN.
                for shard in 0..schema.partition.shard_count() {
                    let cur = db.gms().shard_dn(schema.id, shard).unwrap();
                    let dest = *dns.iter().find(|&&d| d != cur).unwrap();
                    db.rehome_shard(case.name, shard, dest).unwrap();
                }
            }
            let atoms: Vec<String> = (0..rng.gen_range(1..=3))
                .map(|_| (case.atoms)(&mut rng))
                .collect();
            let predicate = atoms
                .iter()
                .map(|a| format!("({a})"))
                .collect::<Vec<_>>()
                .join(" AND ");
            let expected = oracle(&model, case.columns, &predicate);
            let select = format!("SELECT * FROM {} WHERE {predicate}", case.name);
            let got = s.query(&select).unwrap();
            assert_eq!(sorted(got), sorted(expected.clone()), "{select}");
            if !plan_access(&db, &select).is_full() {
                bounded += 1;
            }
            match rng.gen_range(0..4) {
                0 => {
                    let sql = format!("DELETE FROM {} WHERE {predicate}", case.name);
                    assert_eq!(s.execute(&sql).unwrap(), expected.len() as u64, "{sql}");
                    model.retain(|r| !expected.contains(r));
                }
                1 | 2 => {
                    let sql = format!("UPDATE {} SET v = v + 1 WHERE {predicate}", case.name);
                    assert_eq!(s.execute(&sql).unwrap(), expected.len() as u64, "{sql}");
                    let v = case.columns.iter().position(|c| *c == "v").unwrap();
                    for r in model.iter_mut().filter(|r| expected.contains(r)) {
                        let bumped = match r.get(v).unwrap() {
                            Value::Int(x) => Value::Int(x + 1),
                            other => other.clone(),
                        };
                        r.set(v, bumped).unwrap();
                    }
                }
                _ => {}
            }
            let all = s.query(&format!("SELECT * FROM {}", case.name)).unwrap();
            assert_eq!(
                sorted(all),
                sorted(model.clone()),
                "table after: {predicate}"
            );
        }
    }
    assert!(
        bounded > 100,
        "most generated predicates take a key access ({bounded})"
    );
    db.shutdown();
}

fn sql_literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Int(i) => i.to_string(),
        Value::Str(s) => format!("'{s}'"),
        other => panic!("no literal for {other:?}"),
    }
}

/// The key access of the (single) scan in `select`'s plan.
fn plan_access(db: &PolarDbx, select: &str) -> KeyAccess {
    let Statement::Select(sel) = polardbx_sql::parse(select).unwrap() else {
        unreachable!()
    };
    let mut plan = polardbx_sql::build_plan(&sel, db.gms().as_ref()).unwrap();
    loop {
        match plan {
            LogicalPlan::Scan { access, .. } => return access,
            LogicalPlan::Filter { input, .. } | LogicalPlan::Project { input, .. } => plan = *input,
            other => panic!("unexpected plan node {other:?}"),
        }
    }
}

#[test]
fn point_and_short_range_statements_read_only_their_keys() {
    const ROWS: i64 = 20_000;
    let db = cluster(8);
    let s = db.connect(DcId(1));
    s.execute(
        "CREATE TABLE sbtest (id BIGINT NOT NULL, k INT, v INT, PRIMARY KEY (id)) \
         PARTITION BY HASH(id) PARTITIONS 8",
    )
    .unwrap();
    for chunk in 0..ROWS / 1000 {
        let values: Vec<String> = (chunk * 1000..(chunk + 1) * 1000)
            .map(|i| format!("({i}, {}, 0)", i % 97))
            .collect();
        s.execute(&format!(
            "INSERT INTO sbtest (id, k, v) VALUES {}",
            values.join(",")
        ))
        .unwrap();
    }

    let before = rows_read(&db);
    let rows = s
        .query("SELECT id, k, v FROM sbtest WHERE id = 4242")
        .unwrap();
    assert_eq!(rows.len(), 1);
    let read = rows_read(&db) - before;
    assert!(read <= 1, "point SELECT read {read} rows from storage");

    let before = rows_read(&db);
    assert_eq!(
        s.execute("UPDATE sbtest SET v = v + 1 WHERE id = 4242")
            .unwrap(),
        1
    );
    let read = rows_read(&db) - before;
    assert!(read <= 1, "point UPDATE read {read} rows from storage");

    let range = "SELECT id, v FROM sbtest WHERE id BETWEEN 100 AND 109";
    let before = rows_read(&db);
    let (rows, class) = s.query_classified(range).unwrap();
    assert_eq!(rows.len(), 10);
    assert_eq!(
        class,
        WorkloadClass::Tp,
        "a 10-row key range is a TP statement"
    );
    let read = rows_read(&db) - before;
    assert!(
        read <= 10 + 8,
        "10-row range read {read} rows (10 plus one probe per shard)"
    );

    let before = rows_read(&db);
    assert_eq!(
        s.execute("DELETE FROM sbtest WHERE id IN (7, 8, 99999)")
            .unwrap(),
        2
    );
    let read = rows_read(&db) - before;
    assert!(read <= 2, "two-key DELETE read {read} rows from storage");

    // A non-key predicate still reads the table, and still answers right.
    let before = rows_read(&db);
    let rows = s
        .query("SELECT id FROM sbtest WHERE k = 5 AND v = 0")
        .unwrap();
    assert_eq!(
        rows.len(),
        (0..ROWS).filter(|i| i % 97 == 5 && *i != 4242).count()
    );
    assert!(rows_read(&db) - before >= (ROWS - 2) as u64);
    db.shutdown();
}

#[test]
fn lagging_ro_replica_falls_back_to_rw_and_counts_it() {
    let db = PolarDbx::build(ClusterConfig {
        dns: 2,
        ros_per_dn: 1,
        ..Default::default()
    })
    .unwrap();
    let s = db.connect(DcId(1));
    s.execute("CREATE TABLE kv (k BIGINT NOT NULL, v BIGINT, PRIMARY KEY (k))")
        .unwrap();
    s.execute("INSERT INTO kv (k, v) VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap();
    db.ship_now();
    // Production-scale statistics make the count an AP query, which reads
    // RO replicas.
    db.gms().record_rows("kv", 10_000_000);
    let (rows, class) = s.query_classified("SELECT COUNT(*) FROM kv").unwrap();
    assert_eq!(class, WorkloadClass::Ap);
    assert_eq!(rows[0].get(0).unwrap(), &Value::Int(3));
    assert_eq!(db.ro_fallbacks(), 0, "caught-up replicas serve AP reads");

    // Cut every replica off the redo stream, then commit more rows: the
    // replicas can never reach the session token.
    for dn in db.dns() {
        for ro in dn.rw.ros() {
            ro.disconnect();
        }
    }
    s.execute("INSERT INTO kv (k, v) VALUES (4, 40), (5, 50)")
        .unwrap();
    let (rows, class) = s.query_classified("SELECT COUNT(*) FROM kv").unwrap();
    assert_eq!(class, WorkloadClass::Ap);
    assert_eq!(
        rows[0].get(0).unwrap(),
        &Value::Int(5),
        "the AP read sees every committed row, not the stale replica"
    );
    assert!(db.ro_fallbacks() >= 1, "the fallback is counted");
    db.shutdown();
}

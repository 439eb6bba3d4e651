//! Tier-1 tests for incremental column-index maintenance: SQL DML applies
//! each statement's committed write set to the index at its commit
//! timestamp, and every reader runs the snapshot fence first.
//!
//! * (a) one writer increments random rows while a reader on the same CN
//!   alternates column-path `SUM`s and row-path reads: after every ack the
//!   sum equals the acks, and the reader's sums never decrease — across a
//!   re-home of every shard;
//! * (b) a two-row UPDATE whose rows sit on different DNs is never seen
//!   torn by reads on another CN, on either path, and a CN whose clock
//!   runs ahead gets repeatable snapshots (the clock fence);
//! * (c) an `enable_column_index` refresh racing a writer loses no acked
//!   update;
//! * (d) a query whose snapshot predates the index base reads the row
//!   store and still returns the full answer.
//!
//! Aggregates classify AP because the tests inflate the table statistics
//! (`record_rows`), and the clusters run one MPP worker so AP scans read
//! the index; each column-path check asserts the index served a snapshot.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use polardbx::{ClusterConfig, ClusterProvider, PolarDbx, Session};
use polardbx_columnar::ColumnIndex;
use polardbx_common::testseed::{format_seed, seed_from_env};
use polardbx_common::{DcId, NodeId, Value};
use polardbx_executor::TableProvider;
use polardbx_hlc::HlcTimestamp;
use polardbx_optimizer::WorkloadClass;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rows in the test table: more than any test's updates, so no
/// compaction raises the index base while a test reads.
const ROWS: i64 = 1000;

/// Two DNs, four shards, one MPP worker, and a table `t(id, v)` with
/// `ROWS` zero rows, statistics inflated so aggregates classify AP, and a
/// column index.
fn indexed_cluster() -> (PolarDbx, Arc<ColumnIndex>) {
    let db = PolarDbx::build(ClusterConfig {
        dns: 2,
        default_shards: 4,
        mpp_workers: 1,
        ..Default::default()
    })
    .unwrap();
    let s = db.connect(DcId(1));
    s.execute("CREATE TABLE t (id BIGINT NOT NULL, v INT, PRIMARY KEY (id))").unwrap();
    let values: Vec<String> = (0..ROWS).map(|i| format!("({i}, 0)")).collect();
    s.execute(&format!("INSERT INTO t (id, v) VALUES {}", values.join(","))).unwrap();
    db.gms().record_rows("t", 10_000_000);
    db.enable_column_index("t").unwrap();
    let index = db.column_index("t").unwrap();
    (db, index)
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(n) => *n,
        Value::Double(d) => *d as i64,
        other => panic!("not a number: {other:?}"),
    }
}

/// `SUM(v)` on the column path; panics unless the index served it.
fn column_sum(s: &Session, index: &ColumnIndex) -> i64 {
    let served = index.snapshots();
    let (rows, class) = s.query_classified("SELECT SUM(v) FROM t").unwrap();
    assert_eq!(class, WorkloadClass::Ap);
    assert!(index.snapshots() > served, "the column path served the SUM");
    int(rows[0].get(0).unwrap())
}

/// `v` of each of `ids` through row-store point reads (one statement,
/// one snapshot). A scan with a primary-key access never reads the index.
fn row_values(s: &Session, ids: &[i64]) -> Vec<i64> {
    let list: Vec<String> = ids.iter().map(i64::to_string).collect();
    let (rows, class) = s
        .query_classified(&format!("SELECT id, v FROM t WHERE id IN ({})", list.join(",")))
        .unwrap();
    assert_eq!(class, WorkloadClass::Tp);
    let mut rows: Vec<(i64, i64)> =
        rows.iter().map(|r| (int(r.get(0).unwrap()), int(r.get(1).unwrap()))).collect();
    rows.sort();
    assert_eq!(rows.len(), ids.len());
    rows.into_iter().map(|(_, v)| v).collect()
}

/// `v` of rows `a` and `b` on the column path (a full AP scan).
fn column_pair(s: &Session, index: &ColumnIndex, a: i64, b: i64) -> (i64, i64) {
    let served = index.snapshots();
    let (rows, class) = s.query_classified("SELECT id, v FROM t").unwrap();
    assert_eq!(class, WorkloadClass::Ap);
    assert!(index.snapshots() > served, "the column path served the scan");
    let v = |id: i64| {
        let row = rows.iter().find(|r| int(r.get(0).unwrap()) == id).expect("row present");
        int(row.get(1).unwrap())
    };
    (v(a), v(b))
}

/// `SUM(v)` over `t` read straight through a provider: its column snapshot,
/// or its row-store partitions.
fn provider_sum(p: &ClusterProvider, columnar: bool) -> i64 {
    let rows = if columnar {
        p.columnar("t").expect("the provider's snapshot is at or above the base").rows()
    } else {
        (0..p.partitions("t")).flat_map(|i| p.scan_partition("t", i).unwrap()).collect()
    };
    rows.iter().map(|r| int(r.get(1).unwrap())).sum()
}

/// Move every shard of `t` to the other DN.
fn rehome_all(db: &PolarDbx) {
    let schema = db.gms().table("t").unwrap();
    let dns: Vec<NodeId> = db.dns().iter().map(|d| d.id).collect();
    for shard in 0..schema.partition.shard_count() {
        let home = db.gms().shard_dn(schema.id, shard).unwrap();
        let dest = *dns.iter().find(|&&d| d != home).unwrap();
        db.rehome_shard("t", shard, dest).unwrap();
    }
}

/// Runs `SET v = v + 1` on random rows until `stop`; counts acks.
fn spawn_incrementer(
    s: Session,
    seed: u64,
    acked: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(seed);
        while !stop.load(Ordering::Relaxed) {
            let id = rng.gen_range(0..ROWS);
            let n = s.execute(&format!("UPDATE t SET v = v + 1 WHERE id = {id}")).unwrap();
            assert_eq!(n, 1);
            acked.fetch_add(1, Ordering::SeqCst);
        }
    })
}

#[test]
fn acked_updates_are_in_every_later_column_snapshot() {
    let seed = seed_from_env(0xc01_1dec);
    eprintln!("seed {}", format_seed(seed));
    let (db, index) = indexed_cluster();
    let writer = db.connect_nth(0);
    let reader = db.connect_nth(0);
    let updates = 240u64;
    let served = index.snapshots();
    let acked = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let reads = {
        let (acked, done, index) = (Arc::clone(&acked), Arc::clone(&done), Arc::clone(&index));
        std::thread::spawn(move || {
            let all: Vec<i64> = (0..ROWS).collect();
            let mut last = 0i64;
            let mut n = 0u64;
            while !done.load(Ordering::SeqCst) {
                let lo = acked.load(Ordering::SeqCst) as i64;
                // Alternate the paths: neither may run behind the other.
                let sum = if n.is_multiple_of(2) {
                    column_sum(&reader, &index)
                } else {
                    row_values(&reader, &all).iter().sum()
                };
                let hi = acked.load(Ordering::SeqCst) as i64;
                assert!(sum >= lo, "read {n} misses acked updates: sum {sum} < acked {lo}");
                assert!(sum <= hi + 1, "read {n} sees updates never made: {sum} > {hi} + 1");
                assert!(sum >= last, "read {n} went back in time: {sum} after {last}");
                last = sum;
                n += 1;
            }
            n
        })
    };
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 1..=updates {
        if i == updates / 2 {
            rehome_all(&db);
        }
        let id = rng.gen_range(0..ROWS);
        assert_eq!(writer.execute(&format!("UPDATE t SET v = v + 1 WHERE id = {id}")).unwrap(), 1);
        acked.store(i, Ordering::SeqCst);
        assert_eq!(column_sum(&writer, &index), i as i64, "SUM right after ack {i}");
    }
    done.store(true, Ordering::SeqCst);
    let reads = reads.join().unwrap();
    assert!(reads > 0, "the reader ran");
    eprintln!("reader checked {reads} sums");
    // Every column-path SUM — the writer's after each ack, the reader's on
    // even reads — was served by the index, not the row-store fallback.
    assert_eq!(index.snapshots() - served, updates + reads.div_ceil(2));
    assert!(index.physical_rows() <= 2 * index.live_rows() + 64);
    db.shutdown();
}

#[test]
fn multi_dn_update_is_never_seen_torn() {
    let (db, index) = indexed_cluster();
    let writer = db.connect_nth(0);
    let reader = db.connect_nth(1);
    assert_ne!(writer.cn_id(), reader.cn_id());
    // Two rows whose shards live on different DNs.
    let dn = |id: i64| writer.route("t", &[Value::Int(id)]).unwrap().1;
    let (a, b) = (0, (1..ROWS).find(|&id| dn(id) != dn(0)).unwrap());
    let pair = format!("UPDATE t SET v = v + 1 WHERE id IN ({a}, {b})");

    let done = Arc::new(AtomicBool::new(false));
    let writes = {
        let (done, pair) = (Arc::clone(&done), pair.clone());
        std::thread::spawn(move || {
            for _ in 0..400 {
                assert_eq!(writer.execute(&pair).unwrap(), 2);
            }
            done.store(true, Ordering::SeqCst);
        })
    };
    let mut last = 0;
    let mut i = 0u32;
    while !done.load(Ordering::SeqCst) {
        i += 1;
        let (va, vb) = if i.is_multiple_of(2) {
            column_pair(&reader, &index, a, b)
        } else {
            let v = row_values(&reader, &[a, b]);
            (v[0], v[1])
        };
        assert_eq!(va, vb, "read {i} saw half of a two-row UPDATE");
        assert!(va >= last, "read {i} went back in time: {va} after {last}");
        last = va;
    }
    writes.join().unwrap();
    assert!(i > 1, "the reader raced the writer");

    // The clock fence, deterministically: a CN whose clock runs 100 ms
    // ahead of the DNs opens a snapshot; a later commit must land above
    // it on both paths, or the same snapshot would read two answers.
    let ahead = db.connect_nth(0);
    let clock = ahead.coordinator().clock();
    clock.update(HlcTimestamp::from_raw(clock.now().raw() + (100 << 16)));
    for columnar in [false, true] {
        let provider = db.provider(columnar);
        let before = provider_sum(&provider, columnar);
        reader.execute(&pair).unwrap();
        let after = provider_sum(&provider, columnar);
        assert_eq!(before, after, "a commit after the snapshot (columnar: {columnar}) is visible to it");
    }
    db.shutdown();
}

#[test]
fn refresh_racing_a_writer_loses_no_acked_update() {
    let seed = seed_from_env(0x05ee_dc01);
    eprintln!("seed {}", format_seed(seed));
    let (db, index) = indexed_cluster();
    let s = db.connect_nth(0);
    let acked = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let writer =
        spawn_incrementer(db.connect_nth(0), seed, Arc::clone(&acked), Arc::clone(&stop));
    for i in 0..20 {
        let lo = acked.load(Ordering::SeqCst) as i64;
        db.enable_column_index("t").unwrap();
        let sum = column_sum(&s, &index);
        assert!(sum >= lo, "refresh {i} lost acked updates: sum {sum} < acked {lo}");
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    let acked = acked.load(Ordering::SeqCst) as i64;
    assert!(acked > 0, "the writer made progress");
    assert_eq!(column_sum(&s, &index), acked, "every acked update is in the index");
    db.shutdown();
}

#[test]
fn snapshot_below_the_index_base_reads_the_row_store() {
    let (db, _) = indexed_cluster();
    let s = db.connect_nth(0);
    s.execute("UPDATE t SET v = 1 WHERE id < 50").unwrap();
    // Rebuild from a CN whose clock runs 100 ms ahead: the new base is
    // above every snapshot the other CN takes for a while.
    let clock = db.connect_nth(0).coordinator().clock().clone();
    clock.update(HlcTimestamp::from_raw(clock.now().raw() + (100 << 16)));
    db.enable_column_index("t").unwrap();
    let index = db.column_index("t").unwrap();
    let behind = db.connect_nth(1);
    assert!(behind.coordinator().clock().now().raw() < index.base_ts());
    let served = index.snapshots();
    let (rows, class) = behind.query_classified("SELECT SUM(v), COUNT(*) FROM t").unwrap();
    assert_eq!(class, WorkloadClass::Ap);
    assert_eq!(index.snapshots(), served, "below the base the index serves nothing");
    assert_eq!((int(rows[0].get(0).unwrap()), int(rows[0].get(1).unwrap())), (50, ROWS));
    // At or above the base the same query reads the index.
    assert_eq!(column_sum(&s, &index), 50);
    db.shutdown();
}

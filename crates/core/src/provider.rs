//! The executor's view of the cluster: partitioned scans, point reads and
//! bounded key-range scans over DN shards.

use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;
use std::time::Duration;

use polardbx_columnar::{ColumnSnapshot, SnapshotPin};
use polardbx_common::time::mono_now;
use polardbx_common::{Error, Result, Row, TableId, TableSchema};
use polardbx_executor::TableProvider;
use polardbx_sql::KeyAccess;
use polardbx_storage::StorageEngine;

use crate::gms::{shard_table_id, Gms};

/// A snapshot-consistent provider over a set of DN engines (the RW engines
/// for in-place execution, or RO-replica engines when AP traffic is
/// rerouted, §VI-A). One provider serves one query. Build it only after
/// the cluster's snapshot fence ran at its timestamp (`PolarDbx::provider`
/// and the session's query path do).
pub struct ClusterProvider {
    gms: Arc<Gms>,
    engines: HashMap<polardbx_common::NodeId, Arc<StorageEngine>>,
    snapshot_ts: u64,
    /// The provider's registration with each column index, held until it
    /// drops so compaction keeps what this snapshot can see.
    column_pins: HashMap<String, SnapshotPin>,
}

impl ClusterProvider {
    /// Build a provider reading `engines` at `snapshot_ts`.
    pub fn new(
        gms: Arc<Gms>,
        engines: HashMap<polardbx_common::NodeId, Arc<StorageEngine>>,
        snapshot_ts: u64,
    ) -> ClusterProvider {
        ClusterProvider { gms, engines, snapshot_ts, column_pins: HashMap::new() }
    }

    /// Attach column indexes for the columnar path: table name → the
    /// index's registration of this provider's snapshot
    /// ([`ColumnIndex::pin`] at `snapshot_ts`), held until the provider
    /// drops.
    ///
    /// [`ColumnIndex::pin`]: polardbx_columnar::ColumnIndex::pin
    pub fn with_column_pins(mut self, pins: HashMap<String, SnapshotPin>) -> ClusterProvider {
        self.column_pins = pins;
        self
    }

    /// The provider's snapshot timestamp.
    pub fn snapshot_ts(&self) -> u64 {
        self.snapshot_ts
    }

    /// Run `read` on the engine holding `shard` of `schema`'s table. A
    /// live re-home detaches the shard's store before the catalog names
    /// its new home, so a read in between finds no table: follow the
    /// shard and read again. The store moves with all its versions, so
    /// the retried read at the same snapshot returns the same rows.
    pub(crate) fn read_shard<T>(
        &self,
        schema: &TableSchema,
        shard: u32,
        read: impl Fn(&StorageEngine, TableId) -> Result<T>,
    ) -> Result<T> {
        let stid = shard_table_id(schema.id, shard);
        let deadline = mono_now() + Duration::from_secs(2);
        loop {
            let dn = self.gms.shard_dn(schema.id, shard)?;
            let engine = self
                .engines
                .get(&dn)
                .ok_or_else(|| Error::execution(format!("no engine for {dn}")))?;
            match read(engine, stid) {
                Err(Error::UnknownTable { .. }) if mono_now() < deadline => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                other => return other,
            }
        }
    }
}

/// `row` without the implicit primary key, which SQL output never shows.
fn visible(schema: &TableSchema, row: Row) -> Row {
    let visible = schema.visible_arity();
    if row.arity() > visible {
        Row::new(row.into_values().into_iter().take(visible).collect())
    } else {
        row
    }
}

impl TableProvider for ClusterProvider {
    fn partitions(&self, table: &str) -> usize {
        self.gms
            .table(table)
            .map(|s| s.partition.shard_count() as usize)
            .unwrap_or(0)
    }

    fn scan_partition(&self, table: &str, partition: usize) -> Result<Vec<Row>> {
        let schema = self.gms.table(table)?;
        let rows = self.read_shard(&schema, partition as u32, |engine, stid| {
            engine.scan_table(stid, self.snapshot_ts)
        })?;
        Ok(rows.into_iter().map(|(_, row)| visible(&schema, row)).collect())
    }

    /// Point reads and bounded scans on the shards the access names (every
    /// shard when it names none).
    fn scan_access(&self, table: &str, access: &KeyAccess) -> Result<Vec<Row>> {
        let schema = self.gms.table(table)?;
        let shards = access.shards(schema.partition.shard_count());
        let mut out = Vec::new();
        for shard in shards {
            let rows = self.read_shard(&schema, shard, |engine, stid| {
                let (lo, hi) = match access {
                    KeyAccess::Point(_) => {
                        let mut rows = Vec::new();
                        for key in access.keys_on(shard) {
                            if let Some(row) = engine.read(stid, key, self.snapshot_ts, None)? {
                                rows.push(row);
                            }
                        }
                        return Ok(rows);
                    }
                    KeyAccess::Range { lo, hi, .. } => (lo.as_ref(), hi.as_ref()),
                    KeyAccess::Full => (None, None),
                };
                let lo = lo.map_or(Bound::Unbounded, Bound::Included);
                let hi = hi.map_or(Bound::Unbounded, Bound::Excluded);
                let rows = engine.scan(stid, lo, hi, self.snapshot_ts, None)?;
                Ok(rows.into_iter().map(|(_, row)| row).collect())
            })?;
            out.extend(rows.into_iter().map(|row| visible(&schema, row)));
        }
        Ok(out)
    }

    /// The index at exactly the provider's snapshot; `None` (read the row
    /// store) for a table without an index or a snapshot below its base.
    fn columnar(&self, table: &str) -> Option<ColumnSnapshot> {
        self.column_pins.get(table)?.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_common::{ColumnDef, DataType, NodeId, TableSchema, TenantId, TrxId, Value};
    use polardbx_storage::WriteOp;

    fn setup() -> (Arc<Gms>, HashMap<NodeId, Arc<StorageEngine>>, TableSchema) {
        let gms = Gms::new();
        gms.register_dn(NodeId(1));
        gms.register_dn(NodeId(2));
        let id = gms.next_table_id();
        let schema = TableSchema::hash_on_pk(
            id,
            "t",
            vec![
                ColumnDef::new("id", DataType::Int).not_null(),
                ColumnDef::new("v", DataType::Int),
            ],
            vec!["id".into()],
            4,
        )
        .unwrap();
        gms.create_table(schema.clone()).unwrap();
        let mut engines = HashMap::new();
        for n in [NodeId(1), NodeId(2)] {
            engines.insert(n, StorageEngine::in_memory());
        }
        // Register every shard table on its placed engine and insert one row
        // per shard, committed at ts 10.
        for shard in 0..4 {
            let dn = gms.shard_dn(schema.id, shard).unwrap();
            let stid = shard_table_id(schema.id, shard);
            let engine = &engines[&dn];
            engine.create_table(stid, TenantId(1));
            let trx = TrxId(100 + shard as u64);
            engine.begin(trx, 0);
            engine
                .write(
                    trx,
                    stid,
                    polardbx_common::Key::encode(&[Value::Int(shard as i64)]),
                    WriteOp::Insert(polardbx_common::Row::new(vec![
                        Value::Int(shard as i64),
                        Value::Int(7),
                    ])),
                )
                .unwrap();
            engine.commit(trx, 10).unwrap();
        }
        (gms, engines, schema)
    }

    #[test]
    fn partitions_follow_catalog() {
        let (gms, engines, _schema) = setup();
        let p = ClusterProvider::new(Arc::clone(&gms), engines, 100);
        assert_eq!(polardbx_executor::TableProvider::partitions(&p, "t"), 4);
        assert_eq!(polardbx_executor::TableProvider::partitions(&p, "nope"), 0);
    }

    #[test]
    fn scan_respects_snapshot() {
        let (gms, engines, _schema) = setup();
        let fresh = ClusterProvider::new(Arc::clone(&gms), engines.clone(), 100);
        let stale = ClusterProvider::new(Arc::clone(&gms), engines, 5);
        use polardbx_executor::TableProvider;
        let all: usize =
            (0..4).map(|s| fresh.scan_partition("t", s).unwrap().len()).sum();
        assert_eq!(all, 4);
        let none: usize =
            (0..4).map(|s| stale.scan_partition("t", s).unwrap().len()).sum();
        assert_eq!(none, 0, "snapshot before commits sees nothing");
    }

    #[test]
    fn columnar_snapshot_is_exact_and_absent_below_the_base() {
        use polardbx_columnar::{ColumnIndex, IndexOp};
        use polardbx_executor::TableProvider;
        let (gms, engines, _schema) = setup();
        let index = ColumnIndex::new(vec![DataType::Int, DataType::Int]);
        index.load(40, Vec::new()).unwrap();
        let key = polardbx_common::Key::encode(&[Value::Int(1)]);
        let row = polardbx_common::Row::new(vec![Value::Int(1), Value::Int(1)]);
        index.apply_commit(50, &[IndexOp::Put(key, row)]).unwrap();
        let provider = |ts: u64| {
            ClusterProvider::new(Arc::clone(&gms), engines.clone(), ts)
                .with_column_pins([("t".to_string(), index.pin(ts))].into())
        };
        // At or above the base: the index at exactly the snapshot.
        assert_eq!(provider(45).columnar("t").unwrap().len(), 0);
        let p = provider(1_000);
        let snap = p.columnar("t").unwrap();
        assert_eq!((snap.ts, snap.len()), (1_000, 1));
        assert!(p.columnar("other").is_none());
        // Below the base the provider has no column snapshot: the executor
        // reads the row store.
        assert!(provider(39).columnar("t").is_none());
    }
}

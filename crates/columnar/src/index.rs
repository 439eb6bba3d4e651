//! The per-table column index with commit-timestamp visibility.
//!
//! Rows are append-only: an update appends the new image and tombstones the
//! old one; each image carries `(created_ts, deleted_ts)` so a snapshot at
//! `ts` selects images with `created_ts <= ts < deleted_ts`. The timestamps
//! are the row store's commit timestamps, which is what lets a hybrid plan
//! read both stores under one snapshot (§VI-E).
//!
//! The index is loaded once from a row-store scan at its *base* timestamp
//! and then maintained by [`ColumnIndex::apply_commit`], one call per
//! committed statement. It answers snapshots at or above the base only; a
//! reader below it must read the row store. Compaction drops images no
//! open reader can see and raises the base to its horizon.

use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use polardbx_common::{DataType, Key, Result, Row, Value};

use crate::column::ColumnData;

/// One committed row operation, as applied to a column index.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexOp {
    /// Insert or update: the row's new image.
    Put(Key, Row),
    /// Delete.
    Delete(Key),
}

/// Live-from marker for an image nobody deleted yet.
const LIVE: u64 = u64::MAX;

/// Tombstones below which a compaction is not worth its O(table) pass,
/// however few rows are live.
const COMPACT_MIN: usize = 64;

struct IndexState {
    columns: Vec<ColumnData>,
    created: Vec<u64>,
    deleted: Vec<u64>,
    /// Primary key → current image.
    key_index: HashMap<Key, usize>,
    /// Oldest snapshot the index can answer: the load timestamp, raised by
    /// compaction. `u64::MAX` until loaded, and after an invalidation.
    base_ts: u64,
    /// Highest applied commit timestamp.
    watermark: u64,
    /// Snapshot timestamps of open readers (multiset).
    readers: BTreeMap<u64, usize>,
    /// Tombstoned images the last compaction kept for open readers.
    retained: usize,
}

impl IndexState {
    fn empty(types: &[DataType]) -> IndexState {
        IndexState {
            columns: types.iter().map(|t| ColumnData::new(*t)).collect(),
            created: Vec::new(),
            deleted: Vec::new(),
            key_index: HashMap::new(),
            base_ts: LIVE,
            watermark: 0,
            readers: BTreeMap::new(),
            retained: 0,
        }
    }

    fn push(&mut self, key: Key, row: &Row, created: u64) -> Result<()> {
        for (i, col) in self.columns.iter_mut().enumerate() {
            // Rows shorter than the index schema pad with NULLs.
            col.push(row.values().get(i).unwrap_or(&Value::Null))?;
        }
        self.created.push(created);
        self.deleted.push(LIVE);
        self.key_index.insert(key, self.created.len() - 1);
        Ok(())
    }

    fn tombstoned(&self) -> usize {
        self.created.len() - self.key_index.len()
    }
}

/// The in-memory column index for one table.
pub struct ColumnIndex {
    types: Vec<DataType>,
    state: RwLock<IndexState>,
    /// Snapshots served (tests prove which path answered a query).
    snapshots: AtomicU64,
}

impl ColumnIndex {
    /// An index over columns of the given types. It answers no snapshot
    /// until [`ColumnIndex::load`]ed.
    pub fn new(types: Vec<DataType>) -> Arc<ColumnIndex> {
        let state = RwLock::new(IndexState::empty(&types));
        Arc::new(ColumnIndex { types, state, snapshots: AtomicU64::new(0) })
    }

    /// Replace the contents with `rows`, read from the row store at
    /// `base_ts`. The swap is one write-lock step: a concurrent snapshot
    /// sees the old contents or the new, never a missing index. Open
    /// readers stay registered. On the served path the caller holds the
    /// write gate exclusively, so no commit is applied meanwhile.
    pub fn load(&self, base_ts: u64, rows: impl IntoIterator<Item = (Key, Row)>) -> Result<()> {
        let mut fresh = IndexState::empty(&self.types);
        for (key, row) in rows {
            fresh.push(key, &row, base_ts)?;
        }
        fresh.base_ts = base_ts;
        fresh.watermark = base_ts;
        let mut st = self.state.write();
        fresh.readers = std::mem::take(&mut st.readers);
        *st = fresh;
        Ok(())
    }

    /// Stop answering snapshots until the next [`ColumnIndex::load`]: the
    /// contents may miss a commit (an in-doubt outcome or a failed apply).
    pub fn invalidate(&self) {
        self.state.write().base_ts = LIVE;
    }

    /// Apply one committed statement's write set at `commit_ts` under one
    /// write lock, then compact when tombstoned images outnumber live ones
    /// (counting only those a compaction could drop).
    pub fn apply_commit(&self, commit_ts: u64, ops: &[IndexOp]) -> Result<()> {
        let mut st = self.state.write();
        for op in ops {
            let key = match op {
                IndexOp::Put(key, _) | IndexOp::Delete(key) => key,
            };
            if let Some(old) = st.key_index.remove(key) {
                st.deleted[old] = commit_ts;
            }
            if let IndexOp::Put(key, row) = op {
                st.push(key.clone(), row, commit_ts)?;
            }
        }
        st.watermark = st.watermark.max(commit_ts);
        if st.tombstoned().saturating_sub(st.retained) > st.key_index.len().max(COMPACT_MIN) {
            // Nothing below the oldest open reader — or, with none open,
            // below the watermark — is readable through the index again.
            let horizon = st.readers.keys().next().copied().unwrap_or(st.watermark);
            Self::compact(&self.types, &mut st, horizon);
        }
        Ok(())
    }

    /// Drop images deleted at or before `horizon` and raise the base to
    /// it: a snapshot below the horizon could miss a dropped image.
    fn compact(types: &[DataType], st: &mut IndexState, horizon: u64) {
        let keep: Vec<usize> = (0..st.created.len()).filter(|&i| st.deleted[i] > horizon).collect();
        let mut columns: Vec<ColumnData> = types.iter().map(|t| ColumnData::new(*t)).collect();
        let mut created = Vec::with_capacity(keep.len());
        let mut deleted = Vec::with_capacity(keep.len());
        let mut remap = vec![usize::MAX; st.created.len()];
        for (new_id, &old_id) in keep.iter().enumerate() {
            for (c, col) in columns.iter_mut().enumerate() {
                col.push(&st.columns[c].get(old_id)).expect("same type");
            }
            created.push(st.created[old_id]);
            deleted.push(st.deleted[old_id]);
            remap[old_id] = new_id;
        }
        for id in st.key_index.values_mut() {
            *id = remap[*id];
        }
        st.columns = columns;
        st.created = created;
        st.deleted = deleted;
        st.retained = st.tombstoned();
        st.base_ts = st.base_ts.max(horizon);
    }

    /// Oldest snapshot timestamp the index answers (`u64::MAX` when it
    /// answers none).
    pub fn base_ts(&self) -> u64 {
        self.state.read().base_ts
    }

    /// Total physical images (including tombstoned ones).
    pub fn physical_rows(&self) -> usize {
        self.state.read().created.len()
    }

    /// Live rows (current images).
    pub fn live_rows(&self) -> usize {
        self.state.read().key_index.len()
    }

    /// Snapshots served so far.
    pub fn snapshots(&self) -> u64 {
        self.snapshots.load(Ordering::Relaxed)
    }

    /// Snapshot the index at `ts`: a consistent selection + column access,
    /// or `None` when `ts` is below the base (read the row store instead).
    pub fn snapshot(&self, ts: u64) -> Option<ColumnSnapshot> {
        let st = self.state.read();
        if st.base_ts == LIVE || ts < st.base_ts {
            return None;
        }
        let selection: Vec<u32> = (0..st.created.len())
            .filter(|&i| st.created[i] <= ts && (st.deleted[i] == LIVE || ts < st.deleted[i]))
            .map(|i| i as u32)
            .collect();
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        Some(ColumnSnapshot { columns: st.columns.clone(), selection, ts })
    }

    /// Register a reader at `ts`: compaction keeps every image visible at
    /// `ts` until the returned pin drops.
    pub fn pin(self: &Arc<Self>, ts: u64) -> SnapshotPin {
        *self.state.write().readers.entry(ts).or_insert(0) += 1;
        SnapshotPin { index: Arc::clone(self), ts }
    }
}

/// An open reader's registration with one index (see [`ColumnIndex::pin`]).
pub struct SnapshotPin {
    index: Arc<ColumnIndex>,
    ts: u64,
}

impl SnapshotPin {
    /// The index's snapshot at the pinned timestamp.
    pub fn snapshot(&self) -> Option<ColumnSnapshot> {
        self.index.snapshot(self.ts)
    }
}

impl Drop for SnapshotPin {
    fn drop(&mut self) {
        let mut st = self.index.state.write();
        if let Some(n) = st.readers.get_mut(&self.ts) {
            *n -= 1;
            if *n == 0 {
                st.readers.remove(&self.ts);
                // The horizon may have moved: what the last compaction had
                // to keep may be droppable now.
                st.retained = 0;
            }
        }
    }
}

/// A consistent view of the index at one timestamp: cloned column vectors
/// plus the selection of live row ids. Cloning columns keeps the snapshot
/// immune to concurrent maintenance (simple, and snapshots are short-lived
/// per query in the executor).
pub struct ColumnSnapshot {
    /// The column vectors.
    pub columns: Vec<ColumnData>,
    /// Live row ids at `ts`.
    pub selection: Vec<u32>,
    /// Snapshot timestamp.
    pub ts: u64,
}

impl ColumnSnapshot {
    /// Number of visible rows.
    pub fn len(&self) -> usize {
        self.selection.len()
    }

    /// True when no rows are visible.
    pub fn is_empty(&self) -> bool {
        self.selection.is_empty()
    }

    /// Materialize a visible row by selection position.
    pub fn row(&self, pos: usize) -> Row {
        let id = self.selection[pos] as usize;
        Row::new(self.columns.iter().map(|c| c.get(id)).collect())
    }

    /// Materialize all visible rows (row-at-a-time fallback path).
    pub fn rows(&self) -> Vec<Row> {
        (0..self.len()).map(|i| self.row(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: i64) -> Key {
        Key::encode(&[Value::Int(n)])
    }

    fn row(a: i64, b: f64) -> Row {
        Row::new(vec![Value::Int(a), Value::Double(b)])
    }

    fn put(n: i64, b: f64) -> IndexOp {
        IndexOp::Put(key(n), row(n, b))
    }

    /// An index loaded empty at timestamp 0.
    fn index() -> Arc<ColumnIndex> {
        let idx = ColumnIndex::new(vec![DataType::Int, DataType::Double]);
        idx.load(0, Vec::new()).unwrap();
        idx
    }

    fn snap(idx: &ColumnIndex, ts: u64) -> ColumnSnapshot {
        idx.snapshot(ts).expect("at or above the base")
    }

    #[test]
    fn insert_and_snapshot_visibility() {
        let idx = index();
        idx.apply_commit(10, &[put(1, 1.5)]).unwrap();
        idx.apply_commit(20, &[put(2, 2.5)]).unwrap();
        assert_eq!(snap(&idx, 5).len(), 0);
        assert_eq!(snap(&idx, 10).len(), 1);
        assert_eq!(snap(&idx, 25).len(), 2);
        assert_eq!(snap(&idx, 25).row(0), row(1, 1.5));
    }

    #[test]
    fn update_tombstones_old_image() {
        let idx = index();
        idx.apply_commit(10, &[put(1, 1.0)]).unwrap();
        idx.apply_commit(20, &[put(1, 9.0)]).unwrap();
        // Old snapshot sees the old image; new sees the new.
        let old = snap(&idx, 15);
        assert_eq!(old.len(), 1);
        assert_eq!(old.row(0), row(1, 1.0));
        let new = snap(&idx, 25);
        assert_eq!(new.len(), 1);
        assert_eq!(new.row(0), row(1, 9.0));
        assert_eq!(idx.physical_rows(), 2, "append-only: both images present");
    }

    #[test]
    fn delete_hides_row() {
        let idx = index();
        idx.apply_commit(10, &[put(1, 1.0)]).unwrap();
        idx.apply_commit(20, &[IndexOp::Delete(key(1))]).unwrap();
        assert_eq!(snap(&idx, 15).len(), 1);
        assert_eq!(snap(&idx, 20).len(), 0);
    }

    #[test]
    fn one_commit_applies_whole_or_not_at_all() {
        let idx = index();
        idx.apply_commit(10, &[put(1, 1.0), put(2, 2.0)]).unwrap();
        // A two-row statement: no snapshot shows one row changed.
        idx.apply_commit(20, &[put(1, 5.0), put(2, 6.0)]).unwrap();
        for ts in [15, 20, 25] {
            let sum: f64 = snap(&idx, ts)
                .rows()
                .iter()
                .map(|r| r.get(1).unwrap().as_double().unwrap())
                .sum();
            assert!(sum == 3.0 || sum == 11.0, "torn statement at {ts}: {sum}");
        }
    }

    #[test]
    fn an_aborted_statement_applies_nothing() {
        // The DML path drops its gate ticket without calling apply_commit
        // on an abort; other tables' indexes never see a table's ops.
        let gate = crate::WriteGate::new();
        let (mine, other) = (index(), index());
        drop(gate.enter());
        gate.enter().apply(10, [(&*mine, &[put(1, 1.0)][..])]).unwrap();
        assert_eq!(snap(&mine, u64::MAX).len(), 1);
        assert_eq!(snap(&other, u64::MAX).len(), 0);
    }

    #[test]
    fn load_sets_the_base_and_below_it_answers_nothing() {
        let idx = ColumnIndex::new(vec![DataType::Int, DataType::Double]);
        assert!(idx.snapshot(u64::MAX).is_none(), "unloaded index answers nothing");
        idx.load(50, vec![(key(1), row(1, 1.0)), (key(2), row(2, 2.0))]).unwrap();
        assert_eq!(idx.base_ts(), 50);
        assert!(idx.snapshot(49).is_none(), "below the base: read the row store");
        assert_eq!(snap(&idx, 50).len(), 2);
        idx.apply_commit(60, &[put(1, 7.0)]).unwrap();
        assert_eq!(snap(&idx, 60).len(), 2);
        idx.invalidate();
        assert!(idx.snapshot(60).is_none());
        let served = idx.snapshots();
        idx.load(70, vec![(key(3), row(3, 3.0))]).unwrap();
        assert_eq!(snap(&idx, 70).rows(), vec![row(3, 3.0)]);
        assert_eq!(idx.snapshots(), served + 1);
    }

    #[test]
    fn compaction_bounds_growth_and_spares_pinned_readers() {
        let idx = index();
        let live = 1000i64;
        let all: Vec<IndexOp> = (0..live).map(|n| put(n, 0.0)).collect();
        idx.apply_commit(1, &all).unwrap();
        let pinned = idx.pin(1);
        let mut ts = 1;
        // Each key's last written value: what the newest snapshot must show.
        let mut oracle: Vec<Row> = (0..live).map(|n| row(n, 0.0)).collect();
        let update = |oracle: &mut Vec<Row>, ts: u64, n: i64| {
            idx.apply_commit(ts, &[put(n, ts as f64)]).unwrap();
            oracle[n as usize] = row(n, ts as f64);
        };
        // 2k updates with a reader pinned at 1: its images stay.
        for i in 0..2_000i64 {
            ts += 1;
            update(&mut oracle, ts, i % live);
        }
        let old = pinned.snapshot().expect("pinned reader keeps its snapshot");
        assert_eq!(old.len(), live as usize);
        assert!(old.rows().iter().all(|r| r.get(1).unwrap() == &Value::Double(0.0)));
        drop(pinned);
        // 20k single-row updates with no reader open. The images compaction
        // keeps, and those later updates tombstone through the remapped key
        // index, must leave exactly the oracle's values visible.
        let sorted = |mut rows: Vec<Row>| {
            rows.sort_by_key(|r| r.get(0).unwrap().as_int().unwrap());
            rows
        };
        for i in 0..20_000i64 {
            ts += 1;
            update(&mut oracle, ts, i % live);
            assert!(idx.physical_rows() <= 2 * idx.live_rows() + 1);
            if i % 25 == 0 {
                assert_eq!(sorted(snap(&idx, ts).rows()), oracle, "after update {i}");
            }
        }
        assert_eq!(sorted(snap(&idx, ts).rows()), oracle);
        assert!(idx.snapshot(1).is_none(), "compaction raised the base past old readers");
        // After the remaps, an update still tombstones exactly its key's
        // image; a reader pinned at `ts` keeps the old one.
        let at_ts = idx.pin(ts);
        let before = oracle.clone();
        update(&mut oracle, ts + 1, 7);
        assert_eq!(sorted(at_ts.snapshot().unwrap().rows()), before);
        assert_eq!(sorted(snap(&idx, ts + 1).rows()), oracle);
    }

    #[test]
    fn short_rows_pad_with_null() {
        let idx = index();
        idx.apply_commit(10, &[IndexOp::Put(key(1), Row::new(vec![Value::Int(7)]))]).unwrap();
        let s = snap(&idx, 10);
        assert_eq!(s.row(0).get(1).unwrap(), &Value::Null);
    }

    #[test]
    fn snapshot_isolated_from_later_changes() {
        let idx = index();
        idx.apply_commit(10, &[put(1, 1.0)]).unwrap();
        let s = snap(&idx, 10);
        idx.apply_commit(20, &[put(2, 2.0)]).unwrap();
        assert_eq!(s.len(), 1, "snapshot unaffected by concurrent apply");
    }
}

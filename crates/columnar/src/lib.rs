//! In-memory column index (§VI-E of the paper).
//!
//! "PolarDB-X supports an in-memory column index on its DN … implemented
//! as an in-memory columnar representation of the selected or indexed
//! columns in row store. The logical operations on the indexed column are
//! captured from the log and converted to the corresponding operations on
//! the index. … A record in column index has its trx_id being consistent
//! with that in InnoDB," which lets hybrid plans read row and column
//! stores under one snapshot.
//!
//! Here the captured operations are each SQL statement's committed write
//! set, applied at its commit timestamp:
//!
//! * [`mod@column`] — typed column vectors with null bitmaps,
//! * [`index`] — the per-table columnar replica with commit-timestamp
//!   visibility (insert/update/delete as append + tombstone), a base
//!   timestamp, per-statement [`ColumnIndex::apply_commit`] and
//!   reader-pinned compaction,
//! * [`gate`] — the writer gate: snapshot readers drain it so an index at
//!   `S` holds exactly the commits at or below `S`, and rebuilds hold it
//!   exclusively,
//! * [`kernels`] — the vectorized scan/filter/aggregate/join primitives the
//!   MPP executor's columnar operators call into.

pub mod column;
pub mod gate;
pub mod index;
pub mod kernels;

pub use column::ColumnData;
pub use gate::WriteGate;
pub use index::{ColumnIndex, ColumnSnapshot, IndexOp, SnapshotPin};

//! The writer gate that orders column-index maintenance against snapshots.
//!
//! A SQL writer enters before its transaction prepares and leaves after
//! applying its write set at the commit timestamp. A reader that raised
//! every DN clock to its snapshot `S` drains the gate: earlier writers may
//! still commit at or below `S`, later ones commit above it. Tickets also
//! order the applies: of two committed writers of one key, the later one
//! installed its intent after the earlier one committed (first committer
//! wins), so it holds the larger ticket and applies second. A rebuild
//! holds the gate exclusively while it scans.

use parking_lot::{Condvar, Mutex};
use std::collections::BTreeSet;

use polardbx_common::Result;

use crate::index::{ColumnIndex, IndexOp};

#[derive(Default)]
struct GateState {
    next_ticket: u64,
    /// Tickets of writers inside the gate.
    active: BTreeSet<u64>,
    /// A rebuild holds (or is acquiring) the gate.
    exclusive: bool,
}

impl GateState {
    /// True while some writer that entered before `ticket` is inside.
    fn any_below(&self, ticket: u64) -> bool {
        self.active.first().is_some_and(|&t| t < ticket)
    }
}

/// One gate per cluster, shared by all of its column indexes.
#[derive(Default)]
pub struct WriteGate {
    state: Mutex<GateState>,
    changed: Condvar,
}

impl WriteGate {
    /// An open gate.
    pub fn new() -> WriteGate {
        WriteGate::default()
    }

    /// Enter as a writer; blocks while a rebuild holds the gate.
    pub fn enter(&self) -> WriteTicket<'_> {
        let mut st = self.state.lock();
        while st.exclusive {
            self.changed.wait(&mut st);
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.active.insert(ticket);
        WriteTicket { gate: self, ticket }
    }

    /// Wait until every writer that entered before this call has left.
    pub fn drain(&self) {
        let mut st = self.state.lock();
        let upto = st.next_ticket;
        while st.any_below(upto) {
            self.changed.wait(&mut st);
        }
    }

    /// Hold the gate exclusively: waits for entered writers to leave and
    /// keeps new ones out until the guard drops.
    pub fn exclusive(&self) -> ExclusiveGuard<'_> {
        let mut st = self.state.lock();
        while st.exclusive {
            self.changed.wait(&mut st);
        }
        st.exclusive = true;
        while !st.active.is_empty() {
            self.changed.wait(&mut st);
        }
        ExclusiveGuard { gate: self }
    }
}

/// A writer's place in the gate. Dropping it without [`apply`] leaves the
/// gate having applied nothing (the transaction aborted).
///
/// [`apply`]: WriteTicket::apply
#[must_use = "a ticket holds readers back until it is applied or dropped"]
pub struct WriteTicket<'a> {
    gate: &'a WriteGate,
    ticket: u64,
}

impl WriteTicket<'_> {
    /// Apply a committed write set at `commit_ts`, after every writer that
    /// entered earlier has left, then leave. Each index applies its ops
    /// under one write lock. An index whose apply fails is invalidated
    /// (it answers no snapshot until reloaded) and the first error is
    /// returned once every index was visited.
    pub fn apply<'i>(
        self,
        commit_ts: u64,
        writes: impl IntoIterator<Item = (&'i ColumnIndex, &'i [IndexOp])>,
    ) -> Result<()> {
        {
            let mut st = self.gate.state.lock();
            while st.any_below(self.ticket) {
                self.gate.changed.wait(&mut st);
            }
        }
        let mut first_err = None;
        for (index, ops) in writes {
            if let Err(e) = index.apply_commit(commit_ts, ops) {
                index.invalidate();
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }
}

impl Drop for WriteTicket<'_> {
    fn drop(&mut self) {
        self.gate.state.lock().active.remove(&self.ticket);
        self.gate.changed.notify_all();
    }
}

/// Exclusive hold of the gate by a rebuild.
pub struct ExclusiveGuard<'a> {
    gate: &'a WriteGate,
}

impl Drop for ExclusiveGuard<'_> {
    fn drop(&mut self) {
        self.gate.state.lock().exclusive = false;
        self.gate.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn drain_waits_only_for_earlier_writers() {
        let gate = Arc::new(WriteGate::new());
        let early = gate.enter();
        let drained = Arc::new(AtomicBool::new(false));
        let t = {
            let (gate, drained) = (Arc::clone(&gate), Arc::clone(&drained));
            std::thread::spawn(move || {
                gate.drain();
                drained.store(true, Ordering::SeqCst);
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        // A writer entering after the drain began does not hold it back.
        let late = gate.enter();
        std::thread::sleep(Duration::from_millis(20));
        assert!(!drained.load(Ordering::SeqCst), "drain must wait for the earlier writer");
        drop(early);
        t.join().unwrap();
        assert!(drained.load(Ordering::SeqCst));
        drop(late);
    }

    #[test]
    fn exclusive_waits_for_writers_and_blocks_new_ones() {
        let gate = Arc::new(WriteGate::new());
        let w = gate.enter();
        let holding = Arc::new(AtomicBool::new(false));
        let rebuild = {
            let (gate, holding) = (Arc::clone(&gate), Arc::clone(&holding));
            std::thread::spawn(move || {
                let _x = gate.exclusive();
                holding.store(true, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(30));
                holding.store(false, Ordering::SeqCst);
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!holding.load(Ordering::SeqCst), "exclusive waits for the writer");
        drop(w);
        while !holding.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let t = gate.enter();
        assert!(!holding.load(Ordering::SeqCst), "a writer never enters during a rebuild");
        drop(t);
        rebuild.join().unwrap();
    }

    #[test]
    fn applies_land_in_ticket_order() {
        use polardbx_common::{DataType, Key, Row, Value};
        let gate = Arc::new(WriteGate::new());
        let idx = ColumnIndex::new(vec![DataType::Int, DataType::Int]);
        idx.load(0, Vec::new()).unwrap();
        let key = Key::encode(&[Value::Int(1)]);
        let put = |v: i64| [IndexOp::Put(key.clone(), Row::new(vec![Value::Int(1), Value::Int(v)]))];
        let first = gate.enter();
        let second = gate.enter();
        // The later ticket applies first from another thread; it must
        // wait for the earlier one, so the commit-10 image is not left
        // live over the commit-20 image.
        let t = {
            let (idx, ops) = (Arc::clone(&idx), put(2));
            std::thread::scope(|s| {
                let h = s.spawn(|| second.apply(20, [(&*idx, &ops[..])]));
                std::thread::sleep(Duration::from_millis(20));
                assert_eq!(idx.physical_rows(), 0, "second waits for first");
                first.apply(10, [(&*idx, &put(1)[..])]).unwrap();
                h.join().unwrap()
            })
        };
        t.unwrap();
        let snap = idx.snapshot(25).unwrap();
        assert_eq!(snap.rows(), vec![Row::new(vec![Value::Int(1), Value::Int(2)])]);
        assert_eq!(idx.snapshot(15).unwrap().rows()[0].get(1).unwrap(), &Value::Int(1));
    }
}

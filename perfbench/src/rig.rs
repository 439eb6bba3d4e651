//! A cluster behind a front door, and the helpers every workload shares.

use std::time::Duration;

use polardbx_common::time::mono_now;

use polardbx::{ClusterConfig, PolarDbx};
use polardbx_common::{Row, TenantQuotas, Value};
use polardbx_front::{FrontClient, FrontDoor};

pub type BResult<T> = std::result::Result<T, String>;

/// Map any displayable error into the benchmark's error string.
pub fn e<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |err| format!("{what}: {err}")
}

/// A running cluster with one front door and one unthrottled tenant.
pub struct Rig {
    pub db: PolarDbx,
    pub door: FrontDoor,
    pub tenant: u64,
    pub config: ClusterConfig,
}

impl Rig {
    pub fn start(config: ClusterConfig) -> BResult<Rig> {
        let db = PolarDbx::build(config.clone()).map_err(e("build cluster"))?;
        let tenant = db.register_tenant("bench", TenantQuotas::unlimited()).raw();
        let door = FrontDoor::start_default(db.clone()).map_err(e("start front door"))?;
        Ok(Rig {
            db,
            door,
            tenant,
            config,
        })
    }

    pub fn client(&self) -> BResult<FrontClient> {
        FrontClient::connect(self.door.addr(), self.tenant).map_err(e("connect"))
    }

    /// A second front door on the same cluster: the traced replay uses
    /// it so its per-statement server time is not mixed with the
    /// background load's.
    pub fn second_door(&self) -> BResult<FrontDoor> {
        FrontDoor::start_default(self.db.clone()).map_err(e("start second front door"))
    }

    pub fn stop(mut self) {
        self.door.shutdown();
        self.db.shutdown();
    }

    /// One-line description of the cluster shape for provenance.
    pub fn shape(&self) -> String {
        let c = &self.config;
        format!(
            "dcs={} cns_per_dc={} dns={} shards={} intra_dc_us={} inter_dc_us={} jitter={}",
            c.dcs,
            c.cns_per_dc,
            c.dns,
            c.default_shards,
            c.latency.intra_dc.as_micros(),
            c.latency.inter_dc.as_micros(),
            c.latency.jitter
        )
    }
}

/// Set up `reps` times and keep the last rig; returns it with the
/// median set-up time in seconds. Each set-up builds a fresh cluster
/// from the same seed.
pub fn setup_median<T>(
    reps: usize,
    mut setup: impl FnMut() -> BResult<T>,
    teardown: impl Fn(T),
) -> BResult<(T, f64)> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..reps {
        let t0 = mono_now();
        let rig = setup()?;
        times.push(mono_now().saturating_sub(t0).as_secs_f64());
        if let Some(old) = kept.replace(rig) {
            teardown(old);
        }
    }
    Ok((
        kept.expect("at least one set-up"),
        crate::stats::median(&times),
    ))
}

/// A column value as a number (SUM may come back as INT or DOUBLE).
pub fn num(row: &Row, idx: usize) -> BResult<f64> {
    match row.get(idx).map_err(e("column"))? {
        Value::Int(i) => Ok(*i as f64),
        Value::Double(d) => Ok(*d),
        Value::Null => Ok(0.0),
        other => Err(format!("column {idx} is not numeric: {other:?}")),
    }
}

/// A single-value query over the wire (COUNT/SUM).
pub fn scalar(c: &mut FrontClient, sql: &str) -> BResult<f64> {
    let rows = c.query(sql).map_err(e(sql))?;
    let row = rows.first().ok_or_else(|| format!("{sql}: no rows"))?;
    num(row, 0)
}

/// Sleep until `deadline` (returns at once when it has passed).
pub fn sleep_until(deadline: Duration) {
    let now = mono_now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Poll `read` every 50 ms for up to `limit` until it returns `want`;
/// returns the first and the last value read.
pub fn settle(
    limit: Duration,
    want: f64,
    mut read: impl FnMut() -> BResult<f64>,
) -> BResult<(f64, f64)> {
    let first = read()?;
    let mut last = first;
    let deadline = mono_now() + limit;
    while last != want && mono_now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        last = read()?;
    }
    Ok((first, last))
}

/// Cluster-wide counters read before and after a phase.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    throttled: u64,
    errors: u64,
    pool_flushes: u64,
    wal_commits: u64,
    wal_flushes: u64,
}

impl Counters {
    pub fn read(rig: &Rig) -> Counters {
        let front = rig.door.metrics();
        let mut c = Counters {
            throttled: front.throttled.get(),
            errors: front.queries_err.get(),
            ..Counters::default()
        };
        for dn in rig.db.dns() {
            c.pool_flushes += dn.rw.engine.pool.stats().flushes;
            if let Some(w) = dn.rw.engine.wal_metrics() {
                c.wal_commits += w.commits.get();
                c.wal_flushes += w.flushes.get();
            }
        }
        c
    }

    /// The per-layer counters accumulated since `base`.
    pub fn since(&self, base: &Counters) -> Vec<(&'static str, f64)> {
        vec![
            ("front.throttled", (self.throttled - base.throttled) as f64),
            ("front.errors", (self.errors - base.errors) as f64),
            (
                "storage.pool_flushes",
                (self.pool_flushes - base.pool_flushes) as f64,
            ),
            ("wal.commits", (self.wal_commits - base.wal_commits) as f64),
            ("wal.flushes", (self.wal_flushes - base.wal_flushes) as f64),
        ]
    }
}

/// Whether any DN engine exposes WAL metrics (none does while the
/// served path runs without a WAL or Paxos).
pub fn wal_present(rig: &Rig) -> bool {
    rig.db
        .dns()
        .iter()
        .any(|dn| dn.rw.engine.wal_metrics().is_some())
}

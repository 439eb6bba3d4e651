//! The `PolarDbx` facade: build a cluster, connect, execute SQL.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use polardbx_columnar::{ColumnIndex, IndexOp, WriteGate};
use polardbx_common::metrics::Counter;
use polardbx_common::{
    ColumnDef, DcId, Error, IdGenerator, IndexDef, IndexKind, Key, NodeId, PartitionSpec,
    Result, Row, TableId, TableSchema, TenantId, Value,
};
use polardbx_executor::memory::Reservation;
use polardbx_executor::{
    execute_plan, ExecCtx, JobClass, MemoryManager, MppExecutor, TableProvider,
    WorkloadManager,
};
use polardbx_executor::scheduler::{run_with_demotion, TickState};
use polardbx_hlc::Hlc;
use polardbx_optimizer::{classify_with_threshold, optimize_with_stats, WorkloadClass};
use polardbx_simnet::{Handler, LatencyMatrix, SimNet};
use polardbx_mt::{RehomeConfig, RehomeExecutor};
use polardbx_placement::{plan as placement_plan, CoAccessSketch, PlannerConfig};
use polardbx_sql::ast::{self, IndexPlacement, Statement};
use polardbx_sql::expr::Expr;
use polardbx_sql::KeyAccess;
use polardbx_storage::RwNode;
use polardbx_txn::{Coordinator, DistTxn, DnService, TxnMetrics, TxnMsg, WireWriteOp};

use crate::gms::{shard_table_id, Gms};
use crate::provider::ClusterProvider;
use crate::traffic::TrafficControl;

/// Cluster shape.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of datacenters.
    pub dcs: u32,
    /// CN servers per datacenter.
    pub cns_per_dc: u32,
    /// Total DN instances (assigned to DCs round-robin).
    pub dns: u32,
    /// RO replicas per DN.
    pub ros_per_dn: u32,
    /// Default shard count for `CREATE TABLE` without `PARTITION BY`.
    pub default_shards: u32,
    /// Network latency model.
    pub latency: LatencyMatrix,
    /// MPP degree for AP queries (tasks across the CN fleet).
    pub mpp_workers: usize,
    /// Estimated-cost threshold above which a query classifies AP and runs
    /// on the vectorized MPP path. Downsized harnesses lower it so their
    /// analytic mix still exercises AP routing at bench scale.
    pub ap_threshold: f64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            dcs: 1,
            cns_per_dc: 2,
            dns: 2,
            ros_per_dn: 0,
            default_shards: 8,
            latency: LatencyMatrix::zero(),
            mpp_workers: 4,
            ap_threshold: polardbx_optimizer::DEFAULT_AP_THRESHOLD,
        }
    }
}

/// Adaptive-placer knobs (see [`PolarDbx::start_placer`]).
#[derive(Debug, Clone, Copy)]
pub struct PlacerConfig {
    /// How often the placer snapshots the sketch and plans.
    pub interval: Duration,
    /// Affinity-clustering knobs.
    pub planner: PlannerConfig,
    /// Cutover throttle (min gap between moves, per-pass cap).
    pub rehome: RehomeConfig,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        PlacerConfig {
            interval: Duration::from_millis(200),
            planner: PlannerConfig::default(),
            rehome: RehomeConfig::default(),
        }
    }
}

/// One DN instance: a PolarDB (RW node + optional RO replicas) plus its
/// transaction participant service.
pub struct Dn {
    /// DN node id on the fabric.
    pub id: NodeId,
    /// Datacenter.
    pub dc: DcId,
    /// The PolarDB instance (engine + RO replication).
    pub rw: Arc<RwNode>,
    /// The participant service.
    pub service: Arc<DnService>,
}

struct Inner {
    config: ClusterConfig,
    gms: Arc<Gms>,
    /// Owning handle keeps the fabric's delivery threads alive.
    #[allow(dead_code)]
    net: Arc<SimNet<TxnMsg>>,
    cns: Vec<Arc<CnNode>>,
    dns: HashMap<NodeId, Arc<Dn>>,
    /// Logical-table-name → hidden GSI table names.
    gsi_tables: RwLock<HashMap<String, Vec<String>>>,
    column_indexes: RwLock<HashMap<String, Arc<ColumnIndex>>>,
    /// Orders column-index applies against snapshot readers and rebuilds.
    write_gate: WriteGate,
    /// CN-side workload pools (shared fleet-wide: the host has one CPU
    /// domain; per-CN pools would oversubscribe it meaninglessly).
    workload: Arc<WorkloadManager>,
    /// TP/AP memory regions with preemption (§VI-D).
    memory: Arc<MemoryManager>,
    traffic: TrafficControl,
    /// Route AP queries to RO replicas when available (§VI-A).
    htap_ro: AtomicBool,
    shipper_stop: Arc<AtomicBool>,
    /// Cluster-wide transaction counters (shared by every CN coordinator,
    /// so 1PC/2PC fractions aggregate across the fleet).
    txn_metrics: Arc<TxnMetrics>,
    /// Commit-time co-access sketch feeding the adaptive placer.
    sketch: Arc<CoAccessSketch>,
    placer_stop: Arc<AtomicBool>,
    /// AP reads served by a DN's RW engine because its RO replica had not
    /// caught up with the session token in time.
    ro_fallbacks: Counter,
}

/// A compute node: coordinator + clock.
pub struct CnNode {
    /// Node id on the fabric.
    pub id: NodeId,
    /// Datacenter.
    pub dc: DcId,
    /// The transaction coordinator.
    pub coordinator: Coordinator,
}

struct CnStub;
impl Handler<TxnMsg> for CnStub {
    fn handle(&self, _from: NodeId, m: TxnMsg) -> TxnMsg {
        m
    }
}

/// The cluster handle.
#[derive(Clone)]
pub struct PolarDbx {
    inner: Arc<Inner>,
}

impl PolarDbx {
    /// Build a cluster.
    pub fn build(config: ClusterConfig) -> Result<PolarDbx> {
        assert!(config.dcs >= 1 && config.dns >= 1 && config.cns_per_dc >= 1);
        let net = SimNet::new(config.latency.clone());
        let gms = Gms::new();
        let trx_ids = Arc::new(IdGenerator::new());

        let mut dns = HashMap::new();
        for i in 0..config.dns {
            let id = NodeId(1000 + i as u64);
            let dc = DcId(1 + (i % config.dcs) as u64);
            let rw = RwNode::new(id);
            for _ in 0..config.ros_per_dn {
                rw.add_ro();
            }
            let service = DnService::new(id, Arc::clone(&rw.engine), Hlc::new());
            net.register(id, dc, service.clone() as Arc<dyn Handler<TxnMsg>>);
            gms.register_dn(id);
            dns.insert(id, Arc::new(Dn { id, dc, rw, service }));
        }

        let txn_metrics = Arc::new(TxnMetrics::new());
        let sketch = Arc::new(CoAccessSketch::new());
        let mut cns = Vec::new();
        for dc_i in 0..config.dcs {
            for c in 0..config.cns_per_dc {
                let id = NodeId(1 + (dc_i * config.cns_per_dc + c) as u64);
                let dc = DcId(1 + dc_i as u64);
                net.register(id, dc, Arc::new(CnStub));
                let coordinator =
                    Coordinator::new(id, Arc::clone(&net), Hlc::new(), Arc::clone(&trx_ids))
                        .with_metrics(Arc::clone(&txn_metrics))
                        .with_fence(Arc::clone(gms.epochs()) as _)
                        .with_observer(Arc::clone(&sketch) as _);
                cns.push(Arc::new(CnNode { id, dc, coordinator }));
            }
        }

        let shipper_stop = Arc::new(AtomicBool::new(false));
        let inner = Arc::new(Inner {
            config,
            gms,
            net,
            cns,
            dns,
            gsi_tables: RwLock::new(HashMap::new()),
            column_indexes: RwLock::new(HashMap::new()),
            write_gate: WriteGate::new(),
            workload: WorkloadManager::with_defaults(),
            memory: MemoryManager::with_defaults(),
            traffic: TrafficControl::new(),
            htap_ro: AtomicBool::new(true),
            shipper_stop: Arc::clone(&shipper_stop),
            txn_metrics,
            sketch,
            placer_stop: Arc::new(AtomicBool::new(false)),
            ro_fallbacks: Counter::new(),
        });
        // Background shipper: RW → RO redo + column-index capture.
        {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("polardbx-shipper".into())
                .spawn(move || {
                    while !inner.shipper_stop.load(Ordering::Relaxed) {
                        for dn in inner.dns.values() {
                            dn.rw.ship();
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                })
                .expect("spawn shipper");
        }
        Ok(PolarDbx { inner })
    }

    /// Build with defaults.
    pub fn quickstart() -> Result<PolarDbx> {
        PolarDbx::build(ClusterConfig::default())
    }

    /// Connect a session. The load balancer is locality-aware: it picks a
    /// CN in the client's datacenter, spilling to other DCs only when the
    /// local ones are absent (§II-A).
    pub fn connect(&self, client_dc: DcId) -> Session {
        let cn = self
            .inner
            .cns
            .iter()
            .find(|c| c.dc == client_dc)
            .or_else(|| self.inner.cns.first())
            .expect("cluster has CNs")
            .clone();
        Session { inner: Arc::clone(&self.inner), cn }
    }

    /// Connect to a specific CN by fleet index (wraps around). The front
    /// door uses this to spread wire connections round-robin across the CN
    /// fleet instead of pinning every client to one coordinator.
    pub fn connect_nth(&self, n: usize) -> Session {
        let cns = &self.inner.cns;
        let cn = Arc::clone(&cns[n % cns.len()]);
        Session { inner: Arc::clone(&self.inner), cn }
    }

    /// Register a front-door tenant (name + admission quotas) in the GMS
    /// tenant catalog; returns the id wire clients handshake with.
    pub fn register_tenant(
        &self,
        name: &str,
        quotas: polardbx_common::TenantQuotas,
    ) -> TenantId {
        self.inner.gms.register_tenant(name, quotas)
    }

    /// The metadata service.
    pub fn gms(&self) -> &Arc<Gms> {
        &self.inner.gms
    }

    /// DN handles (benchmarks and tests).
    pub fn dns(&self) -> Vec<Arc<Dn>> {
        self.inner.dns.values().cloned().collect()
    }

    /// The shared CN workload manager.
    pub fn workload(&self) -> &Arc<WorkloadManager> {
        &self.inner.workload
    }

    /// The traffic controller.
    pub fn traffic(&self) -> &TrafficControl {
        &self.inner.traffic
    }

    /// The CN memory manager (TP/AP regions, §VI-D).
    pub fn memory(&self) -> &Arc<MemoryManager> {
        &self.inner.memory
    }

    /// Toggle routing of AP queries to RO replicas.
    pub fn set_htap_ro(&self, enabled: bool) {
        self.inner.htap_ro.store(enabled, Ordering::Relaxed);
    }

    /// Add `n` RO replicas to every DN ("add RO nodes to scale read
    /// throughput in minutes" — here instantly, data is shared).
    pub fn add_ros(&self, n: u32) {
        for dn in self.inner.dns.values() {
            for _ in 0..n {
                dn.rw.add_ro();
            }
        }
    }

    /// Ship pending redo to all RO replicas synchronously (tests and
    /// admin). Waits briefly first so asynchronously posted 2PC phase-two
    /// commit records land in the DN logs before shipping.
    pub fn ship_now(&self) {
        for _ in 0..10 {
            if self.inner.dns.values().all(|dn| !dn.rw.engine.has_active_txns()) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(2));
        for dn in self.inner.dns.values() {
            dn.rw.ship();
        }
    }

    /// Build (or rebuild) the in-memory column index over `table` from its
    /// current contents (§VI-E); SQL DML then applies each statement's
    /// write set to it. Raw `Coordinator` writers bypass it: call this
    /// again to refresh it after them. A refresh loses no concurrent SQL
    /// write, but the first build expects no concurrent SQL DML on
    /// `table` (a statement that found no index does not enter the gate).
    pub fn enable_column_index(&self, table: &str) -> Result<()> {
        self.inner.load_column_index(table)
    }

    /// The column index of `table`, if one was enabled.
    pub fn column_index(&self, table: &str) -> Option<Arc<ColumnIndex>> {
        self.inner.column_indexes.read().get(table).cloned()
    }

    /// Stop background threads (drop hygiene for long test suites).
    pub fn shutdown(&self) {
        self.inner.shipper_stop.store(true, Ordering::Relaxed);
        self.inner.placer_stop.store(true, Ordering::Relaxed);
    }

    /// Cluster-wide transaction counters (shared by all CN coordinators).
    pub fn txn_metrics(&self) -> &Arc<TxnMetrics> {
        &self.inner.txn_metrics
    }

    /// The commit-time co-access sketch (benchmarks inspect/reset it
    /// between phases).
    pub fn sketch(&self) -> &Arc<CoAccessSketch> {
        &self.inner.sketch
    }

    /// Move one shard of `table` to another DN — the anti-hotspot
    /// rebalancing primitive of §VIII ("we can migrate shards to achieve a
    /// balanced state between DNs"). Like tenant transfer, the shard's
    /// store moves by reference over shared storage: zero rows copied.
    pub fn move_shard(&self, table: &str, shard: u32, dest: NodeId) -> Result<()> {
        let schema = self.inner.gms.table(table)?;
        let src_id = self.inner.gms.shard_dn(schema.id, shard)?;
        if src_id == dest {
            return Ok(());
        }
        let src = self
            .inner
            .dns
            .get(&src_id)
            .ok_or_else(|| Error::invalid("unknown source DN"))?;
        let dst = self
            .inner
            .dns
            .get(&dest)
            .ok_or_else(|| Error::invalid("unknown destination DN"))?;
        // Drain the source briefly (engine-wide, like tenant transfer).
        let deadline = polardbx_common::time::mono_now() + Duration::from_secs(2);
        while src.rw.engine.has_active_txns() {
            if polardbx_common::time::mono_now() > deadline {
                return Err(Error::Timeout { what: "draining source DN".into() });
            }
            std::thread::yield_now();
        }
        let stid = shard_table_id(schema.id, shard);
        let tenant = TenantId(schema.id.raw());
        src.rw.engine.pool.flush_tenant(tenant, None)?;
        let store = src
            .rw
            .detach_table(stid)
            .ok_or_else(|| Error::invalid("shard store missing on source"))?;
        dst.rw.attach_table(stid, store, tenant);
        self.inner.gms.move_shard(schema.id, shard, dest);
        Ok(())
    }

    /// Re-home one shard under **live traffic** — the adaptive-placement
    /// cutover. Unlike [`PolarDbx::move_shard`] (which drains the whole
    /// source engine and fails under continuous load), this freezes only
    /// the one shard's routing epoch:
    ///
    /// 1. freeze + epoch bump — new routes and stale-pinned commits bounce
    ///    with a retryable error,
    /// 2. drain the shard's commit gate (in-flight fenced commits finish),
    /// 3. drain the source engine's in-flight write sets on the shard —
    ///    phase-two Commit messages are *posted* asynchronously, so a
    ///    committed write set can outlive the commit gate; detaching
    ///    before it applies would strand the write,
    /// 4. flush + detach the shard store, attach at the destination (by
    ///    reference over shared storage — zero rows copied), raise the
    ///    destination clock past the source so moved versions stay in the
    ///    destination's timestamp past,
    /// 5. update placement, unfreeze.
    ///
    /// Returns how long the shard's traffic was paused.
    pub fn rehome_shard(&self, table: &str, shard: u32, dest: NodeId) -> Result<Duration> {
        let schema = self.inner.gms.table(table)?;
        self.rehome_shard_by_id(schema.id, shard, dest)
    }

    /// [`PolarDbx::rehome_shard`] by logical table id (the placer works on
    /// ids, not names).
    pub fn rehome_shard_by_id(
        &self,
        table: polardbx_common::TableId,
        shard: u32,
        dest: NodeId,
    ) -> Result<Duration> {
        // lint:allow(fence_completeness, migration source lookup, not DML routing: the cutover freezes the epoch before touching data, and a racing re-home serializes behind the same freeze)
        let src_id = self.inner.gms.shard_dn(table, shard)?;
        if src_id == dest {
            return Ok(Duration::ZERO);
        }
        let src = self
            .inner
            .dns
            .get(&src_id)
            .ok_or_else(|| Error::invalid("unknown source DN"))?;
        let dst = self
            .inner
            .dns
            .get(&dest)
            .ok_or_else(|| Error::invalid("unknown destination DN"))?;
        let stid = shard_table_id(table, shard);
        let epochs = self.inner.gms.epochs();
        let t0 = polardbx_common::time::mono_now();
        epochs.freeze(stid);
        // Engine-level write freeze on top of the routing freeze: a write
        // already past routing when the epoch froze would otherwise install
        // an intent between the drain below and the detach, stranding it
        // inside the moved store.
        src.rw.engine.freeze_writes(stid);
        // The cutover body runs in a closure so every exit — success or any
        // error, including `?` propagation — flows through the single
        // unfreeze below. A shard left frozen bounces every fenced route
        // and commit retryably forever: a permanent livelock.
        let cutover = || -> Result<()> {
            if !epochs.drain(stid, Duration::from_secs(2)) {
                return Err(Error::Timeout { what: "draining shard commit gate".into() });
            }
            // Async phase-two tail: wait for posted Commit/Abort deliveries
            // to consume every in-flight write set on this shard table.
            let deadline = polardbx_common::time::mono_now() + Duration::from_secs(2);
            while src.rw.engine.has_active_writes_on(stid) {
                if polardbx_common::time::mono_now() > deadline {
                    return Err(Error::Timeout { what: "draining shard write sets".into() });
                }
                std::thread::yield_now();
            }
            let tenant = TenantId(table.raw());
            src.rw.engine.pool.flush_tenant(tenant, None)?;
            // Writes are frozen and the drain passed, but the flush spans
            // time: re-verify nothing slipped in right before the detach.
            if src.rw.engine.has_active_writes_on(stid) {
                return Err(Error::Timeout { what: "late write set on shard".into() });
            }
            let store = src
                .rw
                .detach_table(stid)
                .ok_or_else(|| Error::invalid("shard store missing on source"))?;
            dst.rw.attach_table(stid, store, tenant);
            // Commit timestamps at the new home must stay above every
            // version the shard carries (the source's clock may run ahead).
            dst.service.clock.update(src.service.clock.now());
            self.inner.gms.move_shard(table, shard, dest);
            Ok(())
        };
        let result = cutover();
        src.rw.engine.unfreeze_writes(stid);
        epochs.unfreeze(stid);
        result.map(|()| polardbx_common::time::mono_now() - t0)
    }

    /// Start the adaptive placer: a background thread that periodically
    /// snapshots the co-access sketch, plans affinity moves, and applies
    /// them through the throttled re-home executor. Stops on
    /// [`PolarDbx::shutdown`].
    pub fn start_placer(&self, cfg: PlacerConfig) {
        // The thread holds only a Weak handle: a strong clone would keep
        // `Inner` alive forever, making the Drop-based stop unreachable —
        // a cluster dropped without shutdown() would leak the thread and
        // all cluster state for the process lifetime.
        let weak = Arc::downgrade(&self.inner);
        let stop = Arc::clone(&self.inner.placer_stop);
        std::thread::Builder::new()
            .name("polardbx-placer".into())
            .spawn(move || {
                let executor = RehomeExecutor::new(cfg.rehome);
                let mut next = polardbx_common::time::mono_now() + cfg.interval;
                while !stop.load(Ordering::Relaxed) {
                    if polardbx_common::time::mono_now() < next {
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    }
                    next = polardbx_common::time::mono_now() + cfg.interval;
                    // Upgrade per pass and drop the strong handle at the end
                    // of the pass; the cluster going away ends the thread.
                    let Some(inner) = weak.upgrade() else { break };
                    let db = PolarDbx { inner };
                    let mut snap = db.inner.sketch.snapshot();
                    // Tumbling window: plan on this interval's traffic only.
                    // Without the reset, counts from cold placements distort
                    // the balance cap indefinitely.
                    db.inner.sketch.reset();
                    // Sketch homes are commit-time observations and can mix
                    // pre- and post-cutover values inside one window; a plan
                    // built on a stale home proposes moves toward a DN the
                    // partition already left — oscillation. Placement is the
                    // truth: re-resolve every home before planning.
                    snap.parts.retain_mut(|p| {
                        let table = polardbx_common::TableId(p.part / 10_000);
                        let shard = (p.part % 10_000) as u32;
                        // lint:allow(fence_completeness, planning-only home resolution: staleness merely proposes a worse move, and the executed cutover re-checks under its own epoch freeze)
                        match db.inner.gms.shard_dn(table, shard) {
                            Ok(dn) => {
                                p.home = dn;
                                true
                            }
                            Err(_) => false, // shard dropped since observed
                        }
                    });
                    let moves = placement_plan(&snap, &cfg.planner);
                    if moves.is_empty() {
                        continue;
                    }
                    executor.execute(&moves, |mv| {
                        // Shard-table ids encode (table, shard); see
                        // `gms::shard_table_id`.
                        let table = polardbx_common::TableId(mv.part / 10_000);
                        let shard = (mv.part % 10_000) as u32;
                        // The sketch home may lag a move executed after the
                        // snapshot was taken; placement is the truth.
                        // lint:allow(fence_completeness, no-op-move check before a re-home: a stale read at worst skips or repeats a move attempt, and the cutover itself is epoch-fenced)
                        if db.inner.gms.shard_dn(table, shard)? == mv.to {
                            return Ok(Duration::ZERO);
                        }
                        let pause = db.rehome_shard_by_id(table, shard, mv.to)?;
                        db.inner.txn_metrics.rehomes_applied.inc();
                        Ok(pause)
                    });
                }
            })
            .expect("spawn placer");
    }

    /// Balance a table's shards across all DNs by current row counts
    /// (the GMS background-rebalance task of §II-A). Returns the number of
    /// shards moved.
    pub fn rebalance(&self, table: &str) -> Result<usize> {
        let schema = self.inner.gms.table(table)?;
        let mut loads = Vec::new();
        for shard in 0..schema.partition.shard_count() {
            let dn = self.inner.gms.shard_dn(schema.id, shard)?;
            let rows = self.inner.dns[&dn]
                .rw
                .engine
                .count_rows(shard_table_id(schema.id, shard), u64::MAX)
                .unwrap_or(0) as u64;
            loads.push((shard, rows));
        }
        let targets: Vec<NodeId> = self.inner.dns.keys().copied().collect();
        let plan = self.inner.gms.plan_rebalance(schema.id, &loads, &targets);
        let mut moved = 0;
        for (shard, dest) in plan {
            self.move_shard(table, shard, dest)?;
            moved += 1;
        }
        Ok(moved)
    }

    /// Build a snapshot provider over the RW engines, optionally exposing
    /// the registered column indexes — benchmark harnesses drive the
    /// executor directly through this.
    pub fn provider(&self, columnar: bool) -> crate::provider::ClusterProvider {
        let session = self.connect(DcId(1));
        let snapshot_ts = session.cn.coordinator.clock().now().raw();
        self.inner.fenced_provider(snapshot_ts, columnar, || self.inner.rw_engines())
    }

    /// AP reads that fell back to a DN's RW engine because its RO replica
    /// had not caught up within the session-consistency wait.
    pub fn ro_fallbacks(&self) -> u64 {
        self.inner.ro_fallbacks.get()
    }

    /// Total committed row count across shards of `table` (admin helper).
    pub fn count_rows(&self, table: &str) -> Result<usize> {
        let schema = self.inner.gms.table(table)?;
        let mut n = 0;
        for shard in 0..schema.partition.shard_count() {
            let dn_id = self.inner.gms.shard_dn(schema.id, shard)?;
            let dn = &self.inner.dns[&dn_id];
            n += dn.rw.engine.count_rows(shard_table_id(schema.id, shard), u64::MAX)?;
        }
        Ok(n)
    }
}

/// A client session bound to one CN.
pub struct Session {
    inner: Arc<Inner>,
    cn: Arc<CnNode>,
}

impl Session {
    /// The CN this session landed on (load-balancer tests).
    pub fn cn_id(&self) -> NodeId {
        self.cn.id
    }

    /// The CN's datacenter.
    pub fn cn_dc(&self) -> DcId {
        self.cn.dc
    }

    /// Direct access to the CN's transaction coordinator — benchmark
    /// drivers use it to bypass SQL parsing on hot paths.
    pub fn coordinator(&self) -> &Coordinator {
        &self.cn.coordinator
    }

    /// Route a primary-key tuple of `table` to its (shard-table id, DN).
    pub fn route(
        &self,
        table: &str,
        pk: &[Value],
    ) -> Result<(polardbx_common::TableId, NodeId)> {
        let schema = self.inner.gms.table(table)?;
        let (shard, dn) = self.inner.gms.route_key(&schema, pk)?;
        Ok((shard_table_id(schema.id, shard), dn))
    }

    /// Like [`Session::route`], but also captures the shard's routing
    /// epoch for commit-time fencing, and bounces retryably while the
    /// shard is frozen for a re-home cutover. Drivers pin the returned
    /// epoch on their transaction (`DistTxn::pin_epoch`) before writing.
    pub fn route_fenced(
        &self,
        table: &str,
        pk: &[Value],
    ) -> Result<(polardbx_common::TableId, NodeId, u64)> {
        let schema = self.inner.gms.table(table)?;
        let (shard, dn, epoch) = self.inner.gms.route_key_fenced(&schema, pk)?;
        Ok((shard_table_id(schema.id, shard), dn, epoch))
    }

    /// Execute a DDL/DML statement; returns affected row count.
    pub fn execute(&self, sql: &str) -> Result<u64> {
        let stmt = polardbx_sql::parse(sql)?;
        self.execute_statement(sql, &stmt)
    }

    /// Execute an already-parsed DDL/DML statement. The front door's
    /// prepared-statement path parses once at PREPARE and replays the AST
    /// here on every EXECUTE; `sql` is the original text, used only for
    /// traffic-control fingerprinting.
    pub fn execute_statement(&self, sql: &str, stmt: &Statement) -> Result<u64> {
        let _permit = self.inner.traffic.admit(sql)?;
        match stmt {
            Statement::CreateTable(ct) => self.create_table(ct.clone()).map(|_| 0),
            Statement::CreateIndex(ci) => self.create_index(ci.clone()).map(|_| 0),
            // DML retries the whole statement on a re-home bounce: the
            // retry re-routes and lands on the shard's new home.
            Statement::Insert(ins) => self.retry_dml(|| self.insert(ins)),
            Statement::Update(u) => self.retry_dml(|| self.update(u)),
            Statement::Delete(d) => self.retry_dml(|| self.delete(d)),
            Statement::Select(_) => {
                Err(Error::invalid("use query() for SELECT statements"))
            }
        }
    }

    /// Execute a SELECT; returns result rows.
    pub fn query(&self, sql: &str) -> Result<Vec<Row>> {
        self.query_classified(sql).map(|(rows, _)| rows)
    }

    /// EXPLAIN: parse and plan a SELECT without executing it, returning
    /// the optimized operator tree, the TP/AP classification, and the
    /// row-store vs column-index choice per scanned table (§VI-B/E).
    pub fn explain(&self, sql: &str) -> Result<String> {
        let Statement::Select(sel) = polardbx_sql::parse(sql)? else {
            return Err(Error::invalid("EXPLAIN supports SELECT only"));
        };
        let stats = self.inner.gms.statistics();
        let plan = optimize_with_stats(
            polardbx_sql::build_plan(&sel, self.inner.gms.as_ref())?,
            &stats,
        );
        let class = classify_with_threshold(&plan, &stats, self.inner.config.ap_threshold);
        let cost = polardbx_optimizer::estimate(&plan, &stats);
        let mut out = String::new();
        out.push_str(&format!(
            "class: {class:?} (est. cost {:.0}, rows {:.0})\n",
            cost.total(),
            cost.rows_out
        ));
        for table in plan.tables() {
            let choice = polardbx_optimizer::choose_storage(&plan, &table, &stats);
            out.push_str(&format!("scan {table}: {choice:?}\n"));
        }
        out.push_str(&plan.explain());
        Ok(out)
    }

    /// Execute a SELECT and report how the optimizer classified it.
    pub fn query_classified(&self, sql: &str) -> Result<(Vec<Row>, WorkloadClass)> {
        let Statement::Select(sel) = polardbx_sql::parse(sql)? else {
            return Err(Error::invalid("query() only accepts SELECT"));
        };
        self.query_statement(sql, &sel)
    }

    /// Execute an already-parsed SELECT (the front door's parse-once
    /// path); `sql` is the original text, used only for traffic-control
    /// fingerprinting.
    pub fn query_statement(
        &self,
        sql: &str,
        sel: &polardbx_sql::ast::Select,
    ) -> Result<(Vec<Row>, WorkloadClass)> {
        let _permit = self.inner.traffic.admit(sql)?;
        let stats = self.inner.gms.statistics();
        let plan = polardbx_sql::build_plan(sel, self.inner.gms.as_ref())?;
        let plan = optimize_with_stats(plan, &stats);
        let class = classify_with_threshold(&plan, &stats, self.inner.config.ap_threshold);
        let rows = self.run_plan(plan, class)?;
        Ok((rows, class))
    }

    fn run_plan(
        &self,
        plan: polardbx_sql::LogicalPlan,
        class: WorkloadClass,
    ) -> Result<Vec<Row>> {
        // Reserve working memory from the class's region before executing
        // (§VI-D): TP reservations may preempt AP headroom; an AP query that
        // cannot reserve fails with a retryable error instead of thrashing.
        let stats = self.inner.gms.statistics();
        let est = polardbx_optimizer::estimate(&plan, &stats);
        // Working-set proxy: rows the operators touch, not just output rows.
        let bytes = ((est.cpu as usize).saturating_mul(8)).clamp(4 << 10, 64 << 20);
        let _reservation = match class {
            WorkloadClass::Tp => Reservation::tp(Arc::clone(&self.inner.memory), bytes)?,
            WorkloadClass::Ap => Reservation::ap(Arc::clone(&self.inner.memory), bytes)?,
        };
        let snapshot_ts = self.cn.coordinator.clock().now().raw();
        let provider: Arc<dyn TableProvider> =
            Arc::new(self.build_provider(class, snapshot_ts));
        let inner = Arc::clone(&self.inner);
        match class {
            WorkloadClass::Tp => {
                // TP pool with a slice; overruns demote to AP, then slow
                // (§VI-D's misclassification recovery).
                let plan = Arc::new(plan);
                let mgr = Arc::clone(&inner.workload);
                let (result, _pool) =
                    run_with_demotion(&mgr, JobClass::Tp, move |deadline, governor| {
                        let ctx = ExecCtx::with_ticks(TickState::new(governor, deadline));
                        match execute_plan(&plan, provider.as_ref(), &ctx) {
                            Err(Error::Throttled { .. }) => None, // slice expired
                            other => Some(other),
                        }
                    });
                result
            }
            WorkloadClass::Ap => {
                // The MPP engine borrows morsel workers from the CN's own
                // persistent pools, so concurrent AP queries share workers
                // (under the AP governor) instead of each spawning threads.
                let mpp = MppExecutor::with_pool(
                    inner.config.mpp_workers,
                    Arc::clone(&inner.workload),
                );
                let governor = inner.workload.governor_for(JobClass::Ap);
                let plan = plan.clone();
                let mgr = Arc::clone(&inner.workload);
                mgr.run(JobClass::Ap, move || {
                    let ctx = ExecCtx::with_ticks(TickState::new(governor, None));
                    mpp.execute(&plan, &provider, &ctx)
                })
            }
        }
    }

    fn build_provider(&self, class: WorkloadClass, snapshot_ts: u64) -> ClusterProvider {
        self.inner.fenced_provider(snapshot_ts, true, || self.read_engines(class))
    }

    /// The engines a query of `class` reads.
    fn read_engines(
        &self,
        class: WorkloadClass,
    ) -> HashMap<NodeId, Arc<polardbx_storage::StorageEngine>> {
        // AP queries read RO replicas when present and HTAP routing is on;
        // TP (and AP without replicas) reads the RW engines.
        let use_ro = class == WorkloadClass::Ap
            && self.inner.htap_ro.load(Ordering::Relaxed)
            && self.inner.dns.values().any(|d| !d.rw.ros().is_empty());
        self.inner
            .dns
            .iter()
            .map(|(&id, dn)| {
                let engine = if use_ro {
                    match dn.rw.ros().first() {
                        Some(ro) => {
                            // Session consistency (§II-C): the read carries
                            // the RW's current LSN as a token; the replica
                            // must catch up to it before serving. Take the
                            // token BEFORE shipping: ship() synchronously
                            // applies everything flushed at call time, so
                            // the wait then succeeds immediately instead of
                            // chasing commits that landed between ship()
                            // and the token snapshot.
                            let token = dn.rw.session_token();
                            dn.rw.ship();
                            match ro.wait_for(token, Duration::from_millis(200)) {
                                Ok(()) => Arc::clone(&ro.engine),
                                // A replica still behind would serve a
                                // stale snapshot: read the RW engine.
                                Err(_) => {
                                    self.inner.ro_fallbacks.inc();
                                    Arc::clone(&dn.rw.engine)
                                }
                            }
                        }
                        None => Arc::clone(&dn.rw.engine),
                    }
                } else {
                    Arc::clone(&dn.rw.engine)
                };
                (id, engine)
            })
            .collect()
    }

    // ------------------------------------------------------------------- DDL

    fn create_table(&self, ct: ast::CreateTable) -> Result<()> {
        let id = self.inner.gms.next_table_id();
        let columns: Vec<ColumnDef> = ct
            .columns
            .iter()
            .map(|(n, t, nn)| {
                let mut c = ColumnDef::new(n.clone(), *t);
                if *nn {
                    c = c.not_null();
                }
                c
            })
            .collect();
        let mut schema = match &ct.partition {
            Some((cols, shards)) => TableSchema::new(
                id,
                &ct.name,
                columns,
                ct.primary_key.clone(),
                PartitionSpec::Hash { columns: cols.clone(), shards: *shards },
            )?,
            None => TableSchema::hash_on_pk(
                id,
                &ct.name,
                columns,
                ct.primary_key.clone(),
                self.inner.config.default_shards,
            )?,
        };
        if let Some(g) = &ct.table_group {
            schema = schema.in_table_group(g.clone());
        }
        self.inner.gms.create_table(schema.clone())?;
        // Create the shard tables on their DNs (and RO mirrors).
        for shard in 0..schema.partition.shard_count() {
            let dn_id = self.inner.gms.shard_dn(schema.id, shard)?;
            let dn = &self.inner.dns[&dn_id];
            dn.rw.create_table(shard_table_id(schema.id, shard), TenantId(schema.id.raw()));
        }
        Ok(())
    }

    fn create_index(&self, ci: ast::CreateIndex) -> Result<()> {
        let mut schema = self.inner.gms.table(&ci.table)?;
        let kind = match ci.placement {
            IndexPlacement::Local => IndexKind::Local,
            IndexPlacement::Global => IndexKind::GlobalNonClustered,
            IndexPlacement::GlobalClustered => IndexKind::GlobalClustered,
        };
        schema = schema.with_index(IndexDef {
            name: ci.name.clone(),
            columns: ci.columns.clone(),
            kind,
            unique: ci.unique,
        })?;
        self.inner.gms.record_index(&ci.table, &ci.columns);

        if matches!(kind, IndexKind::GlobalNonClustered | IndexKind::GlobalClustered) {
            // Global index = hidden table partitioned by the indexed
            // columns (§II-B). Schema: indexed cols + pk cols (+ the rest
            // when clustered).
            let hidden_name = format!("__gsi_{}_{}", ci.table, ci.name);
            let mut cols: Vec<ColumnDef> = Vec::new();
            for c in &ci.columns {
                let i = schema.column_index(c)?;
                cols.push(schema.columns[i].clone());
            }
            let pk_names: Vec<String> =
                schema.primary_key.iter().map(|&i| schema.columns[i].name.clone()).collect();
            for &i in &schema.primary_key {
                if !ci.columns.contains(&schema.columns[i].name) {
                    cols.push(schema.columns[i].clone());
                }
            }
            if kind == IndexKind::GlobalClustered {
                for c in &schema.columns {
                    if !cols.iter().any(|x| x.name == c.name) {
                        cols.push(c.clone());
                    }
                }
            }
            let hidden_id = self.inner.gms.next_table_id();
            let hidden = TableSchema::new(
                hidden_id,
                &hidden_name,
                cols,
                // Index rows are keyed by indexed cols + pk for uniqueness.
                ci.columns.iter().chain(pk_names.iter()).cloned().collect(),
                PartitionSpec::Hash {
                    columns: ci.columns.clone(),
                    shards: schema.partition.shard_count(),
                },
            )?;
            self.inner.gms.create_table(hidden.clone())?;
            for shard in 0..hidden.partition.shard_count() {
                // lint:allow(fence_completeness, DDL provisioning of the just-created hidden index table: nothing can re-home a shard that has no data yet, and GSI writes go through write_gsi_row's fenced route)
                let dn_id = self.inner.gms.shard_dn(hidden.id, shard)?;
                let dn = &self.inner.dns[&dn_id];
                dn.rw.create_table(
                    shard_table_id(hidden.id, shard),
                    TenantId(hidden.id.raw()),
                );
            }
            self.inner
                .gsi_tables
                .write()
                .entry(ci.table.clone())
                .or_default()
                .push(hidden_name.clone());
            // Backfill from existing rows.
            let ts = self.cn.coordinator.clock().now().raw();
            for shard in 0..schema.partition.shard_count() {
                // lint:allow(fence_completeness, backfill scan routing is read-only: the index rows it produces are written through write_gsi_row's fenced route, so a racing re-home fails the DDL retryably instead of losing writes)
                let dn_id = self.inner.gms.shard_dn(schema.id, shard)?;
                let dn = &self.inner.dns[&dn_id];
                for (_, row) in
                    dn.rw.engine.scan_table(shard_table_id(schema.id, shard), ts)?
                {
                    self.write_gsi_row(&hidden, &schema, &ci.columns, &row, false)?;
                }
            }
        }
        self.inner.gms.update_table(schema);
        Ok(())
    }

    fn gsi_row(
        &self,
        hidden: &TableSchema,
        base: &TableSchema,
        base_row: &Row,
    ) -> Result<Row> {
        let mut vals = Vec::with_capacity(hidden.arity());
        for c in &hidden.columns {
            let i = base.column_index(&c.name)?;
            vals.push(base_row.get(i)?.clone());
        }
        Ok(Row::new(vals))
    }

    fn write_gsi_row(
        &self,
        hidden: &TableSchema,
        base: &TableSchema,
        _index_cols: &[String],
        base_row: &Row,
        delete: bool,
    ) -> Result<()> {
        let idx_row = self.gsi_row(hidden, base, base_row)?;
        let key = hidden.pk_of(&idx_row)?;
        self.retry_dml(|| {
            let (shard, dn, epoch) = self.inner.gms.route_row_fenced(hidden, &idx_row)?;
            let stid = shard_table_id(hidden.id, shard);
            let mut writes = self.column_writes([hidden]);
            let mut txn = self.cn.coordinator.begin();
            txn.pin_epoch(stid, epoch)?;
            if delete {
                writes.delete(hidden, &key);
                txn.write(dn, stid, key.clone(), WireWriteOp::Delete)?;
            } else {
                writes.put(hidden, &key, &idx_row);
                txn.write(dn, stid, key.clone(), WireWriteOp::Update(idx_row.clone()))?;
            }
            self.commit_dml(txn, writes)?;
            Ok(())
        })
    }

    // ------------------------------------------------------------------- DML

    /// Run one DML statement, retrying it wholesale in a fresh transaction
    /// while it bounces off a re-home cutover (`Throttled`: a frozen shard
    /// at route or write time, a pinned routing epoch that moved by commit
    /// time, or a store detached between routing and execution — the DN
    /// remaps that retryably too) or loses a first-committer-wins race
    /// (`WriteConflict`: another transaction wrote a matched row after
    /// this one's snapshot). Statements are autocommit, so a retry
    /// re-reads, re-routes and lands on the new home; conflicts never
    /// reach the client. Bounded: a cutover pauses a shard for
    /// milliseconds and a conflicting writer commits in microseconds, so a
    /// statement still bouncing at the deadline surfaces the error.
    fn retry_dml<T>(&self, mut f: impl FnMut() -> Result<T>) -> Result<T> {
        let now = polardbx_common::time::mono_now;
        let deadline = now() + Duration::from_secs(10);
        loop {
            match f() {
                Err(e)
                    if matches!(
                        e.root(),
                        Error::Throttled { .. } | Error::WriteConflict { .. }
                    ) && now() < deadline =>
                {
                    // Jittered so writers that conflicted on one row do
                    // not retry in lockstep.
                    let jitter = u64::from(now().subsec_nanos()) % 500;
                    std::thread::sleep(Duration::from_micros(500 + jitter));
                }
                other => return other,
            }
        }
    }

    fn insert(&self, ins: &ast::Insert) -> Result<u64> {
        let schema = self.inner.gms.table(&ins.table)?;
        let visible: Vec<String> = schema
            .columns
            .iter()
            .take(schema.visible_arity())
            .map(|c| c.name.clone())
            .collect();
        let positions: Vec<usize> = match &ins.columns {
            None => (0..visible.len()).collect(),
            Some(cols) => cols
                .iter()
                .map(|c| schema.column_index(c))
                .collect::<Result<_>>()?,
        };
        let gsis = self.gsi_schemas(&ins.table)?;
        let mut writes = self.column_writes(std::iter::once(&schema).chain(&gsis));
        let mut txn = self.cn.coordinator.begin();
        let mut count = 0u64;
        for value_exprs in &ins.values {
            if value_exprs.len() != positions.len() {
                return Err(Error::Schema {
                    message: format!(
                        "INSERT arity {} vs column list {}",
                        value_exprs.len(),
                        positions.len()
                    ),
                });
            }
            let mut vals = vec![Value::Null; schema.arity()];
            for (expr, &pos) in value_exprs.iter().zip(&positions) {
                vals[pos] = expr.eval(&Row::empty())?;
            }
            if schema.implicit_pk {
                let seq = self.inner.gms.next_sequence(schema.id)?;
                vals[schema.arity() - 1] = Value::Int(seq);
            }
            let row = Row::new(vals);
            schema.validate_row(&row)?;
            let key = schema.pk_of(&row)?;
            // Fenced routing: pin each written shard's routing epoch on the
            // transaction so a re-home cutover racing this statement aborts
            // the commit retryably instead of stranding the write on the
            // detached old home (a silently lost update).
            let (shard, dn, epoch) = self.inner.gms.route_row_fenced(&schema, &row)?;
            let stid = shard_table_id(schema.id, shard);
            txn.pin_epoch(stid, epoch)?;
            writes.put(&schema, &key, &row);
            txn.write(dn, stid, key, WireWriteOp::Insert(row.clone()))?;
            // Maintain global indexes in the same distributed transaction
            // (§II-B: "updated in a single distributed transaction").
            for hidden in &gsis {
                let idx_row = self.gsi_row(hidden, &schema, &row)?;
                let (ishard, idn, iepoch) =
                    self.inner.gms.route_row_fenced(hidden, &idx_row)?;
                let ikey = hidden.pk_of(&idx_row)?;
                let istid = shard_table_id(hidden.id, ishard);
                txn.pin_epoch(istid, iepoch)?;
                writes.put(hidden, &ikey, &idx_row);
                txn.write(idn, istid, ikey, WireWriteOp::Insert(idx_row))?;
            }
            count += 1;
        }
        self.commit_dml(txn, writes)?;
        self.inner.gms.record_rows(&ins.table, count as i64);
        Ok(count)
    }

    fn gsi_schemas(&self, table: &str) -> Result<Vec<TableSchema>> {
        let names = self.inner.gsi_tables.read().get(table).cloned().unwrap_or_default();
        names.iter().map(|n| self.inner.gms.table(n)).collect()
    }

    /// Rows of `schema`'s table matching `predicate` (resolved against all
    /// columns), read inside `txn` at its snapshot: point reads or bounded
    /// scans on the shards the primary-key access names, every shard for
    /// a full scan. Each shard is routed fenced and its routing epoch
    /// pinned, so the writes that follow land on the home that was read
    /// and the engine's first-committer-wins check sees any write that
    /// committed after this snapshot. Returns (DN, shard table, key, row).
    fn find_matches(
        &self,
        txn: &mut DistTxn<'_>,
        schema: &TableSchema,
        predicate: Option<&Expr>,
    ) -> Result<Vec<(NodeId, TableId, Key, Row)>> {
        let access = KeyAccess::derive(predicate, schema);
        let shards = access.shards(schema.partition.shard_count());
        let mut out = Vec::new();
        for shard in shards {
            let (dn, epoch) = self.inner.gms.shard_dn_fenced(schema.id, shard)?;
            let stid = shard_table_id(schema.id, shard);
            txn.pin_epoch(stid, epoch)?;
            let rows = match &access {
                KeyAccess::Point(_) => {
                    let mut rows = Vec::new();
                    for key in access.keys_on(shard) {
                        if let Some(row) = txn.read(dn, stid, key)? {
                            rows.push((key.clone(), row));
                        }
                    }
                    rows
                }
                KeyAccess::Range { lo, hi, .. } => txn.scan(dn, stid, lo.clone(), hi.clone())?,
                KeyAccess::Full => txn.scan(dn, stid, None, None)?,
            };
            for (key, row) in rows {
                if predicate.map_or(Ok(true), |p| p.eval_bool(&row))? {
                    out.push((dn, stid, key, row));
                }
            }
        }
        Ok(out)
    }

    fn update(&self, u: &ast::Update) -> Result<u64> {
        let schema = self.inner.gms.table(&u.table)?;
        let gsis = self.gsi_schemas(&u.table)?;
        let names: Vec<String> = schema.columns.iter().map(|c| c.name.clone()).collect();
        let assignments: Vec<(usize, Expr)> = u
            .assignments
            .iter()
            .map(|(c, e)| Ok((schema.column_index(c)?, e.resolve(&names)?)))
            .collect::<Result<_>>()?;
        // A row is stored under its primary key: changing it would leave
        // the row under a key it no longer has.
        if let Some((i, _)) = assignments.iter().find(|(i, _)| schema.primary_key.contains(i)) {
            return Err(Error::invalid(format!(
                "UPDATE of primary-key column {} is not supported",
                schema.columns[*i].name
            )));
        }
        let predicate = u.predicate.as_ref().map(|p| p.resolve(&names)).transpose()?;
        let mut writes = self.column_writes(std::iter::once(&schema).chain(&gsis));
        let mut txn = self.cn.coordinator.begin();
        let matches = self.find_matches(&mut txn, &schema, predicate.as_ref())?;
        let count = matches.len() as u64;
        for (dn, stid, key, old_row) in matches {
            let mut new_row = old_row.clone();
            for (idx, expr) in &assignments {
                new_row.set(*idx, expr.eval(&old_row)?)?;
            }
            schema.validate_row(&new_row)?;
            // The matched shard's epoch was pinned when it was read: a
            // racing re-home aborts the commit retryably instead of losing
            // the update on the detached old home.
            writes.put(&schema, &key, &new_row);
            txn.write(dn, stid, key, WireWriteOp::Update(new_row.clone()))?;
            for hidden in &gsis {
                // Replace the index entry when it changed.
                let old_idx = self.gsi_row(hidden, &schema, &old_row)?;
                let new_idx = self.gsi_row(hidden, &schema, &new_row)?;
                if old_idx != new_idx {
                    let (os, od, oepoch) =
                        self.inner.gms.route_row_fenced(hidden, &old_idx)?;
                    let ostid = shard_table_id(hidden.id, os);
                    txn.pin_epoch(ostid, oepoch)?;
                    let okey = hidden.pk_of(&old_idx)?;
                    writes.delete(hidden, &okey);
                    txn.write(od, ostid, okey, WireWriteOp::Delete)?;
                    let (ns, nd, nepoch) =
                        self.inner.gms.route_row_fenced(hidden, &new_idx)?;
                    let nstid = shard_table_id(hidden.id, ns);
                    txn.pin_epoch(nstid, nepoch)?;
                    let nkey = hidden.pk_of(&new_idx)?;
                    writes.put(hidden, &nkey, &new_idx);
                    txn.write(nd, nstid, nkey, WireWriteOp::Update(new_idx))?;
                }
            }
        }
        self.commit_dml(txn, writes)?;
        Ok(count)
    }

    fn delete(&self, d: &ast::Delete) -> Result<u64> {
        let schema = self.inner.gms.table(&d.table)?;
        let gsis = self.gsi_schemas(&d.table)?;
        let names: Vec<String> = schema.columns.iter().map(|c| c.name.clone()).collect();
        let predicate = d.predicate.as_ref().map(|p| p.resolve(&names)).transpose()?;
        let mut writes = self.column_writes(std::iter::once(&schema).chain(&gsis));
        let mut txn = self.cn.coordinator.begin();
        let matches = self.find_matches(&mut txn, &schema, predicate.as_ref())?;
        let count = matches.len() as u64;
        for (dn, stid, key, old_row) in matches {
            writes.delete(&schema, &key);
            txn.write(dn, stid, key, WireWriteOp::Delete)?;
            for hidden in &gsis {
                let old_idx = self.gsi_row(hidden, &schema, &old_row)?;
                let (os, od, oepoch) =
                    self.inner.gms.route_row_fenced(hidden, &old_idx)?;
                let ostid = shard_table_id(hidden.id, os);
                txn.pin_epoch(ostid, oepoch)?;
                let okey = hidden.pk_of(&old_idx)?;
                writes.delete(hidden, &okey);
                txn.write(od, ostid, okey, WireWriteOp::Delete)?;
            }
        }
        self.commit_dml(txn, writes)?;
        self.inner.gms.record_rows(&d.table, -(count as i64));
        Ok(count)
    }

    /// The column indexes of `tables`, ready to record a statement's
    /// writes to them.
    fn column_writes<'t>(&self, tables: impl IntoIterator<Item = &'t TableSchema>) -> ColumnWrites {
        let map = self.inner.column_indexes.read();
        ColumnWrites(
            tables
                .into_iter()
                .filter_map(|t| Some((t.name.clone(), Arc::clone(map.get(&t.name)?), Vec::new())))
                .collect(),
        )
    }

    /// Commit a DML statement and apply its write set to the column
    /// indexes it wrote, at the commit timestamp. The gate is entered
    /// before anything prepares (see `Inner::fence_snapshot`). An abort
    /// applies nothing. An in-doubt `Timeout` or a failed apply invalidates
    /// the indexes (queries read the row store) and reloads them before
    /// returning the statement's own outcome; a failed reload leaves them
    /// invalidated until the next `enable_column_index`.
    fn commit_dml(&self, txn: DistTxn<'_>, mut writes: ColumnWrites) -> Result<u64> {
        writes.0.retain(|(_, _, ops)| !ops.is_empty());
        if writes.0.is_empty() {
            return txn.commit();
        }
        let ticket = self.inner.write_gate.enter();
        let outcome = match txn.commit() {
            Ok(commit_ts) => {
                let ops = writes.0.iter().map(|(_, index, ops)| (&**index, &ops[..]));
                if ticket.apply(commit_ts, ops).is_ok() {
                    return Ok(commit_ts);
                }
                // The failed index was invalidated: reload it below.
                Ok(commit_ts)
            }
            Err(e) if matches!(e.root(), Error::Timeout { .. }) => {
                for (_, index, _) in &writes.0 {
                    index.invalidate();
                }
                drop(ticket);
                Err(e)
            }
            Err(e) => return Err(e),
        };
        for (table, ..) in &writes.0 {
            let _ = self.inner.load_column_index(table);
        }
        outcome
    }
}

impl Inner {
    /// The snapshot fence, run before any provider reads at `ts`. Every DN
    /// syncs its clock to `ts` (ClockUpdate; a wait under Clock-SI), so any
    /// later prepare, hence commit, lands above `ts`; row-store reads need
    /// this too, as providers read engines directly. Then writers already
    /// inside the gate, which may commit at or below `ts`, are waited for.
    /// After the fence a column index at `ts` holds exactly the commits at
    /// or below `ts`.
    fn fence_snapshot(&self, ts: u64) {
        for dn in self.dns.values() {
            dn.service.sync_snapshot(ts);
        }
        self.write_gate.drain();
    }

    /// A provider reading at `ts` behind the snapshot fence: the one way
    /// queries and harnesses get one. It pins `ts` with the column indexes
    /// before the fence waits (so a compaction meanwhile keeps what `ts`
    /// sees) and picks `engines` after it (an RO replica's catch-up token
    /// must cover what the fence waited for).
    fn fenced_provider(
        &self,
        ts: u64,
        columnar: bool,
        engines: impl FnOnce() -> HashMap<NodeId, Arc<polardbx_storage::StorageEngine>>,
    ) -> ClusterProvider {
        let pins = if columnar {
            let indexes = self.column_indexes.read();
            indexes.iter().map(|(table, index)| (table.clone(), index.pin(ts))).collect()
        } else {
            HashMap::new()
        };
        self.fence_snapshot(ts);
        ClusterProvider::new(Arc::clone(&self.gms), engines(), ts).with_column_pins(pins)
    }

    /// Load `table`'s column index (created on first use) from a scan of
    /// the RW engines, holding the write gate exclusively. The scan's
    /// timestamp is at or above every DN clock, so every write committed
    /// before the load, SQL or raw, and every in-doubt one that commits,
    /// has a commit timestamp at or below it (the scan waits out prepared
    /// versions). The index never leaves the map: readers see old or new
    /// contents; on an error they keep the old.
    fn load_column_index(&self, table: &str) -> Result<()> {
        let schema = self.gms.table(table)?;
        let index = {
            let mut map = self.column_indexes.write();
            let entry = map.entry(table.to_string()).or_insert_with(|| {
                ColumnIndex::new(
                    schema.columns.iter().take(schema.visible_arity()).map(|c| c.ty).collect(),
                )
            });
            Arc::clone(entry)
        };
        let _exclusive = self.write_gate.exclusive();
        let ts = self
            .dns
            .values()
            .map(|dn| dn.service.clock.now().raw())
            .fold(self.cns[0].coordinator.clock().now().raw(), u64::max);
        let provider = self.fenced_provider(ts, false, || self.rw_engines());
        let mut rows = Vec::new();
        for shard in 0..schema.partition.shard_count() {
            rows.extend(provider.read_shard(&schema, shard, |engine, stid| {
                engine.scan_table(stid, ts)
            })?);
        }
        index.load(ts, rows)?;
        self.gms.set_column_index(table, true);
        Ok(())
    }

    /// Every DN's RW engine.
    fn rw_engines(&self) -> HashMap<NodeId, Arc<polardbx_storage::StorageEngine>> {
        self.dns.iter().map(|(&id, dn)| (id, Arc::clone(&dn.rw.engine))).collect()
    }
}

/// A statement's writes to column-indexed tables, applied to their indexes
/// at the commit timestamp (`Session::commit_dml`).
struct ColumnWrites(Vec<(String, Arc<ColumnIndex>, Vec<IndexOp>)>);

impl ColumnWrites {
    /// Record a row image written to `table` (ignored when unindexed).
    fn put(&mut self, table: &TableSchema, key: &Key, row: &Row) {
        self.push(table, || IndexOp::Put(key.clone(), row.clone()));
    }

    /// Record a delete from `table` (ignored when unindexed).
    fn delete(&mut self, table: &TableSchema, key: &Key) {
        self.push(table, || IndexOp::Delete(key.clone()));
    }

    fn push(&mut self, table: &TableSchema, op: impl FnOnce() -> IndexOp) {
        if let Some((_, _, ops)) = self.0.iter_mut().find(|(t, ..)| *t == table.name) {
            ops.push(op());
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.shipper_stop.store(true, Ordering::Relaxed);
        self.placer_stop.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> PolarDbx {
        PolarDbx::build(ClusterConfig { dns: 3, default_shards: 6, ..Default::default() })
            .unwrap()
    }

    #[test]
    fn ddl_dml_query_roundtrip() {
        let db = cluster();
        let s = db.connect(DcId(1));
        s.execute(
            "CREATE TABLE accounts (id BIGINT NOT NULL, name VARCHAR(32), balance DOUBLE, \
             PRIMARY KEY (id)) PARTITION BY HASH(id) PARTITIONS 6",
        )
        .unwrap();
        let n = s
            .execute(
                "INSERT INTO accounts (id, name, balance) VALUES \
                 (1, 'alice', 100.0), (2, 'bob', 50.0), (3, 'carol', 75.0)",
            )
            .unwrap();
        assert_eq!(n, 3);
        let rows = s.query("SELECT name FROM accounts WHERE id = 2").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0).unwrap(), &Value::str("bob"));
        // Aggregate across shards.
        let rows = s.query("SELECT COUNT(*), SUM(balance) FROM accounts").unwrap();
        assert_eq!(rows[0].get(0).unwrap(), &Value::Int(3));
        assert_eq!(rows[0].get(1).unwrap(), &Value::Double(225.0));
        db.shutdown();
    }

    #[test]
    fn update_and_delete() {
        let db = cluster();
        let s = db.connect(DcId(1));
        s.execute("CREATE TABLE t (id BIGINT NOT NULL, v INT, PRIMARY KEY (id))").unwrap();
        s.execute("INSERT INTO t (id, v) VALUES (1, 10), (2, 20), (3, 30)").unwrap();
        let n = s.execute("UPDATE t SET v = v + 1 WHERE id >= 2").unwrap();
        assert_eq!(n, 2);
        let rows = s.query("SELECT v FROM t WHERE id = 3").unwrap();
        assert_eq!(rows[0].get(0).unwrap(), &Value::Int(31));
        let n = s.execute("DELETE FROM t WHERE v = 21").unwrap();
        assert_eq!(n, 1);
        assert_eq!(db.count_rows("t").unwrap(), 2);
        db.shutdown();
    }

    #[test]
    fn implicit_pk_assigned() {
        let db = cluster();
        let s = db.connect(DcId(1));
        s.execute("CREATE TABLE logs (msg VARCHAR(64))").unwrap();
        s.execute("INSERT INTO logs (msg) VALUES ('a'), ('b'), ('c')").unwrap();
        assert_eq!(db.count_rows("logs").unwrap(), 3);
        let rows = s.query("SELECT COUNT(*) FROM logs").unwrap();
        assert_eq!(rows[0].get(0).unwrap(), &Value::Int(3));
        db.shutdown();
    }

    #[test]
    fn duplicate_pk_rejected_atomically() {
        let db = cluster();
        let s = db.connect(DcId(1));
        s.execute("CREATE TABLE t (id BIGINT NOT NULL, v INT, PRIMARY KEY (id))").unwrap();
        s.execute("INSERT INTO t (id, v) VALUES (1, 10)").unwrap();
        // Multi-row insert with a duplicate aborts entirely.
        let err = s.execute("INSERT INTO t (id, v) VALUES (5, 50), (1, 99)").unwrap_err();
        assert!(matches!(err, Error::DuplicateKey { .. } | Error::PrepareRejected { .. }));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(db.count_rows("t").unwrap(), 1, "atomic abort");
        db.shutdown();
    }

    #[test]
    fn global_index_maintained_in_same_txn() {
        let db = cluster();
        let s = db.connect(DcId(1));
        s.execute("CREATE TABLE orders (id BIGINT NOT NULL, cust INT, PRIMARY KEY (id))")
            .unwrap();
        s.execute("INSERT INTO orders (id, cust) VALUES (1, 7), (2, 7), (3, 9)").unwrap();
        s.execute("CREATE GLOBAL INDEX by_cust ON orders (cust)").unwrap();
        // Backfill populated the hidden table.
        assert_eq!(db.count_rows("__gsi_orders_by_cust").unwrap(), 3);
        // New inserts maintain it.
        s.execute("INSERT INTO orders (id, cust) VALUES (4, 9)").unwrap();
        assert_eq!(db.count_rows("__gsi_orders_by_cust").unwrap(), 4);
        // Updates to the indexed column move the entry.
        s.execute("UPDATE orders SET cust = 8 WHERE id = 1").unwrap();
        let rows = s.query("SELECT cust FROM __gsi_orders_by_cust WHERE cust = 8").unwrap();
        assert_eq!(rows.len(), 1);
        // Deletes remove it.
        s.execute("DELETE FROM orders WHERE id = 2").unwrap();
        assert_eq!(db.count_rows("__gsi_orders_by_cust").unwrap(), 3);
        db.shutdown();
    }

    #[test]
    fn rehome_shard_under_live_traffic() {
        let db = cluster();
        let s = db.connect(DcId(1));
        s.execute(
            "CREATE TABLE t (id BIGINT NOT NULL, v INT, PRIMARY KEY (id)) \
             PARTITION BY HASH(id) PARTITIONS 4",
        )
        .unwrap();
        for i in 0..40 {
            s.execute(&format!("INSERT INTO t (id, v) VALUES ({i}, {i})")).unwrap();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let s2 = db.connect(DcId(1));
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || -> (u64, Option<Error>) {
                let mut applied = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let attempt = (|| -> Result<()> {
                        let (stid, dn, epoch) =
                            s2.route_fenced("t", &[Value::Int(0)])?;
                        let mut txn = s2.coordinator().begin();
                        txn.pin_epoch(stid, epoch)?;
                        txn.write(
                            dn,
                            stid,
                            polardbx_common::Key::encode(&[Value::Int(0)]),
                            WireWriteOp::Update(Row::new(vec![
                                Value::Int(0),
                                Value::Int(applied as i64),
                            ])),
                        )?;
                        txn.commit()?;
                        Ok(())
                    })();
                    match attempt {
                        Ok(()) => applied += 1,
                        Err(e) if e.is_retryable() => {}
                        Err(e) => return (applied, Some(e)),
                    }
                }
                (applied, None)
            })
        };
        // Move every shard to a different DN while the writer hammers.
        let schema = db.gms().table("t").unwrap();
        let dns: Vec<NodeId> = db.gms().dns();
        for shard in 0..4u32 {
            let cur = db.gms().shard_dn(schema.id, shard).unwrap();
            let dest = *dns.iter().find(|&&d| d != cur).unwrap();
            let pause = db.rehome_shard("t", shard, dest).unwrap();
            assert!(pause < Duration::from_secs(2), "cutover pause bounded");
            assert_eq!(db.gms().shard_dn(schema.id, shard).unwrap(), dest);
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
        let (applied, fatal) = writer.join().unwrap();
        assert!(fatal.is_none(), "writer hit non-retryable error: {fatal:?}");
        assert!(applied > 0, "writer made progress across cutovers");
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(db.count_rows("t").unwrap(), 40, "no rows lost or duplicated");
        db.shutdown();
    }

    /// The SQL DML path (not the explicit fenced-driver API above) under a
    /// live re-home: every acked `UPDATE v = v + 1` must survive the
    /// cutovers. Before DML routed fenced, a statement could land on the
    /// old home inside the drain-to-detach window and be silently lost —
    /// acked to the client, stamped nowhere.
    #[test]
    fn sql_dml_survives_rehome_without_lost_updates() {
        let db = cluster();
        let s = db.connect(DcId(1));
        s.execute(
            "CREATE TABLE t (id BIGINT NOT NULL, v INT, PRIMARY KEY (id)) \
             PARTITION BY HASH(id) PARTITIONS 4",
        )
        .unwrap();
        for i in 0..8 {
            s.execute(&format!("INSERT INTO t (id, v) VALUES ({i}, 0)")).unwrap();
        }
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let s2 = db.connect(DcId(1));
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || -> (u64, Option<Error>) {
                let mut applied = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    match s2.execute("UPDATE t SET v = v + 1 WHERE id = 0") {
                        Ok(1) => applied += 1,
                        Ok(n) => {
                            return (applied, Some(Error::invalid(format!("matched {n} rows"))))
                        }
                        Err(e) if e.is_retryable() => {}
                        Err(e) => return (applied, Some(e)),
                    }
                }
                (applied, None)
            })
        };
        let schema = db.gms().table("t").unwrap();
        let dns: Vec<NodeId> = db.gms().dns();
        for _round in 0..2 {
            for shard in 0..4u32 {
                let cur = db.gms().shard_dn(schema.id, shard).unwrap();
                let dest = *dns.iter().find(|&&d| d != cur).unwrap();
                // A drain can time out retryably under the hammering writer.
                for attempt in 0.. {
                    match db.rehome_shard("t", shard, dest) {
                        Ok(_) => break,
                        Err(_) if attempt < 20 => {
                            std::thread::sleep(Duration::from_millis(2))
                        }
                        Err(e) => panic!("rehome never succeeded: {e:?}"),
                    }
                }
                assert_eq!(db.gms().shard_dn(schema.id, shard).unwrap(), dest);
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        stop.store(true, Ordering::Relaxed);
        let (applied, fatal) = writer.join().unwrap();
        assert!(fatal.is_none(), "SQL writer hit non-retryable error: {fatal:?}");
        assert!(applied > 0, "writer made progress across cutovers");
        let rows = s.query("SELECT v FROM t WHERE id = 0").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get(0).unwrap(),
            &Value::Int(applied as i64),
            "every acked UPDATE must survive the re-homes (no lost updates)"
        );
        db.shutdown();
    }

    #[test]
    fn placer_converts_cross_dn_txns_to_one_phase() {
        let db = cluster();
        let s = db.connect(DcId(1));
        s.execute(
            "CREATE TABLE p (id BIGINT NOT NULL, v INT, PRIMARY KEY (id)) \
             PARTITION BY HASH(id) PARTITIONS 6",
        )
        .unwrap();
        for i in 0..12 {
            s.execute(&format!("INSERT INTO p (id, v) VALUES ({i}, 0)")).unwrap();
        }
        // Pick two ids whose shards live on different DNs.
        let (a, b) = (0..12i64)
            .flat_map(|x| (0..12i64).map(move |y| (x, y)))
            .find(|&(x, y)| {
                x != y
                    && s.route("p", &[Value::Int(x)]).unwrap().1
                        != s.route("p", &[Value::Int(y)]).unwrap().1
            })
            .expect("some pair crosses DNs");
        db.start_placer(PlacerConfig {
            interval: Duration::from_millis(20),
            planner: PlannerConfig { max_moves: 4, min_edge_weight: 4, balance_slack: 10.0 },
            rehome: RehomeConfig {
                min_gap: Duration::from_millis(5),
                max_per_pass: 2,
            },
        });
        let metrics = Arc::clone(db.txn_metrics());
        let commit_pair = |val: i64| -> Result<bool> {
            let before_1pc = metrics.one_phase_commits.get();
            let (ta, da, ea) = s.route_fenced("p", &[Value::Int(a)])?;
            let (tb, dbn, eb) = s.route_fenced("p", &[Value::Int(b)])?;
            let mut txn = s.coordinator().begin();
            txn.pin_epoch(ta, ea)?;
            txn.pin_epoch(tb, eb)?;
            txn.write(
                da,
                ta,
                polardbx_common::Key::encode(&[Value::Int(a)]),
                WireWriteOp::Update(Row::new(vec![Value::Int(a), Value::Int(val)])),
            )?;
            txn.write(
                dbn,
                tb,
                polardbx_common::Key::encode(&[Value::Int(b)]),
                WireWriteOp::Update(Row::new(vec![Value::Int(b), Value::Int(val)])),
            )?;
            txn.commit()?;
            Ok(metrics.one_phase_commits.get() > before_1pc)
        };
        let deadline = polardbx_common::time::mono_now() + Duration::from_secs(20);
        let mut converged = false;
        let mut i = 0i64;
        while polardbx_common::time::mono_now() < deadline {
            i += 1;
            match commit_pair(i) {
                Ok(true) if metrics.rehomes_applied.get() > 0 => {
                    converged = true;
                    break;
                }
                Ok(_) => {}
                Err(e) => assert!(e.is_retryable(), "unexpected error: {e:?}"),
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            converged,
            "placer failed to colocate the hot pair (rehomes={}, 1pc={}, 2pc={})",
            metrics.rehomes_applied.get(),
            metrics.one_phase_commits.get(),
            metrics.two_phase_commits.get(),
        );
        db.shutdown();
    }

    #[test]
    fn load_balancer_prefers_local_cn() {
        let db = PolarDbx::build(ClusterConfig {
            dcs: 3,
            cns_per_dc: 2,
            dns: 3,
            ..Default::default()
        })
        .unwrap();
        for dc in 1..=3u64 {
            let s = db.connect(DcId(dc));
            assert_eq!(s.cn_dc(), DcId(dc), "locality-aware routing");
        }
        // Unknown DC falls back to any CN.
        let s = db.connect(DcId(99));
        assert!(s.cn_dc().raw() >= 1);
        db.shutdown();
    }

    #[test]
    fn classification_routes_tp_and_ap() {
        let db = cluster();
        let s = db.connect(DcId(1));
        s.execute("CREATE TABLE big (id BIGINT NOT NULL, v INT, PRIMARY KEY (id))").unwrap();
        for chunk in 0..4 {
            let values: Vec<String> = (0..50)
                .map(|i| format!("({}, {})", chunk * 50 + i, i))
                .collect();
            s.execute(&format!("INSERT INTO big (id, v) VALUES {}", values.join(",")))
                .unwrap();
        }
        // Make the stats look big so classification flips to AP.
        db.gms().record_rows("big", 10_000_000);
        let (_, class) = s.query_classified("SELECT id FROM big WHERE id = 5").unwrap();
        assert_eq!(class, WorkloadClass::Tp);
        let (rows, class) =
            s.query_classified("SELECT v, COUNT(*) FROM big GROUP BY v").unwrap();
        assert_eq!(class, WorkloadClass::Ap);
        assert_eq!(rows.len(), 50);
        db.shutdown();
    }

    #[test]
    fn column_index_query_path() {
        // One MPP worker: AP scans run serially and read the column index
        // (partition-parallel morsels scan the row store).
        let db = PolarDbx::build(ClusterConfig {
            dns: 3,
            default_shards: 6,
            mpp_workers: 1,
            ..Default::default()
        })
        .unwrap();
        let s = db.connect(DcId(1));
        s.execute("CREATE TABLE fact (id BIGINT NOT NULL, grp INT, amt DOUBLE, PRIMARY KEY (id))")
            .unwrap();
        let values: Vec<String> =
            (0..200).map(|i| format!("({i}, {}, {}.5)", i % 4, i)).collect();
        s.execute(&format!("INSERT INTO fact (id, grp, amt) VALUES {}", values.join(",")))
            .unwrap();
        db.enable_column_index("fact").unwrap();
        assert!(db.gms().statistics().get("fact").has_column_index);
        // Big statistics: aggregates classify AP and read the index.
        db.gms().record_rows("fact", 10_000_000);
        let index = db.column_index("fact").unwrap();
        let served = index.snapshots();
        let mut rows = s.query("SELECT grp, COUNT(*) FROM fact GROUP BY grp").unwrap();
        rows.sort_by(|a, b| a.get(0).unwrap().cmp(b.get(0).unwrap()));
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].get(1).unwrap(), &Value::Int(50));
        assert!(index.snapshots() > served, "the column path served the query");
        // The DELETE's write set is applied to the index at its commit.
        s.execute("DELETE FROM fact WHERE grp = 0").unwrap();
        let served = index.snapshots();
        let (rows, class) = s.query_classified("SELECT COUNT(*) FROM fact").unwrap();
        assert_eq!(class, WorkloadClass::Ap);
        assert_eq!(rows[0].get(0).unwrap(), &Value::Int(150));
        assert!(index.snapshots() > served, "the column path served the query");
        db.shutdown();
    }

    #[test]
    fn in_doubt_dml_commit_reloads_the_index_with_its_outcome() {
        // One CN and one DN per DC; one MPP worker so AP scans read the index.
        let db = PolarDbx::build(ClusterConfig {
            dcs: 2,
            cns_per_dc: 1,
            dns: 2,
            default_shards: 4,
            mpp_workers: 1,
            ..Default::default()
        })
        .unwrap();
        let s = db.connect_nth(0);
        assert_eq!(s.cn_dc(), DcId(1));
        s.execute("CREATE TABLE t (id BIGINT NOT NULL, v INT, PRIMARY KEY (id))").unwrap();
        s.execute("INSERT INTO t (id, v) VALUES (0, 0), (1, 0), (2, 0), (3, 0)").unwrap();
        db.gms().record_rows("t", 10_000_000);
        db.enable_column_index("t").unwrap();
        let index = db.column_index("t").unwrap();
        let schema = db.gms().table("t").unwrap();
        // A row on the DN in DC 2, whose clock another CN's snapshot raised
        // 100 ms past this CN's.
        let (id, stid, dn) = (0..4)
            .map(|id| {
                let (stid, dn) = s.route("t", &[Value::Int(id)]).unwrap();
                (id, stid, dn)
            })
            .find(|(.., dn)| db.inner.dns[dn].dc == DcId(2))
            .unwrap();
        let dn_clock = &db.inner.dns[&dn].service.clock;
        db.inner.dns[&dn].service.sync_snapshot(dn_clock.now().raw() + (100 << 16));
        // Every reply from DC 2 to DC 1 is lost while the statement commits:
        // its one-phase commit lands on the DN, the coordinator times out.
        let row = Row::new(vec![Value::Int(id), Value::Int(5)]);
        let key = schema.pk_of(&row).unwrap();
        let mut writes = s.column_writes([&schema]);
        let mut txn = s.cn.coordinator.begin();
        writes.put(&schema, &key, &row);
        txn.write(dn, stid, key, WireWriteOp::Update(row)).unwrap();
        db.inner.net.set_fault_plan(
            polardbx_simnet::FaultPlan::new(1).with_link(
                DcId(2),
                DcId(1),
                polardbx_simnet::LinkFaults::lossy(1.0),
            ),
        );
        let err = s.commit_dml(txn, writes).unwrap_err();
        db.inner.net.clear_fault_plan();
        assert!(matches!(err.root(), Error::Timeout { .. }), "in doubt: {err:?}");
        // The reload saw the commit: a snapshot above it reads it from the
        // index.
        s.cn.coordinator.clock().update(dn_clock.now());
        let served = index.snapshots();
        let (rows, class) = s.query_classified("SELECT SUM(v) FROM t").unwrap();
        assert_eq!(class, WorkloadClass::Ap);
        assert!(index.snapshots() > served, "the column path served the query");
        assert_eq!(rows[0].get(0).unwrap(), &Value::Int(5));
        db.shutdown();
    }

    #[test]
    fn joins_across_shards() {
        let db = cluster();
        let s = db.connect(DcId(1));
        s.execute("CREATE TABLE l (id BIGINT NOT NULL, gid INT, PRIMARY KEY (id))").unwrap();
        s.execute("CREATE TABLE g (gid BIGINT NOT NULL, name VARCHAR(16), PRIMARY KEY (gid))")
            .unwrap();
        s.execute("INSERT INTO g (gid, name) VALUES (0, 'zero'), (1, 'one')").unwrap();
        s.execute(
            "INSERT INTO l (id, gid) VALUES (1, 0), (2, 1), (3, 0), (4, 1), (5, 0)",
        )
        .unwrap();
        let rows = s
            .query(
                "SELECT g.name, COUNT(*) AS n FROM l JOIN g ON l.gid = g.gid \
                 GROUP BY g.name ORDER BY n DESC",
            )
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get(0).unwrap(), &Value::str("zero"));
        assert_eq!(rows[0].get(1).unwrap(), &Value::Int(3));
        db.shutdown();
    }
}

//! MPP execution: fragment the plan, fan out, exchange, merge (§VI-C).
//!
//! "The plan is split into multiple fragments … Task Scheduler encapsulates
//! each fragment as a Task, and then schedules all tasks to appropriate CN
//! nodes for execution. … Each executed task exchanges necessary data with
//! others. When all tasks complete, partial results are sent back to Query
//! Coordinator, who assembles the final result."
//!
//! Parallelism is morsel-driven: partition scans split into fixed-size row
//! chunks drained by a persistent worker pool (the `WorkloadManager` AP
//! pool) with work stealing, so a skewed partition no longer pins a single
//! worker while its siblings sit idle, and concurrent queries share the
//! pool instead of each spawning a fresh `thread::scope`. Pipeline
//! breakers (partial aggregation) keep per-worker state merged once at the
//! barrier; per-chunk operator work runs through the vectorized engine
//! (`crate::vectorized`).

use std::sync::Arc;

use polardbx_common::{Result, Row};
use polardbx_sql::plan::LogicalPlan;

use crate::batch::batches_of;
use crate::morsel::{morsel_execute, run_parallel_pooled, shared_pool, MorselWork};
use crate::operators::{apply_join, apply_sort, ExecCtx, TableProvider};
use crate::scheduler::{JobClass, WorkloadManager};
use crate::vectorized::{self, pipeline_stages, run_stages, JoinBuild, StageOp, VecAggTable};

/// The MPP engine: a degree of parallelism (worker tasks ≈ CN nodes ×
/// cores) on a persistent worker pool.
pub struct MppExecutor {
    /// Maximum concurrent tasks per query.
    pub workers: usize,
    pool: Arc<WorkloadManager>,
}

/// Per-worker state of a morsel fragment: the fragment's partial result
/// plus a forked execution context (same governor/deadline as the query,
/// own row counter).
struct Local<T> {
    out: T,
    ctx: ExecCtx,
}

/// Morsel fragment for a `Filter*/Project*`-over-`Scan` pipeline: each
/// chunk runs the fused stages through the vectorized engine.
struct PipelineWork {
    provider: Arc<dyn TableProvider>,
    table: String,
    stages: Vec<StageOp>,
    ctx: ExecCtx,
}

impl MorselWork<Local<Vec<Row>>> for PipelineWork {
    fn new_local(&self) -> Local<Vec<Row>> {
        Local { out: Vec::new(), ctx: self.ctx.fork() }
    }
    fn scan(&self, partition: usize) -> Result<Vec<Row>> {
        let t0 = polardbx_common::time::Timer::start();
        let rows = self.provider.scan_partition(&self.table, partition)?;
        crate::exec_metrics::exec_metrics().scan.record(rows.len() as u64, 0, t0);
        Ok(rows)
    }
    fn process(&self, rows: Vec<Row>, local: &mut Local<Vec<Row>>) -> Result<()> {
        for batch in batches_of(rows) {
            let batch = run_stages(batch, &self.stages, &local.ctx)?;
            local.out.extend(batch.to_rows());
        }
        Ok(())
    }
}

/// Morsel fragment for two-phase aggregation: per-worker partial
/// [`VecAggTable`]s folded chunk by chunk, merged at the coordinator.
struct PartialAggWork {
    pipeline: PipelineWork,
    group_by: Vec<polardbx_sql::expr::Expr>,
    aggs: Vec<polardbx_sql::plan::AggSpec>,
}

impl MorselWork<Local<VecAggTable>> for PartialAggWork {
    fn new_local(&self) -> Local<VecAggTable> {
        Local {
            out: VecAggTable::new(self.group_by.clone(), self.aggs.clone()),
            ctx: self.pipeline.ctx.fork(),
        }
    }
    fn scan(&self, partition: usize) -> Result<Vec<Row>> {
        self.pipeline.scan(partition)
    }
    fn process(&self, rows: Vec<Row>, local: &mut Local<VecAggTable>) -> Result<()> {
        for batch in batches_of(rows) {
            let batch = run_stages(batch, &self.pipeline.stages, &local.ctx)?;
            let t0 = polardbx_common::time::Timer::start();
            let n = batch.num_rows() as u64;
            local.out.update_batch(&batch, &local.ctx)?;
            crate::exec_metrics::exec_metrics().aggregate.record(n, 0, t0);
        }
        Ok(())
    }
}

impl MppExecutor {
    /// An engine with `workers` parallel tasks on the process-wide shared
    /// pool.
    pub fn new(workers: usize) -> MppExecutor {
        MppExecutor::with_pool(workers, shared_pool())
    }

    /// An engine borrowing workers from a specific `WorkloadManager` (the
    /// cluster CN's pool), so queries compete under its governors instead
    /// of oversubscribing the host.
    pub fn with_pool(workers: usize, pool: Arc<WorkloadManager>) -> MppExecutor {
        MppExecutor { workers: workers.max(1), pool }
    }

    /// Execute `plan` with MPP parallelism where fragments allow it.
    pub fn execute(
        &self,
        plan: &LogicalPlan,
        provider: &Arc<dyn TableProvider>,
        ctx: &ExecCtx,
    ) -> Result<Vec<Row>> {
        match plan {
            LogicalPlan::Limit { input, n } => {
                let mut rows = self.execute(input, provider, ctx)?;
                rows.truncate(*n);
                Ok(rows)
            }
            LogicalPlan::Sort { input, keys } => {
                let rows = self.execute(input, provider, ctx)?;
                let t0 = polardbx_common::time::Timer::start();
                let rows = apply_sort(rows, keys, ctx)?;
                crate::exec_metrics::exec_metrics().sort.record(rows.len() as u64, 0, t0);
                Ok(rows)
            }
            LogicalPlan::Project { .. } | LogicalPlan::Filter { .. } | LogicalPlan::Scan { .. } => {
                if let Some(work) = self.pipeline_work(plan, provider, ctx) {
                    let locals = morsel_execute(
                        &self.pool,
                        JobClass::Ap,
                        self.workers,
                        provider.partitions(&work.table),
                        Arc::new(work),
                    )?;
                    return Ok(locals.into_iter().flat_map(|l| l.out).collect());
                }
                // Not a partitioned pipeline (or a single partition):
                // serial vectorized execution, which also covers pipelines
                // over non-Scan inputs via recursion-free streaming.
                match plan {
                    LogicalPlan::Project { input, .. } | LogicalPlan::Filter { input, .. }
                        if !matches!(
                            input.as_ref(),
                            LogicalPlan::Scan { .. }
                                | LogicalPlan::Filter { .. }
                                | LogicalPlan::Project { .. }
                        ) =>
                    {
                        // The input needs MPP treatment (aggregate/join
                        // below); execute it, then stream the last stage.
                        let rows = self.execute(input, provider, ctx)?;
                        let stages = last_stage(plan);
                        let mut out = Vec::new();
                        for batch in batches_of(rows) {
                            out.extend(run_stages(batch, &stages, ctx)?.to_rows());
                        }
                        Ok(out)
                    }
                    _ => vectorized::execute(plan, provider.as_ref(), ctx),
                }
            }
            LogicalPlan::Aggregate { input, group_by, aggs, .. } => {
                // Partial aggregation per morsel, merged at the coordinator
                // — the classic two-phase MPP aggregate.
                if let Some(pipeline) = self.pipeline_work(input, provider, ctx) {
                    let nparts = provider.partitions(&pipeline.table);
                    let work = PartialAggWork {
                        pipeline,
                        group_by: group_by.clone(),
                        aggs: aggs.clone(),
                    };
                    let locals = morsel_execute(
                        &self.pool,
                        JobClass::Ap,
                        self.workers,
                        nparts,
                        Arc::new(work),
                    )?;
                    let mut locals = locals.into_iter();
                    let mut merged =
                        locals.next().map(|l| l.out).unwrap_or_else(|| {
                            VecAggTable::new(group_by.clone(), aggs.clone())
                        });
                    for l in locals {
                        merged.merge(l.out);
                    }
                    return merged.finish();
                }
                let rows = self.execute(input, provider, ctx)?;
                let mut table = VecAggTable::new(group_by.clone(), aggs.clone());
                for batch in batches_of(rows) {
                    table.update_batch(&batch, ctx)?;
                }
                table.finish()
            }
            LogicalPlan::Join { left, right, on, filter } => {
                // Build once (left), probe partition-parallel (right).
                let build_rows = self.execute(left, provider, ctx)?;
                if on.is_empty() {
                    // Cross join: row-engine nested loop.
                    let probe = self.execute(right, provider, ctx)?;
                    return apply_join(build_rows, probe, on, filter.as_ref(), ctx);
                }
                let key_cols: Vec<usize> = on.iter().map(|&(l, _)| l).collect();
                let probe_cols: Vec<usize> = on.iter().map(|&(_, r)| r).collect();
                ctx.tick(build_rows.len() as u64)?;
                let build = Arc::new(JoinBuild::build(build_rows, key_cols)?);
                if let Some(work) = self.pipeline_work(right, provider, ctx) {
                    let nparts = provider.partitions(&work.table);
                    let work = Arc::new(work);
                    let filter = filter.clone();
                    let parts: Vec<Vec<Row>> = run_parallel_pooled(
                        &self.pool,
                        JobClass::Ap,
                        self.workers,
                        (0..nparts).collect(),
                        move |part| {
                            let c = work.ctx.fork();
                            let rows = work.scan(part)?;
                            let mut out = Vec::new();
                            for batch in batches_of(rows) {
                                let batch = run_stages(batch, &work.stages, &c)?;
                                out.extend(build.probe_batch(
                                    &batch,
                                    &probe_cols,
                                    filter.as_ref(),
                                    &c,
                                )?);
                            }
                            Ok(out)
                        },
                    )?;
                    return Ok(parts.into_iter().flatten().collect());
                }
                let probe = self.execute(right, provider, ctx)?;
                let mut out = Vec::new();
                for batch in batches_of(probe) {
                    out.extend(build.probe_batch(&batch, &probe_cols, filter.as_ref(), ctx)?);
                }
                Ok(out)
            }
        }
    }

    /// Fuse a `Filter*/Project*`-over-`Scan` subtree into a morsel
    /// fragment, when the shape matches and the table has enough
    /// partitions to be worth fanning out.
    fn pipeline_work(
        &self,
        plan: &LogicalPlan,
        provider: &Arc<dyn TableProvider>,
        ctx: &ExecCtx,
    ) -> Option<PipelineWork> {
        let (table, stages) = pipeline_stages(plan)?;
        if provider.partitions(&table) <= 1 || self.workers <= 1 {
            return None;
        }
        Some(PipelineWork {
            provider: Arc::clone(provider),
            table,
            stages,
            ctx: ctx.fork(),
        })
    }
}

/// The outermost Filter/Project of `plan` as a single vectorized stage.
fn last_stage(plan: &LogicalPlan) -> Vec<StageOp> {
    match plan {
        LogicalPlan::Filter { predicate, .. } => {
            let mut conjuncts = Vec::new();
            polardbx_sql::plan::split_conjuncts(predicate, &mut conjuncts);
            vec![StageOp::Filter(conjuncts)]
        }
        LogicalPlan::Project { exprs, .. } => vec![StageOp::Project(exprs.clone())],
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{execute_plan, MemTables};
    use polardbx_common::{Error, Value};
    use polardbx_sql::expr::{AggFunc, BinOp, Expr};
    use polardbx_sql::plan::AggSpec;
    use std::time::Instant;

    fn provider(partitions: usize, rows_per_part: i64) -> Arc<dyn TableProvider> {
        let mut p = MemTables::new();
        let parts: Vec<Vec<Row>> = (0..partitions as i64)
            .map(|pt| {
                (0..rows_per_part)
                    .map(|i| {
                        let id = pt * rows_per_part + i;
                        Row::new(vec![Value::Int(id), Value::Int(id % 5), Value::Int(id * 3)])
                    })
                    .collect()
            })
            .collect();
        p.add("t", parts);
        Arc::new(p)
    }

    fn scan() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "t".into(),
            schema: vec!["t.id".into(), "t.grp".into(), "t.v".into()],
            access: polardbx_sql::KeyAccess::Full,
        }
    }

    #[test]
    fn parallel_scan_collects_all_partitions() {
        let p = provider(4, 100);
        let mpp = MppExecutor::new(4);
        let rows = mpp.execute(&scan(), &p, &ExecCtx::unrestricted()).unwrap();
        assert_eq!(rows.len(), 400);
    }

    #[test]
    fn mpp_aggregate_equals_serial() {
        let p = provider(4, 250);
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan()),
                predicate: Expr::binary(BinOp::Ge, Expr::ColumnIdx(0), Expr::int(100)),
            }),
            group_by: vec![Expr::ColumnIdx(1)],
            aggs: vec![
                AggSpec { func: AggFunc::Count, arg: None, distinct: false },
                AggSpec { func: AggFunc::Sum, arg: Some(Expr::ColumnIdx(2)), distinct: false },
                AggSpec { func: AggFunc::Min, arg: Some(Expr::ColumnIdx(0)), distinct: false },
            ],
            names: vec!["grp".into(), "c".into(), "s".into(), "m".into()],
        };
        let ctx = ExecCtx::unrestricted();
        let mpp = MppExecutor::new(4);
        let mut parallel = mpp.execute(&plan, &p, &ctx).unwrap();
        let mut serial = execute_plan(&plan, p.as_ref(), &ctx).unwrap();
        let sort = |rows: &mut Vec<Row>| {
            rows.sort_by(|a, b| a.get(0).unwrap().cmp(b.get(0).unwrap()))
        };
        sort(&mut parallel);
        sort(&mut serial);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn mpp_join_equals_serial() {
        let p = provider(4, 100);
        let mut small = MemTables::new();
        small.add(
            "dim",
            vec![(0..5i64)
                .map(|g| Row::new(vec![Value::Int(g), Value::str(format!("g{g}"))]))
                .collect()],
        );
        // Combined provider.
        struct Both(MemTables, Arc<dyn TableProvider>);
        impl TableProvider for Both {
            fn partitions(&self, t: &str) -> usize {
                if t == "dim" {
                    self.0.partitions(t)
                } else {
                    self.1.partitions(t)
                }
            }
            fn scan_partition(&self, t: &str, p: usize) -> Result<Vec<Row>> {
                if t == "dim" {
                    self.0.scan_partition(t, p)
                } else {
                    self.1.scan_partition(t, p)
                }
            }
        }
        let both: Arc<dyn TableProvider> = Arc::new(Both(small, p));
        let plan = LogicalPlan::Join {
            left: Box::new(LogicalPlan::Scan {
                table: "dim".into(),
                schema: vec!["dim.g".into(), "dim.name".into()],
                access: polardbx_sql::KeyAccess::Full,
            }),
            right: Box::new(scan()),
            on: vec![(0, 1)],
            filter: None,
        };
        let ctx = ExecCtx::unrestricted();
        let mpp = MppExecutor::new(4);
        let mut parallel = mpp.execute(&plan, &both, &ctx).unwrap();
        let mut serial = execute_plan(&plan, both.as_ref(), &ctx).unwrap();
        assert_eq!(parallel.len(), 400, "every row matches one dim group");
        let key = |r: &Row| format!("{r:?}");
        parallel.sort_by_key(key);
        serial.sort_by_key(key);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn mpp_speedup_on_cpu_bound_aggregate() {
        // A CPU-heavy aggregate over many partitions should run measurably
        // faster with 4 workers than with 1 (shape check, generous margin).
        let p = provider(8, 30_000);
        let plan = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(scan()),
                predicate: Expr::binary(
                    BinOp::Ge,
                    Expr::binary(
                        BinOp::Mod,
                        Expr::binary(BinOp::Mul, Expr::ColumnIdx(2), Expr::int(37)),
                        Expr::int(97),
                    ),
                    Expr::int(1),
                ),
            }),
            group_by: vec![Expr::ColumnIdx(1)],
            aggs: vec![AggSpec {
                func: AggFunc::Sum,
                arg: Some(Expr::binary(BinOp::Mul, Expr::ColumnIdx(2), Expr::ColumnIdx(2))),
                distinct: false,
            }],
            names: vec!["g".into(), "s".into()],
        };
        let ctx = ExecCtx::unrestricted();
        let time = |w: usize| {
            let mpp = MppExecutor::new(w);
            let t0 = Instant::now();
            let out = mpp.execute(&plan, &p, &ctx).unwrap();
            assert_eq!(out.len(), 5);
            t0.elapsed()
        };
        // Warm up, then measure. Absolute speedups are benchmarked in the
        // exec_bench/fig10 harnesses under controlled conditions; under
        // `cargo test`'s concurrent test threads we only sanity-check that
        // the parallel path is not catastrophically slower.
        let _ = time(1);
        let serial = time(1);
        let parallel = time(4);
        assert!(
            parallel < serial * 2,
            "MPP path pathologically slow: serial={serial:?} parallel={parallel:?}"
        );
    }

    #[test]
    fn single_partition_falls_back_to_serial() {
        let p = provider(1, 50);
        let mpp = MppExecutor::new(4);
        let rows = mpp.execute(&scan(), &p, &ExecCtx::unrestricted()).unwrap();
        assert_eq!(rows.len(), 50);
    }

    #[test]
    fn errors_propagate_from_workers() {
        struct Failing;
        impl TableProvider for Failing {
            fn partitions(&self, _t: &str) -> usize {
                4
            }
            fn scan_partition(&self, _t: &str, p: usize) -> Result<Vec<Row>> {
                if p == 2 {
                    Err(Error::execution("partition 2 broke"))
                } else {
                    Ok(vec![])
                }
            }
        }
        let p: Arc<dyn TableProvider> = Arc::new(Failing);
        let mpp = MppExecutor::new(4);
        let err = mpp.execute(&scan(), &p, &ExecCtx::unrestricted()).unwrap_err();
        assert!(matches!(err, Error::Execution { .. }));
    }

    #[test]
    fn limit_and_sort_over_mpp() {
        let p = provider(4, 100);
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(scan()),
                keys: vec![(Expr::ColumnIdx(0), true)],
            }),
            n: 3,
        };
        let mpp = MppExecutor::new(4);
        let rows = mpp.execute(&plan, &p, &ExecCtx::unrestricted()).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].get(0).unwrap(), &Value::Int(399));
    }

    #[test]
    fn project_over_aggregate_over_partitions() {
        // Exercises the "last stage over an MPP subtree" path.
        let p = provider(4, 100);
        let plan = LogicalPlan::Project {
            input: Box::new(LogicalPlan::Aggregate {
                input: Box::new(scan()),
                group_by: vec![Expr::ColumnIdx(1)],
                aggs: vec![AggSpec {
                    func: AggFunc::Sum,
                    arg: Some(Expr::ColumnIdx(2)),
                    distinct: false,
                }],
                names: vec!["g".into(), "s".into()],
            }),
            exprs: vec![Expr::binary(BinOp::Add, Expr::ColumnIdx(1), Expr::int(1))],
            names: vec!["s1".into()],
        };
        let ctx = ExecCtx::unrestricted();
        let mpp = MppExecutor::new(4);
        let mut parallel = mpp.execute(&plan, &p, &ctx).unwrap();
        let mut serial = execute_plan(&plan, p.as_ref(), &ctx).unwrap();
        let key = |r: &Row| format!("{r:?}");
        parallel.sort_by_key(key);
        serial.sort_by_key(key);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn concurrent_queries_share_the_pool() {
        // Many queries in flight at once must all complete correctly while
        // drawing from the same persistent pool (no per-query spawns).
        let p = provider(4, 500);
        let mpp = Arc::new(MppExecutor::new(4));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let mpp = Arc::clone(&mpp);
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    let rows =
                        mpp.execute(&scan(), &p, &ExecCtx::unrestricted()).unwrap();
                    assert_eq!(rows.len(), 2000);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}

//! Columnar fast paths: execute pipelines on the in-memory column index.
//!
//! The executor recognizes `Aggregate(Filter*(Scan))` and `Filter*(Scan)`
//! pipelines over a table with a column index and runs them through the
//! vectorized kernels instead of row-at-a-time evaluation — the execution
//! half of §VI-E's row-vs-column plan choice. Unsupported shapes return
//! `None` and fall back to the row path, exactly like the optimizer
//! "finally select\[ing\] the one with the lowest cost" falls back to the
//! row store.

use polardbx_columnar::kernels::{self, CmpOp};
use polardbx_columnar::ColumnSnapshot;
use polardbx_common::{Result, Row, Value};
use polardbx_sql::expr::{AggFunc, BinOp, Expr};
use polardbx_sql::plan::{AggSpec, LogicalPlan};

use crate::operators::{ExecCtx, TableProvider};

/// Try to execute `plan` on the column index. `None` = shape or data not
/// eligible; caller falls back to the row path.
pub fn try_columnar(
    plan: &LogicalPlan,
    provider: &dyn TableProvider,
    ctx: &ExecCtx,
) -> Option<Result<Vec<Row>>> {
    // Recognize: Aggregate(pipeline) | pipeline, where
    // pipeline := Filter*(Scan(t)) and every filter conjunct is simple.
    match plan {
        LogicalPlan::Aggregate { input, group_by, aggs, .. } => {
            if let Some((table, conjuncts)) = match_pipeline(input) {
                let snap = provider.columnar(&table)?;
                return Some(run_aggregate(&snap, &conjuncts, group_by, aggs, ctx));
            }
            // Aggregate over a columnar join tree: vectorized filter + join
            // kernels feed the aggregation (the "built-in hash join of
            // column index" path of §VII-C).
            let joined = try_columnar_rows(input, provider, ctx)?;
            Some(joined.and_then(|rows| {
                let mut t =
                    crate::operators::AggTable::new(group_by.clone(), aggs.clone());
                t.update_batch(&rows, ctx)?;
                t.finish()
            }))
        }
        LogicalPlan::Filter { .. } | LogicalPlan::Scan { .. } => {
            let (table, conjuncts) = match_pipeline(plan)?;
            let snap = provider.columnar(&table)?;
            Some(run_select(&snap, &conjuncts, ctx))
        }
        LogicalPlan::Join { .. } | LogicalPlan::Project { .. } => {
            try_columnar_rows(plan, provider, ctx)
        }
        _ => None,
    }
}

/// Columnar row production for join trees, seeing through projections (the
/// build-side-swap pass inserts pure-column reorder projections).
fn try_columnar_rows(
    plan: &LogicalPlan,
    provider: &dyn TableProvider,
    ctx: &ExecCtx,
) -> Option<Result<Vec<Row>>> {
    match plan {
        LogicalPlan::Join { .. } => try_columnar_join(plan, provider, ctx),
        LogicalPlan::Project { input, exprs, .. } => {
            let rows = try_columnar_rows(input, provider, ctx)?;
            Some(rows.and_then(|r| crate::operators::apply_project(r, exprs, ctx)))
        }
        LogicalPlan::Filter { .. } | LogicalPlan::Scan { .. } => {
            let (table, conjuncts) = match_pipeline(plan)?;
            let snap = provider.columnar(&table)?;
            Some(run_select(&snap, &conjuncts, ctx))
        }
        _ => None,
    }
}

/// Execute `Join(Filter*(Scan a), Filter*(Scan b))` with single-column
/// equi-keys entirely on column snapshots: vectorized per-side filters,
/// then the hash-join kernel, then row materialization of the pairs.
fn try_columnar_join(
    plan: &LogicalPlan,
    provider: &dyn TableProvider,
    ctx: &ExecCtx,
) -> Option<Result<Vec<Row>>> {
    let LogicalPlan::Join { left, right, on, filter } = plan else { return None };
    if on.len() != 1 {
        return None;
    }
    let (Some((lt, lpreds)), Some((rt, rpreds))) =
        (match_pipeline(left), match_pipeline(right))
    else {
        // Deeper trees: materialize each side through the columnar path
        // (vectorized leaf filters + inner joins), then hash-join the rows.
        let lrows = try_columnar_rows(left, provider, ctx)?;
        let rrows = try_columnar_rows(right, provider, ctx)?;
        let run = || -> Result<Vec<Row>> {
            crate::operators::apply_join(lrows?, rrows?, on, filter.as_ref(), ctx)
        };
        return Some(run());
    };
    let lsnap = provider.columnar(&lt)?;
    let rsnap = provider.columnar(&rt)?;
    let (lk, rk) = on[0];
    if lk >= lsnap.columns.len() || rk >= rsnap.columns.len() {
        return None;
    }
    let run = || -> Result<Vec<Row>> {
        let lsel = apply_preds(&lsnap, &lpreds, ctx)?;
        let rsel = apply_preds(&rsnap, &rpreds, ctx)?;
        ctx.tick((lsel.len() + rsel.len()) as u64 / 4)?;
        let pairs =
            kernels::hash_join(&lsnap.columns[lk], &lsel, &rsnap.columns[rk], &rsel);
        ctx.tick(pairs.len() as u64 / 4)?;
        let mut out = Vec::with_capacity(pairs.len());
        for (lid, rid) in pairs {
            let mut vals: Vec<Value> =
                lsnap.columns.iter().map(|c| c.get(lid as usize)).collect();
            vals.extend(rsnap.columns.iter().map(|c| c.get(rid as usize)));
            let row = Row::new(vals);
            if let Some(f) = filter {
                if !f.eval_bool(&row)? {
                    continue;
                }
            }
            out.push(row);
        }
        Ok(out)
    };
    Some(run())
}

/// A filter conjunct the kernels understand.
enum SimplePred {
    Cmp { col: usize, op: CmpOp, constant: Value },
    CmpCols { a: usize, op: CmpOp, b: usize },
    Between { col: usize, lo: Value, hi: Value },
    Prefix { col: usize, prefix: String },
}

/// `Filter*(Scan)` over a full scan. A scan bounded by a primary-key
/// access does not match: its keys are read from the row store.
fn match_pipeline(plan: &LogicalPlan) -> Option<(String, Vec<SimplePred>)> {
    match plan {
        LogicalPlan::Scan { table, access, .. } if access.is_full() => {
            Some((table.clone(), Vec::new()))
        }
        LogicalPlan::Filter { input, predicate } => {
            let (table, mut preds) = match_pipeline(input)?;
            let mut conjuncts = Vec::new();
            polardbx_sql::plan::split_conjuncts(predicate, &mut conjuncts);
            for c in conjuncts {
                preds.push(simple_pred(&c)?);
            }
            Some((table, preds))
        }
        _ => None,
    }
}

fn simple_pred(e: &Expr) -> Option<SimplePred> {
    match e {
        Expr::Binary { op, left, right } => {
            let cmp = match op {
                BinOp::Eq => CmpOp::Eq,
                BinOp::Neq => CmpOp::Neq,
                BinOp::Lt => CmpOp::Lt,
                BinOp::Le => CmpOp::Le,
                BinOp::Gt => CmpOp::Gt,
                BinOp::Ge => CmpOp::Ge,
                _ => return None,
            };
            match (left.as_ref(), right.as_ref()) {
                (Expr::ColumnIdx(c), Expr::Literal(v)) => {
                    Some(SimplePred::Cmp { col: *c, op: cmp, constant: v.clone() })
                }
                (Expr::Literal(v), Expr::ColumnIdx(c)) => Some(SimplePred::Cmp {
                    col: *c,
                    op: flip(cmp),
                    constant: v.clone(),
                }),
                (Expr::ColumnIdx(a), Expr::ColumnIdx(b)) => {
                    Some(SimplePred::CmpCols { a: *a, op: cmp, b: *b })
                }
                _ => None,
            }
        }
        Expr::Between { expr, low, high } => match (expr.as_ref(), low.as_ref(), high.as_ref())
        {
            (Expr::ColumnIdx(c), Expr::Literal(lo), Expr::Literal(hi)) => {
                Some(SimplePred::Between { col: *c, lo: lo.clone(), hi: hi.clone() })
            }
            _ => None,
        },
        Expr::Like { expr, pattern } => match expr.as_ref() {
            // Only prefix patterns vectorize: 'abc%'.
            Expr::ColumnIdx(c)
                if pattern.ends_with('%')
                    && !pattern[..pattern.len() - 1].contains(['%', '_']) =>
            {
                Some(SimplePred::Prefix {
                    col: *c,
                    prefix: pattern[..pattern.len() - 1].to_string(),
                })
            }
            _ => None,
        },
        _ => None,
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

fn apply_preds(
    snap: &ColumnSnapshot,
    preds: &[SimplePred],
    ctx: &ExecCtx,
) -> Result<Vec<u32>> {
    let t0 = polardbx_common::time::Timer::start();
    let mut sel = snap.selection.clone();
    for p in preds {
        ctx.tick(sel.len() as u64 / 8)?; // vectorized: cheaper per row
        sel = match p {
            SimplePred::Cmp { col, op, constant } => {
                kernels::filter_cmp(&snap.columns[*col], &sel, *op, constant)?
            }
            SimplePred::CmpCols { a, op, b } => {
                kernels::filter_cmp_cols(&snap.columns[*a], &snap.columns[*b], &sel, *op)?
            }
            SimplePred::Between { col, lo, hi } => {
                kernels::filter_between(&snap.columns[*col], &sel, lo, hi)?
            }
            SimplePred::Prefix { col, prefix } => {
                kernels::filter_prefix(&snap.columns[*col], &sel, prefix)?
            }
        };
    }
    if !preds.is_empty() {
        crate::exec_metrics::exec_metrics().filter.record(sel.len() as u64, 0, t0);
    }
    Ok(sel)
}

fn run_select(snap: &ColumnSnapshot, preds: &[SimplePred], ctx: &ExecCtx) -> Result<Vec<Row>> {
    let t0 = polardbx_common::time::Timer::start();
    let sel = apply_preds(snap, preds, ctx)?;
    ctx.tick(sel.len() as u64)?;
    crate::exec_metrics::exec_metrics().scan.record(sel.len() as u64, 0, t0);
    Ok(sel
        .iter()
        .map(|&id| Row::new(snap.columns.iter().map(|c| c.get(id as usize)).collect()))
        .collect())
}

fn run_aggregate(
    snap: &ColumnSnapshot,
    preds: &[SimplePred],
    group_by: &[Expr],
    aggs: &[AggSpec],
    ctx: &ExecCtx,
) -> Result<Vec<Row>> {
    let t0 = polardbx_common::time::Timer::start();
    let out = run_aggregate_inner(snap, preds, group_by, aggs, ctx)?;
    crate::exec_metrics::exec_metrics().aggregate.record(out.len() as u64, 0, t0);
    Ok(out)
}

fn run_aggregate_inner(
    snap: &ColumnSnapshot,
    preds: &[SimplePred],
    group_by: &[Expr],
    aggs: &[AggSpec],
    ctx: &ExecCtx,
) -> Result<Vec<Row>> {
    let sel = apply_preds(snap, preds, ctx)?;
    // Group keys must be plain columns for the vectorized path.
    let mut key_cols = Vec::with_capacity(group_by.len());
    for g in group_by {
        match g {
            Expr::ColumnIdx(i) => key_cols.push(*i),
            _ => return fallback_aggregate(snap, &sel, group_by, aggs, ctx),
        }
    }
    // Aggregates evaluate vectorized: plain columns and COUNT(*) hit the
    // kernels directly; arithmetic/CASE arguments go through the numeric
    // vector evaluator; anything else falls back to row evaluation.
    #[derive(Clone)]
    enum ArgPath {
        Star,
        Column(usize),
        Vector(Expr),
    }
    let arg_paths: Option<Vec<ArgPath>> = aggs
        .iter()
        .map(|a| match &a.arg {
            None => Some(ArgPath::Star),
            Some(Expr::ColumnIdx(i)) => Some(ArgPath::Column(*i)),
            Some(e) if vectorizable(e) => Some(ArgPath::Vector(e.clone())),
            _ => None,
        })
        .collect();
    let Some(arg_cols) = arg_paths else {
        return fallback_aggregate(snap, &sel, group_by, aggs, ctx);
    };
    if aggs.iter().any(|a| a.distinct) {
        return fallback_aggregate(snap, &sel, group_by, aggs, ctx);
    }

    ctx.tick(sel.len() as u64 / 4)?;
    let groups = if key_cols.is_empty() {
        // Global aggregate: one group with the whole selection.
        let mut m = std::collections::HashMap::new();
        m.insert(Vec::new(), sel.clone());
        m
    } else {
        let keys: Vec<&polardbx_columnar::ColumnData> =
            key_cols.iter().map(|&i| &snap.columns[i]).collect();
        kernels::hash_group(&keys, &sel)
    };
    let mut out = Vec::with_capacity(groups.len());
    for (key_vals, ids) in groups {
        let mut row = key_vals;
        for (spec, arg) in aggs.iter().zip(&arg_cols) {
            let v = match (spec.func, arg) {
                (AggFunc::Count, ArgPath::Star) => Value::Int(ids.len() as i64),
                (AggFunc::Count, ArgPath::Column(c)) => {
                    Value::Int(kernels::count(&snap.columns[*c], &ids) as i64)
                }
                (AggFunc::Sum, ArgPath::Column(c)) => {
                    let col = &snap.columns[*c];
                    let s = kernels::sum(col, &ids)?;
                    if matches!(col, polardbx_columnar::ColumnData::Int(_, _)) {
                        Value::Int(s as i64)
                    } else {
                        Value::Double(s)
                    }
                }
                (AggFunc::Avg, ArgPath::Column(c)) => {
                    let n = kernels::count(&snap.columns[*c], &ids);
                    if n == 0 {
                        Value::Null
                    } else {
                        Value::Double(kernels::sum(&snap.columns[*c], &ids)? / n as f64)
                    }
                }
                (AggFunc::Min, ArgPath::Column(c)) => {
                    kernels::min_max(&snap.columns[*c], &ids).0.unwrap_or(Value::Null)
                }
                (AggFunc::Max, ArgPath::Column(c)) => {
                    kernels::min_max(&snap.columns[*c], &ids).1.unwrap_or(Value::Null)
                }
                (AggFunc::Sum, ArgPath::Vector(e)) => {
                    Value::Double(vector_sum(e, &snap.columns, &ids)?)
                }
                (AggFunc::Avg, ArgPath::Vector(e)) => {
                    if ids.is_empty() {
                        Value::Null
                    } else {
                        Value::Double(
                            vector_sum(e, &snap.columns, &ids)? / ids.len() as f64,
                        )
                    }
                }
                _ => return fallback_aggregate(snap, &sel, group_by, aggs, ctx),
            };
            row.push(v);
        }
        out.push(Row::new(row));
    }
    if key_cols.is_empty() && out.is_empty() {
        // SQL: global aggregate over zero rows still yields one row.
        let mut row = Vec::new();
        for spec in aggs {
            row.push(match spec.func {
                AggFunc::Count => Value::Int(0),
                _ => Value::Null,
            });
        }
        out.push(Row::new(row));
    }
    Ok(out)
}

/// Is `e` evaluable by the numeric vector path? Arithmetic over numeric
/// columns and literals, plus single-arm CASE whose condition is a simple
/// predicate (Q1/Q8/Q14's `SUM(price * (1 - discount))` and
/// `SUM(CASE WHEN … THEN expr ELSE 0 END)` shapes).
fn vectorizable(e: &Expr) -> bool {
    match e {
        Expr::ColumnIdx(_) | Expr::Literal(Value::Int(_)) | Expr::Literal(Value::Double(_)) => {
            true
        }
        Expr::Binary { op, left, right } => {
            matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
                && vectorizable(left)
                && vectorizable(right)
        }
        Expr::Neg(x) => vectorizable(x),
        Expr::Case { when, otherwise } => {
            when.len() == 1
                && simple_pred(&when[0].0).is_some()
                && vectorizable(&when[0].1)
                && otherwise.as_deref().is_none_or(vectorizable)
        }
        _ => false,
    }
}

/// Sum a vectorizable expression over a selection without materializing
/// rows: dense typed loops for arithmetic, selection splitting for CASE.
fn vector_sum(e: &Expr, cols: &[polardbx_columnar::ColumnData], sel: &[u32]) -> Result<f64> {
    match e {
        Expr::Case { when, otherwise } => {
            let (cond, then_e) = &when[0];
            let pred = simple_pred(cond).expect("vetted by vectorizable");
            let matched = apply_one_pred(cols, sel, &pred)?;
            // Complement: both sorted ascending.
            let mut rest = Vec::with_capacity(sel.len() - matched.len());
            let mut mi = 0;
            for &id in sel {
                if mi < matched.len() && matched[mi] == id {
                    mi += 1;
                } else {
                    rest.push(id);
                }
            }
            let mut total = vector_sum(then_e, cols, &matched)?;
            if let Some(else_e) = otherwise {
                total += vector_sum(else_e, cols, &rest)?;
            }
            Ok(total)
        }
        _ => {
            let v = eval_vec(e, cols, sel)?;
            Ok(v.iter().sum())
        }
    }
}

fn apply_one_pred(
    cols: &[polardbx_columnar::ColumnData],
    sel: &[u32],
    pred: &SimplePred,
) -> Result<Vec<u32>> {
    match pred {
        SimplePred::Cmp { col, op, constant } => {
            kernels::filter_cmp(&cols[*col], sel, *op, constant)
        }
        SimplePred::CmpCols { a, op, b } => {
            kernels::filter_cmp_cols(&cols[*a], &cols[*b], sel, *op)
        }
        SimplePred::Between { col, lo, hi } => kernels::filter_between(&cols[*col], sel, lo, hi),
        SimplePred::Prefix { col, prefix } => kernels::filter_prefix(&cols[*col], sel, prefix),
    }
}

/// Evaluate a numeric expression into a dense f64 vector over `sel`.
fn eval_vec(
    e: &Expr,
    cols: &[polardbx_columnar::ColumnData],
    sel: &[u32],
) -> Result<Vec<f64>> {
    use polardbx_columnar::ColumnData;
    match e {
        Expr::Literal(v) => Ok(vec![v.as_double()?; sel.len()]),
        Expr::ColumnIdx(i) => match &cols[*i] {
            ColumnData::Int(data, _) => {
                Ok(sel.iter().map(|&id| data[id as usize] as f64).collect())
            }
            ColumnData::Double(data, _) => {
                Ok(sel.iter().map(|&id| data[id as usize]).collect())
            }
            _ => Err(polardbx_common::Error::execution("non-numeric column in vector eval")),
        },
        Expr::Neg(x) => {
            let mut v = eval_vec(x, cols, sel)?;
            v.iter_mut().for_each(|x| *x = -*x);
            Ok(v)
        }
        Expr::Binary { op, left, right } => {
            let mut l = eval_vec(left, cols, sel)?;
            let r = eval_vec(right, cols, sel)?;
            match op {
                BinOp::Add => l.iter_mut().zip(&r).for_each(|(a, b)| *a += b),
                BinOp::Sub => l.iter_mut().zip(&r).for_each(|(a, b)| *a -= b),
                BinOp::Mul => l.iter_mut().zip(&r).for_each(|(a, b)| *a *= b),
                BinOp::Div => l
                    .iter_mut()
                    .zip(&r)
                    .for_each(|(a, b)| *a = if *b == 0.0 { 0.0 } else { *a / *b }),
                _ => unreachable!("vetted by vectorizable"),
            }
            Ok(l)
        }
        _ => Err(polardbx_common::Error::execution("not vectorizable")),
    }
}

/// Mixed path: vectorized filter, then row-at-a-time aggregation for
/// complex aggregate expressions (still profits from the filtered
/// selection).
fn fallback_aggregate(
    snap: &ColumnSnapshot,
    sel: &[u32],
    group_by: &[Expr],
    aggs: &[AggSpec],
    ctx: &ExecCtx,
) -> Result<Vec<Row>> {
    let rows: Vec<Row> = sel
        .iter()
        .map(|&id| Row::new(snap.columns.iter().map(|c| c.get(id as usize)).collect()))
        .collect();
    let mut table = crate::operators::AggTable::new(group_by.to_vec(), aggs.to_vec());
    table.update_batch(&rows, ctx)?;
    table.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_columnar::ColumnIndex;
    use polardbx_common::{DataType, Key};
    use std::sync::Arc;

    struct ColProvider {
        index: Arc<ColumnIndex>,
        rows: Vec<Row>,
    }

    impl TableProvider for ColProvider {
        fn scan_partition(&self, _t: &str, _p: usize) -> Result<Vec<Row>> {
            Ok(self.rows.clone())
        }
        fn columnar(&self, table: &str) -> Option<ColumnSnapshot> {
            (table == "t").then(|| self.index.snapshot(u64::MAX)).flatten()
        }
    }

    fn provider() -> ColProvider {
        let index = ColumnIndex::new(vec![DataType::Int, DataType::Int, DataType::Str]);
        let rows: Vec<Row> = (0..100i64)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::Int(i % 4),
                    Value::str(if i % 2 == 0 { "PROMO X" } else { "PLAIN Y" }),
                ])
            })
            .collect();
        index
            .load(1, rows.iter().map(|r| (Key::encode(&[r.get(0).unwrap().clone()]), r.clone())))
            .unwrap();
        ColProvider { index, rows }
    }

    fn scan_plan() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "t".into(),
            schema: vec!["t.id".into(), "t.grp".into(), "t.flag".into()],
            access: polardbx_sql::KeyAccess::Full,
        }
    }

    #[test]
    fn columnar_filter_matches_row_path() {
        let p = provider();
        let plan = LogicalPlan::Filter {
            input: Box::new(scan_plan()),
            predicate: Expr::binary(BinOp::Lt, Expr::ColumnIdx(0), Expr::int(10)),
        };
        let ctx = ExecCtx::unrestricted();
        let fast = try_columnar(&plan, &p, &ctx).unwrap().unwrap();
        assert_eq!(fast.len(), 10);
        // Cross-check against the row path by executing without the index.
        let slow = crate::operators::apply_filter(
            p.rows.clone(),
            &Expr::binary(BinOp::Lt, Expr::ColumnIdx(0), Expr::int(10)),
            &ctx,
        )
        .unwrap();
        assert_eq!(fast.len(), slow.len());
    }

    #[test]
    fn columnar_aggregate_matches_row_path() {
        let p = provider();
        let plan = LogicalPlan::Aggregate {
            input: Box::new(scan_plan()),
            group_by: vec![Expr::ColumnIdx(1)],
            aggs: vec![
                AggSpec { func: AggFunc::Count, arg: None, distinct: false },
                AggSpec {
                    func: AggFunc::Sum,
                    arg: Some(Expr::ColumnIdx(0)),
                    distinct: false,
                },
            ],
            names: vec!["grp".into(), "count".into(), "sum".into()],
        };
        let ctx = ExecCtx::unrestricted();
        let mut fast = try_columnar(&plan, &p, &ctx).unwrap().unwrap();
        fast.sort_by(|a, b| a.get(0).unwrap().cmp(b.get(0).unwrap()));
        assert_eq!(fast.len(), 4);
        assert_eq!(fast[0].get(1).unwrap(), &Value::Int(25));
        // Group 0: 0+4+...+96 = 4*(0+1+..+24) = 1200.
        assert_eq!(fast[0].get(2).unwrap(), &Value::Int(1200));
    }

    #[test]
    fn prefix_like_vectorizes() {
        let p = provider();
        let plan = LogicalPlan::Filter {
            input: Box::new(scan_plan()),
            predicate: Expr::Like {
                expr: Box::new(Expr::ColumnIdx(2)),
                pattern: "PROMO%".into(),
            },
        };
        let out = try_columnar(&plan, &p, &ExecCtx::unrestricted()).unwrap().unwrap();
        assert_eq!(out.len(), 50);
    }

    #[test]
    fn unsupported_shapes_fall_back() {
        let p = provider();
        // OR predicates are not simple conjuncts → no columnar path.
        let plan = LogicalPlan::Filter {
            input: Box::new(scan_plan()),
            predicate: Expr::binary(
                BinOp::Or,
                Expr::binary(BinOp::Eq, Expr::ColumnIdx(0), Expr::int(1)),
                Expr::binary(BinOp::Eq, Expr::ColumnIdx(0), Expr::int(2)),
            ),
        };
        assert!(try_columnar(&plan, &p, &ExecCtx::unrestricted()).is_none());
        // Single-key equi-joins over columnar pipelines ARE handled.
        let join = LogicalPlan::Join {
            left: Box::new(scan_plan()),
            right: Box::new(scan_plan()),
            on: vec![(0, 0)],
            filter: None,
        };
        let rows = try_columnar(&join, &p, &ExecCtx::unrestricted()).unwrap().unwrap();
        assert_eq!(rows.len(), 100, "self-join on unique id");
        assert_eq!(rows[0].arity(), 6, "concatenated schema");
        // Multi-key joins fall back.
        let multi = LogicalPlan::Join {
            left: Box::new(scan_plan()),
            right: Box::new(scan_plan()),
            on: vec![(0, 0), (1, 1)],
            filter: None,
        };
        assert!(try_columnar(&multi, &p, &ExecCtx::unrestricted()).is_none());
    }

    #[test]
    fn no_column_index_means_no_fast_path() {
        struct RowOnly;
        impl TableProvider for RowOnly {
            fn scan_partition(&self, _t: &str, _p: usize) -> Result<Vec<Row>> {
                Ok(vec![])
            }
        }
        assert!(try_columnar(&scan_plan(), &RowOnly, &ExecCtx::unrestricted()).is_none());
    }

    #[test]
    fn complex_agg_args_use_mixed_path() {
        let p = provider();
        // SUM(id * 2) — not a plain column → mixed path, still correct.
        let plan = LogicalPlan::Aggregate {
            input: Box::new(scan_plan()),
            group_by: vec![],
            aggs: vec![AggSpec {
                func: AggFunc::Sum,
                arg: Some(Expr::binary(
                    BinOp::Mul,
                    Expr::ColumnIdx(0),
                    Expr::int(2),
                )),
                distinct: false,
            }],
            names: vec!["s".into()],
        };
        let out = try_columnar(&plan, &p, &ExecCtx::unrestricted()).unwrap().unwrap();
        assert_eq!(out[0].get(0).unwrap(), &Value::Int(9900)); // 2 * (0..100).sum()
    }
}

//! Primary-key access paths: the stored keys a predicate can reach.
//!
//! A statement's WHERE clause becomes one [`KeyAccess`] per table: exact
//! primary keys (`=`, `IN` on every PK column), a range on the
//! memcomparable PK encoding (`BETWEEN`, `<`, `<=`, `>`, `>=` on the PK or
//! on the column after an equality-bound PK prefix), or a full scan.
//! Usable conjuncts may be ANDed with anything else; the caller always
//! re-applies the whole predicate to the rows the access returns, so an
//! access only has to be a superset of the matching rows. `OR`, tables
//! with an implicit primary key, and literals whose type differs from the
//! column's key encoding all give [`KeyAccess::Full`].
//!
//! When the partition columns are part of the primary key and bound by
//! equality, the access also names the one shard each key lives on —
//! the same hash `Gms::route_key` routes with.

use polardbx_common::{DataType, Key, TableSchema, Value};

use crate::expr::{BinOp, Expr};
use crate::plan::split_conjuncts;

/// Most exact keys an `IN`-list cross product may enumerate before the
/// access degrades to a prefix range or a full scan.
const MAX_POINT_KEYS: usize = 1024;

/// One exact primary key and the shard it hashes to.
#[derive(Debug, Clone, PartialEq)]
pub struct PointKey {
    /// Memcomparable encoding of the full primary key.
    pub key: Key,
    /// The owning shard, or `None` when the partition key is not part of
    /// the primary key (the key must then be probed on every shard).
    pub shard: Option<u32>,
}

/// How a scan reaches a table's rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum KeyAccess {
    /// Every row of every shard.
    #[default]
    Full,
    /// Exactly these primary keys (possibly none: an unsatisfiable
    /// predicate).
    Point(Vec<PointKey>),
    /// Keys in `[lo, hi)` on the memcomparable PK encoding; `None` is
    /// unbounded.
    Range {
        /// Inclusive lower bound.
        lo: Option<Key>,
        /// Exclusive upper bound.
        hi: Option<Key>,
        /// The one shard holding the range, when the partition key is
        /// bound by equality.
        shard: Option<u32>,
        /// Number of integer values the range column spans, when it is an
        /// integer column bounded on both sides (cost estimation).
        width: Option<u64>,
    },
}

impl KeyAccess {
    /// True for [`KeyAccess::Full`].
    pub fn is_full(&self) -> bool {
        matches!(self, KeyAccess::Full)
    }

    /// The shards, out of `shard_count`, this access must visit.
    pub fn shards(&self, shard_count: u32) -> Vec<u32> {
        let all = || (0..shard_count).collect();
        match self {
            KeyAccess::Full | KeyAccess::Range { shard: None, .. } => all(),
            KeyAccess::Range { shard: Some(s), .. } => vec![*s],
            KeyAccess::Point(keys) => {
                let mut out = Vec::with_capacity(keys.len());
                for k in keys {
                    let Some(s) = k.shard else { return all() };
                    if !out.contains(&s) {
                        out.push(s);
                    }
                }
                out
            }
        }
    }

    /// The exact keys to probe on `shard` (Point accesses only).
    pub fn keys_on(&self, shard: u32) -> impl Iterator<Item = &Key> {
        let keys: &[PointKey] = match self {
            KeyAccess::Point(keys) => keys,
            _ => &[],
        };
        keys.iter()
            .filter(move |k| k.shard.is_none_or(|s| s == shard))
            .map(|k| &k.key)
    }

    /// Estimated rows the access touches in a table of `table_rows` rows:
    /// the key count, the integer range width, or a quarter of the table
    /// for ranges of unknown width.
    pub fn rows(&self, table_rows: f64) -> f64 {
        match self {
            KeyAccess::Full => table_rows,
            KeyAccess::Point(keys) => (keys.len() as f64).min(table_rows),
            KeyAccess::Range { width: Some(w), .. } => (*w as f64).min(table_rows),
            KeyAccess::Range { width: None, .. } => table_rows * 0.25,
        }
    }

    /// Short rendering for EXPLAIN.
    pub fn describe(&self) -> String {
        match self {
            KeyAccess::Full => "full".into(),
            KeyAccess::Point(keys) => format!("pk point x{}", keys.len()),
            KeyAccess::Range { shard, .. } => match shard {
                Some(s) => format!("pk range on shard {s}"),
                None => "pk range".into(),
            },
        }
    }

    /// Derive the access for `predicate`, resolved positionally
    /// ([`Expr::ColumnIdx`]) against `schema`'s columns.
    pub fn derive(predicate: Option<&Expr>, schema: &TableSchema) -> KeyAccess {
        let Some(predicate) = predicate else {
            return KeyAccess::Full;
        };
        if schema.implicit_pk {
            return KeyAccess::Full;
        }
        let pk = &schema.primary_key;
        let mut cols: Vec<ColumnBounds> = vec![ColumnBounds::default(); pk.len()];
        let mut conjuncts = Vec::new();
        split_conjuncts(predicate, &mut conjuncts);
        for c in &conjuncts {
            for (col, bound) in key_bounds(c, schema) {
                if let Some(j) = pk.iter().position(|&p| p == col) {
                    cols[j].add(bound);
                }
            }
        }
        // A column pinned to an empty value set matches nothing.
        if cols
            .iter()
            .any(|c| c.values.as_ref().is_some_and(Vec::is_empty))
        {
            return KeyAccess::Point(Vec::new());
        }
        if cols.iter().all(|c| c.values.is_some()) {
            if let Some(points) = point_keys(&cols, schema) {
                return KeyAccess::Point(points);
            }
        }
        // A range: the single-valued prefix, then bounds on the next column.
        let prefix: Vec<Value> = cols
            .iter()
            .map_while(|c| match c.values.as_deref() {
                Some([v]) => Some(v.clone()),
                _ => None,
            })
            .collect();
        let next = cols.get(prefix.len()).filter(|c| c.values.is_none());
        let (lo, hi) = next.map_or((None, None), |c| (c.lo.clone(), c.hi.clone()));
        if prefix.is_empty() && lo.is_none() && hi.is_none() {
            return KeyAccess::Full;
        }
        let with = |v: &Value| {
            let mut vals = prefix.clone();
            vals.push(v.clone());
            Key::encode(&vals)
        };
        let lo_key = match &lo {
            Some((v, true)) => Some(with(v)),
            Some((v, false)) => Some(with(v).prefix_successor()),
            None => (!prefix.is_empty()).then(|| Key::encode(&prefix)),
        };
        let hi_key = match &hi {
            Some((v, true)) => Some(with(v).prefix_successor()),
            Some((v, false)) => Some(with(v)),
            None => (!prefix.is_empty()).then(|| Key::encode(&prefix).prefix_successor()),
        };
        if let (Some(l), Some(h)) = (&lo_key, &hi_key) {
            if l >= h {
                return KeyAccess::Point(Vec::new());
            }
        }
        let width = match (&lo, &hi) {
            (Some((Value::Int(l), li)), Some((Value::Int(h), hi))) => {
                let l = *l as i128 + i128::from(!*li);
                let h = *h as i128 - i128::from(!*hi);
                Some((h - l + 1).clamp(0, u64::MAX as i128) as u64)
            }
            _ => None,
        };
        KeyAccess::Range {
            lo: lo_key,
            hi: hi_key,
            shard: shard_of(schema, &prefix),
            width,
        }
    }
}

/// What the usable conjuncts say about one PK column.
#[derive(Debug, Clone, Default)]
struct ColumnBounds {
    /// The value set the column is pinned to by `=`/`IN` (intersected).
    values: Option<Vec<Value>>,
    /// Tightest lower bound: (value, inclusive).
    lo: Option<(Value, bool)>,
    /// Tightest upper bound: (value, inclusive).
    hi: Option<(Value, bool)>,
}

/// One conjunct's constraint on a column.
enum Bound {
    In(Vec<Value>),
    Lo(Value, bool),
    Hi(Value, bool),
}

impl ColumnBounds {
    fn add(&mut self, b: Bound) {
        match b {
            Bound::In(vs) => {
                self.values = Some(match self.values.take() {
                    None => vs,
                    Some(old) => old.into_iter().filter(|v| vs.contains(v)).collect(),
                });
            }
            Bound::Lo(v, inc) => {
                let tighter = match &self.lo {
                    None => true,
                    Some((cur, cur_inc)) => v > *cur || (v == *cur && *cur_inc && !inc),
                };
                if tighter {
                    self.lo = Some((v, inc));
                }
            }
            Bound::Hi(v, inc) => {
                let tighter = match &self.hi {
                    None => true,
                    Some((cur, cur_inc)) => v < *cur || (v == *cur && *cur_inc && !inc),
                };
                if tighter {
                    self.hi = Some((v, inc));
                }
            }
        }
    }
}

/// Cross product of the pinned value sets, in PK order (None when it
/// exceeds [`MAX_POINT_KEYS`]).
fn point_keys(cols: &[ColumnBounds], schema: &TableSchema) -> Option<Vec<PointKey>> {
    let mut tuples: Vec<Vec<Value>> = vec![Vec::new()];
    for c in cols {
        let values = c.values.as_ref()?;
        if tuples.len() * values.len() > MAX_POINT_KEYS {
            return None;
        }
        tuples = tuples
            .into_iter()
            .flat_map(|t| {
                values.iter().map(move |v| {
                    let mut t = t.clone();
                    t.push(v.clone());
                    t
                })
            })
            .collect();
    }
    let mut points: Vec<PointKey> = Vec::with_capacity(tuples.len());
    for t in tuples {
        let key = Key::encode(&t);
        if !points.iter().any(|p| p.key == key) {
            points.push(PointKey {
                key,
                shard: shard_of(schema, &t),
            });
        }
    }
    Some(points)
}

/// The shard for a PK prefix whose values cover every partition column.
fn shard_of(schema: &TableSchema, pk_prefix: &[Value]) -> Option<u32> {
    let mut part = Vec::new();
    for name in schema.partition.columns() {
        let col = schema.column_index(name).ok()?;
        let j = schema.primary_key.iter().position(|&p| p == col)?;
        part.push(pk_prefix.get(j)?.clone());
    }
    Some(schema.shard_of_key(&part))
}

/// The constraints a conjunct puts on key-encodable columns, comparing
/// each with literals of its exact type; nothing for any other conjunct.
fn key_bounds(e: &Expr, schema: &TableSchema) -> Vec<(usize, Bound)> {
    let literal = |col: usize, e: &Expr| -> Option<Value> {
        let v = match e {
            Expr::Literal(v) => v.clone(),
            Expr::Neg(inner) => match inner.as_ref() {
                Expr::Literal(Value::Int(i)) => Value::Int(i.checked_neg()?),
                _ => return None,
            },
            _ => return None,
        };
        let ty = schema.columns.get(col)?.ty;
        let same = matches!(
            (ty, &v),
            (DataType::Int, Value::Int(_))
                | (DataType::Str, Value::Str(_))
                | (DataType::Bytes, Value::Bytes(_))
        );
        same.then_some(v)
    };
    let bounds = || -> Option<Vec<(usize, Bound)>> {
        match e {
            Expr::Binary { op, left, right } => {
                let (col, lit, op) = match (left.as_ref(), right.as_ref()) {
                    (Expr::ColumnIdx(c), other) => (*c, literal(*c, other)?, *op),
                    (other, Expr::ColumnIdx(c)) => (*c, literal(*c, other)?, flip(*op)),
                    _ => return None,
                };
                let bound = match op {
                    BinOp::Eq => Bound::In(vec![lit]),
                    BinOp::Gt => Bound::Lo(lit, false),
                    BinOp::Ge => Bound::Lo(lit, true),
                    BinOp::Lt => Bound::Hi(lit, false),
                    BinOp::Le => Bound::Hi(lit, true),
                    _ => return None,
                };
                Some(vec![(col, bound)])
            }
            Expr::InList {
                expr,
                list,
                negated: false,
            } => {
                let Expr::ColumnIdx(col) = expr.as_ref() else {
                    return None;
                };
                let mut values = Vec::with_capacity(list.len());
                for item in list {
                    let v = literal(*col, item)?;
                    if !values.contains(&v) {
                        values.push(v);
                    }
                }
                Some(vec![(*col, Bound::In(values))])
            }
            Expr::Between { expr, low, high } => {
                let Expr::ColumnIdx(col) = expr.as_ref() else {
                    return None;
                };
                let (lo, hi) = (literal(*col, low)?, literal(*col, high)?);
                Some(vec![
                    (*col, Bound::Lo(lo, true)),
                    (*col, Bound::Hi(hi, true)),
                ])
            }
            _ => None,
        }
    };
    bounds().unwrap_or_default()
}

/// The operator seen from the other side (`5 < id` is `id > 5`).
fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polardbx_common::{ColumnDef, PartitionSpec, TableId};

    /// `t(a INT, b INT, s VARCHAR, d DOUBLE)` keyed by `key`, hashed on
    /// `part` into 8 shards.
    fn schema(key: &[&str], part: &[&str]) -> TableSchema {
        let cols = vec![
            ColumnDef::new("a", DataType::Int).not_null(),
            ColumnDef::new("b", DataType::Int).not_null(),
            ColumnDef::new("s", DataType::Str),
            ColumnDef::new("d", DataType::Double),
        ];
        TableSchema::new(
            TableId(1),
            "t",
            cols,
            key.iter().map(|c| c.to_string()).collect(),
            PartitionSpec::Hash {
                columns: part.iter().map(|c| c.to_string()).collect(),
                shards: 8,
            },
        )
        .unwrap()
    }

    fn access(sql_where: &str, schema: &TableSchema) -> KeyAccess {
        let crate::Statement::Select(sel) =
            crate::parse(&format!("SELECT * FROM t WHERE {sql_where}")).unwrap()
        else {
            unreachable!()
        };
        let names: Vec<String> = schema.columns.iter().map(|c| c.name.clone()).collect();
        let p = sel.predicate.unwrap().resolve(&names).unwrap();
        KeyAccess::derive(Some(&p), schema)
    }

    fn int_key(vs: &[i64]) -> Key {
        Key::encode(&vs.iter().map(|v| Value::Int(*v)).collect::<Vec<_>>())
    }

    #[test]
    fn equality_and_in_give_points_on_their_shards() {
        let s = schema(&["a"], &["a"]);
        let KeyAccess::Point(keys) = access("a = 5 AND s = 'x'", &s) else {
            panic!()
        };
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0].key, int_key(&[5]));
        assert_eq!(keys[0].shard, Some(s.shard_of_key(&[Value::Int(5)])));
        let KeyAccess::Point(keys) = access("a IN (1, 2, 2, -3)", &s) else {
            panic!()
        };
        assert_eq!(keys.len(), 3, "duplicates collapse");
        assert_eq!(access("a = 1 AND a = 2", &s), KeyAccess::Point(Vec::new()));
        assert_eq!(access("a = 1 AND a IN (1, 2)", &s).shards(8).len(), 1);
    }

    #[test]
    fn ranges_are_half_open_on_the_key_encoding() {
        let s = schema(&["a"], &["a"]);
        let KeyAccess::Range {
            lo,
            hi,
            shard,
            width,
        } = access("a BETWEEN 10 AND 19", &s)
        else {
            panic!()
        };
        assert_eq!(lo, Some(int_key(&[10])));
        assert_eq!(hi, Some(int_key(&[19]).prefix_successor()));
        assert_eq!((shard, width), (None, Some(10)));
        let KeyAccess::Range { lo, hi, width, .. } = access("a > 3 AND 8 >= a", &s) else {
            panic!()
        };
        assert!(lo.unwrap() > int_key(&[3]));
        assert!(hi.unwrap() > int_key(&[8]));
        assert_eq!(width, Some(5));
        assert_eq!(
            access("a BETWEEN 9 AND 2", &s),
            KeyAccess::Point(Vec::new())
        );
    }

    #[test]
    fn composite_prefix_bounds_and_prunes() {
        let s = schema(&["a", "b"], &["a"]);
        let KeyAccess::Range { lo, hi, shard, .. } = access("a = 4", &s) else {
            panic!()
        };
        assert_eq!(lo, Some(int_key(&[4])));
        assert_eq!(hi, Some(int_key(&[4]).prefix_successor()));
        assert_eq!(shard, Some(s.shard_of_key(&[Value::Int(4)])));
        let KeyAccess::Range { lo, hi, .. } = access("a = 4 AND b < 3", &s) else {
            panic!()
        };
        assert_eq!((lo, hi), (Some(int_key(&[4])), Some(int_key(&[4, 3]))));
        let KeyAccess::Point(keys) = access("a = 4 AND b IN (1, 2)", &s) else {
            panic!()
        };
        assert_eq!(keys.len(), 2);
        assert!(keys
            .iter()
            .all(|k| k.shard == Some(s.shard_of_key(&[Value::Int(4)]))));
        assert!(access("b = 4", &s).is_full(), "not a prefix");
    }

    #[test]
    fn partition_key_outside_the_pk_reads_every_shard() {
        let s = schema(&["a"], &["b"]);
        let KeyAccess::Point(keys) = access("a = 1 AND b = 2", &s) else {
            panic!()
        };
        assert_eq!(keys[0].shard, None);
        assert_eq!(access("a = 1", &s).shards(8), (0..8).collect::<Vec<_>>());
        assert_eq!(access("a = 1", &s).keys_on(5).count(), 1);
    }

    #[test]
    fn or_mismatched_literals_and_implicit_keys_scan_everything() {
        let s = schema(&["a"], &["a"]);
        assert!(access("a = 1 OR a = 2", &s).is_full());
        assert!(access("a = 1.0", &s).is_full());
        assert!(access("a = NULL", &s).is_full());
        assert!(access("a IN (1, 'x')", &s).is_full());
        assert!(access("NOT (a = 1)", &s).is_full());
        let by_double = schema(&["d"], &["d"]);
        assert!(
            access("d = 1.5", &by_double).is_full(),
            "DOUBLE keys also store INTs"
        );
        let by_str = schema(&["s"], &["s"]);
        assert!(matches!(access("s = 'k'", &by_str), KeyAccess::Point(_)));
        let cols = vec![ColumnDef::new("a", DataType::Int)];
        let implicit = TableSchema::hash_on_pk(TableId(2), "n", cols, vec![], 4).unwrap();
        assert!(KeyAccess::derive(None, &implicit).is_full());
        assert!(access("a = 1", &implicit).is_full());
    }

    #[test]
    fn in_list_cross_products_are_capped() {
        let s = schema(&["a", "b"], &["a"]);
        let many: Vec<String> = (0..40).map(|i| i.to_string()).collect();
        let list = many.join(", ");
        let p = format!("a IN ({list}) AND b IN ({list})");
        assert!(
            access(&p, &s).is_full(),
            "1600 keys exceed the cap; no single-valued prefix"
        );
        let p = format!("a = 1 AND b IN ({list})");
        assert!(matches!(access(&p, &s), KeyAccess::Point(k) if k.len() == 40));
    }
}

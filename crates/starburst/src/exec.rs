//! Select execution: scans, joins, aggregation, ordering.

use crate::catalog::Catalog;
use crate::db::ResultSet;
use crate::expr::{eval, EvalCtx};
use crate::plan::{JoinStrategy, SelectPlan};
use crate::sql::ast::{AggKind, Expr};
use crate::value::Value;
use crate::{DbError, Result};
use qbism_obs::trace;
use std::collections::HashMap;

/// Hashable join key (only types the planner promotes).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum HashKey {
    Int(i64),
    Str(String),
}

impl HashKey {
    fn from_value(v: &Value) -> Option<HashKey> {
        match v {
            Value::Int(i) => Some(HashKey::Int(*i)),
            Value::Str(s) => Some(HashKey::Str(s.clone())),
            _ => None,
        }
    }
}

/// Canonical hashable form of any group-key value (floats by bits; NULLs
/// group together, following SQL GROUP BY semantics).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum GroupKey {
    Null,
    Int(i64),
    FloatBits(u64),
    Str(String),
    Bool(bool),
    Long(u64),
    Bytes(Vec<u8>),
}

impl GroupKey {
    fn from_value(v: &Value) -> GroupKey {
        match v {
            Value::Null => GroupKey::Null,
            // Integral floats group with equal ints (3 = 3.0).
            Value::Int(i) => GroupKey::Int(*i),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9e15 => GroupKey::Int(*f as i64),
            Value::Float(f) => GroupKey::FloatBits(f.to_bits()),
            Value::Str(s) => GroupKey::Str(s.clone()),
            Value::Bool(b) => GroupKey::Bool(*b),
            Value::Long(id) => GroupKey::Long(id.0),
            Value::Bytes(b) => GroupKey::Bytes(b.clone()),
        }
    }
}

/// Runs a planned SELECT to completion.
pub fn run_select(plan: &SelectPlan, catalog: &Catalog, ctx: &EvalCtx<'_>) -> Result<ResultSet> {
    let span = trace::span("exec.select");
    let rs = run_select_inner(plan, catalog, ctx)?;
    if qbism_obs::enabled() {
        // Handles resolve once per process; the per-select cost is two
        // relaxed atomic adds, not two registry-map lookups.
        static COUNTERS: std::sync::OnceLock<(qbism_obs::Counter, qbism_obs::Counter)> =
            std::sync::OnceLock::new();
        let (rows, selects) = COUNTERS.get_or_init(|| {
            let reg = qbism_obs::global();
            (reg.counter("qbism_exec_rows_total"), reg.counter("qbism_exec_selects_total"))
        });
        rows.add(rs.rows_scanned);
        selects.inc();
        span.record_u64("rows_scanned", rs.rows_scanned);
        span.record_u64("rows_out", rs.len() as u64);
    }
    Ok(rs)
}

fn run_select_inner(plan: &SelectPlan, catalog: &Catalog, ctx: &EvalCtx<'_>) -> Result<ResultSet> {
    let select = &plan.select;
    let (mut rows, rows_scanned) = run_joins(plan, catalog, ctx)?;

    let out_rows = if !select.group_by.is_empty() {
        let span = trace::span("exec.group_by");
        let mut out_rows = run_grouped(plan, &rows, ctx)?;
        if span.is_recording() {
            span.record_u64("rows_in", rows.len() as u64);
            span.record_u64("groups", out_rows.len() as u64);
        }
        drop(span);
        if let Some(limit) = select.limit {
            out_rows.truncate(limit as usize);
        }
        out_rows
    } else if plan.aggregates {
        let span = trace::span("exec.aggregate");
        span.record_u64("rows_in", rows.len() as u64);
        let items = select.items.iter();
        vec![items.map(|item| aggregate(&item.expr, &rows, ctx)).collect::<Result<_>>()?]
    } else {
        // ORDER BY keys are computed against the input scope.
        if !select.order_by.is_empty() {
            let span = trace::span("exec.order_by");
            span.record_u64("rows", rows.len() as u64);
            let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(rows.len());
            for row in rows.drain(..) {
                let keys = select.order_by.iter().map(|(e, _)| eval(e, &row, ctx));
                keyed.push((keys.collect::<Result<_>>()?, row));
            }
            keyed.sort_by(|(ka, _), (kb, _)| {
                for (i, (_, asc)) in select.order_by.iter().enumerate() {
                    let ord = ka[i].order_key_cmp(&kb[i]);
                    let ord = if *asc { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            rows = keyed.into_iter().map(|(_, r)| r).collect();
        }
        if let Some(limit) = select.limit {
            rows.truncate(limit as usize);
        }
        let span = trace::span("exec.project");
        span.record_u64("rows", rows.len() as u64);
        if select.items.is_empty() {
            // SELECT *: the composite tuples are the answer.
            rows
        } else {
            let mut projected = Vec::with_capacity(rows.len());
            for row in &rows {
                let out = select.items.iter().map(|item| eval(&item.expr, row, ctx));
                projected.push(out.collect::<Result<_>>()?);
            }
            projected
        }
    };
    let mut rs = ResultSet::new(plan.columns.clone(), out_rows);
    rs.rows_scanned = rows_scanned;
    Ok(rs)
}

/// Executes the FROM/WHERE part, returning the surviving composite
/// tuples and how many base tuples were scanned.
fn run_joins(
    plan: &SelectPlan,
    catalog: &Catalog,
    ctx: &EvalCtx<'_>,
) -> Result<(Vec<Vec<Value>>, u64)> {
    let mut rows_scanned = 0u64;
    let mut acc: Vec<Vec<Value>> = Vec::new();
    let mut left_width = 0;
    for (i, (tref, &width)) in plan.select.from.iter().zip(&plan.widths).enumerate() {
        let table = catalog.table(&tref.table)?;
        if left_width + table.schema.arity() != width {
            // The plan's slots index tuples of the shape it was bound
            // against: another database's table must not be indexed.
            return Err(DbError::Binding(format!(
                "table {} is not the one this statement was prepared against",
                tref.table
            )));
        }
        let right_rows = table.rows();
        let preds = &plan.stages[i];
        let mut next: Vec<Vec<Value>> = Vec::new();
        let join = i.checked_sub(1).map(|j| &plan.joins[j]);
        let span = if qbism_obs::enabled() {
            trace::span(match join {
                None => format!("exec.scan {}", tref.table),
                Some(JoinStrategy::Hash { .. }) => format!("exec.hash_join {}", tref.table),
                Some(JoinStrategy::NestedLoop) => format!("exec.nested_loop {}", tref.table),
            })
        } else {
            trace::span("exec.join")
        };
        let rows_in = acc.len() as u64 + right_rows.len() as u64;
        match join {
            None => {
                for row in right_rows {
                    rows_scanned += 1;
                    if passes(preds, row, ctx)? {
                        next.push(row.clone());
                    }
                }
            }
            Some(JoinStrategy::Hash { left, right }) => {
                // Build side: the new table.  The planner promotes only a
                // plain column of it to the build key, so the key is read
                // in place, with no composite tuple to pad out.
                let Expr::Column { slot: Some(slot), .. } = right else {
                    return Err(DbError::Binding("hash join key is not a bound column".into()));
                };
                let column = slot - left_width;
                let mut built: HashMap<HashKey, Vec<usize>> = HashMap::new();
                for (ri, rrow) in right_rows.iter().enumerate() {
                    rows_scanned += 1;
                    if let Some(k) = HashKey::from_value(&rrow[column]) {
                        built.entry(k).or_default().push(ri);
                    } // NULL keys match nothing
                }
                for lrow in &acc {
                    let key = eval(left, lrow, ctx)?;
                    let Some(k) = HashKey::from_value(&key) else { continue };
                    if let Some(matches) = built.get(&k) {
                        for &ri in matches {
                            let mut joined = lrow.clone();
                            joined.extend_from_slice(&right_rows[ri]);
                            if passes(preds, &joined, ctx)? {
                                next.push(joined);
                            }
                        }
                    }
                }
            }
            Some(JoinStrategy::NestedLoop) => {
                for lrow in &acc {
                    for rrow in right_rows {
                        rows_scanned += 1;
                        let mut joined = lrow.clone();
                        joined.extend_from_slice(rrow);
                        if passes(preds, &joined, ctx)? {
                            next.push(joined);
                        }
                    }
                }
            }
        }
        if span.is_recording() {
            span.record_u64("rows_in", rows_in);
            span.record_u64("rows_out", next.len() as u64);
        }
        acc = next;
        left_width = width;
    }
    Ok((acc, rows_scanned))
}

fn passes(preds: &[Expr], tuple: &[Value], ctx: &EvalCtx<'_>) -> Result<bool> {
    for p in preds {
        match eval(p, tuple, ctx)? {
            Value::Bool(true) => {}
            Value::Bool(false) | Value::Null => return Ok(false),
            other => return Err(DbError::Type(format!("WHERE predicate evaluated to {other}"))),
        }
    }
    Ok(true)
}

/// GROUP BY execution: hash rows into groups by key expressions, then
/// aggregate within each group.  The planner has checked that every
/// other select item is (textually equal to) one of the group keys.
fn run_grouped(
    plan: &SelectPlan,
    rows: &[Vec<Value>],
    ctx: &EvalCtx<'_>,
) -> Result<Vec<Vec<Value>>> {
    let select = &plan.select;
    // Hash rows by their key tuple, keeping first-seen order.
    let mut order: Vec<Vec<GroupKey>> = Vec::new();
    let mut groups: HashMap<Vec<GroupKey>, Vec<Vec<Value>>> = HashMap::new();
    for row in rows {
        let mut key = Vec::with_capacity(select.group_by.len());
        for g in &select.group_by {
            key.push(GroupKey::from_value(&eval(g, row, ctx)?));
        }
        match groups.entry(key.clone()) {
            std::collections::hash_map::Entry::Vacant(e) => {
                order.push(key);
                e.insert(vec![row.clone()]);
            }
            std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().push(row.clone()),
        }
    }
    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let grows = &groups[&key];
        let mut row_out = Vec::with_capacity(select.items.len());
        for item in &select.items {
            row_out.push(if item.expr.contains_aggregate() {
                aggregate(&item.expr, grows, ctx)?
            } else {
                // A group key: constant within the group, take the first.
                eval(&item.expr, &grows[0], ctx)?
            });
        }
        out.push(row_out);
    }
    Ok(out)
}

/// One aggregate select item over one group of joined rows.
fn aggregate(item: &Expr, rows: &[Vec<Value>], ctx: &EvalCtx<'_>) -> Result<Value> {
    let Expr::Aggregate { kind, arg } = item else {
        return Err(DbError::Binding("select item is not an aggregate".into()));
    };
    let mut count = 0u64;
    let mut sum = 0.0f64;
    let mut all_int = true;
    let mut min: Option<Value> = None;
    let mut max: Option<Value> = None;
    for row in rows {
        let v = match arg {
            None => Value::Int(1), // COUNT(*)
            Some(a) => eval(a, row, ctx)?,
        };
        if matches!(v, Value::Null) {
            continue;
        }
        count += 1;
        if let Some(x) = v.as_f64() {
            sum += x;
            all_int &= matches!(v, Value::Int(_));
        } else if matches!(kind, AggKind::Sum | AggKind::Avg) {
            return Err(DbError::Type(format!("SUM/AVG over non-numeric value {v}")));
        }
        let replace_min = match &min {
            None => true,
            Some(m) => v.sql_cmp(m).map(|o| o.is_lt()).unwrap_or(false),
        };
        if replace_min {
            min = Some(v.clone());
        }
        let replace_max = match &max {
            None => true,
            Some(m) => v.sql_cmp(m).map(|o| o.is_gt()).unwrap_or(false),
        };
        if replace_max {
            max = Some(v.clone());
        }
    }
    Ok(match kind {
        AggKind::Count => Value::Int(count as i64),
        AggKind::Sum if count == 0 => Value::Null,
        AggKind::Sum => {
            if all_int {
                Value::Int(sum as i64)
            } else {
                Value::Float(sum)
            }
        }
        AggKind::Avg if count == 0 => Value::Null,
        AggKind::Avg => Value::Float(sum / count as f64),
        AggKind::Min => min.unwrap_or(Value::Null),
        AggKind::Max => max.unwrap_or(Value::Null),
    })
}

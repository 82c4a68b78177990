//! Select execution over row references: scans, joins, aggregation,
//! ordering.
//!
//! A tuple is never copied while it is joined or tested.  It is `k`
//! references to base rows, one per table bound so far, and a stage's
//! tuples lie in one flat `Vec` with a stride of `k`.  A join stage
//! filters the new table's rows once with its filters, hashes the
//! survivors under a borrowed key (hash join) or keeps them all (nested
//! loop), and appends a tuple only after its predicates pass; see
//! [`crate::plan::Stage`] for which conjunct is which.  Values are
//! cloned only where output is built — the projection and `SELECT *` —
//! while ORDER BY, GROUP BY and aggregates read the same references.
//!
//! `rows_scanned` counts every row of a scanned or hash-joined table and
//! |left| × |right| for a nested loop.  A join stage whose left side is
//! empty counts its rows and evaluates nothing.
//!
//! SQL leaves the order of conjunct evaluation to the engine, and this is
//! where it shows: a filter runs on every row of its table, including
//! rows with no join partner, so an error it raises on such a row (a zero
//! divisor, a type error) fails the statement although no joined tuple
//! would have reached that conjunct.

use crate::catalog::Catalog;
use crate::db::ResultSet;
use crate::expr::{eval, operand, EvalCtx, Tuple};
use crate::plan::{JoinStrategy, SelectPlan};
use crate::sql::ast::{AggKind, Expr};
use crate::value::{unreadable, Value};
use crate::{DbError, Result};
use qbism_obs::trace;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Hashable join key, borrowed from the value it keys (only types the
/// planner promotes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum HashKey<'a> {
    Int(i64),
    Str(&'a str),
}

impl<'a> HashKey<'a> {
    fn from_value(v: &'a Value) -> Option<HashKey<'a>> {
        match v {
            Value::Int(i) => Some(HashKey::Int(*i)),
            Value::Str(s) => Some(HashKey::Str(s)),
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
    fn from_value(v: &Value) -> Result<GroupKey> {
        Ok(match v {
            Value::Null => GroupKey::Null,
            // Integral floats group with equal ints (3 = 3.0).
            Value::Int(i) => GroupKey::Int(*i),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 9e15 => GroupKey::Int(*f as i64),
            Value::Float(f) => GroupKey::FloatBits(f.to_bits()),
            Value::Str(s) => GroupKey::Str(s.clone()),
            Value::Bool(b) => GroupKey::Bool(*b),
            Value::Long(id) => GroupKey::Long(id.0),
            Value::Bytes(b) => GroupKey::Bytes(b.clone()),
            Value::Object(_) => return Err(unreadable("GROUP BY")),
        })
    }
}

/// A composite tuple: one row reference per table bound so far.
#[derive(Clone, Copy)]
struct Refs<'t, 'a> {
    rows: &'t [&'a [Value]],
    /// `widths[i]` = tuple width once tables `0..=i` are bound.
    widths: &'t [usize],
}

impl Tuple for Refs<'_, '_> {
    fn value(&self, slot: usize) -> Option<&Value> {
        let table = self.widths.partition_point(|&w| w <= slot);
        let start = match table.checked_sub(1) {
            Some(prev) => *self.widths.get(prev)?,
            None => 0,
        };
        self.rows.get(table)?.get(slot - start)
    }
}

/// One row of the table whose columns start at slot `start`: what its
/// stage's filters read.
struct Row<'a> {
    row: &'a [Value],
    start: usize,
}

impl Tuple for Row<'_> {
    fn value(&self, slot: usize) -> Option<&Value> {
        self.row.get(slot.checked_sub(self.start)?)
    }
}

/// Runs a planned SELECT to completion.
pub fn run_select(plan: &SelectPlan, catalog: &Catalog, ctx: &EvalCtx<'_>) -> Result<ResultSet> {
    let span = trace::span("exec.select");
    let rs = run_select_inner(plan, catalog, ctx)?;
    if span.is_recording() {
        span.record_u64("rows_scanned", rs.rows_scanned);
        span.record_u64("rows_out", rs.len() as u64);
    }
    Ok(rs)
}

fn run_select_inner(plan: &SelectPlan, catalog: &Catalog, ctx: &EvalCtx<'_>) -> Result<ResultSet> {
    let (refs, rows_scanned) = run_joins(plan, catalog, ctx)?;
    let tuples = refs.chunks_exact(plan.stages.len().max(1));
    let tuples = tuples.map(|rows| Refs { rows, widths: &plan.widths }).collect();
    let mut rs = ResultSet::new(plan.columns.clone(), finish(plan, tuples, ctx)?);
    rs.rows_scanned = rows_scanned;
    Ok(rs)
}

/// Executes the FROM/WHERE part: the surviving tuples as row
/// references, one per FROM table each, and how many base tuples were
/// scanned.
fn run_joins<'a>(
    plan: &SelectPlan,
    catalog: &'a Catalog,
    ctx: &EvalCtx<'_>,
) -> Result<(Vec<&'a [Value]>, u64)> {
    let widths = plan.widths.as_slice();
    let mut rows_scanned = 0u64;
    let (mut acc, mut next): (Vec<&'a [Value]>, Vec<&'a [Value]>) = (Vec::new(), Vec::new());
    let mut left_width = 0;
    let stages = plan.select.from.iter().zip(&plan.stages).zip(widths);
    // `k` tables make up each tuple of `acc`.
    for (k, ((tref, stage), &width)) in stages.enumerate() {
        let table = catalog.table(&tref.table)?;
        if left_width + table.schema.arity() != width {
            // The plan's slots address tuples of the shape it was bound
            // against: another database's table must not be read.
            return Err(DbError::Binding(format!(
                "table {} is not the one this statement was prepared against",
                tref.table
            )));
        }
        let right_rows = table.rows();
        let span = trace::span(&stage.span_name);
        let lefts = acc.len().checked_div(k).unwrap_or(0);
        let filter =
            |row: &'a [Value]| passes(&stage.filters, &Row { row, start: left_width }, ctx);
        let emit = |next: &mut Vec<&'a [Value]>, left: &[&'a [Value]], right: &'a [Value]| {
            let at = next.len();
            next.extend_from_slice(left);
            next.push(right);
            let tuple = Refs { rows: next.get(at..).unwrap_or_default(), widths };
            if !passes(&stage.predicates, &tuple, ctx)? {
                next.truncate(at);
            }
            Ok::<_, DbError>(())
        };
        match &stage.join {
            JoinStrategy::Scan => {
                for row in right_rows {
                    rows_scanned += 1;
                    if filter(row)? {
                        next.push(row);
                    }
                }
            }
            JoinStrategy::Hash { left, right } => {
                // Every row of the build side counts, joined or not.
                rows_scanned += right_rows.len() as u64;
                if lefts > 0 {
                    // The planner promotes only a plain column of the new
                    // table to the build key.
                    let column = match right {
                        Expr::Column { slot: Some(slot), .. } => slot.checked_sub(left_width),
                        _ => None,
                    };
                    let column = column.filter(|&c| c < table.schema.arity()).ok_or_else(|| {
                        DbError::Binding("hash join key is not a column of the joined table".into())
                    })?;
                    let mut built: HashMap<HashKey<'a>, Vec<&'a [Value]>> = HashMap::new();
                    for row in right_rows {
                        // A filter sees every row; NULL keys match nothing.
                        if filter(row)? {
                            if let Some(key) = row.get(column).and_then(HashKey::from_value) {
                                built.entry(key).or_default().push(row);
                            }
                        }
                    }
                    for lrow in acc.chunks_exact(k) {
                        let tuple = Refs { rows: lrow, widths };
                        let probe = operand(left, &tuple, ctx)?;
                        let probe = probe.readable("a join key")?;
                        let Some(matches) = HashKey::from_value(probe).and_then(|k| built.get(&k))
                        else {
                            continue;
                        };
                        for &rrow in matches {
                            emit(&mut next, lrow, rrow)?;
                        }
                    }
                }
            }
            JoinStrategy::NestedLoop => {
                rows_scanned += lefts as u64 * right_rows.len() as u64;
                if lefts > 0 {
                    let mut survivors = Vec::with_capacity(right_rows.len());
                    for row in right_rows {
                        if filter(row)? {
                            survivors.push(row.as_slice());
                        }
                    }
                    for lrow in acc.chunks_exact(k) {
                        for &rrow in &survivors {
                            emit(&mut next, lrow, rrow)?;
                        }
                    }
                }
            }
        }
        if span.is_recording() {
            span.record_u64("rows_in", lefts as u64 + right_rows.len() as u64);
            span.record_u64("rows_out", (next.len() / (k + 1)) as u64);
        }
        std::mem::swap(&mut acc, &mut next);
        next.clear();
        left_width = width;
    }
    Ok((acc, rows_scanned))
}

fn passes<T: Tuple + ?Sized>(preds: &[Expr], tuple: &T, ctx: &EvalCtx<'_>) -> Result<bool> {
    for p in preds {
        match eval(p, tuple, ctx)? {
            Value::Bool(true) => {}
            Value::Bool(false) | Value::Null => return Ok(false),
            other => return Err(DbError::Type(format!("WHERE predicate evaluated to {other}"))),
        }
    }
    Ok(true)
}

/// GROUP BY, aggregation, ORDER BY, LIMIT and projection over the
/// joined tuples, which arrive in join order.
fn finish(
    plan: &SelectPlan,
    mut tuples: Vec<Refs<'_, '_>>,
    ctx: &EvalCtx<'_>,
) -> Result<Vec<Vec<Value>>> {
    let select = &plan.select;
    if !select.group_by.is_empty() {
        let span = trace::span("exec.group_by");
        let mut out_rows = run_grouped(plan, &tuples, ctx)?;
        if span.is_recording() {
            span.record_u64("rows_in", tuples.len() as u64);
            span.record_u64("groups", out_rows.len() as u64);
        }
        drop(span);
        if let Some(limit) = select.limit {
            out_rows.truncate(limit as usize);
        }
        return Ok(out_rows);
    }
    if plan.aggregates {
        let span = trace::span("exec.aggregate");
        span.record_u64("rows_in", tuples.len() as u64);
        let items = select.items.iter();
        return Ok(vec![items
            .map(|item| aggregate(&item.expr, &tuples, ctx))
            .collect::<Result<_>>()?]);
    }
    // ORDER BY keys are computed against the input scope.
    if !select.order_by.is_empty() {
        let span = trace::span("exec.order_by");
        span.record_u64("rows", tuples.len() as u64);
        let mut keyed = Vec::with_capacity(tuples.len());
        for tuple in tuples {
            let keys = select.order_by.iter().map(|(e, _)| {
                let key = eval(e, &tuple, ctx)?;
                key.readable("ORDER BY")?;
                Ok(key)
            });
            keyed.push((keys.collect::<Result<Vec<_>>>()?, tuple));
        }
        keyed.sort_by(|(ka, _), (kb, _)| {
            for ((a, b), (_, asc)) in ka.iter().zip(kb).zip(&select.order_by) {
                let ord = a.order_key_cmp(b);
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        tuples = keyed.into_iter().map(|(_, t)| t).collect();
    }
    if let Some(limit) = select.limit {
        tuples.truncate(limit as usize);
    }
    let span = trace::span("exec.project");
    span.record_u64("rows", tuples.len() as u64);
    let project = |tuple: &Refs<'_, '_>| {
        if select.items.is_empty() {
            // SELECT *: the tuple's rows, side by side.
            Ok(tuple.rows.concat())
        } else {
            select.items.iter().map(|item| eval(&item.expr, tuple, ctx)).collect()
        }
    };
    tuples.iter().map(project).collect()
}

/// GROUP BY execution: hash tuples into groups by key expressions, then
/// aggregate within each group.  The planner has checked that every
/// other select item is (textually equal to) one of the group keys.
fn run_grouped(
    plan: &SelectPlan,
    tuples: &[Refs<'_, '_>],
    ctx: &EvalCtx<'_>,
) -> Result<Vec<Vec<Value>>> {
    let select = &plan.select;
    // Groups in first-seen order, found by their key tuple.
    let mut index: HashMap<Vec<GroupKey>, usize> = HashMap::new();
    let mut groups: Vec<Vec<Refs<'_, '_>>> = Vec::new();
    for tuple in tuples {
        let key = select.group_by.iter().map(|g| GroupKey::from_value(&eval(g, tuple, ctx)?));
        let key = key.collect::<Result<Vec<_>>>()?;
        let fresh = groups.len();
        match groups.get_mut(*index.entry(key).or_insert(fresh)) {
            Some(members) => members.push(*tuple),
            None => groups.push(vec![*tuple]),
        }
    }
    let mut out = Vec::with_capacity(groups.len());
    for members in &groups {
        let mut row_out = Vec::with_capacity(select.items.len());
        for item in &select.items {
            row_out.push(match members.first() {
                // A group key: constant within the group, take the first.
                Some(first) if !item.expr.contains_aggregate() => eval(&item.expr, first, ctx)?,
                _ => aggregate(&item.expr, members, ctx)?,
            });
        }
        out.push(row_out);
    }
    Ok(out)
}

/// One aggregate select item over one group of joined tuples.
fn aggregate(item: &Expr, tuples: &[Refs<'_, '_>], ctx: &EvalCtx<'_>) -> Result<Value> {
    let Expr::Aggregate { kind, arg } = item else {
        return Err(DbError::Binding("select item is not an aggregate".into()));
    };
    let mut count = 0u64;
    let mut sum = 0.0f64;
    let mut all_int = true;
    let mut min: Option<Value> = None;
    let mut max: Option<Value> = None;
    for tuple in tuples {
        let v = match arg {
            None => Value::Int(1), // COUNT(*)
            Some(a) => eval(a, tuple, ctx)?,
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
        } else if matches!(kind, AggKind::Min | AggKind::Max) {
            v.readable("MIN/MAX")?;
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

#[cfg(test)]
mod differential {
    //! The executor against the materializing join it replaced.
    //!
    //! [`materialized_joins`] is the former FROM/WHERE loop: it copies every
    //! candidate pair into an owned tuple and tests each of the stage's
    //! conjuncts on it.  A seeded generator writes tables (0–12 rows of
    //! ints, strings and NULLs, with duplicate and NULL join keys) and
    //! statements over 1–4 of them, and both executors must return the same
    //! columns, the same rows in the same order and the same
    //! `rows_scanned`.

    use super::{finish, passes, run_select, HashKey, Refs};
    use crate::catalog::{Catalog, Column, TableSchema};
    use crate::db::ResultSet;
    use crate::expr::{eval, EvalCtx};
    use crate::plan::{plan_select, JoinStrategy, SelectPlan};
    use crate::sql::ast::{Expr, Statement};
    use crate::sql::parse_statement;
    use crate::udf::UdfRegistry;
    use crate::value::{DataType, Value};
    use crate::{DbError, Result};
    use proptest::prelude::*;
    use qbism_lfm::LongFieldManager;
    use std::collections::HashMap;

    /// The materializing FROM/WHERE loop: each candidate pair is copied
    /// into an owned tuple, then every conjunct of its stage is tested.
    fn materialized_joins(
        plan: &SelectPlan,
        catalog: &Catalog,
        ctx: &EvalCtx<'_>,
    ) -> Result<(Vec<Vec<Value>>, u64)> {
        let mut rows_scanned = 0u64;
        let mut acc: Vec<Vec<Value>> = Vec::new();
        let mut left_width = 0;
        for ((tref, stage), &width) in plan.select.from.iter().zip(&plan.stages).zip(&plan.widths) {
            let table = catalog.table(&tref.table)?;
            assert_eq!(left_width + table.schema.arity(), width, "{}", tref.table);
            let right_rows = table.rows();
            let preds: Vec<Expr> = stage.filters.iter().chain(&stage.predicates).cloned().collect();
            let mut next = Vec::new();
            match &stage.join {
                JoinStrategy::Scan => {
                    for row in right_rows {
                        rows_scanned += 1;
                        if passes(&preds, row.as_slice(), ctx)? {
                            next.push(row.clone());
                        }
                    }
                }
                JoinStrategy::Hash { left, right } => {
                    let Expr::Column { slot: Some(slot), .. } = right else { panic!("{right:?}") };
                    let column = slot - left_width;
                    let mut built: HashMap<HashKey<'_>, Vec<usize>> = HashMap::new();
                    for (ri, rrow) in right_rows.iter().enumerate() {
                        rows_scanned += 1;
                        if let Some(k) = HashKey::from_value(&rrow[column]) {
                            built.entry(k).or_default().push(ri);
                        }
                    }
                    for lrow in &acc {
                        let key = eval(left, lrow.as_slice(), ctx)?;
                        let Some(k) = HashKey::from_value(&key) else { continue };
                        for &ri in built.get(&k).into_iter().flatten() {
                            let mut joined = lrow.clone();
                            joined.extend_from_slice(&right_rows[ri]);
                            if passes(&preds, joined.as_slice(), ctx)? {
                                next.push(joined);
                            }
                        }
                    }
                }
                JoinStrategy::NestedLoop => {
                    for lrow in &acc {
                        for rrow in right_rows {
                            rows_scanned += 1;
                            let mut joined = lrow.clone();
                            joined.extend_from_slice(rrow);
                            if passes(&preds, joined.as_slice(), ctx)? {
                                next.push(joined);
                            }
                        }
                    }
                }
            }
            acc = next;
            left_width = width;
        }
        Ok((acc, rows_scanned))
    }

    /// A whole SELECT through [`materialized_joins`]: each owned tuple is
    /// one reference of the statement's full width.
    fn run_select_materialized(
        plan: &SelectPlan,
        catalog: &Catalog,
        ctx: &EvalCtx<'_>,
    ) -> Result<ResultSet> {
        let (rows, rows_scanned) = materialized_joins(plan, catalog, ctx)?;
        let widths = [plan.widths.last().copied().unwrap_or(0)];
        let rows: Vec<[&[Value]; 1]> = rows.iter().map(|r| [r.as_slice()]).collect();
        let tuples = rows.iter().map(|r| Refs { rows: r, widths: &widths }).collect();
        let mut rs = ResultSet::new(plan.columns.clone(), finish(plan, tuples, ctx)?);
        rs.rows_scanned = rows_scanned;
        Ok(rs)
    }

    /// Both executors' answers to `sql`: (row references, materializing).
    fn both(
        catalog: &Catalog,
        sql: &str,
        params: &[Value],
    ) -> (Result<ResultSet>, Result<ResultSet>) {
        let Statement::Select(select) = parse_statement(sql).unwrap() else { panic!("{sql}") };
        let plan = plan_select(select, catalog).unwrap_or_else(|e| panic!("{sql}: {e}"));
        let (udfs, lfm) = (UdfRegistry::new(), LongFieldManager::new(1 << 16, 4096).unwrap());
        let ctx = EvalCtx { params, udfs: &udfs, lfm: &lfm };
        (run_select(&plan, catalog, &ctx), run_select_materialized(&plan, catalog, &ctx))
    }

    /// Tables `t0..` of `(k int, s string, x int)` holding `rows`.
    fn catalog(tables: &[Vec<[Value; 3]>]) -> Catalog {
        let mut catalog = Catalog::new();
        for (i, rows) in tables.iter().enumerate() {
            let name = format!("t{i}");
            let columns = vec![
                Column::new("k", DataType::Int),
                Column::new("s", DataType::Str),
                Column::new("x", DataType::Int),
            ];
            catalog.create_table(TableSchema::new(&name, columns).unwrap()).unwrap();
            for row in rows {
                catalog.table_mut(&name).unwrap().insert(row.to_vec()).unwrap();
            }
        }
        catalog
    }

    /// SplitMix64: the generator's stream, one seed per case.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.next() % 100 < percent
        }

        fn int(&mut self, n: usize) -> i64 {
            self.below(n) as i64
        }

        /// `v`, or NULL `percent` % of the time.
        fn or_null(&mut self, percent: u64, v: Value) -> Value {
            if self.chance(percent) {
                Value::Null
            } else {
                v
            }
        }
    }

    const STRINGS: [&str; 4] = ["a", "b", "c", "ab"];

    /// Four tables of 0–12 rows; keys repeat and any value may be NULL.
    fn tables(rng: &mut Rng) -> Vec<Vec<[Value; 3]>> {
        let mut tables = Vec::new();
        for _ in 0..4 {
            let mut rows = Vec::new();
            for _ in 0..rng.below(13) {
                let (k, s, x) = (rng.int(4), STRINGS[rng.below(STRINGS.len())], rng.int(10));
                let k = rng.or_null(20, Value::Int(k));
                let s = rng.or_null(20, Value::from(s));
                rows.push([k, s, rng.or_null(15, Value::Int(x))]);
            }
            tables.push(rows);
        }
        tables
    }

    /// A conjunct over alias `a{i}` alone, with its parameter values.
    fn filter(rng: &mut Rng, i: usize) -> (String, Vec<Value>) {
        let text = match rng.below(8) {
            0 => format!("a{i}.x > {}", rng.below(10)),
            1 => format!("a{i}.s = '{}'", STRINGS[rng.below(STRINGS.len())]),
            2 => format!("a{i}.x is null"),
            3 => format!("a{i}.s is not null"),
            4 => format!("a{i}.s like 'a%'"),
            5 => format!("a{i}.x in (1, 2, 3)"),
            6 => format!("a{i}.k <> a{i}.x"),
            _ => return (format!("a{i}.x <= ?"), vec![Value::Int(rng.int(10))]),
        };
        (text, Vec::new())
    }

    /// A conjunct that joins `a{i}` to the earlier `a{j}`.
    fn link(rng: &mut Rng, i: usize, j: usize) -> (String, Vec<Value>) {
        let text = match rng.below(7) {
            // Hash keys: column to column, constant, parameter.
            0 => format!("a{j}.k = a{i}.k"),
            1 => format!("a{i}.s = a{j}.s"),
            2 => format!("a{i}.k = {}", rng.below(4)),
            3 => return (format!("? = a{i}.k"), vec![Value::Int(rng.int(4))]),
            // Cross-table predicates.
            4 => format!("a{j}.x < a{i}.x"),
            5 => format!("a{j}.x + a{i}.x = {}", rng.below(12)),
            _ => format!("(a{j}.s = a{i}.s or a{i}.x = 1)"),
        };
        (text, Vec::new())
    }

    /// A SELECT over `n` of the tables, with its parameter values in text
    /// order.
    fn statement(rng: &mut Rng, n: usize) -> (String, Vec<Value>) {
        let from: Vec<String> = (0..n).map(|i| format!("t{} a{i}", rng.below(4))).collect();
        let mut conjuncts = Vec::new();
        for i in 0..n {
            for _ in 0..rng.below(3) {
                conjuncts.push(filter(rng, i));
            }
            if i > 0 {
                for _ in 0..rng.below(3) {
                    let j = rng.below(i);
                    conjuncts.push(link(rng, i, j));
                }
            }
        }
        // Which equality becomes a stage's key depends on the order.
        for at in (1..conjuncts.len()).rev() {
            conjuncts.swap(at, rng.below(at + 1));
        }
        let column = |rng: &mut Rng| format!("a{}.{}", rng.below(n), ["k", "s", "x"][rng.below(3)]);
        let limit = |rng: &mut Rng| {
            if rng.chance(50) {
                format!(" limit {}", rng.below(6))
            } else {
                String::new()
            }
        };
        let (a, b) = (rng.below(n), rng.below(n));
        let (items, tail) = match rng.below(5) {
            0 => ("*".to_string(), String::new()),
            1 => (format!("{}, {}", column(rng), column(rng)), String::new()),
            2 => {
                let items =
                    if rng.chance(30) { "*".into() } else { format!("{}, a{a}.x", column(rng)) };
                let dir = if rng.chance(50) { " desc" } else { "" };
                (items, format!(" order by a{a}.x{dir}, {}{}", column(rng), limit(rng)))
            }
            3 => (
                format!("a{b}.k, count(*), sum(a{a}.x), min(a{a}.s), max(a{b}.x)"),
                format!(" group by a{b}.k{}", limit(rng)),
            ),
            _ => (format!("count(*), sum(a{a}.x), avg(a{b}.x), min(a{a}.s)"), String::new()),
        };
        let mut sql = format!("select {items} from {}", from.join(", "));
        let mut params = Vec::new();
        for (at, (text, values)) in conjuncts.into_iter().enumerate() {
            sql.push_str(if at == 0 { " where " } else { " and " });
            sql.push_str(&text);
            params.extend(values);
        }
        sql.push_str(&tail);
        (sql, params)
    }

    proptest! {
        #[test]
        fn row_references_answer_as_the_materializing_join(seed in any::<u64>()) {
            let mut rng = Rng(seed);
            let catalog = catalog(&tables(&mut rng));
            for _ in 0..16 {
                let n = 1 + rng.below(4);
                let (sql, params) = statement(&mut rng, n);
                let (got, want) = both(&catalog, &sql, &params);
                let want = want.unwrap_or_else(|e| panic!("{sql}: {e}"));
                let got = got.unwrap_or_else(|e| panic!("{sql}: {e}"));
                prop_assert_eq!(got, want, "{} {:?}", sql, params);
            }
        }
    }

    /// The generator reaches every stage shape and returns rows: hash joins
    /// keyed by a column and by a constant or parameter, nested loops,
    /// filters and predicates.
    #[test]
    fn the_generator_reaches_every_stage_shape() {
        let mut rng = Rng(0x5EED);
        let catalog = catalog(&tables(&mut rng));
        let mut seen = [0usize; 6];
        for _ in 0..400 {
            let n = 1 + rng.below(4);
            let (sql, params) = statement(&mut rng, n);
            let Statement::Select(select) = parse_statement(&sql).unwrap() else { panic!("{sql}") };
            let plan = plan_select(select, &catalog).unwrap();
            for stage in &plan.stages {
                match &stage.join {
                    JoinStrategy::Hash { left: Expr::Column { .. }, .. } => seen[0] += 1,
                    JoinStrategy::Hash { .. } => seen[1] += 1,
                    JoinStrategy::NestedLoop => seen[2] += 1,
                    JoinStrategy::Scan => {}
                }
                seen[3] += stage.filters.len();
                seen[4] += stage.predicates.len();
            }
            seen[5] += usize::from(!both(&catalog, &sql, &params).0.unwrap().is_empty());
        }
        assert!(seen.iter().all(|&n| n >= 20), "{seen:?}");
    }

    fn row(k: i64, s: &str, x: i64) -> [Value; 3] {
        [Value::Int(k), Value::from(s), Value::Int(x)]
    }

    #[test]
    fn a_stage_with_an_empty_left_side_counts_its_rows_and_evaluates_nothing() {
        // `10 / b.x` has no value on b's second row.  No row of `a` passes
        // its filter, so the stage of b evaluates nothing.
        let catalog =
            catalog(&[vec![row(1, "a", 1), row(2, "b", 2)], vec![row(1, "a", 5), row(2, "b", 0)]]);
        for (sql, scanned) in [
            // A hash join counts every row of b.
            ("select * from t0 a, t1 b where a.x > 100 and a.k = b.k and 10 / b.x = 1", 4),
            // A nested loop counts |left| × |b| = 0.
            ("select * from t0 a, t1 b where a.x > 100 and 10 / b.x = 1", 2),
        ] {
            let (got, want) = both(&catalog, sql, &[]);
            let (got, want) = (got.unwrap(), want.unwrap());
            assert_eq!(got, want, "{sql}");
            assert_eq!((got.len(), got.rows_scanned), (0, scanned), "{sql}");
        }
    }

    /// The one intended difference, named in the module doc of `exec`: a
    /// filter runs on every row of its table, so its error on a row with no
    /// join partner surfaces.  The materializing join never tested that row.
    #[test]
    fn a_filter_error_on_a_row_without_a_partner_surfaces() {
        let catalog = catalog(&[vec![row(1, "a", 1)], vec![row(1, "a", 5), row(99, "z", 0)]]);
        let sql = "select a.x from t0 a, t1 b where a.k = b.k and 10 / b.x = 2";
        let (got, want) = both(&catalog, sql, &[]);
        let want = want.unwrap();
        assert_eq!((want.rows(), want.rows_scanned), (&[vec![Value::Int(1)]][..], 3));
        assert!(matches!(got, Err(DbError::Exec(_))), "{got:?}");
    }
}

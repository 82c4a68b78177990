//! Binding and join planning: the prepare-time half of a statement.
//!
//! Binding resolves every column reference to its slot in the composite
//! join tuple, in place on the parsed [`Expr`]s, so execution reads
//! tuples by slot and never looks a name up.  The planner is
//! deliberately simple — left-deep joins in FROM order — because the
//! medical schema's queries join along key equalities that a hash join
//! handles well, and the paper's own measurements show the database
//! component is I/O bound, not join bound.  What matters is:
//!
//! * each conjunct runs at the first stage that binds all its columns:
//!   as a *filter* of that stage's table if it reads no earlier table
//!   (tested once per row, before the join), else as a *predicate* on
//!   each tuple the join emits;
//! * key equalities become hash joins;
//! * everything else falls back to a predicate-filtered nested loop.

use crate::catalog::{Catalog, TableSchema};
use crate::sql::ast::{BinOp, Expr, Select, SelectItem};
use crate::value::DataType;
use crate::{DbError, Result};

/// How one FROM table joins the tuples bound before it.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinStrategy {
    /// The first table: each of its rows that passes the filters is a
    /// tuple.
    Scan,
    /// Build a hash table on the new table keyed by `right`, probe with
    /// `left` evaluated on the accumulated side.
    Hash {
        /// Probe-side key (binds in the accumulated scope).
        left: Expr,
        /// Build-side key: a plain column of the new table.
        right: Expr,
    },
    /// Plain nested loop (predicates still filter each emitted tuple).
    NestedLoop,
}

/// One FROM table's step of the plan.
#[derive(Debug)]
pub struct Stage {
    /// How the table joins the tuples bound before it.
    pub join: JoinStrategy,
    /// Conjuncts over this table, parameters and literals only: tested
    /// once per row of the table, before it joins.
    pub filters: Vec<Expr>,
    /// Conjuncts that also read an earlier table: tested once per tuple
    /// the join emits.
    pub predicates: Vec<Expr>,
    /// The stage's span name, e.g. `exec.hash_join intensityband`.
    pub(crate) span_name: String,
}

/// A bound, planned SELECT: everything execution needs but the rows
/// and the parameter values.
#[derive(Debug)]
pub struct SelectPlan {
    /// The bound statement; its WHERE clause has moved into `stages`.
    pub select: Select,
    /// One per FROM table, in FROM order.
    pub stages: Vec<Stage>,
    /// `widths[i]` = tuple width once tables `0..=i` are bound.
    pub widths: Vec<usize>,
    /// Output column names.
    pub columns: Vec<String>,
    /// Whether the select list aggregates (with or without GROUP BY).
    pub aggregates: bool,
    /// Number of `?` parameters a run must supply.
    pub params: usize,
}

/// Prepare-time name resolution: which aliases are bound, their
/// schemas, and where each table's columns start in the composite tuple.
#[derive(Default)]
pub struct Scope<'a> {
    entries: Vec<(&'a str, &'a TableSchema, usize)>,
    /// Column type of every tuple slot.
    types: Vec<DataType>,
    /// `?` parameters seen while binding.
    params: usize,
}

impl<'a> Scope<'a> {
    /// Appends a table binding.
    pub fn push(&mut self, alias: &'a str, schema: &'a TableSchema) {
        self.entries.push((alias, schema, self.types.len()));
        self.types.extend(schema.columns.iter().map(|c| c.ty));
    }

    /// Resolves a column reference to a tuple slot.
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        match qualifier {
            Some(q) => {
                let (_, schema, offset) = self
                    .entries
                    .iter()
                    .find(|(alias, _, _)| alias.eq_ignore_ascii_case(q))
                    .ok_or_else(|| DbError::Binding(format!("unknown table alias: {q}")))?;
                let idx = schema
                    .column_index(name)
                    .ok_or_else(|| DbError::Binding(format!("no column {name} in {q}")))?;
                Ok(offset + idx)
            }
            None => {
                let mut hit = None;
                for (alias, schema, offset) in &self.entries {
                    if let Some(idx) = schema.column_index(name) {
                        if hit.is_some() {
                            return Err(DbError::Binding(format!(
                                "ambiguous column {name} (qualify it, e.g. {alias}.{name})"
                            )));
                        }
                        hit = Some(offset + idx);
                    }
                }
                hit.ok_or_else(|| DbError::Binding(format!("no such column: {name}")))
            }
        }
    }

    /// Binds `expr` in place: every column reference gets its slot, and
    /// every `?` is counted.
    pub fn bind(&mut self, expr: &mut Expr) -> Result<()> {
        match expr {
            Expr::Literal(_) => {}
            Expr::Param(n) => self.params = self.params.max(*n + 1),
            Expr::Column { qualifier, name, slot } => {
                *slot = Some(self.resolve(qualifier.as_deref(), name)?);
            }
            Expr::Binary { left, right, .. } => {
                self.bind(left)?;
                self.bind(right)?;
            }
            Expr::Not(e) | Expr::Neg(e) => self.bind(e)?,
            Expr::Call { args, .. } => args.iter_mut().try_for_each(|a| self.bind(a))?,
            Expr::Aggregate { arg, .. } => arg.iter_mut().try_for_each(|a| self.bind(a))?,
            Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => self.bind(expr)?,
            Expr::InList { expr, list, .. } => {
                self.bind(expr)?;
                list.iter_mut().try_for_each(|e| self.bind(e))?;
            }
        }
        Ok(())
    }

    /// Whether `expr` is a plain column at or past slot `from` whose
    /// type hashes (int or string).
    fn hash_column(&self, expr: &Expr, from: usize) -> bool {
        matches!(expr, Expr::Column { slot: Some(s), .. }
            if *s >= from && matches!(self.types.get(*s), Some(DataType::Int | DataType::Str)))
    }
}

/// Binds the expressions of a single-table statement (DELETE, UPDATE)
/// over that table.  Such a statement has no run to supply parameter
/// values, so it may not hold `?`.
pub fn bind_over_table<'e>(
    schema: &TableSchema,
    mut exprs: impl Iterator<Item = &'e mut Expr>,
) -> Result<()> {
    let mut scope = Scope::default();
    scope.push(&schema.name, schema);
    exprs.try_for_each(|e| scope.bind(e))?;
    match scope.params {
        0 => Ok(()),
        _ => Err(DbError::Binding("only SELECT takes ? parameters".into())),
    }
}

/// Whether every column `expr` references sits below slot `width`.
fn within(expr: &Expr, width: usize) -> bool {
    !expr.any(&|e| matches!(e, Expr::Column { slot: Some(s), .. } if *s >= width))
}

/// Whether `expr` references some column below slot `width`.
fn reads_below(expr: &Expr, width: usize) -> bool {
    expr.any(&|e| matches!(e, Expr::Column { slot: Some(s), .. } if *s < width))
}

/// Splits a predicate into AND-ed conjuncts.
pub fn conjuncts(expr: Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Binary { op: BinOp::And, left, right } => {
            conjuncts(*left, out);
            conjuncts(*right, out);
        }
        other => out.push(other),
    }
}

/// Binds `select` against the catalog and builds its plan: output
/// shape, join strategies and per-stage predicate schedules.
pub fn plan_select(mut select: Select, catalog: &Catalog) -> Result<SelectPlan> {
    let mut scope = Scope::default();
    let mut widths = Vec::with_capacity(select.from.len());
    let mut star = Vec::new();
    for tref in &select.from {
        let schema = &catalog.table(&tref.table)?.schema;
        scope.push(&tref.alias, schema);
        widths.push(scope.types.len());
        star.extend(schema.columns.iter().map(|c| format!("{}.{}", tref.alias, c.name)));
    }
    let mut remaining = Vec::new();
    if let Some(predicate) = select.where_clause.take() {
        conjuncts(predicate, &mut remaining);
    }
    let keys = select.order_by.iter_mut().map(|(e, _)| e);
    let items = select.items.iter_mut().map(|i| &mut i.expr);
    items
        .chain(&mut remaining)
        .chain(&mut select.group_by)
        .chain(keys)
        .try_for_each(|e| scope.bind(e))?;

    // Output shape, checked once here rather than per run.
    let aggregates = select.items.iter().any(|i| i.expr.contains_aggregate());
    let grouped = !select.group_by.is_empty();
    if (aggregates || grouped) && !select.order_by.is_empty() {
        let what = if grouped { "GROUP BY" } else { "aggregates" };
        return Err(DbError::Binding(format!("ORDER BY with {what} is not supported")));
    }
    for item in &select.items {
        let whole = matches!(item.expr, Expr::Aggregate { .. });
        if grouped && !item.expr.contains_aggregate() && !select.group_by.contains(&item.expr) {
            return Err(DbError::Binding(format!(
                "select item {:?} is neither an aggregate nor a GROUP BY key",
                item.expr.default_name()
            )));
        }
        if ((aggregates && !grouped) || item.expr.contains_aggregate()) && !whole {
            return Err(DbError::Binding(
                "select list mixes aggregates with plain expressions".into(),
            ));
        }
    }
    let columns = if select.items.is_empty() {
        star
    } else {
        let name = |i: &SelectItem| i.alias.clone().unwrap_or_else(|| i.expr.default_name());
        select.items.iter().map(name).collect()
    };

    let mut stages: Vec<Stage> = Vec::with_capacity(widths.len());
    let mut bound_width = 0;
    for (&width, tref) in widths.iter().zip(&select.from) {
        // Conjuncts that become fully bound at this stage.
        let (bound, rest): (Vec<Expr>, Vec<Expr>) =
            remaining.into_iter().partition(|c| within(c, width));
        remaining = rest;
        // After the first table, promote the first equi-conjunct with one
        // side on the accumulated prefix and a hashable column of the new
        // table on the other into the join's key pair.
        let mut join =
            if stages.is_empty() { JoinStrategy::Scan } else { JoinStrategy::NestedLoop };
        let mut unkeyed = Vec::new();
        let keys = |probe: &Expr, build: &Expr| {
            within(probe, bound_width)
                && scope.hash_column(build, bound_width)
                && (scope.hash_column(probe, 0) || !matches!(probe, Expr::Column { .. }))
        };
        for c in bound {
            match c {
                Expr::Binary { op: BinOp::Eq, left, right } if join == JoinStrategy::NestedLoop => {
                    if keys(&left, &right) {
                        join = JoinStrategy::Hash { left: *left, right: *right };
                    } else if keys(&right, &left) {
                        join = JoinStrategy::Hash { left: *right, right: *left };
                    } else {
                        unkeyed.push(Expr::Binary { op: BinOp::Eq, left, right });
                    }
                }
                other => unkeyed.push(other),
            }
        }
        let (predicates, filters) = unkeyed.into_iter().partition(|c| reads_below(c, bound_width));
        let op = match join {
            JoinStrategy::Scan => "scan",
            JoinStrategy::Hash { .. } => "hash_join",
            JoinStrategy::NestedLoop => "nested_loop",
        };
        let span_name = format!("exec.{op} {}", tref.table);
        stages.push(Stage { join, filters, predicates, span_name });
        bound_width = width;
    }
    let params = scope.params;
    Ok(SelectPlan { select, stages, widths, columns, aggregates, params })
}

/// `n` and `noun`, plural unless `n` is 1.
fn count(n: usize, noun: &str) -> String {
    format!("{n} {noun}{}", if n == 1 { "" } else { "s" })
}

impl SelectPlan {
    /// Human-readable plan rendering for `EXPLAIN`.
    pub fn render(&self) -> String {
        let select = &self.select;
        let mut out = String::new();
        for (stage, tref) in self.stages.iter().zip(&select.from) {
            let (alias, filters) = (&tref.alias, count(stage.filters.len(), "filter"));
            let predicates = count(stage.predicates.len(), "predicate");
            out.push_str(&match &stage.join {
                JoinStrategy::Scan => format!("scan {alias} ({filters})\n"),
                JoinStrategy::Hash { left, right } => {
                    format!("hash join {alias} on {left:?} = {right:?} ({filters}, {predicates})\n")
                }
                JoinStrategy::NestedLoop => {
                    format!("nested loop {alias} ({filters}, {predicates})\n")
                }
            });
        }
        if self.aggregates {
            out.push_str("aggregate\n");
        }
        if !select.order_by.is_empty() {
            out.push_str(&format!("sort by {} keys\n", select.order_by.len()));
        }
        if let Some(l) = select.limit {
            out.push_str(&format!("limit {l}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, TableSchema};
    use crate::sql::ast::Statement;
    use crate::sql::parse_statement;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            TableSchema::new(
                "a",
                vec![Column::new("id", DataType::Int), Column::new("x", DataType::Float)],
            )
            .unwrap(),
        )
        .unwrap();
        c.create_table(
            TableSchema::new(
                "b",
                vec![Column::new("id", DataType::Int), Column::new("name", DataType::Str)],
            )
            .unwrap(),
        )
        .unwrap();
        c.create_table(TableSchema::new("c", vec![Column::new("bname", DataType::Str)]).unwrap())
            .unwrap();
        c
    }

    fn plan(sql: &str) -> SelectPlan {
        let Statement::Select(s) = parse_statement(sql).unwrap() else { panic!() };
        plan_select(s, &catalog()).unwrap()
    }

    #[test]
    fn equi_join_promotes_to_hash() {
        let p = plan("select * from a, b where a.id = b.id and a.x > 1");
        assert_eq!(p.stages.len(), 2);
        assert!(matches!(p.stages[1].join, JoinStrategy::Hash { .. }));
        // a.x > 1 reads a alone: a filter of the scan.
        assert_eq!(p.stages[0].filters.len(), 1);
        let b = &p.stages[1];
        assert!(b.filters.is_empty() && b.predicates.is_empty(), "equi conjunct is the key");
    }

    #[test]
    fn string_keys_hash_too() {
        let p = plan("select * from b, c where b.name = c.bname");
        assert!(matches!(p.stages[1].join, JoinStrategy::Hash { .. }));
    }

    #[test]
    fn cross_product_is_nested_loop() {
        let p = plan("select * from a, b");
        assert_eq!(p.stages[0].join, JoinStrategy::Scan);
        assert_eq!(p.stages[1].join, JoinStrategy::NestedLoop);
    }

    #[test]
    fn non_equi_join_predicate_filters_nested_loop() {
        let p = plan("select * from a, b where a.id < b.id");
        assert_eq!(p.stages[1].join, JoinStrategy::NestedLoop);
        assert_eq!(p.stages[1].predicates.len(), 1);
    }

    #[test]
    fn float_equality_is_not_hashed() {
        // a.x is float: exact-bits hashing would break int/float coercion,
        // so the planner declines.
        let p = plan("select * from a, b where a.x = b.id");
        assert_eq!(p.stages[1].join, JoinStrategy::NestedLoop);
        assert_eq!(p.stages[1].predicates.len(), 1);
    }

    #[test]
    fn second_equi_conjunct_stays_a_predicate() {
        let p = plan("select * from a, b where a.id = b.id and a.x = b.id");
        assert!(matches!(p.stages[1].join, JoinStrategy::Hash { .. }));
        assert_eq!(p.stages[1].predicates.len(), 1);
    }

    #[test]
    fn three_table_chain() {
        let p = plan("select * from a, b, c where a.id = b.id and b.name = c.bname");
        assert_eq!(p.stages.len(), 3);
        assert!(matches!(p.stages[1].join, JoinStrategy::Hash { .. }));
        assert!(matches!(p.stages[2].join, JoinStrategy::Hash { .. }));
    }

    #[test]
    fn conjuncts_split_into_filters_and_predicates() {
        // b.name = 'x' reads b alone: a filter, run once per row of b.
        // a.x > b.id spans both sides: a predicate, run once per pair.
        // A constant key (`b.id = 1`) probes with the same value for
        // every tuple of the left side.
        let p = plan("select * from a, b where a.id = b.id and b.name = 'x' and a.x > b.id");
        assert_eq!((p.stages[1].filters.len(), p.stages[1].predicates.len()), (1, 1));
        let p = plan("select * from a, b where b.id = 1 and b.name = a.x");
        let JoinStrategy::Hash { left, .. } = &p.stages[1].join else { panic!("{p:?}") };
        assert!(matches!(left, Expr::Literal(_)));
        assert_eq!((p.stages[1].filters.len(), p.stages[1].predicates.len()), (0, 1));
    }

    #[test]
    fn plan_renders_strategies() {
        let text = plan("select count(*) from a, b where a.id = b.id and a.x > 0 limit 5").render();
        assert!(text.contains("scan a (1 filter)"), "{text}");
        assert!(text.contains("hash join b"), "{text}");
        assert!(text.contains("(0 filters, 0 predicates)"), "{text}");
        assert!(text.contains("aggregate"), "{text}");
        assert!(text.contains("limit 5"), "{text}");
        let text = plan("select * from a, b where a.x < b.id and b.name like 'x%'").render();
        assert!(text.contains("nested loop b (1 filter, 1 predicate)"), "{text}");
    }

    #[test]
    fn unknown_column_is_reported() {
        let Statement::Select(s) = parse_statement("select * from a where a.zz = 1").unwrap()
        else {
            panic!()
        };
        let err = plan_select(s, &catalog()).unwrap_err();
        assert!(err.to_string().contains("no column zz"), "{err}");
    }

    #[test]
    fn conjunct_splitting() {
        let Statement::Select(s) =
            parse_statement("select * from a where a.id = 1 and (a.x > 2 or a.x < 0) and a.id < 9")
                .unwrap()
        else {
            panic!()
        };
        let mut cs = Vec::new();
        conjuncts(s.where_clause.unwrap(), &mut cs);
        assert_eq!(cs.len(), 3, "OR does not split");
    }

    #[test]
    fn columns_bind_to_slots_and_parameters_are_counted() {
        let p = plan("select b.name, ? from a, b where a.id = b.id and b.name = ? and x > ?");
        assert_eq!(p.params, 3);
        assert_eq!(p.widths, vec![2, 4]);
        assert_eq!(p.columns, vec!["name", "expr"]);
        assert!(matches!(p.select.items[0].expr, Expr::Column { slot: Some(3), .. }));
        // A bare column binds like a qualified one; a parameter binds
        // anywhere, so `b.name = ?` filters at b's stage and `x > ?` at
        // the scan.
        assert_eq!((p.stages[0].filters.len(), p.stages[1].filters.len()), (1, 1));
        let JoinStrategy::Hash { left, right } = &p.stages[1].join else { panic!("{p:?}") };
        assert!(matches!(left, Expr::Column { slot: Some(0), .. }));
        assert!(matches!(right, Expr::Column { slot: Some(2), .. }));
    }

    #[test]
    fn scope_resolution() {
        let c = catalog();
        let mut s = Scope::default();
        s.push("a", &c.table("a").unwrap().schema);
        s.push("b", &c.table("b").unwrap().schema);
        assert_eq!(s.resolve(Some("a"), "x").unwrap(), 1);
        assert_eq!(s.resolve(Some("b"), "name").unwrap(), 3);
        assert_eq!(s.resolve(None, "x").unwrap(), 1, "unambiguous bare column");
        assert!(s.resolve(None, "id").is_err(), "ambiguous across tables");
        assert!(s.resolve(Some("q"), "x").is_err(), "unknown alias");
        assert!(s.resolve(Some("a"), "name").is_err(), "column not in that table");
    }

    #[test]
    fn output_shape_is_checked_at_plan_time() {
        for sql in [
            "select count(*), a.id from a",
            "select 1 + count(*) from a",
            "select a.x, count(*) from a group by a.id",
            "select 1 + count(*) from a group by a.id",
            "select count(*) from a order by a.id",
            "select a.id from a group by a.id order by a.id",
        ] {
            let Statement::Select(s) = parse_statement(sql).unwrap() else { panic!() };
            let err = plan_select(s, &catalog()).unwrap_err();
            assert!(matches!(err, DbError::Binding(_)), "{sql}: {err}");
        }
    }
}

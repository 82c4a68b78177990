//! The [`Database`] facade: catalog + heap tables + LFM + UDFs + SQL.

use crate::catalog::{Catalog, Column, TableSchema};
use crate::exec::run_select;
use crate::expr::{eval, literal_value, EvalCtx};
use crate::plan::{bind_over_table, plan_select, SelectPlan};
use crate::sql::ast::{Expr, Literal, Statement};
use crate::sql::parse_statement;
use crate::udf::UdfRegistry;
use crate::value::{DataType, Value};
use crate::{DbError, Result};
use qbism_lfm::{LongFieldId, LongFieldManager};

/// Rows returned by a SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
    /// Base-table tuples examined while producing this result (the
    /// relational work counter; LFM page I/O is counted separately).
    pub rows_scanned: u64,
}

impl ResultSet {
    pub(crate) fn new(columns: Vec<String>, rows: Vec<Vec<Value>>) -> Self {
        ResultSet { columns, rows, rows_scanned: 0 }
    }

    /// Output column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// The rows, given up to the caller — how a large `Value::Bytes`
    /// answer leaves the result set without being copied.
    pub fn into_rows(self) -> Vec<Vec<Value>> {
        self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The single value of a one-row, one-column result.
    ///
    /// # Errors
    /// Errors if the shape is not exactly 1x1.
    pub fn single_value(&self) -> Result<&Value> {
        if let [row] = self.rows.as_slice() {
            if let [value] = row.as_slice() {
                return Ok(value);
            }
        }
        Err(DbError::Exec(format!(
            "expected a 1x1 result, got {}x{}",
            self.rows.len(),
            self.columns.len()
        )))
    }
}

/// Outcome of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// DDL completed.
    Created,
    /// Rows inserted.
    Inserted(usize),
    /// Rows deleted.
    Deleted(usize),
    /// Rows updated.
    Updated(usize),
    /// A query's rows.
    Rows(ResultSet),
}

impl ExecOutcome {
    /// Unwraps a SELECT result.
    ///
    /// # Panics
    /// Panics if the statement was not a SELECT.
    #[expect(
        clippy::panic,
        reason = "documented '# Panics' helper for tests and doc examples; served paths match on the outcome"
    )]
    pub fn expect_rows(self) -> ResultSet {
        match self {
            ExecOutcome::Rows(rs) => rs,
            other => panic!("expected rows, got {other:?}"),
        }
    }
}

/// A statement compiled once by [`Database::prepare`]: lexed, parsed,
/// every column reference bound to its tuple slot, joins planned.
///
/// Run it any number of times, from any number of threads, with
/// [`Database::run`].  It is valid for the database that prepared it,
/// for as long as that database lives: tables are looked up by name on
/// every run and there is no DROP or ALTER, so the slots it bound cannot
/// go stale; rows inserted or deleted after `prepare` are seen.
#[derive(Debug)]
pub struct Prepared {
    /// The statement text with whitespace runs collapsed — the `sql`
    /// field of every `db.execute` span this statement opens.
    sql: String,
    kind: Kind,
}

/// What a prepared statement does when it runs.
#[derive(Debug)]
enum Kind {
    /// SELECT, or with `explain` the rendering of its plan.
    Read {
        plan: SelectPlan,
        explain: bool,
    },
    Write(Mutation),
}

/// DDL and DML, with DELETE / UPDATE expressions bound over their table.
#[derive(Debug)]
enum Mutation {
    CreateTable { name: String, columns: Vec<(String, DataType)> },
    Insert { table: String, rows: Vec<Vec<Literal>> },
    Delete { table: String, predicate: Option<Expr> },
    Update { table: String, assignments: Vec<(String, Expr)>, predicate: Option<Expr> },
}

/// An in-memory extensible relational database with long-field storage.
pub struct Database {
    catalog: Catalog,
    udfs: UdfRegistry,
    lfm: LongFieldManager,
}

impl Database {
    /// Creates a database whose long-field device holds
    /// `long_field_capacity` bytes (4 KiB pages, like the paper's).
    pub fn new(long_field_capacity: u64) -> Result<Self> {
        Ok(Database {
            catalog: Catalog::new(),
            udfs: UdfRegistry::new(),
            lfm: LongFieldManager::new(long_field_capacity, 4096)?,
        })
    }

    /// Compiles one SQL statement: lex and parse, bind every column
    /// reference against the catalog, plan the joins.  `?` stands for a
    /// positional parameter wherever a SELECT takes an expression.
    ///
    /// This is the only way statement text enters the engine;
    /// [`Database::query`] and [`Database::execute`] are `prepare`
    /// followed by one run.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        let _span = qbism_obs::trace::root("db.prepare");
        let statement = {
            let _parse = qbism_obs::trace::span("sql.parse");
            parse_statement(sql)?
        };
        let read = |select, explain| -> Result<Kind> {
            Ok(Kind::Read { plan: plan_select(select, &self.catalog)?, explain })
        };
        let kind = match statement {
            Statement::Select(select) => read(select, false)?,
            Statement::Explain(select) => read(select, true)?,
            Statement::CreateTable { name, columns } => {
                Kind::Write(Mutation::CreateTable { name, columns })
            }
            Statement::Insert { table, rows } => Kind::Write(Mutation::Insert { table, rows }),
            Statement::Delete { table, mut where_clause } => {
                bind_over_table(&self.catalog.table(&table)?.schema, where_clause.iter_mut())?;
                Kind::Write(Mutation::Delete { table, predicate: where_clause })
            }
            Statement::Update { table, mut assignments, mut where_clause } => {
                let values = assignments.iter_mut().map(|(_, e)| e);
                let schema = &self.catalog.table(&table)?.schema;
                bind_over_table(schema, values.chain(&mut where_clause))?;
                Kind::Write(Mutation::Update { table, assignments, predicate: where_clause })
            }
        };
        Ok(Prepared { sql: sql.split_whitespace().collect::<Vec<_>>().join(" "), kind })
    }

    /// Runs a prepared SELECT (or EXPLAIN) with one value per `?`, in
    /// text order.
    ///
    /// Takes `&self`: queries never mutate the database, so any number
    /// of threads may run them against one `Database` concurrently.
    pub fn run(&self, prepared: &Prepared, params: &[Value]) -> Result<ResultSet> {
        let span = qbism_obs::trace::root("db.execute");
        span.record_str("sql", &prepared.sql);
        let Kind::Read { plan, explain } = &prepared.kind else {
            return Err(DbError::Exec("statement mutates; use execute".into()));
        };
        if params.len() != plan.params {
            return Err(DbError::Binding(format!(
                "statement takes {} parameters, {} given",
                plan.params,
                params.len()
            )));
        }
        if *explain {
            let rows = plan.render().lines().map(|l| vec![Value::Str(l.to_string())]).collect();
            return Ok(ResultSet::new(vec!["plan".into()], rows));
        }
        run_select(plan, &self.catalog, &self.eval_ctx(params))
    }

    /// Runs a SELECT (or EXPLAIN) given as text: [`Database::prepare`],
    /// then [`Database::run`] with no parameters.
    pub fn query(&self, sql: &str) -> Result<ResultSet> {
        let _span = qbism_obs::trace::root("db.query");
        self.run(&self.prepare(sql)?, &[])
    }

    /// Executes one SQL statement of any kind.  DML and DDL need the
    /// exclusive borrow; reads are [`Database::query`].
    pub fn execute(&mut self, sql: &str) -> Result<ExecOutcome> {
        let prepared = self.prepare(sql)?;
        let mutation = match prepared.kind {
            Kind::Read { .. } => return self.run(&prepared, &[]).map(ExecOutcome::Rows),
            Kind::Write(mutation) => mutation,
        };
        let span = qbism_obs::trace::root("db.execute");
        span.record_str("sql", &prepared.sql);
        match mutation {
            Mutation::CreateTable { name, columns } => {
                let cols = columns.into_iter().map(|(n, t)| Column::new(&n, t)).collect();
                self.catalog.create_table(TableSchema::new(&name, cols)?)?;
                Ok(ExecOutcome::Created)
            }
            Mutation::Insert { table, rows } => {
                let t = self.catalog.table_mut(&table)?;
                let n = rows.len();
                for row in rows {
                    t.insert(row.iter().map(literal_value).collect())?;
                }
                Ok(ExecOutcome::Inserted(n))
            }
            Mutation::Delete { table, predicate } => {
                let n = self.run_delete(&table, predicate.as_ref())?;
                Ok(ExecOutcome::Deleted(n))
            }
            Mutation::Update { table, assignments, predicate } => {
                let n = self.run_update(&table, &assignments, predicate.as_ref())?;
                Ok(ExecOutcome::Updated(n))
            }
        }
    }

    fn eval_ctx<'a>(&'a self, params: &'a [Value]) -> EvalCtx<'a> {
        EvalCtx { params, udfs: &self.udfs, lfm: &self.lfm }
    }

    /// Whether `row` satisfies a DELETE / UPDATE predicate.
    fn matches(&self, what: &str, predicate: Option<&Expr>, row: &[Value]) -> Result<bool> {
        match predicate.map(|p| eval(p, row, &self.eval_ctx(&[]))).transpose()? {
            None | Some(Value::Bool(true)) => Ok(true),
            Some(Value::Bool(false) | Value::Null) => Ok(false),
            Some(other) => Err(DbError::Type(format!("{what} predicate evaluated to {other}"))),
        }
    }

    /// Evaluates a DELETE: find matching row indices, then remove them.
    fn run_delete(&mut self, table: &str, predicate: Option<&Expr>) -> Result<usize> {
        let mut matching = Vec::new();
        for (i, row) in self.catalog.table(table)?.rows().iter().enumerate() {
            if self.matches("DELETE", predicate, row)? {
                matching.push(i);
            }
        }
        Ok(self.catalog.table_mut(table)?.remove_rows(&matching))
    }

    /// Evaluates an UPDATE: compute new rows for matches, then swap the
    /// table contents (type checks included via re-insertion rules).
    fn run_update(
        &mut self,
        table: &str,
        assignments: &[(String, Expr)],
        predicate: Option<&Expr>,
    ) -> Result<usize> {
        let t = self.catalog.table(table)?;
        // Resolve target columns up front.
        let mut targets = Vec::with_capacity(assignments.len());
        for (col, expr) in assignments {
            let idx = t.schema.column_index(col);
            let column = idx.and_then(|idx| Some((idx, t.schema.columns.get(idx)?)));
            let column =
                column.ok_or_else(|| DbError::Binding(format!("no column {col} in {table}")))?;
            targets.push((column, expr));
        }
        let mut updated = 0usize;
        let mut new_rows = Vec::with_capacity(t.len());
        for row in t.rows() {
            let mut next = row.clone();
            if self.matches("UPDATE", predicate, row)? {
                for ((idx, col), expr) in &targets {
                    let v = eval(expr, row.as_slice(), &self.eval_ctx(&[]))?;
                    if !v.fits(col.ty) {
                        return Err(DbError::Type(format!(
                            "value {v} does not fit column {}.{} of type {}",
                            table, col.name, col.ty
                        )));
                    }
                    // Every row has the schema's arity (`HeapTable::insert`).
                    if let Some(slot) = next.get_mut(*idx) {
                        *slot = v;
                    }
                }
                updated += 1;
            }
            new_rows.push(next);
        }
        // Swap contents through delete + insert to reuse typing rules.
        let t = self.catalog.table_mut(table)?;
        let all: Vec<usize> = (0..t.len()).collect();
        t.remove_rows(&all);
        for row in new_rows {
            t.insert(row)?;
        }
        Ok(updated)
    }

    /// Registers a user-defined function.
    pub fn register_udf<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&mut crate::udf::UdfContext<'_>, &[Value]) -> Result<Value> + Send + Sync + 'static,
    {
        self.udfs.register(name, f);
    }

    /// Inserts a row programmatically (loaders insert long-field handles,
    /// which have no SQL literal syntax).
    pub fn insert_row(&mut self, table: &str, row: Vec<Value>) -> Result<()> {
        self.catalog.table_mut(table)?.insert(row)
    }

    /// Stores bytes as a new long field and returns its handle value.
    pub fn create_long_field(&mut self, bytes: &[u8]) -> Result<Value> {
        Ok(Value::Long(self.lfm.create(bytes)?))
    }

    /// Stores bytes as a new long field marked compressed (compact
    /// queryable payloads such as k³ REGIONs; reads tallied in the
    /// `qbism_lfm_compressed_*` metrics).
    pub fn create_long_field_compressed(&mut self, bytes: &[u8]) -> Result<Value> {
        Ok(Value::Long(self.lfm.create_compressed(bytes)?))
    }

    /// Reads a long field fully (a read-path operation: `&self`).
    pub fn read_long_field(&self, id: LongFieldId) -> Result<Vec<u8>> {
        let span = qbism_obs::trace::root("db.read_long_field");
        let bytes = self.lfm.read(id)?;
        if span.is_recording() {
            span.record_u64("bytes", bytes.len() as u64);
        }
        Ok(bytes)
    }

    /// Direct access to the long-field manager (loaders, UDF helpers,
    /// benchmark instrumentation).
    pub fn lfm(&mut self) -> &mut LongFieldManager {
        &mut self.lfm
    }

    /// Shared access to the long-field manager (stats, cache counters,
    /// concurrent reads).
    pub fn lfm_ref(&self) -> &LongFieldManager {
        &self.lfm
    }

    /// Read-only LFM statistics.
    pub fn lfm_stats(&self) -> qbism_lfm::IoStats {
        self.lfm.stats()
    }

    /// Table row count (catalog metadata).
    pub fn table_len(&self, table: &str) -> Result<usize> {
        let _span = qbism_obs::trace::root("db.table_len");
        Ok(self.catalog.table(table)?.len())
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.catalog.table_names())
            .field("udfs", &self.udfs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new(1 << 20).unwrap();
        db.execute("create table patient (patientId int, name string, age int)").unwrap();
        db.execute(
            "insert into patient values (1, 'Jane', 44), (2, 'Sue', 39), (3, 'Ann', 61), (4, 'Mia', 44)",
        )
        .unwrap();
        db.execute("create table study (studyId int, patientId int, modality string)").unwrap();
        db.execute(
            "insert into study values (53, 1, 'PET'), (54, 1, 'MRI'), (55, 2, 'PET'), (56, 3, 'PET')",
        )
        .unwrap();
        db
    }

    #[test]
    fn create_insert_select_star() {
        let d = db();
        let rs = d.query("select * from patient").unwrap();
        assert_eq!(rs.len(), 4);
        assert_eq!(rs.columns()[0], "patient.patientid");
        assert_eq!(rs.rows_scanned, 4);
    }

    #[test]
    fn filter_and_projection() {
        let d = db();
        let rs = d.query("select p.name from patient p where p.age = 44 order by p.name").unwrap();
        assert_eq!(rs.rows(), &[vec![Value::Str("Jane".into())], vec![Value::Str("Mia".into())]]);
        assert_eq!(rs.columns(), &["name".to_string()]);
    }

    #[test]
    fn hash_join_two_tables() {
        let d = db();
        let rs = d
            .query(
                "select p.name, s.modality from patient p, study s
                 where p.patientId = s.patientId and s.modality = 'PET'
                 order by p.name",
            )
            .unwrap();
        let names: Vec<&Value> = rs.rows().iter().map(|r| &r[0]).collect();
        assert_eq!(
            names,
            vec![&Value::Str("Ann".into()), &Value::Str("Jane".into()), &Value::Str("Sue".into())]
        );
    }

    #[test]
    fn join_is_not_quadratic_in_scans() {
        // Hash join scans each table once: 4 + 4 base tuples.
        let d = db();
        let rs = d
            .query("select p.name from patient p, study s where p.patientId = s.patientId")
            .unwrap();
        assert_eq!(rs.rows_scanned, 8, "hash join must not re-scan the build side");
        // Cross product is quadratic by nature.
        let rs2 = d.query("select p.name from patient p, study s").unwrap();
        assert_eq!(rs2.rows_scanned, 4 + 16);
        assert_eq!(rs2.len(), 16);
    }

    #[test]
    fn aggregates() {
        let d = db();
        let rs =
            d.query("select count(*), avg(p.age), min(p.age), max(p.age) from patient p").unwrap();
        assert_eq!(
            rs.rows()[0],
            vec![Value::Int(4), Value::Float(47.0), Value::Int(39), Value::Int(61)]
        );
        let rs = d.query("select sum(p.age) from patient p where p.age > 100").unwrap();
        assert_eq!(rs.rows()[0], vec![Value::Null], "empty SUM is NULL");
        let rs = d.query("select count(*) from patient p where p.age > 100").unwrap();
        assert_eq!(rs.single_value().unwrap(), &Value::Int(0));
    }

    #[test]
    fn order_by_desc_and_limit() {
        let d = db();
        let rs = d
            .query("select p.name, p.age from patient p order by p.age desc, p.name limit 2")
            .unwrap();
        assert_eq!(
            rs.rows(),
            &[
                vec![Value::Str("Ann".into()), Value::Int(61)],
                vec![Value::Str("Jane".into()), Value::Int(44)],
            ]
        );
    }

    #[test]
    fn udf_in_select_and_where() {
        let mut d = db();
        d.register_udf("agegroup", |_, args| {
            let age = args[0].as_i64().ok_or_else(|| DbError::Type("want int".into()))?;
            Ok(Value::Str(if age >= 60 { "senior" } else { "adult" }.into()))
        });
        let rs = d
            .query("select p.name, ageGroup(p.age) from patient p where ageGroup(p.age) = 'senior'")
            .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows()[0][0], Value::Str("Ann".into()));
    }

    #[test]
    fn long_fields_flow_through_queries() {
        let mut d = db();
        d.execute("create table blob (id int, payload long)").unwrap();
        let lf = d.create_long_field(&[10, 20, 30]).unwrap();
        d.insert_row("blob", vec![Value::Int(1), lf.clone()]).unwrap();
        d.register_udf("loblen", |ctx, args| {
            let id = args[0].as_long().ok_or_else(|| DbError::Type("want long".into()))?;
            Ok(Value::Int(ctx.lfm.len(id)? as i64))
        });
        let rs = d.query("select lobLen(b.payload) from blob b where b.id = 1").unwrap();
        assert_eq!(rs.single_value().unwrap(), &Value::Int(3));
        // The handle itself can be selected and re-used.
        let rs = d.query("select b.payload from blob b").unwrap();
        assert_eq!(rs.rows()[0][0], lf);
    }

    /// A UDF's opaque answer passes through the select list, a UDF
    /// argument and COUNT, and is a typed error wherever SQL would read
    /// it: `=`, `<`, IN, GROUP BY, ORDER BY, MIN/MAX, a hash-join key, a
    /// table.
    #[test]
    fn opaque_values_are_refused_wherever_sql_reads_them() {
        let mut d = db();
        d.register_udf("boxed", |_, args| Ok(Value::object(args[0].as_i64())));
        d.register_udf("unboxed", |_, args| {
            let inner = args[0].as_object::<Option<i64>>().copied().flatten();
            Ok(inner.map_or(Value::Null, Value::Int))
        });
        let rs = d.query("select boxed(p.age), unboxed(boxed(p.age)) from patient p").unwrap();
        assert_eq!(rs.rows()[0][0].as_object::<Option<i64>>(), Some(&Some(44)));
        assert_eq!(rs.rows()[0][1], Value::Int(44));
        let rs = d.query("select count(boxed(p.age)) from patient p").unwrap();
        assert_eq!(rs.single_value().unwrap(), &Value::Int(4));
        let refused = [
            "select p.name from patient p where boxed(p.age) = 44",
            "select p.name from patient p where 44 <> boxed(p.age)",
            "select p.name from patient p where boxed(p.age) = boxed(p.age)",
            "select p.name from patient p where boxed(p.age) < 50",
            "select p.name from patient p where boxed(p.age) in (44, 61)",
            "select count(*) from patient p group by boxed(p.age)",
            "select p.name from patient p order by boxed(p.age)",
            "select max(boxed(p.age)) from patient p",
            "select p.name from patient p, study s where boxed(p.patientId) = s.patientId",
        ];
        for sql in refused {
            assert!(matches!(d.query(sql), Err(DbError::Type(_))), "{sql}");
        }
        let plan = d.query("explain select p.name from patient p, study s where boxed(p.patientId) = s.patientId").unwrap();
        let plan: Vec<String> = plan.rows().iter().map(|r| r[0].to_string()).collect();
        assert!(plan.join("\n").contains("hash join s"), "{plan:?}");
        d.execute("create table kept (x long)").unwrap();
        let stored = d.insert_row("kept", vec![Value::object(1i64)]);
        assert!(matches!(stored, Err(DbError::Type(_))), "{stored:?}");
    }

    #[test]
    fn three_way_join_like_paper_schema() {
        let mut d = db();
        d.execute("create table atlasStructure (structureId int, atlasId int, region long)")
            .unwrap();
        d.execute("create table neuralStructure (structureId int, structureName string)").unwrap();
        d.execute("insert into neuralStructure values (1, 'putamen'), (2, 'hippocampus')").unwrap();
        let r1 = d.create_long_field(b"region-bytes-1").unwrap();
        d.insert_row("atlasStructure", vec![Value::Int(1), Value::Int(9), r1]).unwrap();
        let rs = d
            .query(
                "select a.region from atlasStructure a, neuralStructure ns
                 where a.structureId = ns.structureId and ns.structureName = 'putamen'",
            )
            .unwrap();
        assert_eq!(rs.len(), 1);
        assert!(matches!(rs.rows()[0][0], Value::Long(_)));
    }

    #[test]
    fn error_paths() {
        let mut d = db();
        assert!(matches!(d.execute("select * from nope"), Err(DbError::Binding(_))));
        assert!(matches!(d.execute("select zz from patient"), Err(DbError::Binding(_))));
        assert!(matches!(d.execute("not sql at all"), Err(DbError::Parse(_))));
        assert!(matches!(d.execute("insert into patient values (1, 'x')"), Err(DbError::Type(_))));
        assert!(matches!(
            d.execute("select count(*), p.name from patient p"),
            Err(DbError::Binding(_))
        ));
        assert!(matches!(
            d.execute("select p.name from patient p where p.age"),
            Err(DbError::Type(_))
        ));
    }

    #[test]
    fn group_by_basic() {
        let d = db();
        let rs = d
            .query(
                "select s.modality, count(*), min(s.studyId)
                 from study s group by s.modality",
            )
            .unwrap();
        assert_eq!(rs.columns(), &["modality", "count", "min"]);
        let mut rows = rs.rows().to_vec();
        rows.sort_by_key(|r| r[0].as_str().unwrap_or("").to_string());
        assert_eq!(
            rows,
            vec![
                vec![Value::Str("MRI".into()), Value::Int(1), Value::Int(54)],
                vec![Value::Str("PET".into()), Value::Int(3), Value::Int(53)],
            ]
        );
    }

    #[test]
    fn group_by_over_join() {
        // "statistical responses … over population groups": studies per
        // patient.
        let d = db();
        let rs = d
            .query(
                "select p.name, count(*) as studies
                 from patient p, study s
                 where p.patientId = s.patientId
                 group by p.name",
            )
            .unwrap();
        let mut rows: Vec<(String, i64)> = rs
            .rows()
            .iter()
            .map(|r| (r[0].as_str().unwrap().to_string(), r[1].as_i64().unwrap()))
            .collect();
        rows.sort();
        assert_eq!(rows, vec![("Ann".into(), 1), ("Jane".into(), 2), ("Sue".into(), 1)]);
    }

    #[test]
    fn group_by_validations() {
        let mut d = db();
        // Selecting a non-key non-aggregate is an error.
        assert!(matches!(
            d.execute("select p.name, p.age from patient p group by p.name"),
            Err(DbError::Binding(_))
        ));
        // NULL keys form one group; LIMIT applies to groups.
        d.execute("create table t (k int, v int)").unwrap();
        d.execute("insert into t values (null, 1), (null, 2), (1, 3)").unwrap();
        let rs = d.query("select count(*) from t group by t.k").unwrap();
        assert_eq!(rs.len(), 2);
        let rs = d.query("select count(*) from t group by t.k limit 1").unwrap();
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn delete_with_and_without_predicate() {
        let mut d = db();
        assert_eq!(
            d.execute("delete from study where study.modality = 'MRI'").unwrap(),
            ExecOutcome::Deleted(1)
        );
        assert_eq!(d.table_len("study").unwrap(), 3);
        // bare column names work too
        assert_eq!(
            d.execute("delete from study where modality = 'PET'").unwrap(),
            ExecOutcome::Deleted(3)
        );
        assert_eq!(
            d.execute("delete from study").unwrap(),
            ExecOutcome::Deleted(0),
            "already empty"
        );
        // Error paths checked while rows still exist (a non-boolean
        // predicate is only evaluated against actual tuples).
        assert!(matches!(d.execute("delete from patient where name"), Err(DbError::Type(_))));
        assert_eq!(d.execute("delete from patient").unwrap(), ExecOutcome::Deleted(4));
        assert!(d.execute("delete from nope").is_err());
    }

    #[test]
    fn update_statement() {
        let mut d = db();
        // Unknown predicate column is a binding error.
        assert!(matches!(
            d.execute("update patient set age = age + 1 where sex = 'F'"),
            Err(DbError::Binding(_))
        ));
        // Fixture patient table: (patientId, name, age).
        assert_eq!(
            d.execute("update patient set age = age + 1 where age = 44").unwrap(),
            ExecOutcome::Updated(2)
        );
        let rs = d.query("select count(*) from patient p where p.age = 45").unwrap();
        assert_eq!(rs.single_value().unwrap(), &Value::Int(2));
        // UPDATE without predicate touches everything.
        assert_eq!(d.execute("update patient set name = 'X'").unwrap(), ExecOutcome::Updated(4));
        // Type errors rejected.
        assert!(matches!(d.execute("update patient set age = 'old'"), Err(DbError::Type(_))));
        assert!(matches!(d.execute("update patient set nope = 1"), Err(DbError::Binding(_))));
    }

    #[test]
    fn explain_shows_the_strategy() {
        let d = db();
        let rs = d
            .query(
                "explain select p.name from patient p, study s
                 where p.patientId = s.patientId and p.age > 40 order by p.name limit 3",
            )
            .unwrap();
        let text: Vec<String> = rs.rows().iter().map(|r| r[0].to_string()).collect();
        let joined = text.join("\n");
        assert!(joined.contains("scan p"), "{joined}");
        assert!(joined.contains("hash join s"), "{joined}");
        assert!(joined.contains("limit 3"), "{joined}");
    }

    #[test]
    fn ambiguous_column_needs_qualifier() {
        let d = db();
        let err = d
            .query("select patientId from patient p, study s where p.patientId = s.patientId")
            .unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{err}");
        // Unambiguous bare columns work.
        let rs = d.query("select name from patient p where age = 61").unwrap();
        assert_eq!(rs.rows()[0][0], Value::Str("Ann".into()));
    }

    #[test]
    fn nulls_join_nothing() {
        let mut d = db();
        d.execute("create table l (k int)").unwrap();
        d.execute("create table r (k int)").unwrap();
        d.execute("insert into l values (1), (null)").unwrap();
        d.execute("insert into r values (1), (null)").unwrap();
        let rs = d.query("select * from l, r where l.k = r.k").unwrap();
        assert_eq!(rs.len(), 1, "NULL keys must not match each other");
    }
}

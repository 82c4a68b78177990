//! A miniature extensible relational DBMS — the Starburst stand-in.
//!
//! QBISM "utilized the extensibility features of the Starburst DBMS":
//! concretely, the prototype relies on exactly three of them (Section 5):
//!
//! 1. **long fields** — an SQL data type whose values live in the Long
//!    Field Manager, passed through queries by handle;
//! 2. **user-defined SQL functions** — the spatial operators
//!    (`intersection`, `contains`, `extractVoxels`, …) are registered
//!    functions that Starburst embeds in query plans and invokes at run
//!    time;
//! 3. **SQL query capability** — joins, predicates and nesting over the
//!    medical schema.
//!
//! This crate provides those hooks with the same shape: an in-memory
//! relational engine with a typed catalog, heap tables, an SQL subset
//! (`CREATE TABLE` / `INSERT` / `SELECT` with joins, expressions,
//! aggregates, `ORDER BY`, `LIMIT`), an executor that joins row
//! references by hash or nested loop, and a UDF registry whose functions can touch
//! long fields through the [`qbism_lfm::LongFieldManager`].
//!
//! Every statement takes one path, in four stages: **parse** (`sql`),
//! **bind** (each column reference resolved to its slot in the join
//! tuple, in place on the parsed expressions) and **plan** (join
//! strategies, predicate schedule, output shape — both in `plan`), then
//! **execute** (`exec`, which reads tuples by slot and never looks a name up).
//! [`Database::prepare`] runs the first three once and returns a
//! [`Prepared`]; [`Database::run`] executes it with positional `?`
//! parameters.  [`Database::query`] and [`Database::execute`] are
//! `prepare` followed by one run.
//!
//! # Example
//!
//! ```
//! use qbism_starburst::{Database, Value};
//!
//! let mut db = Database::new(1 << 20).unwrap();
//! db.execute("create table patient (patientId int, name string, age int)").unwrap();
//! db.execute("insert into patient values (1, 'Jane', 44), (2, 'Sue', 39)").unwrap();
//! let rs = db
//!     .execute("select p.name from patient p where p.age > 40")
//!     .unwrap()
//!     .expect_rows();
//! assert_eq!(rs.rows(), &[vec![Value::Str("Jane".into())]]);
//!
//! // Compile once, run with different values.
//! let older_than = db.prepare("select p.name from patient p where p.age > ?").unwrap();
//! assert_eq!(db.run(&older_than, &[Value::Int(40)]).unwrap().len(), 1);
//! assert_eq!(db.run(&older_than, &[Value::Int(30)]).unwrap().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod db;
mod error;
mod exec;
mod expr;
mod plan;
mod sql;
mod udf;
mod value;

pub use catalog::{Column, HeapTable, TableSchema};
pub use db::{Database, ExecOutcome, Prepared, ResultSet};
pub use error::DbError;
pub use sql::{ast, parse_statement, MAX_EXPR_DEPTH};
pub use udf::{UdfContext, UdfRegistry};
pub use value::{DataType, Value};

/// Result alias for database operations.
pub type Result<T> = std::result::Result<T, DbError>;

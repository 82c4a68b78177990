//! The catalog: table schemas and the in-memory heap tables behind them.

use crate::value::{DataType, Value};
use crate::{DbError, Result};
use std::collections::HashMap;

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (stored lowercase; SQL identifiers are
    /// case-insensitive).
    pub name: String,
    /// Column type.
    pub ty: DataType,
}

impl Column {
    /// Creates a column (name is lowercased).
    pub fn new(name: &str, ty: DataType) -> Self {
        Column { name: name.to_ascii_lowercase(), ty }
    }
}

/// A table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name (lowercase).
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<Column>,
}

impl TableSchema {
    /// Creates a schema.
    ///
    /// # Errors
    /// Rejects duplicate column names and empty column lists.
    pub fn new(name: &str, columns: Vec<Column>) -> Result<Self> {
        if columns.is_empty() {
            return Err(DbError::Binding(format!("table {name} has no columns")));
        }
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name.clone()) {
                return Err(DbError::Binding(format!(
                    "duplicate column {} in table {name}",
                    c.name
                )));
            }
        }
        Ok(TableSchema { name: name.to_ascii_lowercase(), columns })
    }

    /// Index of a column by (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        let lower = name.to_ascii_lowercase();
        self.columns.iter().position(|c| c.name == lower)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }
}

/// A heap table: schema plus rows, with a scanned-tuple counter so the
/// benchmark harness can report relational work separately from LFM I/O.
#[derive(Debug, Clone)]
pub struct HeapTable {
    /// The schema.
    pub schema: TableSchema,
    rows: Vec<Vec<Value>>,
}

impl HeapTable {
    /// An empty table.
    pub fn new(schema: TableSchema) -> Self {
        HeapTable { schema, rows: Vec::new() }
    }

    /// Appends a row after checking arity and types.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(DbError::Type(format!(
                "table {} expects {} values, got {}",
                self.schema.name,
                self.schema.arity(),
                row.len()
            )));
        }
        let mut row = row;
        for (v, c) in row.iter_mut().zip(&self.schema.columns) {
            if !v.fits(c.ty) {
                return Err(DbError::Type(format!(
                    "value {v} does not fit column {}.{} of type {}",
                    self.schema.name, c.name, c.ty
                )));
            }
            // Widen ints stored into float columns so later comparisons
            // see a uniform representation.
            if c.ty == DataType::Float {
                if let Value::Int(i) = v {
                    *v = Value::Float(*i as f64);
                }
            }
        }
        self.rows.push(row);
        Ok(())
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Removes the rows at the given indices (sorted ascending),
    /// returning how many were removed.
    pub fn remove_rows(&mut self, sorted_indices: &[usize]) -> usize {
        let mut removed = 0usize;
        for &idx in sorted_indices.iter().rev() {
            if idx < self.rows.len() {
                self.rows.remove(idx);
                removed += 1;
            }
        }
        removed
    }
}

/// All tables by name.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, HeapTable>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a new table.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<()> {
        if self.tables.contains_key(&schema.name) {
            return Err(DbError::Binding(format!("table {} already exists", schema.name)));
        }
        self.tables.insert(schema.name.clone(), HeapTable::new(schema));
        Ok(())
    }

    /// Looks up a table.  Names out of the parser are lowercase already
    /// and hit without an allocation.
    pub fn table(&self, name: &str) -> Result<&HeapTable> {
        self.tables
            .get(name)
            .or_else(|| self.tables.get(&name.to_ascii_lowercase()))
            .ok_or_else(|| DbError::Binding(format!("no such table: {name}")))
    }

    /// Looks up a table for mutation.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut HeapTable> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| DbError::Binding(format!("no such table: {name}")))
    }

    /// Names of all tables (sorted, for stable output).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new(
            "Patient",
            vec![
                Column::new("patientId", DataType::Int),
                Column::new("name", DataType::Str),
                Column::new("weight", DataType::Float),
            ],
        )
        .unwrap()
    }

    #[test]
    fn schema_is_case_insensitive() {
        let s = schema();
        assert_eq!(s.name, "patient");
        assert_eq!(s.column_index("PATIENTID"), Some(0));
        assert_eq!(s.column_index("Name"), Some(1));
        assert_eq!(s.column_index("missing"), None);
        assert_eq!(s.arity(), 3);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = TableSchema::new(
            "t",
            vec![Column::new("a", DataType::Int), Column::new("A", DataType::Str)],
        )
        .unwrap_err();
        assert!(matches!(err, DbError::Binding(_)));
        assert!(TableSchema::new("t", vec![]).is_err());
    }

    #[test]
    fn insert_checks_arity_and_types() {
        let mut t = HeapTable::new(schema());
        t.insert(vec![Value::Int(1), Value::Str("Jane".into()), Value::Float(60.0)]).unwrap();
        // int widens into float column
        t.insert(vec![Value::Int(2), Value::Str("Sue".into()), Value::Int(70)]).unwrap();
        assert_eq!(t.rows()[1][2], Value::Float(70.0));
        // NULL fits anywhere
        t.insert(vec![Value::Null, Value::Null, Value::Null]).unwrap();
        assert_eq!(t.len(), 3);
        assert!(t.insert(vec![Value::Int(1)]).is_err(), "arity");
        assert!(
            t.insert(vec![Value::Str("x".into()), Value::Str("y".into()), Value::Null]).is_err(),
            "type"
        );
    }

    #[test]
    fn remove_rows_by_index() {
        let mut t = HeapTable::new(schema());
        for i in 0..5 {
            t.insert(vec![Value::Int(i), Value::Str(format!("p{i}")), Value::Null]).unwrap();
        }
        assert_eq!(t.remove_rows(&[1, 3]), 2);
        let ids: Vec<i64> = t.rows().iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(ids, vec![0, 2, 4]);
        assert_eq!(t.remove_rows(&[99]), 0, "stale index ignored");
    }

    #[test]
    fn catalog_create_and_lookup() {
        let mut c = Catalog::new();
        c.create_table(schema()).unwrap();
        assert!(c.table("PATIENT").is_ok());
        assert!(c.table("nope").is_err());
        assert!(c.create_table(schema()).is_err(), "duplicate table");
        assert_eq!(c.table_names(), vec!["patient".to_string()]);
        c.table_mut("patient")
            .unwrap()
            .insert(vec![Value::Int(1), Value::Str("A".into()), Value::Null])
            .unwrap();
        assert_eq!(c.table("patient").unwrap().len(), 1);
    }
}

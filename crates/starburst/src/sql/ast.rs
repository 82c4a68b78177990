//! Abstract syntax for the SQL subset.

use crate::value::DataType;

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col type, ...)`
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<(String, DataType)>,
    },
    /// `INSERT INTO name VALUES (..), (..)`
    Insert {
        /// Target table.
        table: String,
        /// Literal rows.
        rows: Vec<Vec<Literal>>,
    },
    /// `SELECT ...`
    Select(Select),
    /// `DELETE FROM name [WHERE expr]`
    Delete {
        /// Target table.
        table: String,
        /// Optional predicate; absent deletes everything.
        where_clause: Option<Expr>,
    },
    /// `UPDATE name SET col = expr, ... [WHERE expr]`
    Update {
        /// Target table.
        table: String,
        /// `(column, new value expression)` pairs.
        assignments: Vec<(String, Expr)>,
        /// Optional predicate.
        where_clause: Option<Expr>,
    },
    /// `EXPLAIN SELECT ...`
    Explain(Select),
}

/// A select query.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// Projection list; empty means `*`.
    pub items: Vec<SelectItem>,
    /// FROM tables with optional aliases.
    pub from: Vec<TableRef>,
    /// Optional WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY keys (empty = no grouping).
    pub group_by: Vec<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<(Expr, bool)>,
    /// Optional LIMIT.
    pub limit: Option<u64>,
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The expression to evaluate.
    pub expr: Expr,
    /// Output column name (explicit `AS`, or derived).
    pub alias: Option<String>,
}

/// A table reference in FROM.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table name.
    pub table: String,
    /// Binding alias (defaults to the table name).
    pub alias: String,
}

/// Literal values in SQL text.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// NULL.
    Null,
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// TRUE / FALSE.
    Bool(bool),
}

/// Binary operators, in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Logical OR.
    Or,
    /// Logical AND.
    And,
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
}

/// Aggregate function kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// `COUNT(*)` or `COUNT(expr)`.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal.
    Literal(Literal),
    /// A possibly-qualified column reference (`name` or `alias.name`).
    Column {
        /// Table alias qualifier, if written.
        qualifier: Option<String>,
        /// Column name.
        name: String,
        /// Index of the column in the composite join tuple: `None` as
        /// parsed, filled in place when the statement is prepared.
        slot: Option<usize>,
    },
    /// The `n`-th positional `?` parameter (zero-based, in text order),
    /// supplied when a prepared statement runs.
    Param(usize),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical NOT.
    Not(Box<Expr>),
    /// Unary minus.
    Neg(Box<Expr>),
    /// A scalar function call — built-in or user-defined (the Starburst
    /// extensibility hook QBISM's spatial operators ride on).
    Call {
        /// Function name (lowercase).
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// An aggregate call in a select list.
    Aggregate {
        /// Which aggregate.
        kind: AggKind,
        /// Argument; `None` only for `COUNT(*)`.
        arg: Option<Box<Expr>>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// The tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] IN (literal, ...)`.
    InList {
        /// The tested expression.
        expr: Box<Expr>,
        /// The candidate list.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'` with `%` (any run) and `_` (any one).
    Like {
        /// The tested expression.
        expr: Box<Expr>,
        /// The pattern (a string literal).
        pattern: String,
        /// True for `NOT LIKE`.
        negated: bool,
    },
}

impl Expr {
    /// Whether `pred` holds for this node or any node below it.
    pub fn any(&self, pred: &impl Fn(&Expr) -> bool) -> bool {
        if pred(self) {
            return true;
        }
        match self {
            Expr::Literal(_) | Expr::Column { .. } | Expr::Param(_) => false,
            Expr::Binary { left, right, .. } => left.any(pred) || right.any(pred),
            Expr::Not(e) | Expr::Neg(e) => e.any(pred),
            Expr::Call { args, .. } => args.iter().any(|a| a.any(pred)),
            Expr::Aggregate { arg, .. } => arg.as_deref().is_some_and(|a| a.any(pred)),
            Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => expr.any(pred),
            Expr::InList { expr, list, .. } => expr.any(pred) || list.iter().any(|e| e.any(pred)),
        }
    }

    /// Whether any aggregate appears in this expression.
    pub fn contains_aggregate(&self) -> bool {
        self.any(&|e| matches!(e, Expr::Aggregate { .. }))
    }

    /// A display name for an unaliased select item.
    pub fn default_name(&self) -> String {
        match self {
            Expr::Column { name, .. } => name.clone(),
            Expr::Call { name, .. } => name.clone(),
            Expr::Aggregate { kind, .. } => match kind {
                AggKind::Count => "count".into(),
                AggKind::Sum => "sum".into(),
                AggKind::Avg => "avg".into(),
                AggKind::Min => "min".into(),
                AggKind::Max => "max".into(),
            },
            _ => "expr".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_detection_recurses() {
        let agg = Expr::Aggregate { kind: AggKind::Count, arg: None };
        let nested = Expr::Binary {
            op: BinOp::Add,
            left: Box::new(Expr::Literal(Literal::Int(1))),
            right: Box::new(agg),
        };
        assert!(nested.contains_aggregate());
        let plain = Expr::Column { qualifier: None, name: "x".into(), slot: None };
        assert!(!plain.contains_aggregate());
        let in_call = Expr::Call {
            name: "f".into(),
            args: vec![Expr::Aggregate { kind: AggKind::Max, arg: Some(Box::new(plain.clone())) }],
        };
        assert!(in_call.contains_aggregate());
    }

    #[test]
    fn default_names() {
        assert_eq!(
            Expr::Column { qualifier: Some("a".into()), name: "x".into(), slot: None }
                .default_name(),
            "x"
        );
        assert_eq!(
            Expr::Call { name: "intersection".into(), args: vec![] }.default_name(),
            "intersection"
        );
        assert_eq!(Expr::Aggregate { kind: AggKind::Avg, arg: None }.default_name(), "avg");
        assert_eq!(Expr::Literal(Literal::Int(1)).default_name(), "expr");
    }
}

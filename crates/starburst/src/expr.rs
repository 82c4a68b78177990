//! Expression evaluation.

use crate::sql::ast::{BinOp, Expr, Literal};
use crate::udf::{UdfContext, UdfRegistry};
use crate::value::Value;
use crate::{DbError, Result};
use std::borrow::Cow;
use std::cmp::Ordering;

/// Everything evaluation needs besides the tuple itself.
pub struct EvalCtx<'a> {
    /// Values of the statement's `?` parameters.
    pub params: &'a [Value],
    /// Registered UDFs.
    pub udfs: &'a UdfRegistry,
    /// Long-field store, threaded through to UDFs.
    pub lfm: &'a qbism_lfm::LongFieldManager,
}

/// A composite tuple as expressions read it: one value per bound slot.
/// A heap row is one; the executor's row references are another.
pub trait Tuple {
    /// The value at `slot`, or `None` if the tuple has no such slot.
    fn value(&self, slot: usize) -> Option<&Value>;
}

impl Tuple for [Value] {
    fn value(&self, slot: usize) -> Option<&Value> {
        self.get(slot)
    }
}

/// Evaluates a bound `expr` against a composite `tuple`.
pub fn eval<T: Tuple + ?Sized>(expr: &Expr, tuple: &T, ctx: &EvalCtx<'_>) -> Result<Value> {
    match expr {
        Expr::Column { .. } | Expr::Param(_) => operand(expr, tuple, ctx).map(Cow::into_owned),
        Expr::Literal(l) => Ok(literal_value(l)),
        Expr::Not(e) => match eval(e, tuple, ctx)? {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            Value::Null => Ok(Value::Null),
            other => Err(DbError::Type(format!("NOT applied to non-boolean {other}"))),
        },
        Expr::Neg(e) => match eval(e, tuple, ctx)? {
            Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
            Value::Float(f) => Ok(Value::Float(-f)),
            Value::Null => Ok(Value::Null),
            other => Err(DbError::Type(format!("unary minus applied to {other}"))),
        },
        Expr::Binary { op, left, right } => eval_binary(*op, left, right, tuple, ctx),
        Expr::Call { name, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, tuple, ctx)?);
            }
            let mut ucx = UdfContext { lfm: ctx.lfm };
            ctx.udfs.call(name, &mut ucx, &vals)
        }
        Expr::Aggregate { .. } => {
            Err(DbError::Binding("aggregate used outside a select list".into()))
        }
        Expr::IsNull { expr, negated } => {
            let is_null = matches!(*operand(expr, tuple, ctx)?, Value::Null);
            Ok(Value::Bool(is_null != *negated))
        }
        Expr::InList { expr, list, negated } => {
            let needle = operand(expr, tuple, ctx)?;
            if matches!(needle.readable("IN")?, Value::Null) {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for candidate in list {
                match needle.sql_eq(&*operand(candidate, tuple, ctx)?)? {
                    Some(true) => return Ok(Value::Bool(!negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            // SQL three-valued IN: no match but a NULL candidate -> NULL.
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::Like { expr, pattern, negated } => match &*operand(expr, tuple, ctx)? {
            Value::Null => Ok(Value::Null),
            Value::Str(s) => Ok(Value::Bool(like_match(s, pattern) != *negated)),
            other => Err(DbError::Type(format!("LIKE applied to non-string {other}"))),
        },
    }
}

/// Reads an operand in place: a column or a parameter borrows its value
/// from the tuple or the run's parameters; anything else is evaluated.
///
/// Always inlined: returned through memory, the `Cow` was stored in
/// narrow pieces and loaded back wide, and each filter evaluation stalled
/// on store forwarding (about 20 ns a conjunct).
#[inline(always)]
pub fn operand<'v, T: Tuple + ?Sized>(
    expr: &Expr,
    tuple: &'v T,
    ctx: &'v EvalCtx<'_>,
) -> Result<Cow<'v, Value>> {
    match expr {
        Expr::Column { slot: Some(slot), name, .. } => {
            tuple.value(*slot).map(Cow::Borrowed).ok_or_else(|| {
                DbError::Binding(format!("column {name} (slot {slot}) is not in the tuple"))
            })
        }
        Expr::Column { name, .. } => Err(DbError::Binding(format!("unbound column {name}"))),
        Expr::Param(n) => ctx
            .params
            .get(*n)
            .map(Cow::Borrowed)
            .ok_or_else(|| DbError::Binding(format!("no value for parameter {}", n + 1))),
        other => eval(other, tuple, ctx).map(Cow::Owned),
    }
}

/// SQL LIKE matching: `%` matches any run (including empty), `_` matches
/// exactly one character.  Case-sensitive, no escape syntax.
pub fn like_match(text: &str, pattern: &str) -> bool {
    fn rec(t: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => t.is_empty(),
            Some(('%', rest)) => {
                let mut suffixes = std::iter::successors(Some(t), |s| s.split_first().map(|x| x.1));
                suffixes.any(|s| rec(s, rest))
            }
            Some(('_', rest)) => t.split_first().is_some_and(|(_, t)| rec(t, rest)),
            Some((c, rest)) => t.split_first().is_some_and(|(h, t)| h == c && rec(t, rest)),
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&t, &p)
}

/// Converts an AST literal to a runtime value.
pub fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Null => Value::Null,
        Literal::Int(i) => Value::Int(*i),
        Literal::Float(f) => Value::Float(*f),
        Literal::Str(s) => Value::Str(s.clone()),
        Literal::Bool(b) => Value::Bool(*b),
    }
}

fn eval_binary<T: Tuple + ?Sized>(
    op: BinOp,
    left: &Expr,
    right: &Expr,
    tuple: &T,
    ctx: &EvalCtx<'_>,
) -> Result<Value> {
    // Logic short-circuits; every other operator reads both operands in
    // place and takes them by reference, never moving the `Cow`s (see
    // `operand`).
    let both = |f: fn(&Value, &Value) -> Result<Value>| {
        let l = operand(left, tuple, ctx)?;
        let r = operand(right, tuple, ctx)?;
        f(&l, &r)
    };
    match op {
        BinOp::And => {
            let l = eval(left, tuple, ctx)?;
            if matches!(l, Value::Bool(false)) {
                return Ok(Value::Bool(false));
            }
            match (l, eval(right, tuple, ctx)?) {
                (Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(a && b)),
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (a, b) => Err(DbError::Type(format!("AND applied to {a} and {b}"))),
            }
        }
        BinOp::Or => {
            let l = eval(left, tuple, ctx)?;
            if matches!(l, Value::Bool(true)) {
                return Ok(Value::Bool(true));
            }
            match (l, eval(right, tuple, ctx)?) {
                (Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(a || b)),
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (a, b) => Err(DbError::Type(format!("OR applied to {a} and {b}"))),
            }
        }
        BinOp::Eq => both(|l, r| Ok(l.sql_eq(r)?.map(Value::Bool).unwrap_or(Value::Null))),
        BinOp::Ne => both(|l, r| Ok(l.sql_eq(r)?.map(|b| Value::Bool(!b)).unwrap_or(Value::Null))),
        BinOp::Lt => both(|l, r| compare(l, r, Ordering::is_lt)),
        BinOp::Le => both(|l, r| compare(l, r, Ordering::is_le)),
        BinOp::Gt => both(|l, r| compare(l, r, Ordering::is_gt)),
        BinOp::Ge => both(|l, r| compare(l, r, Ordering::is_ge)),
        BinOp::Add => both(|l, r| arith(l, r, Arith::Add)),
        BinOp::Sub => both(|l, r| arith(l, r, Arith::Sub)),
        BinOp::Mul => both(|l, r| arith(l, r, Arith::Mul)),
        BinOp::Div => both(|l, r| arith(l, r, Arith::Div)),
        BinOp::Mod => both(|l, r| arith(l, r, Arith::Mod)),
    }
}

/// An ordering comparison: NULL if either side is, else `holds` of
/// their order.
fn compare(l: &Value, r: &Value, holds: fn(Ordering) -> bool) -> Result<Value> {
    let (l, r) = (l.readable("a comparison")?, r.readable("a comparison")?);
    if matches!(l, Value::Null) || matches!(r, Value::Null) {
        return Ok(Value::Null);
    }
    let ord = l.sql_cmp(r).ok_or_else(|| DbError::Type(format!("cannot compare {l} with {r}")))?;
    Ok(Value::Bool(holds(ord)))
}

/// The arithmetic operators.
#[derive(Debug, Clone, Copy)]
enum Arith {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// Arithmetic: NULL if either side is; integers stay integral, and any
/// float operand widens.
fn arith(l: &Value, r: &Value, op: Arith) -> Result<Value> {
    if matches!(l, Value::Null) || matches!(r, Value::Null) {
        return Ok(Value::Null);
    }
    if let (Some(a), Some(b)) = (l.as_i64(), r.as_i64()) {
        return match op {
            Arith::Add => Ok(Value::Int(a.wrapping_add(b))),
            Arith::Sub => Ok(Value::Int(a.wrapping_sub(b))),
            Arith::Mul => Ok(Value::Int(a.wrapping_mul(b))),
            // `None` is a zero divisor or `i64::MIN / -1`.
            Arith::Div => a
                .checked_div(b)
                .map(Value::Int)
                .ok_or_else(|| DbError::Exec(format!("integer division {a} / {b} has no value"))),
            Arith::Mod => a
                .checked_rem(b)
                .map(Value::Int)
                .ok_or_else(|| DbError::Exec(format!("integer modulo {a} % {b} has no value"))),
        };
    }
    let (a, b) = match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(DbError::Type(format!("arithmetic on non-numbers {l} and {r}"))),
    };
    Ok(Value::Float(match op {
        Arith::Add => a + b,
        Arith::Sub => a - b,
        Arith::Mul => a * b,
        Arith::Div => a / b,
        Arith::Mod => a % b,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, TableSchema};
    use crate::plan::Scope;
    use crate::sql::ast::Statement;
    use crate::sql::parse_statement;
    use crate::value::DataType;
    use qbism_lfm::LongFieldManager;

    /// The WHERE clause of `sql`, bound over `patient p (id, name)`
    /// joined with `vals v (id, x)`.
    fn where_expr(sql: &str) -> Expr {
        let schema = |name, second: (&str, DataType)| {
            let columns = vec![Column::new("id", DataType::Int), Column::new(second.0, second.1)];
            TableSchema::new(name, columns).unwrap()
        };
        let (p, v) =
            (schema("patient", ("name", DataType::Str)), schema("vals", ("x", DataType::Float)));
        let mut scope = Scope::default();
        scope.push("p", &p);
        scope.push("v", &v);
        let Statement::Select(s) = parse_statement(sql).unwrap() else { panic!("not a SELECT") };
        let mut expr = s.where_clause.unwrap();
        scope.bind(&mut expr).unwrap();
        expr
    }

    fn eval_with(sql: &str, tuple: &[Value], udfs: &UdfRegistry) -> Result<Value> {
        let lfm = LongFieldManager::new(1 << 16, 4096).unwrap();
        eval(&where_expr(sql), tuple, &EvalCtx { params: &[Value::Int(7)], udfs, lfm: &lfm })
    }

    fn eval_where(sql: &str, tuple: &[Value]) -> Result<Value> {
        eval_with(sql, tuple, &UdfRegistry::new())
    }

    fn tuple() -> Vec<Value> {
        vec![Value::Int(7), Value::Str("Jane".into()), Value::Int(7), Value::Float(2.5)]
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(
            eval_where("select * from t where p.id = v.id", &tuple()).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_where("select * from t where v.x > 2 and p.name = 'Jane'", &tuple()).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_where("select * from t where not (v.x >= 2.5)", &tuple()).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval_where("select * from t where p.id between 5 and 10", &tuple()).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn arithmetic_typing() {
        assert_eq!(
            eval_where("select * from t where p.id + 1 = 8", &tuple()).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_where("select * from t where v.x * 2 = 5.0", &tuple()).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_where("select * from t where 7 / 2 = 3", &tuple()).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_where("select * from t where 7 % 2 = 1", &tuple()).unwrap(),
            Value::Bool(true)
        );
        let min_over_minus_one = "(0 - 9223372036854775807 - 1) / (0 - 1) = 0";
        for no_value in [
            "1 / 0 = 0",
            "1 % 0 = 0",
            min_over_minus_one,
            "(0 - 9223372036854775807 - 1) % (0 - 1) = 0",
        ] {
            let sql = format!("select * from t where {no_value}");
            assert!(matches!(eval_where(&sql, &tuple()), Err(DbError::Exec(_))), "{sql}");
        }
        assert_eq!(
            eval_where("select * from t where -(0 - 9223372036854775807 - 1) < 0", &tuple())
                .unwrap(),
            Value::Bool(true),
            "negation wraps like + - *"
        );
        assert!(matches!(
            eval_where("select * from t where p.name + 1 = 2", &tuple()),
            Err(DbError::Type(_))
        ));
    }

    #[test]
    fn null_propagates() {
        let t = vec![Value::Null, Value::Str("x".into()), Value::Int(0), Value::Float(0.0)];
        assert_eq!(eval_where("select * from t where p.id = 7", &t).unwrap(), Value::Null);
        assert_eq!(eval_where("select * from t where p.id + 1 > 0", &t).unwrap(), Value::Null);
        // three-valued logic: false AND null = false; true OR null = true
        assert_eq!(
            eval_where("select * from t where 1 = 2 and p.id = 7", &t).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval_where("select * from t where 1 = 1 or p.id = 7", &t).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn short_circuit_skips_rhs_errors() {
        // 1=2 AND (1/0=0): the division never runs.
        assert_eq!(
            eval_where("select * from t where 1 = 2 and 1 / 0 = 0", &tuple()).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval_where("select * from t where 1 = 1 or 1 / 0 = 0", &tuple()).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn like_matching_semantics() {
        assert!(like_match("hippocampus-l", "hippocampus-%"));
        assert!(like_match("hippocampus-l", "%us-_"));
        assert!(like_match("abc", "abc"));
        assert!(like_match("abc", "%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(!like_match("abc", "ab"));
        assert!(!like_match("abc", "a_c_"));
        assert!(like_match("a%c", "a%c"), "literal percent still matches via wildcard");
    }

    #[test]
    fn postfix_predicates_evaluate() {
        assert_eq!(
            eval_where("select * from t where p.name like 'Ja%'", &tuple()).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_where("select * from t where p.name not like '_ane'", &tuple()).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval_where("select * from t where p.id in (1, 7, 9)", &tuple()).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_where("select * from t where p.id not in (1, 2)", &tuple()).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval_where("select * from t where p.id is null", &tuple()).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            eval_where("select * from t where p.id is not null", &tuple()).unwrap(),
            Value::Bool(true)
        );
        // NULL semantics: NULL IN (...) is NULL; x IN (.., NULL) with no
        // match is NULL.
        let t = vec![Value::Null, Value::Str("x".into()), Value::Int(0), Value::Float(0.0)];
        assert_eq!(eval_where("select * from t where p.id in (1, 2)", &t).unwrap(), Value::Null);
        assert_eq!(
            eval_where("select * from t where v.id in (9, null)", &tuple()).unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_where("select * from t where p.id is null", &t).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn udf_calls_evaluate_arguments() {
        let mut udfs = UdfRegistry::new();
        udfs.register("addone", |_, args| Ok(Value::Int(args[0].as_i64().unwrap() + 1)));
        let sql = "select * from t where addOne(p.id + 1) = 9";
        assert_eq!(eval_with(sql, &tuple(), &udfs).unwrap(), Value::Bool(true));
    }

    #[test]
    fn parameters_and_unbound_columns() {
        assert_eq!(
            eval_where("select * from t where p.id = ?", &tuple()).unwrap(),
            Value::Bool(true)
        );
        assert!(matches!(
            eval_where("select * from t where p.id = ? + ?", &tuple()),
            Err(DbError::Binding(_))
        ));
        let unbound = Expr::Column { qualifier: None, name: "x".into(), slot: None };
        let (udfs, lfm) = (UdfRegistry::new(), LongFieldManager::new(1 << 16, 4096).unwrap());
        let ctx = EvalCtx { params: &[], udfs: &udfs, lfm: &lfm };
        assert!(matches!(eval(&unbound, tuple().as_slice(), &ctx), Err(DbError::Binding(_))));
        // A slot past the tuple is a typed error, not a panic.
        let past = Expr::Column { qualifier: None, name: "x".into(), slot: Some(4) };
        assert!(matches!(eval(&past, tuple().as_slice(), &ctx), Err(DbError::Binding(_))));
    }
}

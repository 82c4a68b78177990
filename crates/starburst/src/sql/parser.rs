//! Recursive-descent parser for the SQL subset.

use super::ast::*;
use super::lexer::{lex, SpannedTok, Tok};
use crate::value::DataType;
use crate::{DbError, Result};

/// How deep an expression may nest: parentheses, call arguments, unary
/// operators and each further operand of an `or` / `and` / `+` / `*`
/// chain (which builds a left-deep tree) each count one level.  The
/// binder, planner, evaluator and drop all recurse over the tree this
/// parser builds, so this one bound keeps all of them inside a thread's
/// stack; no sensible query comes near it.
pub const MAX_EXPR_DEPTH: usize = 64;

/// Parses a single statement (a trailing `;` is tolerated).
pub fn parse_statement(src: &str) -> Result<Statement> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0, params: 0, depth: 0 };
    let stmt = p.statement()?;
    p.eat_punct(";");
    if !p.at_end() {
        return Err(p.err("trailing input after statement"));
    }
    Ok(stmt)
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    /// `?` placeholders seen so far; the next one's index.
    params: usize,
    /// Expression levels open at the current token (see
    /// [`MAX_EXPR_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|t| &t.tok)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|t| t.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, what: &str) -> DbError {
        match self.toks.get(self.pos) {
            Some(t) => DbError::Parse(format!("{what} at byte {} (found {:?})", t.at, t.tok)),
            None => DbError::Parse(format!("{what} at end of input")),
        }
    }

    /// Opens one more expression level, or refuses the statement.
    fn deeper(&mut self) -> Result<()> {
        if self.depth >= MAX_EXPR_DEPTH {
            return Err(self.err(&format!("expression nested deeper than {MAX_EXPR_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {}", kw.to_ascii_uppercase())))
        }
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Punct(s)) if *s == p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{p}'")))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected identifier"))
            }
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_keyword("create") {
            return self.create_table();
        }
        if self.eat_keyword("insert") {
            return self.insert();
        }
        if self.eat_keyword("select") {
            return Ok(Statement::Select(self.select_body()?));
        }
        if self.eat_keyword("delete") {
            self.expect_keyword("from")?;
            let table = self.ident()?;
            let where_clause = if self.eat_keyword("where") { Some(self.expr()?) } else { None };
            return Ok(Statement::Delete { table, where_clause });
        }
        if self.eat_keyword("update") {
            let table = self.ident()?;
            self.expect_keyword("set")?;
            let mut assignments = Vec::new();
            loop {
                let col = self.ident()?;
                self.expect_punct("=")?;
                assignments.push((col, self.expr()?));
                if !self.eat_punct(",") {
                    break;
                }
            }
            let where_clause = if self.eat_keyword("where") { Some(self.expr()?) } else { None };
            return Ok(Statement::Update { table, assignments, where_clause });
        }
        if self.eat_keyword("explain") {
            self.expect_keyword("select")?;
            return Ok(Statement::Explain(self.select_body()?));
        }
        Err(self.err("expected CREATE, INSERT, SELECT, UPDATE, DELETE or EXPLAIN"))
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.expect_keyword("table")?;
        let name = self.ident()?;
        self.expect_punct("(")?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident()?;
            let ty = match self.ident()?.as_str() {
                "int" | "integer" => DataType::Int,
                "float" | "double" | "real" => DataType::Float,
                "string" | "varchar" | "text" | "char" => DataType::Str,
                "bool" | "boolean" => DataType::Bool,
                "long" => DataType::Long,
                other => return Err(DbError::Parse(format!("unknown column type {other}"))),
            };
            columns.push((col, ty));
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_punct(")")?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_keyword("into")?;
        let table = self.ident()?;
        self.expect_keyword("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_punct("(")?;
            let mut row = Vec::new();
            loop {
                row.push(self.literal()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
            rows.push(row);
            if !self.eat_punct(",") {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn literal(&mut self) -> Result<Literal> {
        let neg = self.eat_punct("-");
        match self.next() {
            Some(Tok::Int(i)) => Ok(Literal::Int(if neg { -i } else { i })),
            Some(Tok::Float(f)) => Ok(Literal::Float(if neg { -f } else { f })),
            Some(Tok::Str(s)) if !neg => Ok(Literal::Str(s)),
            Some(Tok::Ident(ref s)) if !neg && s == "null" => Ok(Literal::Null),
            Some(Tok::Ident(ref s)) if !neg && s == "true" => Ok(Literal::Bool(true)),
            Some(Tok::Ident(ref s)) if !neg && s == "false" => Ok(Literal::Bool(false)),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.err("expected literal"))
            }
        }
    }

    fn select_body(&mut self) -> Result<Select> {
        let mut items = Vec::new();
        if self.eat_punct("*") {
            // empty items = *
        } else {
            loop {
                let expr = self.expr()?;
                let alias = if self.eat_keyword("as") {
                    Some(self.ident()?)
                } else {
                    match self.peek() {
                        // bare alias (identifier that is not a clause keyword)
                        Some(Tok::Ident(s))
                            if !is_clause_keyword(s)
                                && !matches!(self.peek2(), Some(Tok::Punct("."))) =>
                        {
                            Some(self.ident()?)
                        }
                        _ => None,
                    }
                };
                items.push(SelectItem { expr, alias });
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        self.expect_keyword("from")?;
        let mut from = Vec::new();
        loop {
            let table = self.ident()?;
            let alias = match self.peek() {
                Some(Tok::Ident(s)) if !is_clause_keyword(s) => self.ident()?,
                _ => table.clone(),
            };
            from.push(TableRef { table, alias });
            if !self.eat_punct(",") {
                break;
            }
        }
        let where_clause = if self.eat_keyword("where") { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_keyword("group") {
            self.expect_keyword("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        let mut order_by = Vec::new();
        if self.eat_keyword("order") {
            self.expect_keyword("by")?;
            loop {
                let e = self.expr()?;
                let asc = if self.eat_keyword("desc") {
                    false
                } else {
                    self.eat_keyword("asc");
                    true
                };
                order_by.push((e, asc));
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("limit") {
            match self.next() {
                Some(Tok::Int(n)) if n >= 0 => Some(n as u64),
                _ => return Err(self.err("expected a non-negative LIMIT count")),
            }
        } else {
            None
        };
        Ok(Select { items, from, where_clause, group_by, order_by, limit })
    }

    // Precedence climbing: or < and < not < cmp < add < mul < unary.
    // Each level opened by `deeper` is closed by restoring `depth` on
    // success; an error ends the parse, so nothing reads it after one.
    fn expr(&mut self) -> Result<Expr> {
        self.deeper()?;
        let e = self.or_expr()?;
        self.depth -= 1;
        Ok(e)
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let depth = self.depth;
        let mut left = self.and_expr()?;
        while self.eat_keyword("or") {
            self.deeper()?;
            let right = self.and_expr()?;
            left = Expr::Binary { op: BinOp::Or, left: Box::new(left), right: Box::new(right) };
        }
        self.depth = depth;
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let depth = self.depth;
        let mut left = self.not_expr()?;
        while self.eat_keyword("and") {
            self.deeper()?;
            let right = self.not_expr()?;
            left = Expr::Binary { op: BinOp::And, left: Box::new(left), right: Box::new(right) };
        }
        self.depth = depth;
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_keyword("not") {
            self.deeper()?;
            let e = Expr::Not(Box::new(self.not_expr()?));
            self.depth -= 1;
            Ok(e)
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let left = self.add_expr()?;
        let op = match self.peek() {
            Some(Tok::Punct("=")) => Some(BinOp::Eq),
            Some(Tok::Punct("<>")) => Some(BinOp::Ne),
            Some(Tok::Punct("<")) => Some(BinOp::Lt),
            Some(Tok::Punct("<=")) => Some(BinOp::Le),
            Some(Tok::Punct(">")) => Some(BinOp::Gt),
            Some(Tok::Punct(">=")) => Some(BinOp::Ge),
            Some(Tok::Ident(s)) if s == "between" => None, // handled below
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.add_expr()?;
            return Ok(Expr::Binary { op, left: Box::new(left), right: Box::new(right) });
        }
        if self.eat_keyword("between") {
            // x BETWEEN a AND b  ==>  x >= a AND x <= b
            let lo = self.add_expr()?;
            self.expect_keyword("and")?;
            let hi = self.add_expr()?;
            let ge =
                Expr::Binary { op: BinOp::Ge, left: Box::new(left.clone()), right: Box::new(lo) };
            let le = Expr::Binary { op: BinOp::Le, left: Box::new(left), right: Box::new(hi) };
            return Ok(Expr::Binary { op: BinOp::And, left: Box::new(ge), right: Box::new(le) });
        }
        // Postfix predicates: IS [NOT] NULL, [NOT] IN (...), [NOT] LIKE.
        if self.eat_keyword("is") {
            let negated = self.eat_keyword("not");
            self.expect_keyword("null")?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        let negated = if matches!(self.peek(), Some(Tok::Ident(s)) if s == "not")
            && matches!(self.peek2(), Some(Tok::Ident(s)) if s == "in" || s == "like")
        {
            self.pos += 1;
            true
        } else {
            false
        };
        if self.eat_keyword("in") {
            self.expect_punct("(")?;
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
            self.expect_punct(")")?;
            return Ok(Expr::InList { expr: Box::new(left), list, negated });
        }
        if self.eat_keyword("like") {
            match self.next() {
                Some(Tok::Str(pattern)) => {
                    return Ok(Expr::Like { expr: Box::new(left), pattern, negated })
                }
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("LIKE expects a string literal pattern"));
                }
            }
        }
        if negated {
            return Err(self.err("expected IN or LIKE after NOT"));
        }
        Ok(left)
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let depth = self.depth;
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Punct("+")) => BinOp::Add,
                Some(Tok::Punct("-")) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            self.deeper()?;
            let right = self.mul_expr()?;
            left = Expr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        self.depth = depth;
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let depth = self.depth;
        let mut left = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Punct("*")) => BinOp::Mul,
                Some(Tok::Punct("/")) => BinOp::Div,
                Some(Tok::Punct("%")) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            self.deeper()?;
            let right = self.unary_expr()?;
            left = Expr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        self.depth = depth;
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.eat_punct("-") {
            self.deeper()?;
            let e = Expr::Neg(Box::new(self.unary_expr()?));
            self.depth -= 1;
            return Ok(e);
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().cloned() {
            Some(Tok::Int(i)) => {
                self.pos += 1;
                Ok(Expr::Literal(Literal::Int(i)))
            }
            Some(Tok::Float(f)) => {
                self.pos += 1;
                Ok(Expr::Literal(Literal::Float(f)))
            }
            Some(Tok::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Literal::Str(s)))
            }
            Some(Tok::Punct("(")) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                if is_clause_keyword(&name) {
                    return Err(self.err("expected expression"));
                }
                self.pos += 1;
                match name.as_str() {
                    "null" => return Ok(Expr::Literal(Literal::Null)),
                    "true" => return Ok(Expr::Literal(Literal::Bool(true))),
                    "false" => return Ok(Expr::Literal(Literal::Bool(false))),
                    _ => {}
                }
                // aggregate?
                if let Some(kind) = agg_kind(&name) {
                    if self.eat_punct("(") {
                        if self.eat_punct("*") {
                            self.expect_punct(")")?;
                            if kind != AggKind::Count {
                                return Err(self.err("only COUNT accepts *"));
                            }
                            return Ok(Expr::Aggregate { kind, arg: None });
                        }
                        let arg = self.expr()?;
                        self.expect_punct(")")?;
                        return Ok(Expr::Aggregate { kind, arg: Some(Box::new(arg)) });
                    }
                    // fall through: aggregate name used as a column
                }
                // function call?
                if self.eat_punct("(") {
                    let mut args = Vec::new();
                    if !self.eat_punct(")") {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_punct(",") {
                                break;
                            }
                        }
                        self.expect_punct(")")?;
                    }
                    return Ok(Expr::Call { name, args });
                }
                // qualified column?
                if self.eat_punct(".") {
                    let col = self.ident()?;
                    return Ok(Expr::Column { qualifier: Some(name), name: col, slot: None });
                }
                Ok(Expr::Column { qualifier: None, name, slot: None })
            }
            Some(Tok::Punct("?")) => {
                self.pos += 1;
                self.params += 1;
                Ok(Expr::Param(self.params - 1))
            }
            _ => Err(self.err("expected expression")),
        }
    }
}

fn agg_kind(name: &str) -> Option<AggKind> {
    Some(match name {
        "count" => AggKind::Count,
        "sum" => AggKind::Sum,
        "avg" => AggKind::Avg,
        "min" => AggKind::Min,
        "max" => AggKind::Max,
        _ => return None,
    })
}

fn is_clause_keyword(s: &str) -> bool {
    matches!(
        s,
        "from"
            | "where"
            | "order"
            | "limit"
            | "as"
            | "and"
            | "or"
            | "not"
            | "group"
            | "by"
            | "asc"
            | "desc"
            | "between"
            | "is"
            | "in"
            | "like"
            | "set"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(src: &str) -> Select {
        match parse_statement(src).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn create_table_types() {
        let s = parse_statement(
            "create table WarpedVolume (studyId int, atlasId int, data long, note string)",
        )
        .unwrap();
        assert_eq!(
            s,
            Statement::CreateTable {
                name: "warpedvolume".into(),
                columns: vec![
                    ("studyid".into(), DataType::Int),
                    ("atlasid".into(), DataType::Int),
                    ("data".into(), DataType::Long),
                    ("note".into(), DataType::Str),
                ],
            }
        );
        assert!(parse_statement("create table t (a blob)").is_err());
    }

    #[test]
    fn insert_multi_row() {
        let s = parse_statement("insert into t values (1, 'a', null), (-2, 'b', 3.5)").unwrap();
        assert_eq!(
            s,
            Statement::Insert {
                table: "t".into(),
                rows: vec![
                    vec![Literal::Int(1), Literal::Str("a".into()), Literal::Null],
                    vec![Literal::Int(-2), Literal::Str("b".into()), Literal::Float(3.5)],
                ],
            }
        );
    }

    #[test]
    fn paper_first_query_parses() {
        // The first Section 3.4 query, almost verbatim ("as" is a
        // reserved word here, so the atlasStructure alias is "ast").
        let q = sel(
            "select a.n, a.x0, a.y0, a.z0, a.dx, a.dy, a.dz, a.atlasId, p.name, p.patientId, rv.date
             from atlas a, rawVolume rv, warpedVolume wv, patient p
             where a.atlasId = wv.atlasId and wv.studyId = rv.studyId and
                   rv.patientId = p.patientId and rv.studyId = 53 and a.atlasName = 'Talairach'",
        );
        assert_eq!(q.items.len(), 11);
        assert_eq!(q.from.len(), 4);
        assert_eq!(q.from[1], TableRef { table: "rawvolume".into(), alias: "rv".into() });
        assert!(q.where_clause.is_some());
    }

    #[test]
    fn paper_second_query_parses_with_udf() {
        let q = sel("select ast.region, extractVoxels(wv.data, ast.region)
             from warpedVolume wv, atlasStructure ast, neuralStructure ns
             where wv.studyId = 53 and ast.structureId = ns.structureId and
                   ns.structureName = 'putamen'");
        assert_eq!(q.items.len(), 2);
        match &q.items[1].expr {
            Expr::Call { name, args } => {
                assert_eq!(name, "extractvoxels");
                assert_eq!(args.len(), 2);
            }
            other => panic!("expected call, got {other:?}"),
        }
    }

    #[test]
    fn precedence_or_and_not_cmp_arith() {
        let q = sel("select * from t where a or not b and c = 1 + 2 * 3");
        // or(a, and(not b, eq(c, 1 + (2*3))))
        let w = q.where_clause.unwrap();
        match w {
            Expr::Binary { op: BinOp::Or, right, .. } => match *right {
                Expr::Binary { op: BinOp::And, left, right } => {
                    assert!(matches!(*left, Expr::Not(_)));
                    match *right {
                        Expr::Binary { op: BinOp::Eq, right, .. } => match *right {
                            Expr::Binary { op: BinOp::Add, right, .. } => {
                                assert!(matches!(*right, Expr::Binary { op: BinOp::Mul, .. }));
                            }
                            other => panic!("expected add, got {other:?}"),
                        },
                        other => panic!("expected eq, got {other:?}"),
                    }
                }
                other => panic!("expected and, got {other:?}"),
            },
            other => panic!("expected or, got {other:?}"),
        }
    }

    #[test]
    fn between_desugars() {
        let q = sel("select * from t where x between 100 and 200");
        match q.where_clause.unwrap() {
            Expr::Binary { op: BinOp::And, left, right } => {
                assert!(matches!(*left, Expr::Binary { op: BinOp::Ge, .. }));
                assert!(matches!(*right, Expr::Binary { op: BinOp::Le, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aggregates_and_aliases() {
        let q = sel("select count(*), avg(v.x) as meanx, max(v.x) top from vals v");
        assert!(matches!(q.items[0].expr, Expr::Aggregate { kind: AggKind::Count, arg: None }));
        assert_eq!(q.items[1].alias.as_deref(), Some("meanx"));
        assert_eq!(q.items[2].alias.as_deref(), Some("top"));
    }

    #[test]
    fn order_by_and_limit() {
        let q = sel("select * from t order by a desc, b limit 10");
        assert_eq!(q.order_by.len(), 2);
        assert!(!q.order_by[0].1, "desc");
        assert!(q.order_by[1].1, "asc default");
        assert_eq!(q.limit, Some(10));
        assert!(parse_statement("select * from t limit -1").is_err());
    }

    #[test]
    fn negative_numbers_and_unary_minus() {
        let q = sel("select -x, 3 - -2 from t");
        assert!(matches!(q.items[0].expr, Expr::Neg(_)));
    }

    #[test]
    fn errors_carry_position() {
        let e = parse_statement("select from").unwrap_err().to_string();
        assert!(e.contains("expected expression"), "{e}");
        let e2 = parse_statement("select a from t where").unwrap_err().to_string();
        assert!(e2.contains("end of input"), "{e2}");
        assert!(parse_statement("select a from t extra junk( ").is_err());
    }

    #[test]
    fn delete_and_explain_parse() {
        assert_eq!(
            parse_statement("delete from t where a = 1").unwrap(),
            Statement::Delete {
                table: "t".into(),
                where_clause: Some(Expr::Binary {
                    op: BinOp::Eq,
                    left: Box::new(Expr::Column { qualifier: None, name: "a".into(), slot: None }),
                    right: Box::new(Expr::Literal(Literal::Int(1))),
                }),
            }
        );
        assert!(matches!(
            parse_statement("delete from t").unwrap(),
            Statement::Delete { where_clause: None, .. }
        ));
        assert!(matches!(
            parse_statement("explain select * from t").unwrap(),
            Statement::Explain(_)
        ));
        assert!(parse_statement("delete t").is_err());
    }

    #[test]
    fn placeholders_number_in_text_order() {
        let q = sel("select f(?, t.a) from t where t.b = ? and t.c between ? and ?");
        assert!(matches!(&q.items[0].expr, Expr::Call { args, .. } if args[0] == Expr::Param(0)));
        let text = format!("{:?}", q.where_clause.unwrap());
        for n in 1..4 {
            assert!(text.contains(&format!("Param({n})")), "{text}");
        }
        // Nowhere a literal is required by the grammar.
        for sql in [
            "create table t (a ?)",
            "insert into t values (?)",
            "select * from t limit ?",
            "select * from t where t.a like ?",
        ] {
            assert!(matches!(parse_statement(sql), Err(DbError::Parse(_))), "{sql}");
        }
    }

    #[test]
    fn count_as_plain_column_name_still_works() {
        // `count` not followed by '(' binds as a column reference.
        let q = sel("select count from t");
        assert!(matches!(&q.items[0].expr, Expr::Column { name, .. } if name == "count"));
    }
}

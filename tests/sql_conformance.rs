//! Table-driven SQL conformance tests for the Starburst stand-in:
//! one seeded database, many statement/expectation pairs.

#![allow(clippy::expect_used)]

use proptest::prelude::*;
use qbism_starburst::{Database, DbError, ExecOutcome, Value, MAX_EXPR_DEPTH};

/// The statements every test database starts from.
const SEED: &[&str] = &[
    "create table patient (patientId int, name string, age int, sex string)",
    "create table study (studyId int, patientId int, modality string, dose float)",
    "insert into patient values
     (1, 'Jane', 40, 'F'), (2, 'Sue', 39, 'F'),
     (3, 'Ann', 61, 'F'), (4, 'Carl', 55, 'M'), (5, 'Otto', 33, 'M')",
    "insert into study values
     (10, 1, 'PET', 5.5), (11, 1, 'MRI', 0.0), (12, 2, 'PET', 4.25),
     (13, 3, 'PET', 6.0), (14, 4, 'CT', 2.0), (15, 5, 'PET', null)",
];

fn db() -> Database {
    let mut db = Database::new(1 << 20).expect("db");
    for sql in SEED {
        db.execute(sql).expect(sql);
    }
    // The identity function, so nested calls evaluate.
    db.register_udf("same", |_, args| Ok(args.first().cloned().unwrap_or(Value::Null)));
    db
}

/// Renders a result set as a compact stable string for comparisons.
fn render(db: &mut Database, sql: &str) -> String {
    let rs = db.query(sql).expect(sql);
    rs.rows()
        .iter()
        .map(|row| row.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(","))
        .collect::<Vec<_>>()
        .join(";")
}

/// SELECT statements and their rendered answers.
const SELECT_CASES: &[(&str, &str)] = &[
        // projection + arithmetic
        ("select p.age + 1 from patient p where p.name = 'Jane'", "41"),
        ("select p.age * 2 - 10 from patient p where p.patientId = 2", "68"),
        ("select -p.age from patient p where p.name = 'Ann'", "-61"),
        // negation wraps at i64::MIN like + - *, it does not abort
        (
            "select -(0 - 9223372036854775807 - 1) from patient p where p.name = 'Ann'",
            "-9223372036854775808",
        ),
        // string comparison and ordering
        (
            "select p.name from patient p where p.name > 'Jane' order by p.name",
            "'Otto';'Sue'",
        ),
        // between desugaring
        (
            "select p.name from patient p where p.age between 39 and 41 order by p.age desc",
            "'Jane';'Sue'",
        ),
        // boolean logic and parentheses
        (
            "select p.name from patient p where (p.sex = 'M' or p.age > 60) and not p.name = 'Otto' order by p.name",
            "'Ann';'Carl'",
        ),
        // joins with extra predicates
        (
            "select p.name, s.modality from patient p, study s
             where p.patientId = s.patientId and s.dose >= 5 order by p.name",
            "'Ann','PET';'Jane','PET'",
        ),
        // NULL semantics: comparisons with NULL never match
        ("select s.studyId from study s where s.dose > 0 order by s.studyId limit 1", "10"),
        ("select count(*) from study s where s.dose = null", "0"),
        // aggregates
        ("select count(*), min(p.age), max(p.age) from patient p", "5,33,61"),
        ("select avg(s.dose) from study s where s.modality = 'CT'", "2"),
        ("select count(s.dose) from study s", "5"), // NULL dose not counted
        ("select sum(p.age) from patient p where p.sex = 'F'", "140"),
        // group by (single key and key+aggregate mixes)
        (
            "select p.sex, count(*) from patient p group by p.sex order by p.sex",
            // note: ORDER BY after GROUP BY unsupported -> this case split below
            "",
        ),
        // postfix predicates
        (
            "select p.name from patient p where p.name like 'J%' or p.name like '_ue' order by p.name",
            "'Jane';'Sue'",
        ),
        (
            "select s.studyId from study s where s.dose is null",
            "15",
        ),
        (
            "select count(*) from study s where s.modality in ('PET', 'SPECT')",
            "4",
        ),
        (
            "select p.name from patient p where p.patientId not in (1, 2, 3, 5)",
            "'Carl'",
        ),
        // limit 0
        ("select p.name from patient p limit 0", ""),
        // order by multiple keys with float column
        (
            "select s.studyId from study s order by s.modality, s.dose desc limit 3",
            "14;11;13",
        ),
    ];

#[test]
fn select_conformance_suite() {
    let mut db = db();
    for (sql, want) in SELECT_CASES {
        if sql.contains("group by p.sex order by") {
            continue; // exercised separately without ORDER BY
        }
        assert_eq!(&render(&mut db, sql), want, "query: {sql}");
    }
    // GROUP BY result compared order-insensitively.
    let rs = db.query("select p.sex, count(*) from patient p group by p.sex").expect("group");
    let mut rows: Vec<(String, i64)> =
        rs.rows().iter().map(|r| (r[0].as_str().unwrap().into(), r[1].as_i64().unwrap())).collect();
    rows.sort();
    assert_eq!(rows, vec![("F".to_string(), 3), ("M".to_string(), 2)]);
}

/// Statements that must fail with a non-panicking, descriptive error.
const BAD: &[&str] = &[
    "select",
    "select from patient",
    "select * from",
    "select * from missing",
    "select p.missing from patient p",
    "select q.name from patient p",
    "select * from patient p where p.name + 1 = 2",
    "select * from patient p where p.age",
    "select p.name from patient p order by p.age limit -3",
    "select max(*) from patient p",
    "insert into patient values (1)",
    "insert into missing values (1)",
    "create table patient (x int)",
    "create table t2 (x whatever)",
    "delete from missing",
    "select count(*), p.name from patient p",
    "select * from patient p group by",
    "select * from patient p where p.name like p.name",
    "select * from patient p where p.age like 'x%'",
    "select * from patient p where p.age not 5",
    // i64::MIN / -1 and i64::MIN % -1 have no i64 value: typed, not a panic
    "select (0 - 9223372036854775807 - 1) / (0 - 1) from patient p",
    "select (0 - 9223372036854775807 - 1) % (0 - 1) from patient p",
    // shape errors are caught when the statement is planned, rows or not
    "select p.missing from patient p where p.age > 1000",
    "select count(*) from patient p where p.age > 1000 order by p.age",
    // a statement with no run cannot take parameters
    "delete from patient where patientId = ?",
    "update patient set age = ? where patientId = 1",
    "insert into patient values (?, 'x', 1, 'F')",
    "create table t3 (x ?)",
    "select p.name from patient p where p.age > ?",
];

#[test]
fn error_conformance_suite() {
    let mut db = db();
    for sql in BAD {
        let err = db.execute(sql).expect_err(sql);
        assert!(!err.to_string().is_empty(), "{sql}");
    }
}

#[test]
fn mutation_conformance() {
    let mut db = db();
    assert_eq!(
        db.execute("delete from study where study.modality = 'CT'").expect("delete"),
        ExecOutcome::Deleted(1)
    );
    assert_eq!(render(&mut db, "select count(*) from study s"), "5");
    db.execute("insert into study values (16, 2, 'SPECT', 1.5)").expect("insert");
    assert_eq!(render(&mut db, "select s.modality from study s where s.studyId = 16"), "'SPECT'");
    // Values survive round trips through projection expressions.
    let rs = db.query("select s.dose / 3 from study s where s.studyId = 16").expect("arith");
    assert_eq!(rs.single_value().expect("1x1"), &Value::Float(0.5));
    // A string literal in SQL text is the same string as one stored
    // through `insert_row`, multi-byte characters included.
    let row = vec![Value::Int(6), Value::from("café"), Value::Int(50), Value::from("F")];
    db.insert_row("patient", row).expect("insert_row");
    assert_eq!(render(&mut db, "select p.patientId from patient p where p.name = 'café'"), "6");
    db.execute("insert into patient values (7, 'Zoë ''Z'' Ødegård', 28, 'F')").expect("insert");
    let rs = db.query("select p.name from patient p where p.patientId = 7").expect("select");
    assert_eq!(rs.single_value().expect("1x1"), &Value::from("Zoë 'Z' Ødegård"));
}

#[test]
fn explain_conformance() {
    let db = db();
    let rs = db
        .query(
            "explain select p.name from patient p, study s
             where p.patientId = s.patientId and s.modality = 'PET'",
        )
        .expect("explain");
    let text: Vec<String> = rs.rows().iter().map(|r| r[0].to_string()).collect();
    assert!(text.iter().any(|l| l.contains("scan p")), "{text:?}");
    assert!(text.iter().any(|l| l.contains("hash join s")), "{text:?}");
}

// ----------------------------------------------------------------------
// The fuzz contract over SQL text: whatever a client sends, `execute`
// returns `Ok` or a typed `Err` — never a panic, never an abort.
// ----------------------------------------------------------------------

/// Every statement this suite runs.
fn statements() -> impl Iterator<Item = &'static str> {
    SEED.iter().chain(SELECT_CASES.iter().map(|(sql, _)| sql)).chain(BAD).copied()
}

#[test]
fn every_truncation_of_every_statement_is_ok_or_typed() {
    let mut db = db();
    for sql in statements() {
        for (cut, _) in sql.char_indices() {
            let _ = db.execute(&sql[..cut]);
        }
    }
}

/// `item` as the select list of a one-row query.
fn select(item: String) -> String {
    format!("select {item} from patient p where p.patientId = 1")
}

/// `predicate` as the WHERE clause of a one-row query.
fn filter(predicate: String) -> String {
    format!("select p.name from patient p where {predicate} and p.patientId = 1")
}

/// A way to nest an expression: its name, `depth` levels of it in a
/// statement, and how many rows the statement returns at that depth.
type Nesting = (&'static str, fn(usize) -> String, fn(usize) -> usize);

/// Each way to nest an expression.
/// A select item or WHERE clause is itself one level, so
/// `MAX_EXPR_DEPTH - 1` levels is the deepest accepted form.
const NESTINGS: [Nesting; 6] = [
    ("parentheses", |d| select(format!("{}1{}", "(".repeat(d), ")".repeat(d))), |_| 1),
    ("unary minus", |d| select(format!("{}1", "- ".repeat(d))), |_| 1),
    ("UDF calls", |d| select(format!("{}1{}", "same(".repeat(d), ")".repeat(d))), |_| 1),
    ("a + chain", |d| select(format!("1{}", " + 1".repeat(d))), |_| 1),
    ("NOT", |d| filter(format!("{}true", "not ".repeat(d))), |d| usize::from(d % 2 == 0)),
    // The chain's last conjunct, `p.patientId = 1`, is one level more.
    ("an AND chain", |d| filter(format!("true{}", " and true".repeat(d - 1))), |_| 1),
];

/// Nesting up to the bound parses, plans and runs; one level past it,
/// and ten thousand levels (which overflowed the parser's stack and
/// aborted the process), is a parse error.
#[test]
fn expression_nesting_is_bounded_by_a_parse_error() {
    let mut db = db();
    let deepest = MAX_EXPR_DEPTH - 1;
    for (form, sql, rows) in NESTINGS {
        let rs = db.query(&sql(deepest)).unwrap_or_else(|e| panic!("{form} at {deepest}: {e}"));
        assert_eq!(rs.len(), rows(deepest), "{form}");
        for depth in [deepest + 1, 10_000] {
            match db.execute(&sql(depth)) {
                Err(DbError::Parse(msg)) => assert!(msg.contains("nested deeper"), "{form}: {msg}"),
                other => panic!("{form} at {depth}: {other:?}"),
            }
        }
    }
}

/// Words and symbols of the dialect, for token soup.
const VOCAB: &[&str] = &[
    "select",
    "from",
    "where",
    "and",
    "or",
    "not",
    "in",
    "like",
    "is",
    "null",
    "between",
    "group",
    "by",
    "order",
    "asc",
    "desc",
    "limit",
    "insert",
    "into",
    "values",
    "create",
    "table",
    "delete",
    "update",
    "set",
    "explain",
    "count",
    "sum",
    "min",
    "max",
    "avg",
    "patient",
    "study",
    "p",
    "s",
    "p.name",
    "s.dose",
    "p.age",
    "same",
    "true",
    "false",
    "(",
    ")",
    ",",
    ".",
    "*",
    "+",
    "-",
    "/",
    "%",
    "=",
    "<>",
    "<",
    "<=",
    ">",
    ">=",
    "?",
    ";",
    "'PET'",
    "'",
    "0",
    "1",
    "-9223372036854775808",
    "9223372036854775807",
    "2.5",
    "1e308",
    "int",
    "string",
    "long",
];

proptest! {
    /// Arbitrary bytes, read as text.
    #[test]
    fn arbitrary_text_is_ok_or_typed(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = db().execute(&String::from_utf8_lossy(&bytes));
    }

    /// Sequences of the dialect's own tokens, which reach past the
    /// lexer into the parser, binder, planner and executor.
    #[test]
    fn token_soup_is_ok_or_typed(
        picks in proptest::collection::vec(0..VOCAB.len(), 0..48),
        lead in 0usize..4,
    ) {
        let words = picks.iter().filter_map(|&i| VOCAB.get(i).copied());
        let soup = ["", "select ", "select p.name from patient p where ", "select same("]
            .get(lead)
            .copied()
            .unwrap_or_default()
            .to_string()
            + &words.collect::<Vec<_>>().join(" ");
        let _ = db().execute(&soup);
    }
}

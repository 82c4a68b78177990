//! A prepared statement *is* its text.  For every statement shape the
//! MedicalServer compiles (`qbism::server::Statements`, mirrored here on
//! a miniature of the medical schema with stub operators),
//! `prepare(text with ?)` + `run(params)` returns exactly what
//! `query(text with the values as literals)` returns: columns, rows and
//! `rows_scanned` — so binding values instead of splicing them changes
//! no answer and no plan.  Plus the typed errors of the prepared API.

#![allow(clippy::expect_used)]

use proptest::prelude::*;
use qbism_starburst::{Database, DbError, Prepared, Value};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The span ring is process-global and one test reads it, so the tests
/// of this binary (all of which emit spans) take turns.
static LOCK: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Structure names, some of which would end or rewrite a spliced
/// literal.  "ntal" is stored twice, "missing" never.
const NAMES: [&str; 6] =
    ["ntal", "thalamus", "o'brien", "nope' or ns.structureName = 'ntal", "café", "missing"];

fn database() -> Database {
    let mut db = Database::new(1 << 20).expect("database");
    for ddl in [
        "create table atlas (atlasId int, atlasName string, n int)",
        "create table patient (patientId int, name string)",
        "create table rawVolume (studyId int, patientId int, date string)",
        "create table warpedVolume (studyId int, atlasId int, data long)",
        "create table neuralStructure (structureId int, structureName string)",
        "create table atlasStructure (structureId int, atlasId int, region long, surface long)",
        "create table intensityBand (studyId int, atlasId int, lo int, hi int, region long)",
    ] {
        db.execute(ddl).expect(ddl);
    }
    // Stub operators: a value that is a pure function of the arguments.
    for udf in ["extractvoxels", "intersection", "runion", "fullregion", "boxregion"] {
        db.register_udf(udf, move |_, args| Ok(Value::Str(format!("{udf}{args:?}"))));
    }
    let mut next_field = 0u8;
    let mut field = |db: &mut Database| {
        next_field += 1;
        db.create_long_field(&[next_field; 3]).expect("long field")
    };
    db.execute("insert into atlas values (1, 'Talairach', 16), (2, 'Other', 16)").expect("atlas");
    db.execute("insert into patient values (1, 'Jane'), (2, 'Zoë')").expect("patients");
    for study in 1..=3i64 {
        let date = Value::from(format!("1993-0{study}-01"));
        db.insert_row("rawvolume", vec![Value::Int(study), Value::Int(1 + study % 2), date])
            .expect("raw");
        // Study 3 is warped to another atlas as well.
        for atlas in 1..=(1 + study / 3) {
            let data = field(&mut db);
            db.insert_row("warpedvolume", vec![Value::Int(study), Value::Int(atlas), data])
                .expect("warped");
        }
        for lo in (0..256).step_by(32) {
            let row = vec![Value::Int(study), Value::Int(1), Value::Int(lo), Value::Int(lo + 31)];
            let region = field(&mut db);
            db.insert_row("intensityband", row.into_iter().chain([region]).collect())
                .expect("band");
        }
    }
    let stored = NAMES[..5].iter().chain(&["ntal"]);
    for (id, name) in (1i64..).zip(stored) {
        db.insert_row("neuralstructure", vec![Value::Int(id), Value::from(*name)]).expect("ns");
        let (region, surface) = (field(&mut db), field(&mut db));
        db.insert_row("atlasstructure", vec![Value::Int(id), Value::Int(1), region, surface])
            .expect("ast");
    }
    db
}

/// The server's statement shapes, each with the parameters one call
/// binds, in text order.
fn statements(
    study: i64,
    lo: i64,
    name: &str,
    corner: i64,
    bands: i64,
) -> Vec<(String, Vec<Value>)> {
    let (study_v, lo_v, hi_v, name_v) =
        (Value::Int(study), Value::Int(lo), Value::Int(lo + 31), Value::from(name));
    let mut intensity_region = format!("b{bands}.region");
    let mut intensity_from = String::from("warpedVolume wv");
    let mut intensity_where = String::from("wv.studyId = ? and wv.atlasId = 1");
    let mut intensity_params = vec![study_v.clone()];
    for i in 1..=bands {
        if i < bands {
            let inner = bands - i;
            intensity_region = format!("runion(b{inner}.region, {intensity_region})");
        }
        intensity_from.push_str(&format!(", intensityBand b{i}"));
        intensity_where.push_str(&format!(" and b{i}.studyId = ? and b{i}.lo = ?"));
        intensity_params.extend([study_v.clone(), Value::Int((lo + 32 * (i - 1)) % 256)]);
    }
    let corners = (0..6).map(|i| Value::Int(corner + i));
    vec![
        (
            "select extractVoxels(wv.data, fullRegion()) from warpedVolume wv
             where wv.studyId = ? and wv.atlasId = 1"
                .into(),
            vec![study_v.clone()],
        ),
        (
            "select extractVoxels(wv.data, boxRegion(?, ?, ?, ?, ?, ?)) from warpedVolume wv
             where wv.studyId = ? and wv.atlasId = 1"
                .into(),
            corners.chain([study_v.clone()]).collect(),
        ),
        (
            "select extractVoxels(wv.data, ast.region)
             from warpedVolume wv, atlasStructure ast, neuralStructure ns
             where wv.studyId = ? and wv.atlasId = 1 and ast.atlasId = 1 and
                   ast.structureId = ns.structureId and ns.structureName = ?"
                .into(),
            vec![study_v.clone(), name_v.clone()],
        ),
        (
            "select extractVoxels(wv.data, b.region) from warpedVolume wv, intensityBand b
             where wv.studyId = ? and b.studyId = ? and wv.atlasId = 1 and
                   b.lo = ? and b.hi = ?"
                .into(),
            vec![study_v.clone(), study_v.clone(), lo_v.clone(), hi_v.clone()],
        ),
        (
            "select extractVoxels(wv.data, intersection(b.region, ast.region))
             from warpedVolume wv, intensityBand b, atlasStructure ast, neuralStructure ns
             where wv.studyId = ? and b.studyId = ? and
                   wv.atlasId = 1 and ast.atlasId = 1 and b.lo = ? and b.hi = ? and
                   ast.structureId = ns.structureId and ns.structureName = ?"
                .into(),
            vec![study_v.clone(), study_v.clone(), lo_v.clone(), hi_v.clone(), name_v.clone()],
        ),
        (
            "select b.region from intensityBand b where b.studyId = ? and b.lo = ? and b.hi = ?"
                .into(),
            vec![study_v.clone(), lo_v, hi_v],
        ),
        (
            format!(
                "select extractVoxels(wv.data, {intensity_region})
                 from {intensity_from} where {intensity_where}"
            ),
            intensity_params,
        ),
        (
            "select a.n, a.atlasId, p.name, p.patientId, rv.date
             from atlas a, rawVolume rv, warpedVolume wv, patient p
             where a.atlasId = wv.atlasId and wv.studyId = rv.studyId and
                   rv.patientId = p.patientId and rv.studyId = ? and
                   a.atlasName = 'Talairach'"
                .into(),
            vec![study_v.clone()],
        ),
        (
            "select wv.data from warpedVolume wv where wv.studyId = ? and wv.atlasId = 1".into(),
            vec![study_v],
        ),
        (
            "select ast.surface from atlasStructure ast, neuralStructure ns
             where ast.structureId = ns.structureId and ast.atlasId = 1 and
                   ns.structureName = ?"
                .into(),
            vec![name_v.clone()],
        ),
        (
            "select ast.region from atlasStructure ast, neuralStructure ns
             where ast.structureId = ns.structureId and ast.atlasId = 1 and
                   ns.structureName = ?"
                .into(),
            vec![name_v],
        ),
    ]
}

/// `sql` with each `?` replaced by its value written as an SQL literal.
fn with_literals(sql: &str, params: &[Value]) -> String {
    let mut pieces = sql.split('?');
    let mut text = pieces.next().unwrap_or_default().to_string();
    for (piece, value) in pieces.zip(params) {
        match value {
            Value::Str(s) => text.push_str(&format!("'{}'", s.replace('\'', "''"))),
            other => text.push_str(&other.to_string()),
        }
        text.push_str(piece);
    }
    text
}

proptest! {
    #[test]
    fn prepared_equals_text_on_every_server_statement_shape(
        study in 0i64..5,
        band in 0i64..8,
        name in 0usize..NAMES.len(),
        corner in -2i64..40,
        bands in 1i64..4,
    ) {
        let _g = serialize();
        let db = database();
        for (sql, params) in statements(study, band * 32, NAMES[name], corner, bands) {
            let prepared = db.prepare(&sql).expect(&sql);
            let bound = db.run(&prepared, &params).expect(&sql);
            let text = with_literals(&sql, &params);
            prop_assert_eq!(&bound, &db.query(&text).expect(&text), "{}", text);
            // Running again is running the same statement.
            prop_assert_eq!(&bound, &db.run(&prepared, &params).expect(&sql));
        }
    }
}

#[test]
fn quoting_names_select_by_value() {
    // Through a parameter a name is a value: it can end no literal and
    // add no predicate.  Both hostile names are stored, so each finds
    // its one row; spliced into text, the first does not lex and the
    // second selects "ntal" (twice) instead.
    let _g = serialize();
    let db = database();
    let by_name = db
        .prepare("select ns.structureId from neuralStructure ns where ns.structureName = ?")
        .expect("prepare");
    for (name, id) in [(NAMES[2], 3), (NAMES[3], 4), ("ntal", 1)] {
        let rs = db.run(&by_name, &[Value::from(name)]).expect("run");
        assert_eq!(rs.rows()[0], vec![Value::Int(id)], "{name}");
        assert_eq!(rs.len(), if name == "ntal" { 2 } else { 1 }, "{name}");
    }
    let splice = |name: &str| {
        db.query(&format!(
            "select ns.structureId from neuralStructure ns where ns.structureName = '{name}'"
        ))
    };
    assert!(matches!(splice(NAMES[2]), Err(DbError::Parse(_))));
    assert_eq!(splice(NAMES[3]).expect("injected predicate parses").len(), 2);
}

#[test]
fn prepared_api_errors_are_typed() {
    let _g = serialize();
    let mut db = database();
    let one = db.prepare("select wv.data from warpedVolume wv where wv.studyId = ?").expect("one");
    for params in [&[][..], &[Value::Int(1), Value::Int(2)][..]] {
        match db.run(&one, params) {
            Err(DbError::Binding(m)) => assert!(m.contains("1 parameters"), "{m}"),
            other => panic!("{} params: expected a Binding error, got {other:?}", params.len()),
        }
    }
    // Names bind when the statement is prepared, not when a row arrives.
    for sql in [
        "select wv.nope from warpedVolume wv where wv.studyId = ?",
        "select wv.data from warpedVolume wv where zz.studyId = ?",
        "select wv.data from nope wv",
        "select studyId from warpedVolume wv, rawVolume rv",
    ] {
        assert!(matches!(db.prepare(sql), Err(DbError::Binding(_))), "{sql}");
    }
    // `?` stands for an expression of a SELECT; nothing else has a run
    // that could supply its value.
    for (sql, parse) in [
        ("create table t (x ?)", true),
        ("insert into patient values (?, 'x')", true),
        ("select wv.data from warpedVolume wv limit ?", true),
        ("delete from patient where patientId = ?", false),
        ("update patient set name = ? where patientId = 1", false),
    ] {
        match db.prepare(sql) {
            Err(DbError::Parse(_)) if parse => {}
            Err(DbError::Binding(_)) if !parse => {}
            other => panic!("{sql}: {other:?}"),
        }
    }
    // A prepared mutation runs through `execute` only.
    let delete = db.prepare("delete from patient where patientId = 1").expect("prepare delete");
    assert!(matches!(db.run(&delete, &[]), Err(DbError::Exec(_))));
    assert_eq!(db.table_len("patient").expect("patient"), 2);
    // A statement prepared before rows arrive sees them.
    let count = db.prepare("select count(*) from patient p where p.patientId > ?").expect("count");
    assert_eq!(db.run(&count, &[Value::Int(0)]).expect("run").single_value(), Ok(&Value::Int(2)));
    db.execute("insert into patient values (3, 'Ann')").expect("insert");
    assert_eq!(db.run(&count, &[Value::Int(0)]).expect("run").single_value(), Ok(&Value::Int(3)));
    // Against a database whose table has another shape it is refused,
    // not indexed out of range.
    let mut other = Database::new(1 << 16).expect("database");
    other.execute("create table patient (patientId int)").expect("create");
    other.execute("insert into patient values (1)").expect("insert");
    assert!(matches!(other.run(&count, &[Value::Int(0)]), Err(DbError::Binding(_))));
}

#[test]
fn explain_renders_the_prepared_plan() {
    let _g = serialize();
    let db = database();
    let explain = db
        .prepare(
            "explain select ast.region from atlasStructure ast, neuralStructure ns
             where ast.structureId = ns.structureId and ns.structureName = ?",
        )
        .expect("prepare");
    let rs = db.run(&explain, &[Value::from("ntal")]).expect("run");
    let text: Vec<String> = rs.rows().iter().map(|r| r[0].to_string()).collect();
    assert!(text[0].contains("scan ast (0 filters)"), "{text:?}");
    assert!(
        text[1].contains("hash join ns") && text[1].contains("(1 filter, 0 predicates)"),
        "{text:?}"
    );
    assert!(matches!(db.run(&explain, &[]), Err(DbError::Binding(_))), "EXPLAIN counts params too");
}

#[test]
fn prepared_statements_are_shareable_and_trace_their_stages() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Prepared>();

    // `prepare` parses under its own root; `run` opens `db.execute`
    // with the statement text compacted once, and never parses.
    let _g = serialize();
    let db = database();
    qbism_obs::trace::clear();
    let by_study = db
        .prepare("select wv.data\n  from warpedVolume wv\n  where wv.studyId = ?")
        .expect("prepare");
    let prepare = qbism_obs::trace::last_root().expect("db.prepare root");
    assert_eq!(prepare.name, "db.prepare");
    assert!(prepare.find("sql.parse").is_some(), "{}", prepare.render_tree());
    db.run(&by_study, &[Value::Int(1)]).expect("run");
    let execute = qbism_obs::trace::last_root().expect("db.execute root");
    assert_eq!(execute.name, "db.execute");
    assert!(execute.find("sql.parse").is_none(), "{}", execute.render_tree());
    assert!(execute.find("exec.select").is_some(), "{}", execute.render_tree());
    match execute.field("sql") {
        Some(qbism_obs::trace::FieldValue::Str(sql)) => {
            assert_eq!(sql, "select wv.data from warpedVolume wv where wv.studyId = ?")
        }
        other => panic!("sql field: {other:?}"),
    }
}

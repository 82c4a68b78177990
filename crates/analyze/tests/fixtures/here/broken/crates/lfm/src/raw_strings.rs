// Fixture: raw strings and nested block comments.  Ending a raw string
// at its first inner quote would leak the banned tokens after it into
// "code" (this crate is deterministic, so `Instant::now()` counts too);
// flat block comments would swallow the code after the inner `*/`.
// Lines marked `LINT:` must be flagged; everything else must not be.

fn raw_string_contents_never_count() -> &'static str {
    // The banned tokens live inside the raw literal, including past an
    // embedded quote — none of this is code.
    r#"x.unwrap() "inner quote" y.expect(msg) Instant::now()"#
}

fn raw_string_with_comment_marker() -> &'static str {
    r"not // a comment: z.unwrap()"
}

fn hashed_raw_string_then_real_violation() -> u32 {
    let _s = r##"a "# tricky "## ;
    Some(1u32).unwrap() // LINT: no-unwrap
}

/* A nested /* block comment */ still comments this out: a.unwrap() */
fn after_nested_comment(x: Option<u32>) -> u32 {
    /* inner /* deeper */ done */
    x.unwrap() // LINT: no-unwrap
}

fn multiline_string_tail_is_not_code() -> String {
    let s = "first line
        second.unwrap() still inside the literal
    ";
    s.to_string()
}

fn raw_fault_site_names_are_checked(plane: &Plane) {
    // The site literal is extracted from a raw string too.
    plane.fail_nth(r"BadSite", 1); // LINT: fault-site-name
    plane.fail_nth(r#"lfm.meta.write"#, 1);
}

fn multiline_raw_string_tail_is_not_code() -> &'static str {
    r##"first line
        x.unwrap() "# almost closed
    really closed"##
}

// Fixture: anonymous panics.  Lines marked `LINT:` must be flagged;
// everything else must not be.

fn bad_unwrap(x: Option<u32>) -> u32 {
    x.unwrap() // LINT: no-unwrap
}

fn bad_expect(x: Option<u32>) -> u32 {
    x.expect("present") // LINT: no-unwrap
}

fn chained(m: &std::collections::HashMap<u32, u32>) -> u32 {
    *m.get(&1).unwrap() + m.len() as u32 // LINT: no-unwrap
}

fn fine_fallbacks(x: Option<u32>) -> u32 {
    let a = x.unwrap_or(0);
    let b = x.unwrap_or_else(|| 1);
    let c = x.unwrap_or_default();
    a + b + c
}

fn fine_in_string() -> &'static str {
    "call .unwrap() at your peril"
}

// a comment mentioning .expect("nothing") is fine

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        Some(3u32).unwrap();
        Some(3u32).expect("tests may assert");
    }
}

//! The paper's Tables 1–4 (and every other `tablegen` experiment) are a
//! contract: each deterministic cell stays byte-identical from change to
//! change.  `tablegen all` on a small grid is compared against a
//! checked-in golden on every test run; the paper's 128³ against
//! `tablegen_128.txt` is the ignored test, run in release:
//!
//! ```sh
//! cargo test --release --test tables_golden -- --ignored
//! ```
//!
//! The cells that read the host's clock are masked by column: Table 3's
//! `db(s)` and `tot(s)` (simulated database time adds the measured
//! native time) and Table 4's `native(s)` and `sim(s)`.  A change that
//! moves any other cell re-records the golden and says why.

#![allow(clippy::expect_used, clippy::indexing_slicing)]

use qbism_bench::tablegen::{render, Params};

/// The columns whose cells include native seconds.
const HOST_CLOCK_COLUMNS: [&str; 4] = ["db(s)", "tot(s)", "native(s)", "sim(s)"];

/// `text` with every cell under a host-clock column replaced by `*`.
/// A header is a line naming such a column; the rows under it run to
/// the next blank line, and their cells line up with the header's names
/// from the right (a row's label may hold spaces, its numbers do not).
fn mask(text: &str) -> String {
    let mut out = Vec::new();
    let mut header: Option<Vec<&str>> = None;
    for line in text.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        if words.iter().any(|w| HOST_CLOCK_COLUMNS.contains(w)) {
            header = Some(words);
            out.push(line.to_string());
            continue;
        }
        if words.is_empty() {
            header = None;
        }
        let Some(names) = &header else {
            out.push(line.to_string());
            continue;
        };
        let cells = words.len().min(names.len());
        let (label, numbers) = words.split_at(words.len() - cells);
        let masked = names[names.len() - cells..].iter().zip(numbers).map(|(name, cell)| {
            if HOST_CLOCK_COLUMNS.contains(name) {
                "*"
            } else {
                cell
            }
        });
        out.push(label.iter().copied().chain(masked).collect::<Vec<_>>().join(" "));
    }
    out.join("\n")
}

/// `tablegen` at `bits` against the golden text, masked alike; on a
/// mismatch, the first line that differs.
fn assert_matches_golden(bits: u32, golden: &str) {
    let params = Params { bits, ..Params::default() };
    let text = render(&params).expect("`all` names experiments");
    let (got, want) = (mask(&text), mask(golden));
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "tablegen all --bits {bits}, line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "tablegen all --bits {bits}: line count");
}

#[test]
fn every_experiment_matches_the_golden_at_32() {
    assert_matches_golden(5, include_str!("../tablegen_32.txt"));
}

#[test]
#[ignore = "the paper's 128³ takes about 12 s in release; CI runs it in its own step"]
fn every_experiment_matches_the_golden_at_128() {
    assert_matches_golden(7, include_str!("../tablegen_128.txt"));
}

/// The mask hides exactly the host-clock cells: a moved native second
/// is equal, a moved count is not, and the paper's rows that follow a
/// blank line keep every cell.
#[test]
fn the_mask_hides_host_clock_cells_only() {
    let table = "method                   I/Os    native(s)     sim(s)     voxels\n\
                 h-runs, naive             152       0.0012       0.97       3147\n\
                 \n\
                 h-runs, naive             446         1.02        5.7\n";
    assert_eq!(mask(table), mask(&table.replace("0.0012", "0.0039").replace("0.97", "0.99")));
    assert_ne!(mask(table), mask(&table.replace("152", "153")));
    assert_ne!(mask(table), mask(&table.replace("1.02", "1.03")));
    assert!(mask(table).contains("h-runs, naive 152 * * 3147"), "{}", mask(table));
}

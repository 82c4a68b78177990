// Fixture: wall-clock reads in a deterministic crate.

fn bad_instant() -> std::time::Instant {
    std::time::Instant::now() // LINT: no-wall-clock
}

fn bad_system_time() -> std::time::SystemTime {
    std::time::SystemTime::now() // LINT: no-wall-clock
}

fn bad_imported() {
    use std::time::Instant;
    let _t = Instant::now(); // LINT: no-wall-clock
}

fn bad_function_reference(epoch: &std::sync::OnceLock<std::time::Instant>) {
    let _ = epoch.get_or_init(std::time::Instant::now); // LINT: no-wall-clock
}

fn fine_duration_math() -> std::time::Duration {
    std::time::Duration::from_micros(17)
}

// Instant::now() in a comment does not count, nor does
fn fine_in_string() -> &'static str {
    "Instant::now"
}

// Fixture: pacing or waiting by sleeping, outside test code.

fn bad_pacing(interval: std::time::Duration) {
    std::thread::sleep(interval); // LINT: no-sleep
}

// thread::sleep in a comment does not count, nor in a string, nor in
// test code.
fn fine_in_string() -> &'static str {
    "thread::sleep"
}

// The harness crate is outside the call graph and exempt from
// `no-unwrap`, but `no-sleep` and `fault-site-name` hold here too.
fn fine_harness_unwrap(x: Option<u32>) -> u32 {
    x.unwrap()
}

fn bad_site_in_the_harness(plane: &FaultPlane) {
    plane.fail_nth("Bench", 1); // LINT: fault-site-name
}

#[cfg(test)]
mod tests {
    fn fine_in_tests() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

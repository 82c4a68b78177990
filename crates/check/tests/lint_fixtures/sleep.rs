// Fixture: pacing or waiting by sleeping, outside test code.

fn bad_pacing(interval: std::time::Duration) {
    std::thread::sleep(interval); // LINT: no-sleep
}

// thread::sleep in a comment does not count, nor in a string, nor in
// test code.
fn fine_in_string() -> &'static str {
    "thread::sleep"
}

#[cfg(test)]
mod tests {
    fn fine_in_tests() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

// Fixture: the entry types are traced where they are defined (core,
// starburst, cluster); a namesake elsewhere is not a query entry point.

impl Database {
    pub fn peek(&self) -> Result<u32> {
        self.go()
    }
}

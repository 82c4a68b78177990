//! Fixture corpus for `traced-entrypoints`: public query methods
//! (`pub fn` + `&self` + `Result<…>`) on monitored types must open a
//! root span before their body closes.

impl MedicalServer {
    pub fn untraced_query(&self, study_id: i64) -> Result<QueryAnswer> { // LINT: traced-entrypoints
        self.fetch(study_id)
    }

    pub fn untraced_multiline( // LINT: traced-entrypoints
        &self,
        study_id: i64,
        lo: u8,
    ) -> Result<QueryAnswer> {
        self.fetch_band(study_id, lo)
    }

    pub fn traced_query(&self, study_id: i64) -> Result<QueryAnswer> {
        let span = Self::query_span("traced");
        span.record_i64("study_id", study_id);
        self.fetch(study_id)
    }

    pub fn traced_directly(&self, sql: &str) -> Result<ResultSet> {
        let _span = qbism_obs::trace::root("db.execute");
        self.run(sql)
    }

    pub fn mutating_loader(&mut self, study_id: i64) -> Result<usize> {
        self.load(study_id)
    }

    pub fn plain_accessor(&self) -> usize {
        self.count
    }

    fn private_helper(&self, study_id: i64) -> Result<QueryAnswer> {
        self.fetch(study_id)
    }

    #[cfg(test)]
    pub fn test_only_probe(&self) -> Result<u32> {
        self.peek()
    }
}

impl Database {
    pub fn untraced_len(&self, table: &str) -> Result<usize> { // LINT: traced-entrypoints
        self.catalog.len(table)
    }

    pub fn untraced_run(&self, prepared: &Prepared, params: &[Value]) -> Result<ResultSet> { // LINT: traced-entrypoints
        run_select(&prepared.plan, &self.catalog, params)
    }

    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        let _span = qbism_obs::trace::root("db.prepare");
        let statement = {
            let _parse = qbism_obs::trace::span("sql.parse");
            parse_statement(sql)?
        };
        self.plan(statement)
    }

    pub fn run(&self, prepared: &Prepared, params: &[Value]) -> Result<ResultSet> {
        let span = qbism_obs::trace::root("db.execute");
        describe(&span, &prepared.sql);
        run_select(&prepared.plan, &self.catalog, params)
    }
}

impl std::fmt::Debug for MedicalServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MedicalServer")
    }
}

impl Render for Database {
    pub fn draw(&self) -> Result<()> {
        Ok(())
    }
}

impl ResultSet {
    pub fn single_value(&self) -> Result<&Value> {
        self.pick()
    }
}

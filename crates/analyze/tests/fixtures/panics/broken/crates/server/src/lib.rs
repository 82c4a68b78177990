//! Seeded bug: a public `MedicalServer` entry point reaches an
//! `.unwrap()` two hops down.  A missing study id panics the server
//! instead of surfacing an error.

impl MedicalServer {
    pub fn fetch_study(&self, id: u32) -> Study {
        resolve(&self.catalog, id)
    }
}

fn resolve(catalog: &StudyCatalog, id: u32) -> Study {
    lookup(catalog, id)
}

fn lookup(catalog: &StudyCatalog, id: u32) -> Study {
    catalog.get(id).unwrap() // LINT: no-unwrap, panic-reach
}

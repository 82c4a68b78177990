//! The three call-graph analyses — everything in the rule table past
//! zero hops.
//!
//! Each takes the same [`Ctx`] (workspace, per-function marks,
//! deduplicated adjacency) and returns [`Finding`]s with
//! stable keys; `lib.rs` runs them after the zero-hop pass.

pub mod determinism;
pub mod locks;
pub mod transitive;

use crate::graph::Workspace;
use crate::marks::FnMarks;
use crate::parser::ParsedFile;

/// Shared read-only analysis context.
pub struct Ctx<'a> {
    pub ws: &'a Workspace,
    pub marks: &'a [FnMarks],
    pub adj: &'a [Vec<usize>],
}

impl Ctx<'_> {
    /// Short stable location used in allowlist keys: `file:fn`.
    pub fn loc(&self, id: usize) -> String {
        let (file, _) = self.ws.location(id);
        format!("{file}:{}", self.ws.funcs[id].item.name)
    }

    /// The file that defines function `id`.
    pub fn file(&self, id: usize) -> &ParsedFile {
        &self.ws.files[self.ws.funcs[id].file]
    }
}

//! User-defined SQL functions.
//!
//! "We implemented the operators of Section 3.2 in Starburst as
//! user-defined SQL functions.  Starburst embeds these operators (like
//! all other SQL functions) within query execution plans at compile time
//! and invokes them in the run-time environment."
//!
//! A UDF here is a closure from argument [`Value`]s to a [`Value`], with
//! read access to the Long Field Manager through [`UdfContext`] — that is
//! what lets `extractVoxels(wv.data, ast.region)` read volume bytes and
//! return its `DATA_REGION` result as an in-memory byte value, all inside
//! the executor; a UDF never creates a long field.

use crate::value::Value;
use crate::{DbError, Result};
use qbism_lfm::LongFieldManager;
use std::collections::HashMap;

/// Runtime services available to a UDF invocation.
pub struct UdfContext<'a> {
    /// The long-field store.  Shared, not exclusive: UDFs run on the
    /// concurrent read path, so they may read long fields but never
    /// create or mutate them (operators materialize results in memory
    /// and the server encodes them on the way out).
    pub lfm: &'a LongFieldManager,
}

/// The UDF calling convention.
pub type UdfFn = Box<dyn Fn(&mut UdfContext<'_>, &[Value]) -> Result<Value> + Send + Sync>;

/// One registered function plus the name of its span, built once.
struct UdfEntry {
    f: UdfFn,
    span_name: String,
}

/// Name → function registry.
#[derive(Default)]
pub struct UdfRegistry {
    fns: HashMap<String, UdfEntry>,
}

impl UdfRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `f` under `name` (case-insensitive).  Re-registering a
    /// name replaces the previous function, which is how tests stub
    /// operators out.
    pub fn register<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&mut UdfContext<'_>, &[Value]) -> Result<Value> + Send + Sync + 'static,
    {
        let lname = name.to_ascii_lowercase();
        let entry = UdfEntry { f: Box::new(f), span_name: format!("udf.{lname}") };
        self.fns.insert(lname, entry);
    }

    /// Whether a function named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.fns.contains_key(&name.to_ascii_lowercase())
    }

    /// Invokes a function.
    pub fn call(&self, name: &str, ctx: &mut UdfContext<'_>, args: &[Value]) -> Result<Value> {
        // Names out of the parser are lowercase already.
        let entry = self
            .fns
            .get(name)
            .or_else(|| self.fns.get(&name.to_ascii_lowercase()))
            .ok_or_else(|| DbError::Binding(format!("no such function: {name}")))?;
        let span = qbism_obs::trace::span(&entry.span_name);
        let out = (entry.f)(ctx, args);
        if let (Err(e), true) = (&out, span.is_recording()) {
            span.record_str("error", &e.to_string());
        }
        out
    }

    /// Registered function names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.fns.keys().cloned().collect();
        v.sort();
        v
    }
}

impl std::fmt::Debug for UdfRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdfRegistry").field("functions", &self.names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_lfm() -> LongFieldManager {
        LongFieldManager::new(1 << 16, 4096).unwrap()
    }

    #[test]
    fn register_and_call() {
        let mut reg = UdfRegistry::new();
        reg.register("double", |_ctx, args| {
            let x = args[0].as_i64().ok_or_else(|| DbError::Type("double wants int".into()))?;
            Ok(Value::Int(x * 2))
        });
        assert!(reg.contains("DOUBLE"), "case-insensitive lookup");
        let mut lfm = ctx_lfm();
        let mut ctx = UdfContext { lfm: &mut lfm };
        assert_eq!(reg.call("double", &mut ctx, &[Value::Int(21)]).unwrap(), Value::Int(42));
        assert!(reg.call("missing", &mut ctx, &[]).is_err());
    }

    #[test]
    fn udf_can_touch_long_fields() {
        let mut reg = UdfRegistry::new();
        // A toy "operator": materialize the length of a long field.
        reg.register("loblen", |ctx, args| {
            let id = args[0]
                .as_long()
                .ok_or_else(|| DbError::Type("loblen wants a long field".into()))?;
            Ok(Value::Int(ctx.lfm.len(id)? as i64))
        });
        let mut lfm = ctx_lfm();
        let id = lfm.create(&[1, 2, 3, 4, 5]).unwrap();
        let mut ctx = UdfContext { lfm: &mut lfm };
        assert_eq!(reg.call("loblen", &mut ctx, &[Value::Long(id)]).unwrap(), Value::Int(5));
    }

    #[test]
    fn re_registration_replaces() {
        let mut reg = UdfRegistry::new();
        reg.register("f", |_, _| Ok(Value::Int(1)));
        reg.register("f", |_, _| Ok(Value::Int(2)));
        let mut lfm = ctx_lfm();
        let mut ctx = UdfContext { lfm: &mut lfm };
        assert_eq!(reg.call("f", &mut ctx, &[]).unwrap(), Value::Int(2));
        assert_eq!(reg.names(), vec!["f".to_string()]);
    }
}

//! User-defined scalar functions with optional result caching.
//!
//! Conversion functions are the hot path of MTBase query execution; the paper
//! distinguishes DBMSs that cache results of deterministic (`IMMUTABLE`) UDFs
//! (PostgreSQL) from ones that cannot (the commercial "System C"). The
//! registry reproduces both behaviours behind a configuration flag and
//! charges every invocation to the calling statement's [`StmtCtx`], so
//! experiments can report the analytic effect of each optimization.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::{err, Result};
use crate::stats::StmtCtx;
use crate::value::Value;

/// Signature of a native scalar UDF implementation.
pub type UdfImpl = Arc<dyn Fn(&[Value]) -> Result<Value> + Send + Sync>;

/// A registered UDF.
#[derive(Clone)]
pub struct Udf {
    /// Function name (case-insensitive lookup).
    pub name: String,
    /// Whether the function is deterministic (`IMMUTABLE`), which permits
    /// result caching when the engine is configured to do so.
    pub immutable: bool,
    /// Native implementation.
    pub implementation: UdfImpl,
}

/// A resolved UDF: the registry slot a bound call site invokes without a
/// name lookup. Slots are append-only (re-registering a name replaces the
/// function in place), so a handle held by a cached plan stays valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdfHandle(usize);

/// One registry slot: the function plus its own immutable-result cache,
/// keyed by the argument values alone.
struct Slot {
    udf: Udf,
    cache: RwLock<HashMap<Vec<Value>, Value>>,
}

/// Registry of UDFs plus the immutable-result caches.
pub struct UdfRegistry {
    slots: Vec<Slot>,
    /// Lower-cased name → slot.
    by_name: HashMap<String, usize>,
    cache_enabled: bool,
}

impl UdfRegistry {
    /// Create a registry; `cache_enabled` models PostgreSQL-style caching of
    /// deterministic function results (disable it to model "System C").
    pub fn new(cache_enabled: bool) -> Self {
        UdfRegistry {
            slots: Vec::new(),
            by_name: HashMap::new(),
            cache_enabled,
        }
    }

    /// Register (or replace) a UDF.
    pub fn register(&mut self, name: impl Into<String>, immutable: bool, implementation: UdfImpl) {
        let name = name.into();
        let key = name.to_ascii_lowercase();
        let slot = Slot {
            udf: Udf {
                name,
                immutable,
                implementation,
            },
            cache: RwLock::new(HashMap::new()),
        };
        match self.by_name.get(&key) {
            Some(&i) => self.slots[i] = slot,
            None => {
                self.by_name.insert(key, self.slots.len());
                self.slots.push(slot);
            }
        }
    }

    /// Resolve a function name (case-insensitive) to its handle — done once
    /// per call site when a plan is bound.
    pub fn resolve(&self, name: &str) -> Option<UdfHandle> {
        self.by_name
            .get(&name.to_ascii_lowercase())
            .map(|&i| UdfHandle(i))
    }

    /// Is a function with this name registered?
    pub fn contains(&self, name: &str) -> bool {
        self.resolve(name).is_some()
    }

    /// Invoke a resolved UDF, consulting its immutable-result cache when
    /// allowed, and charge `ctx` with the call or the cache hit. A hit
    /// probes with the borrowed arguments (no key is built) under a shared
    /// lock — pool workers hitting the cache do not exclude each other — and
    /// no lock is ever held across the function body.
    pub fn call(&self, handle: UdfHandle, args: &[Value], ctx: &StmtCtx) -> Result<Value> {
        let Some(slot) = self.slots.get(handle.0) else {
            return err(format!("stale UDF handle {}", handle.0));
        };
        if !(self.cache_enabled && slot.udf.immutable) {
            ctx.charge(|s| s.udf_calls += 1);
            return (slot.udf.implementation)(args);
        }
        if let Some(hit) = slot.cache.read().get(args) {
            ctx.charge(|s| s.udf_cache_hits += 1);
            return Ok(hit.clone());
        }
        ctx.charge(|s| s.udf_calls += 1);
        let result = (slot.udf.implementation)(args)?;
        slot.cache.write().insert(args.to_vec(), result.clone());
        Ok(result)
    }

    /// Resolve and invoke in one step (the middleware's write-path
    /// conversions).
    pub fn call_by_name(&self, name: &str, args: &[Value], ctx: &StmtCtx) -> Result<Value> {
        match self.resolve(name) {
            Some(handle) => self.call(handle, args, ctx),
            None => err(format!("unknown function `{name}`")),
        }
    }

    /// Clear the immutable-result caches (call between measured query runs).
    pub fn clear_cache(&self) {
        for slot in &self.slots {
            slot.cache.write().clear();
        }
    }

    /// Whether immutable-result caching is enabled.
    pub fn cache_enabled(&self) -> bool {
        self.cache_enabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn make_counting_udf(counter: Arc<AtomicUsize>) -> UdfImpl {
        Arc::new(move |args: &[Value]| {
            counter.fetch_add(1, Ordering::SeqCst);
            args[0].mul(&Value::Float(2.0))
        })
    }

    #[test]
    fn call_dispatches_and_counts() {
        let mut reg = UdfRegistry::new(false);
        let hits = Arc::new(AtomicUsize::new(0));
        reg.register("double", true, make_counting_udf(hits.clone()));
        let ctx = StmtCtx::new();
        let v = reg.call_by_name("DOUBLE", &[Value::Int(21)], &ctx).unwrap();
        assert_eq!(v, Value::Float(42.0));
        assert_eq!(ctx.stats().udf_calls, 1);
        assert_eq!(ctx.stats().udf_cache_hits, 0);
    }

    #[test]
    fn handles_survive_later_registrations_and_replacement() {
        let mut reg = UdfRegistry::new(true);
        let ctx = StmtCtx::new();
        reg.register("first", true, Arc::new(|_: &[Value]| Ok(Value::Int(1))));
        let first = reg.resolve("FIRST").unwrap();
        reg.register("second", true, Arc::new(|_: &[Value]| Ok(Value::Int(2))));
        assert_eq!(reg.call(first, &[], &ctx).unwrap(), Value::Int(1));
        // Re-registering replaces the function (and its cache) in place.
        reg.register("first", true, Arc::new(|_: &[Value]| Ok(Value::Int(10))));
        assert_eq!(reg.resolve("first"), Some(first));
        assert_eq!(reg.call(first, &[], &ctx).unwrap(), Value::Int(10));
        assert!(reg.resolve("third").is_none());
    }

    #[test]
    fn unknown_function_errors() {
        let reg = UdfRegistry::new(false);
        assert!(reg.call_by_name("nope", &[], &StmtCtx::new()).is_err());
    }

    #[test]
    fn immutable_results_are_cached_when_enabled() {
        let mut reg = UdfRegistry::new(true);
        let executions = Arc::new(AtomicUsize::new(0));
        reg.register("double", true, make_counting_udf(executions.clone()));
        let ctx = StmtCtx::new();
        for _ in 0..5 {
            reg.call_by_name("double", &[Value::Int(3)], &ctx).unwrap();
        }
        assert_eq!(executions.load(Ordering::SeqCst), 1);
        let stats = ctx.stats();
        assert_eq!(stats.udf_calls, 1);
        assert_eq!(stats.udf_cache_hits, 4);
    }

    #[test]
    fn caching_disabled_reexecutes_every_time() {
        let mut reg = UdfRegistry::new(false);
        let executions = Arc::new(AtomicUsize::new(0));
        reg.register("double", true, make_counting_udf(executions.clone()));
        let ctx = StmtCtx::new();
        for _ in 0..5 {
            reg.call_by_name("double", &[Value::Int(3)], &ctx).unwrap();
        }
        assert_eq!(executions.load(Ordering::SeqCst), 5);
        assert_eq!(ctx.stats().udf_cache_hits, 0);
    }

    #[test]
    fn non_immutable_functions_are_never_cached() {
        let mut reg = UdfRegistry::new(true);
        let executions = Arc::new(AtomicUsize::new(0));
        reg.register("volatile_fn", false, make_counting_udf(executions.clone()));
        let ctx = StmtCtx::new();
        for _ in 0..3 {
            reg.call_by_name("volatile_fn", &[Value::Int(3)], &ctx)
                .unwrap();
        }
        assert_eq!(executions.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn clear_cache_reexecutes_the_next_call() {
        let mut reg = UdfRegistry::new(true);
        let executions = Arc::new(AtomicUsize::new(0));
        reg.register("double", true, make_counting_udf(executions.clone()));
        let ctx = StmtCtx::new();
        reg.call_by_name("double", &[Value::Int(3)], &ctx).unwrap();
        reg.clear_cache();
        reg.call_by_name("double", &[Value::Int(3)], &ctx).unwrap();
        assert_eq!(executions.load(Ordering::SeqCst), 2);
        assert_eq!(ctx.stats().udf_calls, 2);
    }
}

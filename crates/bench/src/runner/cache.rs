//! Process-wide memoizing run cache.
//!
//! Many experiments need the *same* workload execution: fig15, fig19,
//! table5 and the sensitivity extension all run precise HotSpot at the
//! same grid size; table5 and fig17/18 share ray-tracer runs; the
//! multiplier study re-runs the precise reference per architecture.
//! This cache keys each execution by a stable string derived from
//! `(benchmark name, params Debug, IhwConfig Debug)` and computes it at
//! most once per process, even when several sweep workers request the
//! same key concurrently (in-flight requests block on a shared
//! [`OnceLock`] cell rather than recomputing).
//!
//! Hit/miss counters feed the `--timings` report so the acceptance
//! criterion "shared baselines compute exactly once" is observable.

use std::any::{Any, TypeId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

type CacheCell = Arc<OnceLock<Arc<dyn Any + Send + Sync>>>;

/// A memoizing map from run key to type-erased result.
///
/// The map key folds in the value's [`TypeId`], so two callers using
/// the same string key for *different* result types get two distinct
/// entries instead of a downcast panic — a string collision can cost a
/// recomputation, never an abort.
#[derive(Default)]
pub struct RunCache {
    // BTreeMap: keyed access only, and the ordered map keeps any future
    // iteration (e.g. the `--timings` entry count) deterministic by key.
    map: Mutex<BTreeMap<(String, TypeId), CacheCell>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl RunCache {
    /// Creates an empty cache (tests use private instances; the harness
    /// uses [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached value for `key`, computing it with `f` on
    /// first request. Concurrent requests for the same key block until
    /// the single in-flight computation finishes, so `f` runs exactly
    /// once per (key, type) per cache lifetime.
    ///
    /// The entry is keyed by `(key, TypeId::of::<T>())`: requesting the
    /// same string key at a different result type is a separate entry,
    /// so the downcast below cannot fail.
    pub fn get_or_compute<T, F>(&self, key: &str, f: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        self.get_or_compute_flagged(key, f).0
    }

    /// [`RunCache::get_or_compute`], additionally reporting whether
    /// *this* call ran the computation (`true`) or was coalesced onto a
    /// cached/in-flight one (`false`). The serve front door uses the
    /// flag to count request-dedup hits per launch — the cache-wide
    /// [`RunCache::hits`] counter can't attribute a hit to a caller.
    pub fn get_or_compute_flagged<T, F>(&self, key: &str, f: F) -> (Arc<T>, bool)
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        let cell = {
            let mut map = self.map.lock();
            Arc::clone(map.entry((key.to_owned(), TypeId::of::<T>())).or_default())
        };
        let mut computed = false;
        let value = cell.get_or_init(|| {
            computed = true;
            Arc::new(f()) as Arc<dyn Any + Send + Sync>
        });
        if computed {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        debug_assert!(
            value.is::<T>(),
            "run-cache entry for key `{key}` holds a foreign type despite TypeId keying"
        );
        let value = Arc::clone(value)
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("run-cache type mismatch for key `{key}`"));
        (value, computed)
    }

    /// Number of requests served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of requests that triggered a computation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct keys currently cached.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries and zeroes the counters (used between the
    /// serial and parallel passes of the determinism test).
    pub fn clear(&self) {
        self.map.lock().clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// The process-wide cache used by the experiment harness.
pub fn global() -> &'static RunCache {
    static GLOBAL: OnceLock<RunCache> = OnceLock::new();
    GLOBAL.get_or_init(RunCache::new)
}

/// Builds the canonical cache key for one workload execution.
///
/// `params` and `cfg` are rendered through `Debug`, which every params
/// struct and `IhwConfig` derive; the rendering covers every field, so
/// two executions share a key exactly when they are the same benchmark
/// with identical params under an identical hardware configuration.
pub fn run_key(
    benchmark: &str,
    params: &impl std::fmt::Debug,
    cfg: &impl std::fmt::Debug,
) -> String {
    format!("{benchmark}|{params:?}|{cfg:?}")
}

/// FNV-1a hash of a key, exposed for compact display in reports.
pub fn stable_hash(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn hit_miss_accounting() {
        let cache = RunCache::new();
        let calls = AtomicUsize::new(0);
        let compute = || {
            calls.fetch_add(1, Ordering::SeqCst);
            41 + 1
        };
        let a: Arc<i32> = cache.get_or_compute("k", compute);
        let b: Arc<i32> = cache.get_or_compute("k", compute);
        assert_eq!((*a, *b), (42, 42));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        let _c: Arc<i32> = cache.get_or_compute("k2", || 7);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 2, 2));
        cache.clear();
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 0, 0));
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_requests_compute_once() {
        // Spawns threads directly (not via sweep) to avoid touching the
        // process-global jobs budget from a parallel test.
        let cache = RunCache::new();
        let calls = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..4 {
                        let v: Arc<u32> = cache.get_or_compute("shared", || {
                            calls.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(5));
                            123
                        });
                        assert_eq!(*v, 123);
                    }
                });
            }
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 31);
    }

    #[test]
    fn same_string_key_at_two_types_is_two_entries_not_a_panic() {
        // Regression: this used to abort with "run-cache type mismatch
        // for key `shared`" — the string key alone selected the cell,
        // and the second type's downcast failed. TypeId keying makes
        // the collision two independent entries.
        let cache = RunCache::new();
        let as_int: Arc<i64> = cache.get_or_compute("shared", || 7);
        let as_string: Arc<String> = cache.get_or_compute("shared", || "seven".to_owned());
        assert_eq!(*as_int, 7);
        assert_eq!(*as_string, "seven");
        assert_eq!(cache.len(), 2, "one entry per (key, type)");
        assert_eq!(cache.misses(), 2);
        // Both entries stay warm and both still hit.
        let again_int: Arc<i64> = cache.get_or_compute("shared", || unreachable!());
        let again_string: Arc<String> = cache.get_or_compute("shared", || unreachable!());
        assert_eq!(*again_int, 7);
        assert_eq!(*again_string, "seven");
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn run_key_distinguishes_all_components() {
        let k1 = run_key("hotspot", &(64, 8), &"cfg-a");
        let k2 = run_key("hotspot", &(64, 8), &"cfg-b");
        let k3 = run_key("hotspot", &(64, 9), &"cfg-a");
        let k4 = run_key("srad", &(64, 8), &"cfg-a");
        let keys = [&k1, &k2, &k3, &k4];
        for (i, a) in keys.iter().enumerate() {
            for b in keys.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        assert_ne!(stable_hash(&k1), stable_hash(&k2));
    }
}

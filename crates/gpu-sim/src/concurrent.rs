//! Concurrent launch surface: a [`SharedInterpreter`] that many
//! tenants (threads) drive at once.
//!
//! A multi-tenant front door (`repro serve`) needs many request
//! threads over one long-lived interpreter whose plan cache stays warm
//! across requests with *different* configs. [`SharedInterpreter`]
//! wraps the `&self` launch core behind
//! [`crate::isa::WarpInterpreter`], so launches run in parallel, and
//! keeps everything launch-scoped in the launch:
//!
//! * the datapath config travels **with the request** — each launch
//!   names its own [`IhwConfig`] and runs on a fresh [`FpCtx`] over it,
//!   so the returned [`crate::isa::LaunchStats`] and counters describe
//!   exactly one request;
//! * the plan cache is the one shared mutable structure, keyed on
//!   `(program, config)`: its lock covers a lookup and a miss's
//!   compile, never a lane loop, and concurrent cold launches of one
//!   plan compile it once;
//! * a panicking launch is contained: the panic is caught and the
//!   caller gets [`LaunchError::Panicked`]. A launch owns nothing
//!   another launch reads except the plan cache, which stays
//!   consistent through a panic, so one faulting request never takes a
//!   sibling tenant (or the process) down.
//!
//! Determinism carries over unchanged: every launch starts from a
//! fresh context, plans are pure functions of `(program, config)`, and
//! the compiled engine is bit-identical to the interpreted reference at
//! any worker count — so any interleaving of requests produces
//! byte-identical per-request outputs to running them sequentially
//! (asserted by `ihw-bench`'s serve concurrency tests).

use crate::dispatch::FpCtx;
use crate::isa::{ExecError, LaunchCore, LaunchStats, Program, WarpInterpreter};
use crate::plan::PlanCacheStats;
use ihw_core::config::IhwConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Why a concurrent launch failed, per request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// The kernel reported a memory fault (unknown buffer or
    /// out-of-bounds access); the returned buffers may be partially
    /// written, identically so on any execution path.
    Exec(ExecError),
    /// The launch panicked inside the engine; the payload is rendered
    /// to text. Subsequent launches (and concurrent tenants) are
    /// unaffected.
    Panicked(String),
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::Exec(e) => write!(f, "{e}"),
            LaunchError::Panicked(msg) => write!(f, "launch panicked: {msg}"),
        }
    }
}

/// Everything one concurrent launch produces: the (possibly partially
/// written) buffers, the per-request outcome, and the launch's cost
/// and path-decision stats.
#[derive(Debug, Clone)]
pub struct LaunchOutcome {
    /// The global buffers after the launch, in input order.
    pub buffers: Vec<Vec<f32>>,
    /// `Ok` for a clean launch, or the per-request failure.
    pub result: Result<(), LaunchError>,
    /// Cost-model inputs and path decision of this launch (a panicked
    /// launch reports its cost-model inputs with no path taken).
    pub stats: LaunchStats,
}

/// A thread-safe, long-lived interpreter for multi-tenant launching.
///
/// See the [module docs](self) for the contract.
#[derive(Debug, Default)]
pub struct SharedInterpreter {
    core: LaunchCore,
}

impl SharedInterpreter {
    /// A shared interpreter with [`WarpInterpreter::new`]'s defaults
    /// (sequential, adaptive cutover, compiled engine).
    pub fn new() -> Self {
        Self::default()
    }

    /// Shares an already-configured interpreter: its engine, cutover,
    /// worker budget and plan cache (capacity and warm plans). Its
    /// config and counters are dropped — every launch names its own
    /// config and gets fresh counters.
    pub fn from_interpreter(sim: WarpInterpreter) -> Self {
        SharedInterpreter {
            core: sim.into_core(),
        }
    }

    /// Snapshot of the shared plan cache's hit/miss/eviction counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.core.plan_cache_stats()
    }

    /// Runs `threads` threads of `prog` under `cfg` over `buffers`,
    /// returning the written buffers plus per-request stats. Safe to
    /// call from any number of threads; launches run in parallel, each
    /// on its own fresh context.
    pub fn launch(
        &self,
        prog: &Program,
        cfg: &IhwConfig,
        threads: u32,
        mut buffers: Vec<Vec<f32>>,
    ) -> LaunchOutcome {
        let mut ctx = FpCtx::new(*cfg);
        let run = catch_unwind(AssertUnwindSafe(|| {
            self.core.launch(&mut ctx, prog, threads, &mut buffers)
        }));
        let (stats, result) = match run {
            Ok((stats, result)) => (stats, result.map_err(LaunchError::Exec)),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic payload>".to_owned());
                let stats = self.core.price(prog, threads);
                (stats, Err(LaunchError::Panicked(msg)))
            }
        };
        LaunchOutcome {
            buffers,
            result,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;
    use std::sync::Arc;

    fn seed(prog: &Program, threads: u32) -> Vec<Vec<f32>> {
        let fps = crate::deps::footprints(prog);
        let n_bufs = fps.keys().max().map_or(0, |b| b + 1);
        (0..n_bufs)
            .map(|b| {
                let len = fps.get(&b).map_or(0, |fp| fp.required_len(threads));
                (0..len)
                    .map(|i| 0.5 + ((i * 37 + b * 11) % 512) as f32 / 1024.0)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn per_request_configs_share_one_plan_cache() {
        let sim = SharedInterpreter::new();
        let prog = programs::saxpy(2.0);
        let bufs = seed(&prog, 64);
        let precise = sim.launch(&prog, &IhwConfig::precise(), 64, bufs.clone());
        let imprecise = sim.launch(&prog, &IhwConfig::all_imprecise(), 64, bufs.clone());
        assert!(precise.result.is_ok() && imprecise.result.is_ok());
        assert_ne!(
            precise.buffers, imprecise.buffers,
            "configs actually differ"
        );
        // Re-launching either config is a plan-cache hit, not a rebuild.
        let before = sim.plan_cache_stats();
        let precise2 = sim.launch(&prog, &IhwConfig::precise(), 64, bufs);
        assert_eq!(precise.buffers, precise2.buffers, "bit-identical replay");
        let after = sim.plan_cache_stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn interleaved_tenants_match_sequential_execution() {
        let prog = programs::distance();
        let threads = 128u32;
        let configs = [
            IhwConfig::precise(),
            IhwConfig::all_imprecise(),
            IhwConfig::ray_basic(),
        ];
        // Sequential reference: one interpreter, one launch at a time.
        let reference: Vec<Vec<Vec<f32>>> = configs
            .iter()
            .map(|cfg| {
                let sim = SharedInterpreter::new();
                sim.launch(&prog, cfg, threads, seed(&prog, threads))
                    .buffers
            })
            .collect();
        // Concurrent: three tenants hammer one shared interpreter.
        let sim = Arc::new(SharedInterpreter::new());
        let handles: Vec<_> = configs
            .iter()
            .map(|cfg| {
                let sim = Arc::clone(&sim);
                let prog = prog.clone();
                let cfg = *cfg;
                std::thread::spawn(move || {
                    (0..4)
                        .map(|_| {
                            sim.launch(&prog, &cfg, threads, seed(&prog, threads))
                                .buffers
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (tenant, handle) in handles.into_iter().enumerate() {
            for got in handle.join().expect("tenant thread") {
                assert_eq!(
                    got, reference[tenant],
                    "tenant {tenant} interleaved output equals sequential"
                );
            }
        }
    }

    #[test]
    fn exec_errors_stay_per_request() {
        let sim = SharedInterpreter::new();
        let prog = programs::saxpy(2.0);
        // Too-short buffers fault...
        let short: Vec<Vec<f32>> = seed(&prog, 64)
            .into_iter()
            .map(|b| b[..4].to_vec())
            .collect();
        let bad = sim.launch(&prog, &IhwConfig::precise(), 64, short);
        assert!(matches!(bad.result, Err(LaunchError::Exec(_))));
        // ...and the very next request on the same interpreter is clean.
        let good = sim.launch(&prog, &IhwConfig::precise(), 64, seed(&prog, 64));
        assert!(good.result.is_ok());
        assert_eq!(good.stats.threads, 64);
    }
}

//! `repro serve` — a batched multi-tenant launch service over the
//! simulator stack, plus its throughput/latency benchmark
//! (`BENCH_serve.json`, schema `ihw-serve/1`).
//!
//! The [`LaunchService`] is the front door ROADMAP item 2 asks for:
//! tenants submit [`LaunchRequest`]s (program + [`IhwConfig`] + input
//! buffers) from any number of threads and get back the written
//! buffers, the per-launch [`gpu_sim::isa::LaunchStats`], and the
//! static error-bound metadata `ihw-analyze` derives for the request's
//! `(program, config)` pair. Four mechanisms stack up behind
//! [`LaunchService::submit`]:
//!
//! * **Admission control** — the op-denominated cost model of the
//!   adaptive cutover (`instructions × threads`) prices every request
//!   *before* it runs; anything above the service's `max_ops` budget is
//!   rejected with the estimate, not executed.
//! * **Request coalescing** — the run-cache key (program fingerprint ×
//!   typed config × threads × input-buffer bits) routes identical
//!   requests to one [`crate::runner::cache::RunCache`] cell; while one
//!   tenant's execution is in flight, coalesced tenants block on the
//!   cell and then share the *same* `Arc`'d outcome (the reply says
//!   whether it was coalesced, and the stats count dedup hits).
//! * **Execution** — through [`gpu_sim::concurrent::SharedInterpreter`]
//!   on the compiled engine: distinct requests launch in parallel, each
//!   on a fresh per-request context under its own config, over one
//!   shared LRU-bounded plan cache that stays warm across configs; a
//!   launch fans its threads across the persistent `ihw-pool` when the
//!   worker budget and the racecheck proof allow it.
//! * **Fault isolation** — a request that faults (memory error) or
//!   panics fails alone: the error is stored in *its* outcome, sibling
//!   tenants and subsequent requests are untouched (the pool's
//!   `try_sweep_with` and the shared interpreter's panic containment
//!   make this hold end to end).
//!
//! The benchmark ([`run_serve`]) replays the same deterministic
//! multi-tenant request mix against a fresh service at every worker
//! budget `1..=N` and records requests/sec, p50/p99 latency, dedup
//! hits and plan-cache counters per row — with the racebench honesty
//! gates: responses must be byte-identical across worker counts, and a
//! multi-tenant mix must actually coalesce.
//!
//! Timing goes through [`Stopwatch`] — the workspace's single
//! sanctioned wall-clock read (`ihw-lint` rule L003) — so this module
//! must live in `ihw-bench` next to the timing report.

use crate::racebench::{host_parallelism, seed_buffers};
use crate::runner::cache::RunCache;
use crate::runner::report::Stopwatch;
use gpu_sim::concurrent::SharedInterpreter;
use gpu_sim::isa::{LaunchStats, Program, WarpInterpreter};
use gpu_sim::plan::{fingerprint, PlanCacheStats};
use ihw_analyze::{analyze_program, AnalysisSettings, KernelAnalysis};
use ihw_core::config::IhwConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default output filename (workspace root, committed as a perf record).
pub const BENCH_FILE: &str = "BENCH_serve.json";

/// Schema tag of the benchmark JSON document.
pub const SCHEMA: &str = "ihw-serve/1";

/// Default concurrent tenants in the benchmark mix.
pub const DEFAULT_TENANTS: usize = 4;

/// Default requests per tenant in the benchmark mix.
pub const DEFAULT_REQUESTS: usize = 24;

/// Default top of the worker-budget ladder before clamping to the
/// host (same convention as the racebench: explicit `--workers` is
/// honoured verbatim).
pub const DEFAULT_MAX_WORKERS: usize = 4;

/// Default threads per launch in the benchmark mix.
pub const DEFAULT_THREADS: u32 = 4096;

/// Default admission budget in estimated ops (instructions × threads)
/// per request.
pub const DEFAULT_MAX_OPS: u64 = 1 << 22;

/// One tenant's kernel-launch request.
#[derive(Debug, Clone)]
pub struct LaunchRequest {
    /// The kernel to run.
    pub program: Program,
    /// The datapath configuration to run it under — per request, which
    /// is the whole point of accuracy-configurable hardware.
    pub config: IhwConfig,
    /// Human label for the config (bound-report metadata only; the
    /// typed config itself is what keys caches).
    pub config_label: String,
    /// Threads to launch.
    pub threads: u32,
    /// Input global buffers (request payload).
    pub buffers: Vec<Vec<f32>>,
}

/// The op-denominated admission estimate of launching `threads`
/// threads of `program`: instructions × threads, the same denomination
/// the adaptive cutover prices launches in.
pub fn est_ops(program: &Program, threads: u32) -> u64 {
    program.instrs().len() as u64 * u64::from(threads)
}

impl LaunchRequest {
    /// The request's admission estimate ([`est_ops`]).
    pub fn est_ops(&self) -> u64 {
        est_ops(&self.program, self.threads)
    }
}

/// The run-cache key of a request: program fingerprint, the typed
/// config, the thread count and an FNV-1a fold of the input-buffer bit
/// patterns. Two requests coalesce exactly when every one of those
/// matches — same kernel, same hardware config, same payload.
pub fn request_key(req: &LaunchRequest) -> String {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for buf in &req.buffers {
        fold(&(buf.len() as u64).to_le_bytes());
        for x in buf {
            fold(&x.to_bits().to_le_bytes());
        }
    }
    format!(
        "serve|{:016x}|{:?}|{}|{h:016x}",
        fingerprint(&req.program),
        req.config,
        req.threads
    )
}

/// Static error-bound metadata for one output buffer of a served
/// request, straight from the `ihw-analyze` abstract interpreter.
#[derive(Debug, Clone)]
pub struct BoundMeta {
    /// Global buffer index the bound covers.
    pub buffer: usize,
    /// Sound relative-error bound (`+∞` = unbounded cancellation).
    pub bound: f64,
    /// Which abstract domain produced the bound (`interval`/`affine`).
    pub domain: String,
}

/// Everything a served request streams back to its tenant.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The written global buffers (possibly partially written when
    /// `error` is set — identically so on any execution path).
    pub buffers: Vec<Vec<f32>>,
    /// Cost-model inputs and path decision of the launch.
    pub stats: LaunchStats,
    /// `Some` when the launch faulted or panicked; the failure stays
    /// confined to this outcome.
    pub error: Option<String>,
    /// Per-output static error bounds for the request's
    /// `(program, config)` pair.
    pub bounds: Vec<BoundMeta>,
}

/// The service's reply to one [`LaunchService::submit`].
#[derive(Debug, Clone)]
pub enum ServeReply {
    /// Admission control refused the request before execution.
    Rejected {
        /// The request's op-denominated cost estimate.
        est_ops: u64,
        /// The service's admission budget it exceeded.
        max_ops: u64,
    },
    /// The request was served (executed or coalesced).
    Served {
        /// The shared outcome — coalesced tenants receive the *same*
        /// `Arc` as the tenant whose submission executed.
        outcome: Arc<ServeOutcome>,
        /// Whether this submission rode an identical executed (or
        /// in-flight) request instead of running itself.
        coalesced: bool,
    },
}

/// Cumulative service counters (one snapshot per benchmark row).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests that actually executed a launch.
    pub executed: u64,
    /// Requests coalesced onto an identical executed/in-flight one.
    pub dedup_hits: u64,
    /// Requests refused by admission control.
    pub rejected: u64,
    /// Executed requests whose launch faulted or panicked.
    pub faulted: u64,
}

/// The batched multi-tenant launch service. See the
/// [module docs](self) for the architecture.
pub struct LaunchService {
    sim: SharedInterpreter,
    cache: RunCache,
    max_ops: u64,
    submitted: AtomicU64,
    executed: AtomicU64,
    dedup_hits: AtomicU64,
    rejected: AtomicU64,
    faulted: AtomicU64,
}

impl LaunchService {
    /// Builds a service over a fresh shared interpreter (compiled
    /// engine, adaptive cutover) with the given per-launch worker
    /// budget (min 1) and admission budget in estimated ops (min 1).
    pub fn new(workers: usize, max_ops: u64) -> Self {
        let sim = WarpInterpreter::new(IhwConfig::precise()).with_workers(workers.max(1));
        LaunchService {
            sim: SharedInterpreter::from_interpreter(sim),
            cache: RunCache::new(),
            max_ops: max_ops.max(1),
            submitted: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            faulted: AtomicU64::new(0),
        }
    }

    /// The admission budget requests are priced against.
    pub fn max_ops(&self) -> u64 {
        self.max_ops
    }

    /// Submits one request: admission control, then dedup-or-execute.
    /// Callable from any number of tenant threads concurrently.
    pub fn submit(&self, req: &LaunchRequest) -> ServeReply {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let est_ops = req.est_ops();
        if est_ops > self.max_ops {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return ServeReply::Rejected {
                est_ops,
                max_ops: self.max_ops,
            };
        }
        let key = request_key(req);
        let (outcome, executed_here) = self
            .cache
            .get_or_compute_flagged(&key, || self.execute(req));
        if executed_here {
            self.executed.fetch_add(1, Ordering::Relaxed);
            if outcome.error.is_some() {
                self.faulted.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            self.dedup_hits.fetch_add(1, Ordering::Relaxed);
        }
        ServeReply::Served {
            outcome,
            coalesced: !executed_here,
        }
    }

    /// Runs the launch and assembles the outcome (exactly once per
    /// distinct request key; coalesced tenants never reach this).
    fn execute(&self, req: &LaunchRequest) -> ServeOutcome {
        let launch = self
            .sim
            .launch(&req.program, &req.config, req.threads, req.buffers.clone());
        ServeOutcome {
            buffers: launch.buffers,
            stats: launch.stats,
            error: launch.result.err().map(|e| e.to_string()),
            bounds: self.bounds_for(req),
        }
    }

    /// Static per-output error bounds for the request's
    /// `(program, config)`, memoized independently of the payload — a
    /// thousand requests with different buffers share one analysis.
    fn bounds_for(&self, req: &LaunchRequest) -> Vec<BoundMeta> {
        let key = format!("bounds|{:016x}|{:?}", fingerprint(&req.program), req.config);
        let analysis: Arc<KernelAnalysis> = self.cache.get_or_compute(&key, || {
            analyze_program(
                &req.program,
                &req.config,
                &req.config_label,
                &AnalysisSettings::default(),
            )
        });
        analysis
            .outputs
            .iter()
            .map(|o| BoundMeta {
                buffer: o.buffer,
                bound: o.bound,
                domain: o.domain.label().to_string(),
            })
            .collect()
    }

    /// Snapshot of the service counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            faulted: self.faulted.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the shared interpreter's plan-cache counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.sim.plan_cache_stats()
    }
}

/// The deterministic multi-tenant benchmark mix: per tenant, `requests`
/// launches cycling through the stock kernels × stock configs. Every
/// fifth request carries a tenant-private payload (one input element
/// depends on the tenant index) and therefore cannot coalesce; the rest
/// are identical across tenants and *should* — that ratio is what the
/// dedup-hit honesty gate checks.
///
/// Requests are priced before their payloads are built: one whose
/// estimate exceeds `max_ops` carries no buffers, since admission
/// control refuses it on its price alone.
pub fn stock_requests(
    tenants: usize,
    requests: usize,
    threads: u32,
    max_ops: u64,
) -> Vec<Vec<LaunchRequest>> {
    let kernels = ihw_analyze::stock_kernels();
    let configs = ihw_analyze::stock_configs();
    (0..tenants)
        .map(|tenant| {
            (0..requests)
                .map(|r| {
                    let (label, config) = configs[r % configs.len()];
                    let mut req = LaunchRequest {
                        program: kernels[r % kernels.len()].clone(),
                        config,
                        config_label: label.to_string(),
                        threads,
                        buffers: Vec::new(),
                    };
                    if req.est_ops() <= max_ops {
                        req.buffers = seed_buffers(&req.program, threads);
                        if r % 5 == 0 {
                            if let Some(x) = req.buffers.first_mut().and_then(|b| b.first_mut()) {
                                *x = 0.5 + (tenant as f32 + 1.0) / 1024.0;
                            }
                        }
                    }
                    req
                })
                .collect()
        })
        .collect()
}

/// One worker-budget row of the benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRow {
    /// Per-launch worker budget of this row's service.
    pub workers: usize,
    /// Requests submitted across all tenants.
    pub submitted: u64,
    /// Requests that executed a launch.
    pub executed: u64,
    /// Requests coalesced onto an identical one.
    pub dedup_hits: u64,
    /// Requests refused by admission control.
    pub rejected: u64,
    /// Executed requests that faulted.
    pub faulted: u64,
    /// Wall-clock seconds for the whole mix.
    pub seconds: f64,
    /// Served requests per second.
    pub rps: f64,
    /// Median per-request latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-request latency in milliseconds.
    pub p99_ms: f64,
    /// Plan-cache hits of this row's interpreter.
    pub plan_hits: u64,
    /// Plan-cache misses (compiles) of this row's interpreter.
    pub plan_misses: u64,
    /// Plan-cache LRU evictions of this row's interpreter.
    pub plan_evictions: u64,
    /// Whether every response matched the 1-worker row bit-for-bit.
    pub bit_identical: bool,
}

/// The full benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Threads per launch.
    pub threads: u32,
    /// Concurrent tenants.
    pub tenants: usize,
    /// Requests per tenant.
    pub requests_per_tenant: usize,
    /// Admission budget in estimated ops.
    pub max_ops: u64,
    /// Top of the measured worker-budget ladder.
    pub max_workers: usize,
    /// Whether the default ladder top was reduced to the host's
    /// `available_parallelism()` (never true when `--workers` is
    /// explicit — an override is honoured verbatim; same semantics as
    /// the racebench record).
    pub workers_clamped: bool,
    /// `std::thread::available_parallelism()` of the measuring host.
    pub host_parallelism: usize,
    /// One row per worker budget `1..=max_workers`.
    pub rows: Vec<ServeRow>,
}

/// Bit patterns of one reply's written buffers (`None` = rejected):
/// what the cross-worker-budget identity gate compares.
type ResponseBits = Option<Vec<Vec<u32>>>;

/// Per-tenant, per-request response bits of one benchmark row.
type TenantResponses = Vec<Vec<ResponseBits>>;

/// Latency percentile over an unsorted sample, in milliseconds.
fn percentile_ms(sorted_seconds: &[f64], q: f64) -> f64 {
    if sorted_seconds.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_seconds.len() - 1) as f64 * q).round() as usize;
    sorted_seconds[idx] * 1e3
}

/// Replays the deterministic mix against a fresh [`LaunchService`] at
/// every worker budget `1..=max_workers`, each with `tenants`
/// submitter threads running their request streams concurrently.
/// Responses are checked bit-for-bit against the 1-worker row.
pub fn run_serve(
    threads: u32,
    tenants: usize,
    requests: usize,
    max_workers: usize,
    max_ops: u64,
) -> ServeReport {
    let tenants = tenants.max(1);
    let requests = requests.max(1);
    let max_workers = max_workers.max(1);
    let mut rows = Vec::new();
    // Per tenant, per request: the response buffers as bit patterns
    // (None for rejected requests) from the 1-worker reference row.
    let mut reference: Option<TenantResponses> = None;
    for workers in 1..=max_workers {
        let service = Arc::new(LaunchService::new(workers, max_ops));
        let mix = stock_requests(tenants, requests, threads, max_ops);
        let sw = Stopwatch::start();
        let handles: Vec<_> = mix
            .into_iter()
            .map(|tenant_reqs| {
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    tenant_reqs
                        .iter()
                        .map(|req| {
                            let sw = Stopwatch::start();
                            let reply = service.submit(req);
                            let latency = sw.elapsed_seconds();
                            let bits = match &reply {
                                ServeReply::Rejected { .. } => None,
                                ServeReply::Served { outcome, .. } => Some(
                                    outcome
                                        .buffers
                                        .iter()
                                        .map(|b| b.iter().map(|x| x.to_bits()).collect())
                                        .collect::<Vec<Vec<u32>>>(),
                                ),
                            };
                            (latency, bits)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let per_tenant: Vec<Vec<(f64, ResponseBits)>> = handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread"))
            .collect();
        let seconds = sw.elapsed_seconds();

        let mut latencies: Vec<f64> = per_tenant
            .iter()
            .flat_map(|t| t.iter().map(|(l, _)| *l))
            .collect();
        latencies.sort_by(f64::total_cmp);
        let responses: TenantResponses = per_tenant
            .into_iter()
            .map(|t| t.into_iter().map(|(_, bits)| bits).collect())
            .collect();
        let bit_identical = match &reference {
            None => {
                reference = Some(responses);
                true
            }
            Some(reference) => *reference == responses,
        };

        let stats = service.stats();
        let plan = service.plan_cache_stats();
        rows.push(ServeRow {
            workers,
            submitted: stats.submitted,
            executed: stats.executed,
            dedup_hits: stats.dedup_hits,
            rejected: stats.rejected,
            faulted: stats.faulted,
            seconds,
            rps: stats.submitted as f64 / seconds.max(1e-9),
            p50_ms: percentile_ms(&latencies, 0.50),
            p99_ms: percentile_ms(&latencies, 0.99),
            plan_hits: plan.hits,
            plan_misses: plan.misses,
            plan_evictions: plan.evictions,
            bit_identical,
        });
    }
    ServeReport {
        threads,
        tenants,
        requests_per_tenant: requests,
        max_ops,
        max_workers,
        workers_clamped: false,
        host_parallelism: host_parallelism(),
        rows,
    }
}

impl ServeReport {
    /// Aligned human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== serve: {} tenants × {} requests, {} threads/launch, workers 1..={}{}, \
             max-ops {}, host parallelism {} ==\n",
            self.tenants,
            self.requests_per_tenant,
            self.threads,
            self.max_workers,
            if self.workers_clamped {
                " (clamped to host)"
            } else {
                ""
            },
            self.max_ops,
            self.host_parallelism,
        ));
        out.push_str(&format!(
            "{:>7} {:>9} {:>9} {:>9} {:>8} {:>7} {:>10} {:>10} {:>9} {:>9} {:>9}\n",
            "workers",
            "submitted",
            "executed",
            "dedup",
            "rejected",
            "faults",
            "seconds",
            "req/s",
            "p50 (ms)",
            "p99 (ms)",
            "bitexact"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:>7} {:>9} {:>9} {:>9} {:>8} {:>7} {:>10.4} {:>10.1} {:>9.3} {:>9.3} {:>9}\n",
                r.workers,
                r.submitted,
                r.executed,
                r.dedup_hits,
                r.rejected,
                r.faulted,
                r.seconds,
                r.rps,
                r.p50_ms,
                r.p99_ms,
                if r.bit_identical { "yes" } else { "NO" },
            ));
        }
        out
    }

    /// Stable JSON document (hand-rolled; the workspace `serde` shim is
    /// marker-only).
    pub fn to_json(&self) -> String {
        let f = |x: f64| {
            if x.is_finite() {
                format!("{x:.6}")
            } else {
                "0.0".to_owned()
            }
        };
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"tenants\": {},\n", self.tenants));
        out.push_str(&format!(
            "  \"requests_per_tenant\": {},\n",
            self.requests_per_tenant
        ));
        out.push_str(&format!("  \"max_ops\": {},\n", self.max_ops));
        out.push_str(&format!("  \"max_workers\": {},\n", self.max_workers));
        out.push_str(&format!(
            "  \"workers_clamped\": {},\n",
            self.workers_clamped
        ));
        out.push_str(&format!(
            "  \"host_parallelism\": {},\n",
            self.host_parallelism
        ));
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{ \"workers\": {}, \"submitted\": {}, \"executed\": {}, \
                 \"dedup_hits\": {}, \"rejected\": {}, \"faulted\": {}, \
                 \"seconds\": {}, \"rps\": {}, \"p50_ms\": {}, \"p99_ms\": {}, \
                 \"plan_hits\": {}, \"plan_misses\": {}, \"plan_evictions\": {}, \
                 \"bit_identical\": {} }}{comma}\n",
                r.workers,
                r.submitted,
                r.executed,
                r.dedup_hits,
                r.rejected,
                r.faulted,
                f(r.seconds),
                f(r.rps),
                f(r.p50_ms),
                f(r.p99_ms),
                r.plan_hits,
                r.plan_misses,
                r.plan_evictions,
                r.bit_identical,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// CLI for `repro serve`: runs the benchmark mix, prints the table and
/// writes the JSON record. Returns the process exit code — non-zero
/// when any row's coalesced responses are not bit-identical to the
/// 1-worker reference, or when a multi-tenant mix recorded no dedup
/// hits (the coalescing layer regressed).
pub fn run_cli(args: &[String]) -> i32 {
    let mut threads: u32 = DEFAULT_THREADS;
    let mut tenants: usize = DEFAULT_TENANTS;
    let mut requests: usize = DEFAULT_REQUESTS;
    let mut workers: Option<usize> = None;
    let mut max_ops: u64 = DEFAULT_MAX_OPS;
    let mut out_path = std::path::PathBuf::from(BENCH_FILE);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" | "--tenants" | "--requests" | "--workers" | "--max-ops" | "--out" => {
                let Some(value) = it.next() else {
                    eprintln!("{arg} expects a value");
                    return 2;
                };
                // Every count is rejected at 0 with a diagnostic —
                // never silently clamped (the racebench used to clamp
                // `--workers 0` to 1; subcommands now agree).
                let ok = match arg.as_str() {
                    "--threads" => match value.parse::<u32>() {
                        Ok(v) if v >= 1 => {
                            threads = v;
                            true
                        }
                        _ => false,
                    },
                    "--tenants" => match value.parse::<usize>() {
                        Ok(v) if v >= 1 => {
                            tenants = v;
                            true
                        }
                        _ => false,
                    },
                    "--requests" => match value.parse::<usize>() {
                        Ok(v) if v >= 1 => {
                            requests = v;
                            true
                        }
                        _ => false,
                    },
                    "--workers" => match value.parse::<usize>() {
                        Ok(v) if v >= 1 => {
                            workers = Some(v);
                            true
                        }
                        _ => false,
                    },
                    "--max-ops" => match value.parse::<u64>() {
                        Ok(v) if v >= 1 => {
                            max_ops = v;
                            true
                        }
                        _ => false,
                    },
                    _ => {
                        out_path = std::path::PathBuf::from(value);
                        true
                    }
                };
                if !ok {
                    eprintln!("{arg} expects a positive integer, got '{value}'");
                    return 2;
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro serve [--tenants N] [--requests N] [--threads N] \
                     [--workers N] [--max-ops N] [--out FILE]\n\
                     \n\
                     Replays a deterministic multi-tenant request mix against the\n\
                     launch service at every worker budget 1..=N, recording req/s,\n\
                     p50/p99 latency, dedup hits and plan-cache counters per row\n\
                     ({BENCH_FILE}, schema {SCHEMA}).\n\
                     The default ladder top ({DEFAULT_MAX_WORKERS}) is clamped to the host's\n\
                     available parallelism; pass --workers to override the clamp.\n\
                     All counts must be positive — 0 is rejected, not clamped.\n\
                     Exits non-zero when any row's responses diverge from the\n\
                     1-worker reference, or when a multi-tenant mix coalesced\n\
                     nothing."
                );
                return 0;
            }
            other => {
                eprintln!("unknown argument {other}");
                return 2;
            }
        }
    }
    // Price the mix before anything is allocated: when admission would
    // refuse every request there is nothing to measure.
    let kernels = ihw_analyze::stock_kernels();
    let cheapest = kernels
        .iter()
        .take(requests)
        .map(|k| est_ops(k, threads))
        .min()
        .unwrap_or(0);
    if cheapest > max_ops {
        eprintln!(
            "serve: no request is admitted: the cheapest is estimated at {cheapest} ops \
             (instructions × threads), over the --max-ops budget of {max_ops}"
        );
        return 2;
    }
    let host = host_parallelism();
    let (max_workers, workers_clamped) = match workers {
        Some(w) => (w, false),
        None => (
            DEFAULT_MAX_WORKERS.min(host).max(1),
            host < DEFAULT_MAX_WORKERS,
        ),
    };
    let mut report = run_serve(threads, tenants, requests, max_workers, max_ops);
    report.workers_clamped = workers_clamped;
    print!("{}", report.render());
    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("cannot write {}: {e}", out_path.display());
        return 2;
    }
    println!("serve record written to {}", out_path.display());
    if !report.rows.iter().all(|r| r.bit_identical) {
        eprintln!(
            "serve-smoke: coalesced responses diverged across worker budgets — see table above"
        );
        return 1;
    }
    if tenants >= 2 && report.rows.iter().any(|r| r.dedup_hits == 0) {
        eprintln!(
            "serve-smoke: a {tenants}-tenant mix recorded zero dedup hits — \
             request coalescing has regressed"
        );
        return 1;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::programs;

    fn request(threads: u32) -> LaunchRequest {
        let program = programs::saxpy(2.0);
        let buffers = seed_buffers(&program, threads);
        LaunchRequest {
            program,
            config: IhwConfig::all_imprecise(),
            config_label: "all_imprecise".to_string(),
            threads,
            buffers,
        }
    }

    #[test]
    fn admission_control_prices_in_ops() {
        let service = LaunchService::new(1, 100);
        let req = request(64); // 5 instrs × 64 threads = 320 ops > 100
        assert_eq!(req.est_ops(), 320);
        match service.submit(&req) {
            ServeReply::Rejected { est_ops, max_ops } => {
                assert_eq!((est_ops, max_ops), (320, 100));
            }
            ServeReply::Served { .. } => panic!("over-budget request must be rejected"),
        }
        let stats = service.stats();
        assert_eq!((stats.submitted, stats.rejected, stats.executed), (1, 1, 0));
    }

    #[test]
    fn identical_requests_coalesce_to_the_same_arc() {
        let service = LaunchService::new(1, u64::MAX);
        let req = request(64);
        let first = match service.submit(&req) {
            ServeReply::Served { outcome, coalesced } => {
                assert!(!coalesced, "first submission executes");
                outcome
            }
            ServeReply::Rejected { .. } => panic!("admitted"),
        };
        let second = match service.submit(&req) {
            ServeReply::Served { outcome, coalesced } => {
                assert!(coalesced, "identical resubmission coalesces");
                outcome
            }
            ServeReply::Rejected { .. } => panic!("admitted"),
        };
        assert!(
            Arc::ptr_eq(&first, &second),
            "coalesced tenants share one outcome"
        );
        let stats = service.stats();
        assert_eq!((stats.executed, stats.dedup_hits), (1, 1));
        // A different payload is a different request.
        let mut other = request(64);
        other.buffers[0][0] += 0.125;
        match service.submit(&other) {
            ServeReply::Served { coalesced, .. } => assert!(!coalesced),
            ServeReply::Rejected { .. } => panic!("admitted"),
        }
        assert_eq!(service.stats().executed, 2);
    }

    #[test]
    fn outcomes_carry_stats_and_static_bounds() {
        let service = LaunchService::new(1, u64::MAX);
        let req = request(64);
        let ServeReply::Served { outcome, .. } = service.submit(&req) else {
            panic!("admitted");
        };
        assert!(outcome.error.is_none());
        assert_eq!(outcome.stats.threads, 64);
        assert_eq!(outcome.stats.est_ops, req.est_ops());
        assert!(!outcome.bounds.is_empty(), "saxpy has an output bound");
        for b in &outcome.bounds {
            assert!(b.bound.is_finite() && b.bound > 0.0);
            assert!(b.domain == "interval" || b.domain == "affine");
        }
        // Bounds are memoized per (program, config): a payload-different
        // request reuses the analysis cell (2 outcome cells + 1 bounds
        // cell in the run cache).
        let mut other = request(64);
        other.buffers[0][0] += 0.125;
        let ServeReply::Served { outcome: o2, .. } = service.submit(&other) else {
            panic!("admitted");
        };
        assert_eq!(o2.bounds.len(), outcome.bounds.len());
        assert_eq!(service.cache.len(), 3);
    }

    #[test]
    fn faulting_request_fails_alone() {
        let service = LaunchService::new(1, u64::MAX);
        let mut bad = request(64);
        bad.buffers = bad.buffers.iter().map(|b| b[..4].to_vec()).collect();
        let ServeReply::Served { outcome, .. } = service.submit(&bad) else {
            panic!("admitted");
        };
        assert!(outcome.error.is_some(), "short buffers fault");
        // The sibling (and every later) request is untouched.
        let ServeReply::Served { outcome, .. } = service.submit(&request(64)) else {
            panic!("admitted");
        };
        assert!(outcome.error.is_none());
        assert_eq!(service.stats().faulted, 1);
    }

    #[test]
    fn serve_report_is_bit_identical_across_worker_budgets() {
        let report = run_serve(128, 2, 6, 2, u64::MAX);
        assert_eq!(report.rows.len(), 2);
        assert!(report.rows.iter().all(|r| r.bit_identical));
        for r in &report.rows {
            assert_eq!(r.submitted, 2 * 6);
            assert_eq!(r.rejected, 0);
            assert!(r.dedup_hits > 0, "two tenants must coalesce");
            assert_eq!(r.executed + r.dedup_hits, r.submitted);
        }
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"ihw-serve/1\""));
        assert!(json.contains("\"dedup_hits\""));
        assert!(json.contains("\"p99_ms\""));
        assert!(json.contains("\"workers_clamped\": false"));
        assert!(json.contains("\"plan_evictions\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn request_keys_distinguish_all_components() {
        let a = request(64);
        let mut b = a.clone();
        b.threads = 128;
        b.buffers = seed_buffers(&b.program, 128);
        let mut c = a.clone();
        c.config = IhwConfig::precise();
        let mut d = a.clone();
        d.buffers[0][0] += 0.125;
        let e = LaunchRequest {
            program: programs::distance(),
            buffers: seed_buffers(&programs::distance(), 64),
            ..a.clone()
        };
        let keys = [
            request_key(&a),
            request_key(&b),
            request_key(&c),
            request_key(&d),
            request_key(&e),
        ];
        for (i, x) in keys.iter().enumerate() {
            for y in keys.iter().skip(i + 1) {
                assert_ne!(x, y);
            }
        }
        // Label is metadata, not identity.
        let mut f = a.clone();
        f.config_label = "renamed".to_string();
        assert_eq!(request_key(&a), request_key(&f));
    }
}

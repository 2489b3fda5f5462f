//! `serve-distinct` and `serve-coalesced`: closed loops of tenant
//! threads submitting to one `LaunchService`.
//!
//! Each tenant waits for its reply before it sends the next request.
//! Requests cycle over the 4 stock kernels × 5 stock configs.
//!
//! * `serve-distinct`: every request carries its own payload, so every
//!   request is keyed, executed and analysed; thread counts are drawn
//!   3:1 from {4096, 65536}, on both sides of the adaptive cutover. The
//!   service's run cache keeps every distinct outcome for its lifetime,
//!   so the loop runs in rounds of `DISTINCT_ROUND` requests per tenant
//!   and starts each round on a fresh, warmed service; without that the
//!   retained outcomes grow by about 1.3 MB per 65536-thread request.
//!   The request stream repeats every `DISTINCT_CYCLE` rounds: a fresh
//!   service has seen none of it, so every request still executes.
//! * `serve-coalesced`: the 20 (kernel, config) pairs at 4096 threads
//!   with fixed payloads, resubmitted to one long-lived service; after
//!   the warm-up every request is a dedup hit (key, then run-cache
//!   lookup, no execution).
//!
//! Every reply is checked after its round, outside the timed window:
//! buffers bit-for-bit against a sequential launch on the interpreted
//! engine, bound metadata against `analyze_program`. The interpreted
//! launch costs a few times the served one, so each request's reference
//! is computed once per run and kept as a digest.

use crate::rng::{mix, Rng};
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{metric, Ctx, Metric, Run};
use gpu_sim::isa::{ExecEngine, Program, WarpInterpreter};
use ihw_analyze::{analyze_program, AnalysisSettings};
use ihw_bench::runner::report::Stopwatch;
use ihw_bench::serve::{
    request_key, LaunchRequest, LaunchService, ServeOutcome, ServeReply, DEFAULT_MAX_OPS,
};
use ihw_core::config::IhwConfig;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Threads per launch below the adaptive cutover.
pub const SMALL: u32 = 4096;
/// Threads per launch above the adaptive cutover.
pub const LARGE: u32 = 65536;
/// Requests per tenant between service restarts on `serve-distinct`.
const DISTINCT_ROUND: u64 = 128;
/// Rounds after which the `serve-distinct` request stream repeats.
const DISTINCT_CYCLE: u64 = 8;
/// Requests per tenant per timed round on `serve-coalesced`.
const COALESCED_ROUND: u64 = 1024;
/// Stock kernels × stock configs: the plans every service compiles.
pub const PAIRS: usize = 20;

/// One stock (kernel, config) pair.
pub struct Pair {
    pub program: Program,
    pub label: &'static str,
    pub config: IhwConfig,
}

pub fn stock_pairs() -> Vec<Pair> {
    let configs = ihw_analyze::stock_configs();
    ihw_analyze::stock_kernels()
        .into_iter()
        .flat_map(|program| {
            configs.iter().map(move |&(label, config)| Pair {
                program: program.clone(),
                label,
                config,
            })
        })
        .collect()
}

/// Seeded payload in `[0.5, 1)`, shaped like the kernel's footprint at
/// `threads` (the racebench's deterministic input layout).
pub fn payload(program: &Program, threads: u32, rng: &mut Rng) -> Vec<Vec<f32>> {
    let mut buffers = ihw_bench::racebench::seed_buffers(program, threads);
    for x in buffers.iter_mut().flatten() {
        *x = 0.5 + 0.5 * rng.unit_f32();
    }
    buffers
}

fn request(pair: &Pair, threads: u32, buffers: Vec<Vec<f32>>) -> LaunchRequest {
    LaunchRequest {
        program: pair.program.clone(),
        config: pair.config,
        config_label: pair.label.to_string(),
        threads,
        buffers,
    }
}

/// Which request a tenant sent: enough to rebuild it for the check.
#[derive(Clone, Copy)]
struct Ticket {
    tenant: usize,
    index: u64,
    pair: usize,
    threads: u32,
}

struct Reply {
    ticket: Ticket,
    latency: f64,
    reply: ServeReply,
}

/// The request stream of one serve workload; `distinct` selects which.
struct Workload {
    distinct: bool,
    seed: u64,
    tenants: usize,
    pairs: Vec<Pair>,
    /// Per pair: the payload at `SMALL` and at `LARGE` threads.
    templates: Vec<[Vec<Vec<f32>>; 2]>,
    /// The 20 fixed requests (pair order) at `SMALL` threads.
    hot: Vec<LaunchRequest>,
}

impl Workload {
    fn new(distinct: bool, seed: u64, tenants: usize) -> Self {
        let pairs = stock_pairs();
        let mut rng = Rng::new(seed);
        let templates: Vec<[Vec<Vec<f32>>; 2]> = pairs
            .iter()
            .map(|p| {
                [
                    payload(&p.program, SMALL, &mut rng),
                    payload(&p.program, LARGE, &mut rng),
                ]
            })
            .collect();
        let hot = pairs
            .iter()
            .zip(&templates)
            .map(|(p, t)| request(p, SMALL, t[0].clone()))
            .collect();
        Workload {
            distinct,
            seed,
            tenants,
            pairs,
            templates,
            hot,
        }
    }

    fn ticket(&self, tenant: usize, index: u64) -> Ticket {
        let global = index * self.tenants as u64 + tenant as u64;
        let threads = if self.distinct && mix(self.seed, global).is_multiple_of(4) {
            LARGE
        } else {
            SMALL
        };
        Ticket {
            tenant,
            index,
            pair: (global % PAIRS as u64) as usize,
            threads,
        }
    }

    /// The value that makes a distinct request's payload unique: element
    /// 0 of buffer 0 takes one of 2^23 distinct values in `[0.5, 1)`.
    fn unique_value(&self, t: &Ticket) -> f32 {
        let global = t.index * self.tenants as u64 + t.tenant as u64;
        let k = (global + mix(self.seed, u64::MAX)) % (1 << 23);
        0.5 + k as f32 / (1u64 << 24) as f32
    }

    /// The exact request a ticket stands for, built from scratch.
    fn rebuild(&self, t: &Ticket) -> LaunchRequest {
        let slot = usize::from(t.threads == LARGE);
        let mut buffers = self.templates[t.pair][slot].clone();
        if self.distinct {
            buffers[0][0] = self.unique_value(t);
        }
        request(&self.pairs[t.pair], t.threads, buffers)
    }

    /// A tenant's mutable copies of every template it may send.
    fn tenant_requests(&self) -> Vec<LaunchRequest> {
        if !self.distinct {
            return Vec::new();
        }
        self.pairs
            .iter()
            .zip(&self.templates)
            .flat_map(|(p, t)| {
                [
                    request(p, SMALL, t[0].clone()),
                    request(p, LARGE, t[1].clone()),
                ]
            })
            .collect()
    }
}

/// A fresh service with every stock plan compiled and analysed: one
/// request per pair, with the fixed payloads.
fn warm_service(w: &Workload, workers: usize) -> (LaunchService, Vec<Arc<ServeOutcome>>) {
    let service = LaunchService::new(workers, DEFAULT_MAX_OPS);
    let hot = w
        .hot
        .iter()
        .map(|req| match service.submit(req) {
            ServeReply::Served { outcome, .. } => outcome,
            ServeReply::Rejected { est_ops, max_ops } => {
                panic!("stock warm-up request rejected: {est_ops} ops > {max_ops}")
            }
        })
        .collect();
    (service, hot)
}

/// Bound metadata `analyze_program` derives for each pair.
fn expected_bounds(pairs: &[Pair]) -> Vec<Vec<(usize, u64, String)>> {
    pairs
        .iter()
        .map(|p| {
            analyze_program(&p.program, &p.config, p.label, &AnalysisSettings::default())
                .outputs
                .iter()
                .map(|o| (o.buffer, o.bound.to_bits(), o.domain.label().to_string()))
                .collect()
        })
        .collect()
}

/// Digest of the buffers' bits. Every step is a bijection of the
/// running state, so buffers that differ in one element always differ in
/// digest.
fn digest(buffers: &[Vec<f32>]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let step = |h: u64, x: u64| (h.rotate_left(5) ^ x).wrapping_mul(K);
    buffers.iter().fold(0, |h, b| {
        b.iter().fold(step(h, b.len() as u64), |h, x| {
            step(h, u64::from(x.to_bits()))
        })
    })
}

/// Digest of `req` launched sequentially on the interpreted engine.
fn reference(req: &LaunchRequest) -> Result<u64, String> {
    let mut buffers = req.buffers.clone();
    WarpInterpreter::new(req.config)
        .with_engine(ExecEngine::Interpreted)
        .launch(&req.program, req.threads, &mut buffers)
        .map_err(|e| format!("reference launch failed: {e}"))?;
    Ok(digest(&buffers))
}

/// Reference digests of `serve-distinct` requests by (tenant, index),
/// filled as the first cycle of rounds is checked.
type References = Mutex<BTreeMap<(usize, u64), u64>>;

/// Why `outcome` is not the reference result `expected` (a digest), if
/// it is not.
fn mismatch(
    outcome: &ServeOutcome,
    expected: Result<u64, String>,
    bounds: &[(usize, u64, String)],
) -> Option<String> {
    if let Some(e) = &outcome.error {
        return Some(format!("launch failed: {e}"));
    }
    match expected {
        Err(why) => return Some(why),
        Ok(d) if d != digest(&outcome.buffers) => {
            return Some("buffers differ from the interpreted reference".into())
        }
        Ok(_) => {}
    }
    let got: Vec<(usize, u64, String)> = outcome
        .bounds
        .iter()
        .map(|b| (b.buffer, b.bound.to_bits(), b.domain.clone()))
        .collect();
    (got != bounds).then(|| "bound metadata differs from analyze_program".into())
}

/// Why a reply is wrong, if it is. A hot request (`hot` is its warm-up
/// outcome) must coalesce onto that outcome; any other request must
/// execute and match the interpreted reference.
fn verdict(
    w: &Workload,
    ticket: &Ticket,
    reply: &ServeReply,
    hot: Option<&Arc<ServeOutcome>>,
    bounds: &[(usize, u64, String)],
    refs: &References,
) -> Option<String> {
    match (reply, hot) {
        (ServeReply::Rejected { est_ops, max_ops }, _) => {
            Some(format!("rejected: {est_ops} ops > {max_ops}"))
        }
        (ServeReply::Served { outcome, coalesced }, Some(hot)) => (!*coalesced
            || !Arc::ptr_eq(outcome, hot))
        .then(|| "hot request did not coalesce onto its warm-up outcome".into()),
        (
            ServeReply::Served {
                coalesced: true, ..
            },
            None,
        ) => Some("distinct request was coalesced".into()),
        (ServeReply::Served { outcome, .. }, None) => {
            let key = (ticket.tenant, ticket.index);
            let known = refs.lock().expect("reference cache").get(&key).copied();
            let expected = match known {
                Some(d) => Ok(d),
                None => reference(&w.rebuild(ticket)).inspect(|&d| {
                    refs.lock().expect("reference cache").insert(key, d);
                }),
            };
            mismatch(outcome, expected, bounds)
        }
    }
}

/// One timed round, `id`: every tenant sends `per_tenant` requests, from
/// index `first` on, each after the previous reply. Returns the round's
/// wall seconds and the replies.
fn round(
    w: &Workload,
    service: &LaunchService,
    tenant_reqs: &mut [Vec<LaunchRequest>],
    (id, first, per_tenant): (u64, u64, u64),
    tracer: &Tracer,
) -> (f64, Vec<Reply>) {
    tracer.span("workload.round", None, id, |parent| {
        let sw = Stopwatch::start();
        let per: Vec<Vec<Reply>> = std::thread::scope(|s| {
            let handles: Vec<_> = tenant_reqs
                .iter_mut()
                .enumerate()
                .map(|(tenant, own)| {
                    s.spawn(move || {
                        (first..first + per_tenant)
                            .map(|index| {
                                let ticket = w.ticket(tenant, index);
                                let req = if w.distinct {
                                    let slot =
                                        ticket.pair * 2 + usize::from(ticket.threads == LARGE);
                                    own[slot].buffers[0][0] = w.unique_value(&ticket);
                                    &own[slot]
                                } else {
                                    &w.hot[ticket.pair]
                                };
                                let op = (id * per_tenant + index - first) * w.tenants as u64
                                    + tenant as u64;
                                let sw = Stopwatch::start();
                                let reply = tracer
                                    .span("serve.submit", parent, op, |_| service.submit(req));
                                let latency = sw.elapsed_seconds();
                                Reply {
                                    ticket,
                                    latency,
                                    reply,
                                }
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("tenant thread panicked"))
                .collect()
        });
        let wall = sw.elapsed_seconds();
        (wall, per.into_iter().flatten().collect())
    })
}

/// Checks one round's replies; returns how many failed and the first
/// reason.
fn check_round(
    w: &Workload,
    replies: &[Reply],
    hot: &[Arc<ServeOutcome>],
    bounds: &[Vec<(usize, u64, String)>],
    refs: &References,
    nproc: usize,
) -> (u64, Option<String>) {
    let chunk = replies.len().div_ceil(nproc.max(1)).max(1);
    let results: Vec<(u64, Option<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = replies
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut failed = 0;
                    let mut first = None;
                    for r in part {
                        let pair = r.ticket.pair;
                        let hot = (!w.distinct).then(|| &hot[pair]);
                        let why = verdict(w, &r.ticket, &r.reply, hot, &bounds[pair], refs);
                        if let Some(why) = why {
                            failed += 1;
                            first.get_or_insert(format!(
                                "tenant {} request {}: {why}",
                                r.ticket.tenant, r.ticket.index
                            ));
                        }
                    }
                    (failed, first)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checker thread panicked"))
            .collect()
    });
    results
        .into_iter()
        .fold((0, None), |(f, first), (g, why)| (f + g, first.or(why)))
}

/// Exact counts a service must show after `executed` distinct
/// executions and `coalesced` dedup hits.
fn check_counts(service: &LaunchService, executed: u64, coalesced: u64, run: &mut Run) {
    let s = service.stats();
    let plan = service.plan_cache_stats();
    if s.executed != executed || s.dedup_hits != coalesced || s.rejected != 0 || s.faulted != 0 {
        run.drift(format!(
            "serve counts {s:?}, expected executed={executed} dedup_hits={coalesced}"
        ));
    }
    if plan.misses != PAIRS as u64 || plan.evictions != 0 {
        run.drift(format!(
            "plan cache misses={} evictions={}, expected misses={PAIRS} evictions=0",
            plan.misses, plan.evictions
        ));
    }
}

/// Set-ups measured per run.
const SETUPS: usize = 11;

pub fn run(ctx: &Ctx, distinct: bool, tracer: &Tracer, seconds: f64) -> Run {
    let tenants = ctx.nproc;
    let mut run = Run::new(tenants);
    let mut prepared = None;
    for _ in 0..SETUPS {
        // Free the previous set-up first so it does not count in the
        // peak resident memory.
        drop(prepared.take());
        prepared = Some(run.setup(|| {
            let w = Workload::new(distinct, ctx.seed, tenants);
            let tenant_reqs: Vec<Vec<LaunchRequest>> =
                (0..tenants).map(|_| w.tenant_requests()).collect();
            let (service, hot) = warm_service(&w, ctx.nproc);
            (w, tenant_reqs, service, hot)
        }));
    }
    let (w, mut tenant_reqs, mut service, mut hot) = prepared.expect("set-up ran");
    let bounds = expected_bounds(&w.pairs);
    for (i, outcome) in hot.iter().enumerate() {
        run.attempted += 1;
        if let Some(why) = mismatch(outcome, reference(&w.hot[i]), &bounds[i]) {
            run.fail(format!(
                "warm-up {}×{}: {why}",
                w.pairs[i].program.name(),
                w.pairs[i].label
            ));
        }
    }

    let per_tenant = if distinct {
        DISTINCT_ROUND
    } else {
        COALESCED_ROUND
    };
    let refs = References::default();
    let mut next = 0u64;
    let mut round_id = 0u64;
    let (mut executed, mut parallel) = (0u64, 0u64);
    while run.timed() < seconds {
        if distinct && round_id > 0 {
            (service, hot) = warm_service(&w, ctx.nproc);
        }
        let first = if distinct {
            round_id % DISTINCT_CYCLE * per_tenant
        } else {
            next
        };
        let ids = (round_id, first, per_tenant);
        let (wall, replies) = round(&w, &service, &mut tenant_reqs, ids, tracer);
        run.pass(wall, replies.iter().map(|r| r.latency).collect());
        run.attempted += replies.len() as u64;
        for r in &replies {
            if let ServeReply::Served {
                outcome,
                coalesced: false,
            } = &r.reply
            {
                executed += 1;
                parallel += u64::from(outcome.stats.decision.is_parallel());
            }
        }
        let (failed, why) = check_round(&w, &replies, &hot, &bounds, &refs, ctx.nproc);
        if let Some(why) = why {
            run.fail_n(failed, why);
        }
        next += per_tenant;
        round_id += 1;
        if distinct {
            check_counts(&service, PAIRS as u64 + replies.len() as u64, 0, &mut run);
        }
    }
    if !distinct {
        check_counts(&service, PAIRS as u64, next * tenants as u64, &mut run);
    }
    run.notes.push(format!(
        "{tenants} tenants, {round_id} rounds of {per_tenant} requests per tenant, \
         {executed} executed ({parallel} took a parallel path)"
    ));
    run
}

/// Distinct requests the per-layer serve probe executes.
const PROBE_DISTINCT: u64 = 100;
/// Hot-set requests the per-layer serve probe coalesces.
const PROBE_COALESCED: u64 = 400;

/// Per-layer probe of the serve path with one caller: request-key cost
/// at both sizes, then a fresh warmed service fed distinct requests
/// (executed) and hot-set requests (coalesced).
pub fn probe(ctx: &Ctx, tracer: &Tracer, run: &mut Run) -> Vec<Metric> {
    let mut out = Vec::new();
    tracer.span("probe.serve", None, 0, |p| {
        let w = Workload::new(true, ctx.seed, 1);
        for (slot, threads) in [SMALL, LARGE].into_iter().enumerate() {
            let per_pair: Vec<f64> = w
                .pairs
                .iter()
                .zip(&w.templates)
                .map(|(pair, t)| {
                    let req = request(pair, threads, t[slot].clone());
                    (0..3)
                        .map(|_| {
                            tracer
                                .timed("serve.request_key", p, u64::from(threads), |_| {
                                    std::hint::black_box(request_key(&req))
                                })
                                .1
                        })
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
            out.push(metric(
                format!("serve.request_key_us_{threads}"),
                Samples::new(per_pair).median() * 1e6,
                "us",
            ));
        }

        let (service, hot) = warm_service(&w, ctx.nproc);
        let mut sent = Vec::new();
        let (mut executed_s, mut coalesced_s, mut parallel) = (Vec::new(), Vec::new(), 0u64);
        for i in 0..PROBE_DISTINCT + PROBE_COALESCED {
            let ticket = w.ticket(0, i);
            let req = if i < PROBE_DISTINCT {
                w.rebuild(&ticket)
            } else {
                w.hot[ticket.pair].clone()
            };
            let (reply, s) = tracer.timed("serve.submit", p, i, |_| service.submit(&req));
            if let ServeReply::Served { outcome, coalesced } = &reply {
                if *coalesced {
                    coalesced_s.push(s);
                } else {
                    executed_s.push(s);
                    parallel += u64::from(outcome.stats.decision.is_parallel());
                }
            }
            sent.push((ticket, reply));
        }
        let bounds = expected_bounds(&w.pairs);
        let refs = References::default();
        for (ticket, reply) in &sent {
            run.attempted += 1;
            let hot = (ticket.index >= PROBE_DISTINCT).then(|| &hot[ticket.pair]);
            if let Some(why) = verdict(&w, ticket, reply, hot, &bounds[ticket.pair], &refs) {
                run.fail(format!("serve probe request {}: {why}", ticket.index));
            }
        }
        let stats = service.stats();
        let plan = service.plan_cache_stats();
        out.push(metric(
            "serve.submit_executed_us",
            Samples::new(executed_s).median() * 1e6,
            "us",
        ));
        out.push(metric(
            "serve.submit_coalesced_us",
            Samples::new(coalesced_s).median() * 1e6,
            "us",
        ));
        out.push(metric(
            "serve.dedup_hit_ratio",
            stats.dedup_hits as f64 / stats.submitted.max(1) as f64,
            "ratio",
        ));
        out.push(metric("serve.executed", stats.executed as f64, "count"));
        out.push(metric("serve.rejected", stats.rejected as f64, "count"));
        out.push(metric("serve.faulted", stats.faulted as f64, "count"));
        out.push(metric(
            "launch.parallel_share",
            parallel as f64 / PROBE_DISTINCT as f64,
            "ratio",
        ));
        out.push(metric("plan.hits", plan.hits as f64, "count"));
        out.push(metric("plan.misses", plan.misses as f64, "count"));
        out.push(metric("plan.evictions", plan.evictions as f64, "count"));
        check_counts(
            &service,
            PAIRS as u64 + PROBE_DISTINCT,
            PROBE_COALESCED,
            run,
        );
    });
    out
}

#[cfg(test)]
mod tests {
    use super::digest;

    #[test]
    fn digest_sees_every_single_element_change() {
        let base = vec![vec![0.5f32; 64], vec![0.75; 3]];
        let d = digest(&base);
        for b in 0..base.len() {
            for i in 0..base[b].len() {
                let mut changed = base.clone();
                changed[b][i] = f32::from_bits(changed[b][i].to_bits() ^ 1);
                assert_ne!(digest(&changed), d, "buffer {b} element {i}");
            }
        }
        assert_ne!(
            digest(&[vec![0.5; 2], vec![]]),
            digest(&[vec![0.5], vec![0.5]])
        );
    }
}

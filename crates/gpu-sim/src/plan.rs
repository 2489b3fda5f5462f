//! Launch plans: a `(Program, IhwConfig)` pair lowered **once** into a
//! [`CompiledKernel`] and cached, so repeated launches skip both the
//! per-thread re-interpretation of `exec_step` and the per-operation
//! configuration dispatch.
//!
//! A plan bundles everything a launch needs that the interpreter
//! re-derives per thread:
//!
//! * the threaded-code table of monomorphized lane ops
//!   ([`crate::compile::CompiledOp`]), with every configuration branch
//!   constant-folded at lowering time;
//! * the direct-write proof ([`crate::deps::store_shape`]), so the
//!   proof-gated parallel path is a field read instead of a per-launch
//!   dependence analysis;
//! * a static cost table — per-thread [`OpCounts`], integer/memory op
//!   totals, and the `UnitClass` trace pattern — because a
//!   straight-line kernel executes the same units for every thread, the
//!   launch counters are one multiplication per op class, not one
//!   counter update per thread-instruction;
//! * a closed-form first-fault precheck over the kernel's affine
//!   access sites, which both engines' fault semantics reduce to.
//!
//! Plans are cached in one [`PlanCache`] per interpreter core, shared
//! by every launch through it (concurrent ones included), keyed on
//! [`PlanKey`] — a structural program fingerprint plus the typed
//! [`IhwConfig`] itself (the same discipline as the bench runner's
//! `RunCache`: typed keys, no stringly config labels). Fingerprint
//! collisions are caught by comparing the stored instruction stream
//! before a hit is served, so a stale or colliding entry recompiles
//! instead of running the wrong kernel.

use crate::compile::{exec_block, lower, CompiledOp, LaneMem, RegFile, LANES};
use crate::deps::{racecheck, store_shape, AffineIndex};
use crate::dispatch::FpCtx;
use crate::isa::{AddrMode, ExecError, Instr, Program};
use crate::simt::UnitClass;
use ihw_core::config::{FpOp, IhwConfig};
use ihw_power::system::OpCounts;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Per-thread static execution cost of a straight-line kernel (or of a
/// prefix of one): what one thread adds to the launch counters.
#[derive(Debug, Clone, Default)]
pub(crate) struct StaticCost {
    /// Floating-point operation counts by class.
    pub counts: OpCounts,
    /// Integer/ALU operations.
    pub int_ops: u64,
    /// Memory operations.
    pub mem_ops: u64,
}

/// One affine global-memory access site (load or store), in
/// instruction order — the domain of the closed-form fault precheck.
#[derive(Debug, Clone, Copy)]
struct Site {
    instr: usize,
    buf: usize,
    index: AffineIndex,
}

/// The first fault a launch of `threads` threads would hit, in the
/// sequential tid-major execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Fault {
    /// Faulting thread.
    pub tid: u32,
    /// Faulting instruction index.
    pub instr: usize,
    /// The error the interpreter would report.
    pub err: ExecError,
}

/// A `(Program, IhwConfig)` pair lowered into an executable plan: the
/// threaded-code table plus everything launch-invariant that the
/// interpreter would otherwise recompute per launch or per thread.
#[derive(Debug)]
pub struct CompiledKernel {
    name: String,
    regs: u8,
    ops: Vec<CompiledOp>,
    /// `Some` iff the direct-write proof holds: buffer index → store
    /// offset, dense over written buffers. The proof licenses both the
    /// parallel fan-out and lane-block (instruction-major) execution.
    direct_write: Option<Vec<Option<i64>>>,
    sites: Vec<Site>,
    per_thread: StaticCost,
    /// `prefix[i]` = cost of instructions `0..=i` for one thread (the
    /// faulting access records its counts *before* the port call, so
    /// the faulting thread's contribution is an **inclusive** prefix).
    prefix: Vec<StaticCost>,
    /// `UnitClass` sequence one thread appends to the trace.
    trace_pattern: Vec<UnitClass>,
    /// `trace_prefix_len[i]` = trace length of instructions `0..=i`.
    trace_prefix_len: Vec<usize>,
}

/// What one instruction adds to the per-thread counters, mirroring
/// `exec_step` exactly: fp ops record their [`FpOp`] class and trace
/// `UnitClass::for_fp_op`; `Tid`/`Fmax`/`Sel` are one ALU op; memory
/// accesses are one memory plus one ALU op traced `[Lsu, Alu]` —
/// recorded even when the access faults.
fn instr_cost(instr: &Instr) -> (Option<FpOp>, u64, u64, Vec<UnitClass>) {
    match instr {
        Instr::Movi(..) => (None, 0, 0, vec![]),
        Instr::Tid(_) | Instr::Fmax(..) | Instr::Sel(..) => (None, 1, 0, vec![UnitClass::Alu]),
        Instr::Fadd(..) | Instr::Fsub(..) => {
            (Some(FpOp::Add), 0, 0, vec![UnitClass::for_fp_op(FpOp::Add)])
        }
        Instr::Fmul(..) => (Some(FpOp::Mul), 0, 0, vec![UnitClass::for_fp_op(FpOp::Mul)]),
        Instr::Fdiv(..) => (Some(FpOp::Div), 0, 0, vec![UnitClass::for_fp_op(FpOp::Div)]),
        Instr::Ffma(..) => (Some(FpOp::Fma), 0, 0, vec![UnitClass::for_fp_op(FpOp::Fma)]),
        Instr::Rcp(..) => (Some(FpOp::Rcp), 0, 0, vec![UnitClass::for_fp_op(FpOp::Rcp)]),
        Instr::Rsqrt(..) => (
            Some(FpOp::Rsqrt),
            0,
            0,
            vec![UnitClass::for_fp_op(FpOp::Rsqrt)],
        ),
        Instr::Sqrt(..) => (
            Some(FpOp::Sqrt),
            0,
            0,
            vec![UnitClass::for_fp_op(FpOp::Sqrt)],
        ),
        Instr::Log2(..) => (
            Some(FpOp::Log2),
            0,
            0,
            vec![UnitClass::for_fp_op(FpOp::Log2)],
        ),
        Instr::Ld(..) | Instr::St(..) => (None, 1, 1, vec![UnitClass::Lsu, UnitClass::Alu]),
    }
}

/// Lowers `prog` under `cfg` into a [`CompiledKernel`], running the
/// racecheck dependence analysis and precomputing the static cost and
/// fault tables. This is the once-per-`(program, config)` cost the
/// plan cache amortizes across launches.
pub fn compile(prog: &Program, cfg: &IhwConfig) -> CompiledKernel {
    let ops = lower(prog, cfg);
    let direct_write = store_shape(&racecheck(prog)).map(|offsets| {
        let max_buf = offsets.keys().max().copied().unwrap_or(0);
        let mut dense = vec![None; max_buf + 1];
        for (&buf, &off) in &offsets {
            dense[buf] = Some(off);
        }
        dense
    });

    let mut sites = Vec::new();
    let mut per_thread = StaticCost::default();
    let mut prefix = Vec::with_capacity(prog.instrs().len());
    let mut trace_pattern = Vec::new();
    let mut trace_prefix_len = Vec::with_capacity(prog.instrs().len());
    for (i, instr) in prog.instrs().iter().enumerate() {
        match *instr {
            Instr::Ld(_, buf, mode) | Instr::St(buf, mode, _) => sites.push(Site {
                instr: i,
                buf,
                index: AffineIndex::from(mode),
            }),
            _ => {}
        }
        let (fp, int_ops, mem_ops, trace) = instr_cost(instr);
        if let Some(op) = fp {
            per_thread.counts.record(op, 1);
        }
        per_thread.int_ops += int_ops;
        per_thread.mem_ops += mem_ops;
        trace_pattern.extend_from_slice(&trace);
        prefix.push(per_thread.clone());
        trace_prefix_len.push(trace_pattern.len());
    }

    CompiledKernel {
        name: prog.name().to_string(),
        regs: prog.regs(),
        ops,
        direct_write,
        sites,
        per_thread,
        prefix,
        trace_pattern,
        trace_prefix_len,
    }
}

impl CompiledKernel {
    /// Kernel name (diagnostics only).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Register-file size of the source program.
    pub fn regs(&self) -> u8 {
        self.regs
    }

    /// Number of lowered ops (equals the source instruction count).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the plan is empty (a zero-instruction kernel).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The direct-write store offset table (buffer → offset, dense),
    /// or `None` when the plan has no direct-write proof.
    pub(crate) fn direct_write(&self) -> Option<&[Option<i64>]> {
        self.direct_write.as_deref()
    }

    /// The first fault a `threads`-thread launch over `buffers` hits in
    /// sequential tid-major order, in closed form over the affine
    /// access sites — or `None` if the whole launch is clean.
    ///
    /// Matches `locate_element` exactly: an unknown buffer faults every
    /// thread (first at tid 0); a broadcast access out of range faults
    /// every thread; a lane access `tid + off` first faults at
    /// `max(0, len − off)` (tid 0 when `off < 0`, since the index is
    /// already negative there).
    pub(crate) fn first_fault(&self, buffers: &[Vec<f32>], threads: u32) -> Option<Fault> {
        if threads == 0 {
            return None;
        }
        let mut best: Option<Fault> = None;
        for s in &self.sites {
            let cand = match buffers.get(s.buf) {
                None => Some((0, ExecError::UnknownBuffer { buffer: s.buf })),
                Some(b) => {
                    let len = b.len() as i64;
                    let tid = if s.index.scale == 0 {
                        let e = s.index.offset;
                        (e < 0 || e >= len).then_some(0u32)
                    } else if s.index.offset < 0 {
                        Some(0)
                    } else if i64::from(threads) > len - s.index.offset {
                        Some((len - s.index.offset).max(0) as u32)
                    } else {
                        None
                    };
                    tid.map(|t| {
                        (
                            t,
                            ExecError::OutOfBounds {
                                buffer: s.buf,
                                index: s.index.at(t),
                                len: b.len(),
                            },
                        )
                    })
                }
            };
            if let Some((tid, err)) = cand {
                let better = match &best {
                    None => true,
                    Some(f) => (tid, s.instr) < (f.tid, f.instr),
                };
                if better {
                    best = Some(Fault {
                        tid,
                        instr: s.instr,
                        err,
                    });
                }
            }
        }
        best
    }

    /// Executes tids `[lo, hi)` against `mem`: lane blocks of
    /// [`LANES`] when the direct-write proof licenses
    /// instruction-major order, scalar (one-lane blocks, which *is*
    /// the sequential order) otherwise. All accesses must be
    /// pre-checked fault-free.
    pub(crate) fn run_range<M: LaneMem>(&self, rf: &mut RegFile, mem: &mut M, lo: u32, hi: u32) {
        if self.direct_write.is_some() {
            let mut t = lo;
            while t < hi {
                let n = (hi - t).min(LANES as u32);
                exec_block(&self.ops, rf, mem, t, n as usize);
                t += n;
            }
        } else {
            for t in lo..hi {
                exec_block(&self.ops, rf, mem, t, 1);
            }
        }
    }

    /// Replays the faulting thread's clean instruction prefix
    /// `ops[..upto]` (the partial state the interpreter leaves behind
    /// before reporting the error at instruction `upto`).
    pub(crate) fn run_prefix<M: LaneMem>(
        &self,
        rf: &mut RegFile,
        mem: &mut M,
        tid: u32,
        upto: usize,
    ) {
        exec_block(&self.ops[..upto], rf, mem, tid, 1);
    }

    /// Credits `ctx` with the launch's counters: `complete` full
    /// threads plus — when the launch faulted at `fault_instr` — the
    /// faulting thread's inclusive prefix (the faulting access records
    /// its counts before the port call, exactly like `exec_step`).
    pub(crate) fn absorb_into(&self, ctx: &mut FpCtx, complete: u32, fault_instr: Option<usize>) {
        let mut counts = OpCounts::new();
        for (op, c) in self.per_thread.counts.iter() {
            counts.record(op, c * u64::from(complete));
        }
        let mut int_ops = self.per_thread.int_ops * u64::from(complete);
        let mut mem_ops = self.per_thread.mem_ops * u64::from(complete);
        let mut prefix_trace = 0;
        if let Some(i) = fault_instr {
            let p = &self.prefix[i];
            counts.merge(&p.counts);
            int_ops += p.int_ops;
            mem_ops += p.mem_ops;
            prefix_trace = self.trace_prefix_len[i];
        }
        ctx.record_static(&counts, int_ops, mem_ops);
        ctx.extend_trace_pattern(&self.trace_pattern, u64::from(complete), prefix_trace);
    }
}

/// Structural FNV-1a fingerprint of a program: register-file size plus
/// every instruction's discriminant and operands (f32 immediates by
/// bit pattern). Two programs with the same fingerprint are the same
/// kernel for planning purposes — and the cache double-checks the
/// stored instruction stream before serving a hit, so a collision
/// costs a recompile, never a wrong plan.
pub fn fingerprint(prog: &Program) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = BASIS;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    fold(&[prog.regs()]);
    fold(&(prog.instrs().len() as u64).to_le_bytes());
    let mode_bytes = |mode: AddrMode| -> Vec<u8> {
        match mode {
            AddrMode::Tid => vec![0],
            AddrMode::TidPlus(o) => {
                let mut v = vec![1];
                v.extend_from_slice(&o.to_le_bytes());
                v
            }
            AddrMode::Abs(e) => {
                let mut v = vec![2];
                v.extend_from_slice(&(e as u64).to_le_bytes());
                v
            }
        }
    };
    for instr in prog.instrs() {
        let enc: Vec<u8> = match *instr {
            Instr::Movi(d, imm) => {
                let mut v = vec![0, d.0];
                v.extend_from_slice(&imm.to_bits().to_le_bytes());
                v
            }
            Instr::Tid(d) => vec![1, d.0],
            Instr::Fadd(d, a, b) => vec![2, d.0, a.0, b.0],
            Instr::Fsub(d, a, b) => vec![3, d.0, a.0, b.0],
            Instr::Fmul(d, a, b) => vec![4, d.0, a.0, b.0],
            Instr::Fdiv(d, a, b) => vec![5, d.0, a.0, b.0],
            Instr::Ffma(d, a, b, c) => vec![6, d.0, a.0, b.0, c.0],
            Instr::Rcp(d, a) => vec![7, d.0, a.0],
            Instr::Rsqrt(d, a) => vec![8, d.0, a.0],
            Instr::Sqrt(d, a) => vec![9, d.0, a.0],
            Instr::Log2(d, a) => vec![10, d.0, a.0],
            Instr::Fmax(d, a, b) => vec![11, d.0, a.0, b.0],
            Instr::Sel(d, c, a, b) => vec![12, d.0, c.0, a.0, b.0],
            Instr::Ld(d, buf, mode) => {
                let mut v = vec![13, d.0];
                v.extend_from_slice(&(buf as u64).to_le_bytes());
                v.extend_from_slice(&mode_bytes(mode));
                v
            }
            Instr::St(buf, mode, s) => {
                let mut v = vec![14];
                v.extend_from_slice(&(buf as u64).to_le_bytes());
                v.extend_from_slice(&mode_bytes(mode));
                v.push(s.0);
                v
            }
        };
        fold(&enc);
    }
    h
}

/// Typed plan-cache key: the structural program fingerprint plus the
/// configuration **as a value** — `IhwConfig` derives `Ord`, so no
/// stringly-typed config label ever enters the key (the same
/// discipline as the bench runner's TypeId-keyed `RunCache`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PlanKey {
    /// Structural fingerprint of the program ([`fingerprint`]).
    pub fingerprint: u64,
    /// The full typed configuration.
    pub config: IhwConfig,
}

/// One cached plan plus the exact program it was compiled from, kept
/// for collision verification on every hit, and the logical timestamp
/// of its last use (the LRU eviction order).
#[derive(Debug)]
struct PlanEntry {
    regs: u8,
    instrs: Vec<Instr>,
    plan: Arc<CompiledKernel>,
    stamp: u64,
}

/// Cumulative plan-cache counters, a copyable snapshot for stats
/// surfaces (the serve bench reports these per worker-ladder row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups served from the cache (post collision verification).
    pub hits: u64,
    /// Lookups that compiled a fresh plan (cold key *or* a fingerprint
    /// collision that failed verification).
    pub misses: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
    /// Current number of cached plans.
    pub len: usize,
    /// Configured capacity bound.
    pub capacity: usize,
}

/// A bounded plan cache with deterministic LRU eviction, shared by
/// every launch through one interpreter core — including concurrent
/// launches, so it synchronises itself. Lookups verify the stored
/// instruction stream against the requesting program, so fingerprint
/// collisions (or a program mutated under the same name) recompile
/// instead of running a stale plan.
///
/// Every hit or insert stamps the entry with a monotonically increasing
/// logical tick; when an insert would exceed capacity the entry with
/// the *smallest* stamp is evicted. Stamps are unique, so the victim is
/// fully determined by the lookup sequence — no wall clock, no hash
/// order — and the [`PlanCacheStats`] counters make every eviction
/// visible.
///
/// The lock covers the lookup and a miss's compile, never a launch's
/// lane loop: concurrent cold launches of one `(program, config)`
/// compile it exactly once (one miss, the rest hits), so the counters
/// stay exact under any interleaving.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    lru: Mutex<Lru>,
}

/// The cache state behind [`PlanCache`]'s lock.
#[derive(Debug)]
struct Lru {
    entries: BTreeMap<PlanKey, PlanEntry>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for Lru {
    fn default() -> Self {
        Lru {
            entries: BTreeMap::new(),
            capacity: PlanCache::DEFAULT_CAPACITY,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl Lru {
    /// Removes the least-recently-used entry (smallest stamp; stamps
    /// are unique, so the victim is deterministic).
    fn evict_lru(&mut self) {
        if let Some(key) = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.stamp)
            .map(|(k, _)| *k)
        {
            self.entries.remove(&key);
            self.evictions += 1;
        }
    }
}

impl PlanCache {
    /// Default bound on cached plans.
    pub(crate) const DEFAULT_CAPACITY: usize = 64;

    /// The cache state. Every update is complete before anything that
    /// can panic (a miss counts, then compiles, then inserts), so the
    /// state behind a poisoned lock is consistent and is used as is.
    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.lru.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the cached plan for `(prog, cfg)`, compiling on miss.
    pub(crate) fn get_or_compile(&self, prog: &Program, cfg: &IhwConfig) -> Arc<CompiledKernel> {
        let key = PlanKey {
            fingerprint: fingerprint(prog),
            config: *cfg,
        };
        let mut lru = self.lock();
        let stamp = lru.tick;
        lru.tick += 1;
        if let Some(e) = lru.entries.get_mut(&key) {
            if e.regs == prog.regs() && e.instrs == prog.instrs() {
                e.stamp = stamp;
                let plan = Arc::clone(&e.plan);
                lru.hits += 1;
                return plan;
            }
        }
        lru.misses += 1;
        if !lru.entries.contains_key(&key) {
            while lru.entries.len() >= lru.capacity {
                lru.evict_lru();
            }
        }
        let plan = Arc::new(compile(prog, cfg));
        lru.entries.insert(
            key,
            PlanEntry {
                regs: prog.regs(),
                instrs: prog.instrs().to_vec(),
                plan: Arc::clone(&plan),
                stamp,
            },
        );
        plan
    }

    /// Rebounds the cache to `capacity` plans (min 1), evicting the
    /// least-recently-used entries immediately if it now overflows.
    pub(crate) fn set_capacity(&self, capacity: usize) {
        let mut lru = self.lock();
        lru.capacity = capacity.max(1);
        while lru.entries.len() > lru.capacity {
            lru.evict_lru();
        }
    }

    /// Snapshot of the cumulative counters plus current occupancy.
    pub(crate) fn stats(&self) -> PlanCacheStats {
        let lru = self.lock();
        PlanCacheStats {
            hits: lru.hits,
            misses: lru.misses,
            evictions: lru.evictions,
            len: lru.entries.len(),
            capacity: lru.capacity,
        }
    }

    /// Number of cached plans.
    pub(crate) fn len(&self) -> usize {
        self.lock().entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Reg;
    use crate::programs;

    #[test]
    fn static_costs_match_the_interpreter_tables() {
        let prog = programs::saxpy(2.0);
        let plan = compile(&prog, &IhwConfig::precise());
        // saxpy: movi, ld, ld, ffma, st → 1 Fma, 3 int (2 mem + 1), …
        assert_eq!(plan.per_thread.counts.get(FpOp::Fma), 1);
        assert_eq!(plan.per_thread.counts.total(), 1);
        assert_eq!(plan.per_thread.int_ops, 3);
        assert_eq!(plan.per_thread.mem_ops, 3);
        assert_eq!(
            plan.trace_pattern,
            vec![
                UnitClass::Lsu,
                UnitClass::Alu,
                UnitClass::Lsu,
                UnitClass::Alu,
                UnitClass::Fpu,
                UnitClass::Lsu,
                UnitClass::Alu,
            ]
        );
        // Inclusive prefixes: through the ffma (instr 3) the thread has
        // recorded both loads and the fma, but not the store.
        assert_eq!(plan.prefix[3].mem_ops, 2);
        assert_eq!(plan.prefix[3].counts.get(FpOp::Fma), 1);
        assert_eq!(plan.trace_prefix_len[3], 5);
    }

    #[test]
    fn first_fault_matches_sequential_order() {
        let prog = Program::new(
            "oob",
            1,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::TidPlus(1)),
                Instr::St(1, AddrMode::Tid, Reg(0)),
            ],
        )
        .expect("valid");
        let plan = compile(&prog, &IhwConfig::precise());
        // b0 has 5 elements → tid 4 reads element 5 first.
        let bufs = vec![vec![0.0f32; 5], vec![0.0f32; 16]];
        let f = plan.first_fault(&bufs, 16).expect("faults");
        assert_eq!((f.tid, f.instr), (4, 0));
        assert_eq!(
            f.err,
            ExecError::OutOfBounds {
                buffer: 0,
                index: 5,
                len: 5
            }
        );
        // Unknown buffer faults at tid 0 even though the OOB read
        // faults at a later instruction of the same thread.
        let f = plan.first_fault(&bufs[..1], 16).expect("faults");
        assert_eq!((f.tid, f.instr), (0, 1));
        assert_eq!(f.err, ExecError::UnknownBuffer { buffer: 1 });
        // A clean launch has no fault.
        assert!(plan.first_fault(&bufs, 4).is_none());
        assert!(plan.first_fault(&bufs, 0).is_none());
    }

    #[test]
    fn negative_offsets_fault_thread_zero() {
        let prog = Program::new(
            "neg",
            1,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::TidPlus(-1)),
                Instr::St(1, AddrMode::Tid, Reg(0)),
            ],
        )
        .expect("valid");
        let plan = compile(&prog, &IhwConfig::precise());
        let bufs = vec![vec![0.0f32; 8], vec![0.0f32; 8]];
        let f = plan.first_fault(&bufs, 8).expect("faults");
        assert_eq!((f.tid, f.instr), (0, 0));
        assert_eq!(
            f.err,
            ExecError::OutOfBounds {
                buffer: 0,
                index: -1,
                len: 8
            }
        );
    }

    #[test]
    fn cache_hits_are_typed_and_collision_checked() {
        let cache = PlanCache::default();
        let prog = programs::saxpy(2.0);
        let a = cache.get_or_compile(&prog, &IhwConfig::precise());
        let b = cache.get_or_compile(&prog, &IhwConfig::precise());
        assert!(Arc::ptr_eq(&a, &b), "same (program, config) → same plan");
        assert_eq!(cache.len(), 1);
        // A different config is a different plan under the same program.
        let c = cache.get_or_compile(&prog, &IhwConfig::all_imprecise());
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
        // A different program (different immediate) fingerprints apart.
        let prog2 = programs::saxpy(3.0);
        assert_ne!(fingerprint(&prog), fingerprint(&prog2));
        let d = cache.get_or_compile(&prog2, &IhwConfig::precise());
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn churning_past_capacity_evicts_lru_not_everything() {
        let cache = PlanCache::default();
        let cfg = IhwConfig::precise();
        let extra = 16usize;
        let total = PlanCache::DEFAULT_CAPACITY + extra;
        // Churn more distinct (program, config) keys than the capacity:
        // each saxpy immediate fingerprints apart.
        for i in 0..total {
            cache.get_or_compile(&programs::saxpy(i as f32), &cfg);
            assert!(
                cache.len() <= PlanCache::DEFAULT_CAPACITY,
                "cache never exceeds its capacity"
            );
        }
        let s = cache.stats();
        assert_eq!(s.len, PlanCache::DEFAULT_CAPACITY);
        assert_eq!(s.capacity, PlanCache::DEFAULT_CAPACITY);
        assert_eq!(s.misses, total as u64);
        assert_eq!(s.hits, 0);
        assert_eq!(s.evictions, extra as u64, "only the LRU tail is evicted");
        // The most recent CAPACITY keys are all still resident (the old
        // wholesale clear would have dropped most of them)…
        for i in extra..total {
            cache.get_or_compile(&programs::saxpy(i as f32), &cfg);
        }
        let s = cache.stats();
        assert_eq!(s.hits, PlanCache::DEFAULT_CAPACITY as u64);
        assert_eq!(s.evictions, extra as u64);
        // …while the churned-out oldest keys recompile.
        cache.get_or_compile(&programs::saxpy(0.0), &cfg);
        assert_eq!(cache.stats().misses, total as u64 + 1);
    }

    #[test]
    fn lru_eviction_is_deterministic_and_respects_recency() {
        let cache = PlanCache::default();
        cache.set_capacity(4);
        let prog = programs::saxpy(2.0);
        let cfg = |t: u32| IhwConfig::ray_with_ac_mul(t);
        for t in 0..4 {
            cache.get_or_compile(&prog, &cfg(t));
        }
        // Touch t=0 so t=1 becomes the LRU victim.
        cache.get_or_compile(&prog, &cfg(0));
        cache.get_or_compile(&prog, &cfg(10));
        let s = cache.stats();
        assert_eq!((s.len, s.evictions), (4, 1));
        // t=1 was evicted; t=0 survived its refresh.
        let hits_before = cache.stats().hits;
        cache.get_or_compile(&prog, &cfg(0));
        assert_eq!(cache.stats().hits, hits_before + 1);
        cache.get_or_compile(&prog, &cfg(1));
        assert_eq!(
            cache.stats().evictions,
            2,
            "refetching the victim evicts again"
        );
        // Shrinking the capacity evicts immediately, oldest first.
        cache.set_capacity(2);
        let s = cache.stats();
        assert_eq!((s.len, s.capacity), (2, 2));
        assert_eq!(s.evictions, 4);
    }

    #[test]
    fn stock_kernels_compile_block_safe() {
        for prog in [
            programs::saxpy(2.0),
            programs::rsqrt_norm(),
            programs::dot_partial(4),
            programs::distance(),
        ] {
            let plan = compile(&prog, &IhwConfig::all_imprecise());
            assert!(
                plan.direct_write().is_some(),
                "{} should be direct-write",
                plan.name()
            );
            assert_eq!(plan.len(), prog.instrs().len());
        }
    }
}

//! A small PTX-like kernel IR and its SIMT interpreter.
//!
//! The trace-driven timing model ([`crate::simt`]) consumes instruction
//! *mixes*; this module closes the loop for code that is not hand
//! instrumented: kernels written in a register-based IR execute
//! functionally, per thread, with every floating point instruction routed
//! through the same imprecise-hardware dispatch ([`crate::dispatch::FpCtx`])
//! — the counters, the timing model and the power model then apply
//! unchanged. This mirrors how GPGPU-Sim interprets PTX with the paper's
//! IHW functional models linked in.
//!
//! The IR is deliberately small: straight-line SIMD code (a kernel body
//! that every thread executes once, loops unrolled at build time), f32
//! registers, global-memory loads/stores addressed by thread index.
//!
//! ```
//! use gpu_sim::isa::{Instr, Program, Reg, WarpInterpreter, AddrMode};
//! use ihw_core::config::IhwConfig;
//!
//! // SAXPY: y[i] = a·x[i] + y[i]
//! let prog = Program::new("saxpy", 3, vec![
//!     Instr::Movi(Reg(0), 2.0),                        // a
//!     Instr::Ld(Reg(1), 0, AddrMode::Tid),             // x[i]
//!     Instr::Ld(Reg(2), 1, AddrMode::Tid),             // y[i]
//!     Instr::Ffma(Reg(2), Reg(0), Reg(1), Reg(2)),
//!     Instr::St(1, AddrMode::Tid, Reg(2)),
//! ]).expect("valid program");
//!
//! let mut buffers = vec![vec![1.0f32, 2.0, 3.0], vec![10.0, 20.0, 30.0]];
//! let mut interp = WarpInterpreter::new(IhwConfig::precise());
//! interp.launch(&prog, 3, &mut buffers).expect("kernel runs");
//! assert_eq!(buffers[1], vec![12.0, 24.0, 36.0]);
//! ```

use crate::compile::{ChunkMem, RegFile, SeqMem};
use crate::dispatch::FpCtx;
use crate::plan::{CompiledKernel, PlanCache};
use crate::simt::{InstrMix, KernelLaunch};
use ihw_core::config::IhwConfig;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// A register index (per-thread f32 register file).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Reg(pub u8);

/// Global-memory addressing mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AddrMode {
    /// Element `tid`.
    Tid,
    /// Element `tid + offset` (clamped accesses are an error, not a wrap).
    TidPlus(i64),
    /// A fixed element (broadcast).
    Abs(usize),
}

/// One IR instruction. `rd` is always the destination.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Instr {
    /// `rd ← imm`
    Movi(Reg, f32),
    /// `rd ← tid` (thread index as f32)
    Tid(Reg),
    /// `rd ← ra + rb`
    Fadd(Reg, Reg, Reg),
    /// `rd ← ra − rb`
    Fsub(Reg, Reg, Reg),
    /// `rd ← ra × rb`
    Fmul(Reg, Reg, Reg),
    /// `rd ← ra ÷ rb`
    Fdiv(Reg, Reg, Reg),
    /// `rd ← ra × rb + rc`
    Ffma(Reg, Reg, Reg, Reg),
    /// `rd ← 1/ra`
    Rcp(Reg, Reg),
    /// `rd ← 1/√ra`
    Rsqrt(Reg, Reg),
    /// `rd ← √ra`
    Sqrt(Reg, Reg),
    /// `rd ← log₂ ra`
    Log2(Reg, Reg),
    /// `rd ← max(ra, rb)` (ALU op)
    Fmax(Reg, Reg, Reg),
    /// `rd ← if rc > 0 { ra } else { rb }` — predicated select, the
    /// divergence-free conditional of real GPU ISAs.
    Sel(Reg, Reg, Reg, Reg),
    /// `rd ← buffer[addr]`
    Ld(Reg, usize, AddrMode),
    /// `buffer[addr] ← rs`
    St(usize, AddrMode, Reg),
}

impl Instr {
    /// The registers this instruction reads (source operands only;
    /// loads read memory, not registers).
    pub fn reads(&self) -> Vec<Reg> {
        match *self {
            Instr::Movi(..) | Instr::Tid(_) | Instr::Ld(..) => vec![],
            Instr::Fadd(_, a, b)
            | Instr::Fsub(_, a, b)
            | Instr::Fmul(_, a, b)
            | Instr::Fdiv(_, a, b)
            | Instr::Fmax(_, a, b) => vec![a, b],
            Instr::Ffma(_, a, b, c) | Instr::Sel(_, a, b, c) => vec![a, b, c],
            Instr::Rcp(_, a) | Instr::Rsqrt(_, a) | Instr::Sqrt(_, a) | Instr::Log2(_, a) => {
                vec![a]
            }
            Instr::St(_, _, s) => vec![s],
        }
    }

    /// The register this instruction writes, if any (stores write
    /// memory, not a register).
    pub fn dest(&self) -> Option<Reg> {
        match *self {
            Instr::Movi(d, _)
            | Instr::Tid(d)
            | Instr::Fadd(d, ..)
            | Instr::Fsub(d, ..)
            | Instr::Fmul(d, ..)
            | Instr::Fdiv(d, ..)
            | Instr::Fmax(d, ..)
            | Instr::Ffma(d, ..)
            | Instr::Sel(d, ..)
            | Instr::Rcp(d, _)
            | Instr::Rsqrt(d, _)
            | Instr::Sqrt(d, _)
            | Instr::Log2(d, _)
            | Instr::Ld(d, ..) => Some(d),
            Instr::St(..) => None,
        }
    }

    fn registers(&self) -> Vec<Reg> {
        match *self {
            Instr::Movi(d, _) | Instr::Tid(d) => vec![d],
            Instr::Fadd(d, a, b)
            | Instr::Fsub(d, a, b)
            | Instr::Fmul(d, a, b)
            | Instr::Fdiv(d, a, b)
            | Instr::Fmax(d, a, b) => vec![d, a, b],
            Instr::Ffma(d, a, b, c) | Instr::Sel(d, a, b, c) => vec![d, a, b, c],
            Instr::Rcp(d, a) | Instr::Rsqrt(d, a) | Instr::Sqrt(d, a) | Instr::Log2(d, a) => {
                vec![d, a]
            }
            Instr::Ld(d, _, _) => vec![d],
            Instr::St(_, _, s) => vec![s],
        }
    }
}

/// Errors raised while building or executing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// An instruction names a register beyond the program's register count.
    InvalidRegister {
        /// Offending register index.
        reg: u8,
        /// Program register-file size.
        regs: u8,
    },
    /// A memory access named a buffer that was not passed to `launch`.
    UnknownBuffer {
        /// Buffer index.
        buffer: usize,
    },
    /// A memory access fell outside its buffer.
    OutOfBounds {
        /// Buffer index.
        buffer: usize,
        /// Attempted element index.
        index: i64,
        /// Buffer length.
        len: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::InvalidRegister { reg, regs } => {
                write!(f, "register r{reg} exceeds register file size {regs}")
            }
            ExecError::UnknownBuffer { buffer } => write!(f, "unknown buffer {buffer}"),
            ExecError::OutOfBounds { buffer, index, len } => {
                write!(
                    f,
                    "access to element {index} of buffer {buffer} (len {len})"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// An analysis-suppression marker: one diagnostic rule allowed on one
/// instruction, with a mandatory justification. Attached by
/// [`Program::with_allow`] or by a trailing
/// `# ihw-racecheck: allow(RULE) reason=...` comment in assembly
/// source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllowMarker {
    /// Instruction index the marker applies to.
    pub instr: usize,
    /// The allowed diagnostic rule code (e.g. `"A007"`).
    pub rule: String,
    /// Why the flagged pattern is intentional.
    pub reason: String,
}

/// Declares that a kernel is iterative: after each launch the host
/// copies buffer `from` (the kernel's output) over buffer `to` (its
/// input) before the next launch, so the launch's error-transfer map
/// composes with itself across iterations. Consumed by the workload
/// drivers (ping-pong step) and by `ihw-analyze`'s contraction pass,
/// which seeds buffer `to` with input-noise symbols and extracts the
/// per-launch contraction factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeedbackBinding {
    /// Buffer index written by the kernel and fed back.
    pub from: usize,
    /// Buffer index read by the next iteration.
    pub to: usize,
}

/// A validated straight-line kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    name: String,
    regs: u8,
    instrs: Vec<Instr>,
    /// 1-based source line of each instruction (0 = unknown), parallel
    /// to `instrs`. Populated by the assembler so analyzer diagnostics
    /// can point at `kernel.s:line` instead of an instruction index.
    lines: Vec<u32>,
    /// Per-instruction diagnostic suppressions.
    allows: Vec<AllowMarker>,
    /// Iterative feedback declaration, when the kernel is a solver sweep.
    feedback: Option<FeedbackBinding>,
}

impl Program {
    /// Builds and validates a program with a `regs`-entry register file.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidRegister`] if any instruction names a
    /// register outside the file.
    pub fn new(
        name: impl Into<String>,
        regs: u8,
        instrs: Vec<Instr>,
    ) -> Result<Program, ExecError> {
        for instr in &instrs {
            for r in instr.registers() {
                if r.0 >= regs {
                    return Err(ExecError::InvalidRegister { reg: r.0, regs });
                }
            }
        }
        let lines = vec![0; instrs.len()];
        Ok(Program {
            name: name.into(),
            regs,
            instrs,
            lines,
            allows: Vec::new(),
            feedback: None,
        })
    }

    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction sequence.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Register-file size.
    pub fn regs(&self) -> u8 {
        self.regs
    }

    /// Attaches 1-based source line numbers (one per instruction, 0 for
    /// unknown). Extra entries are dropped; missing ones default to 0.
    pub fn with_source_lines(mut self, lines: Vec<u32>) -> Program {
        self.lines = lines;
        self.lines.resize(self.instrs.len(), 0);
        self
    }

    /// The 1-based source line of instruction `idx`, when the program
    /// was built by the assembler (or otherwise annotated).
    pub fn source_line(&self, idx: usize) -> Option<u32> {
        match self.lines.get(idx) {
            Some(&l) if l > 0 => Some(l),
            _ => None,
        }
    }

    /// Describes instruction `idx` as a diagnostic location: the source
    /// line when known, the instruction index otherwise.
    pub fn locate(&self, idx: usize) -> String {
        match self.source_line(idx) {
            Some(line) => format!("{}.s:{line}", self.name),
            None => format!("{}#{idx}", self.name),
        }
    }

    /// Marks diagnostic `rule` (e.g. `"A007"`) as intentionally allowed
    /// on instruction `instr`, with a justification. Racecheck-backed
    /// diagnostics consult these markers and suppress matching findings.
    pub fn with_allow(
        mut self,
        instr: usize,
        rule: impl Into<String>,
        reason: impl Into<String>,
    ) -> Program {
        self.allows.push(AllowMarker {
            instr,
            rule: rule.into(),
            reason: reason.into(),
        });
        self
    }

    /// The attached diagnostic suppressions.
    pub fn allows(&self) -> &[AllowMarker] {
        &self.allows
    }

    /// Declares the kernel iterative: buffer `from` feeds back as
    /// buffer `to` between launches (see [`FeedbackBinding`]).
    pub fn with_feedback(mut self, from: usize, to: usize) -> Program {
        self.feedback = Some(FeedbackBinding { from, to });
        self
    }

    /// The iterative feedback declaration, if any.
    pub fn feedback(&self) -> Option<FeedbackBinding> {
        self.feedback
    }

    /// Whether diagnostic `rule` is allowed on instruction `instr`.
    pub fn is_allowed(&self, instr: usize, rule: &str) -> bool {
        self.allows
            .iter()
            .any(|a| a.instr == instr && a.rule == rule)
    }

    /// Appends `body` repeated `times` times (loop unrolling helper).
    pub fn unroll(mut self, body: &[Instr], times: usize) -> Result<Program, ExecError> {
        for _ in 0..times {
            self.instrs.extend_from_slice(body);
        }
        let lines = std::mem::take(&mut self.lines);
        let allows = std::mem::take(&mut self.allows);
        let feedback = self.feedback.take();
        Program::new(self.name, self.regs, self.instrs).map(|p| {
            let mut p = p.with_source_lines(lines);
            p.allows = allows;
            p.feedback = feedback;
            p
        })
    }
}

/// Resolves an addressing mode to a concrete element index for `tid`
/// and bounds-checks it against the buffer set.
fn locate_element(
    buffers: &[Vec<f32>],
    buf: usize,
    mode: AddrMode,
    tid: u32,
) -> Result<usize, ExecError> {
    let idx: i64 = match mode {
        AddrMode::Tid => tid as i64,
        AddrMode::TidPlus(off) => tid as i64 + off,
        AddrMode::Abs(i) => i as i64,
    };
    let buffer = buffers
        .get(buf)
        .ok_or(ExecError::UnknownBuffer { buffer: buf })?;
    let len = buffer.len();
    if idx < 0 || idx as usize >= len {
        return Err(ExecError::OutOfBounds {
            buffer: buf,
            index: idx,
            len,
        });
    }
    Ok(idx as usize)
}

/// Executes one instruction for one thread, loads and stores hitting
/// the buffers in place.
fn exec_step(
    ctx: &mut FpCtx,
    instr: Instr,
    tid: u32,
    regs: &mut [f32],
    buffers: &mut [Vec<f32>],
) -> Result<(), ExecError> {
    match instr {
        Instr::Movi(d, imm) => regs[d.0 as usize] = imm,
        Instr::Tid(d) => {
            ctx.int_op(1);
            regs[d.0 as usize] = tid as f32;
        }
        Instr::Fadd(d, a, b) => {
            regs[d.0 as usize] = ctx.add32(regs[a.0 as usize], regs[b.0 as usize])
        }
        Instr::Fsub(d, a, b) => {
            regs[d.0 as usize] = ctx.sub32(regs[a.0 as usize], regs[b.0 as usize])
        }
        Instr::Fmul(d, a, b) => {
            regs[d.0 as usize] = ctx.mul32(regs[a.0 as usize], regs[b.0 as usize])
        }
        Instr::Fdiv(d, a, b) => {
            regs[d.0 as usize] = ctx.div32(regs[a.0 as usize], regs[b.0 as usize])
        }
        Instr::Ffma(d, a, b, c) => {
            regs[d.0 as usize] =
                ctx.fma32(regs[a.0 as usize], regs[b.0 as usize], regs[c.0 as usize])
        }
        Instr::Rcp(d, a) => regs[d.0 as usize] = ctx.rcp32(regs[a.0 as usize]),
        Instr::Rsqrt(d, a) => regs[d.0 as usize] = ctx.rsqrt32(regs[a.0 as usize]),
        Instr::Sqrt(d, a) => regs[d.0 as usize] = ctx.sqrt32(regs[a.0 as usize]),
        Instr::Log2(d, a) => regs[d.0 as usize] = ctx.log2_32(regs[a.0 as usize]),
        Instr::Fmax(d, a, b) => {
            ctx.int_op(1);
            regs[d.0 as usize] = regs[a.0 as usize].max(regs[b.0 as usize]);
        }
        Instr::Sel(d, c, a, b) => {
            ctx.int_op(1);
            regs[d.0 as usize] = if regs[c.0 as usize] > 0.0 {
                regs[a.0 as usize]
            } else {
                regs[b.0 as usize]
            };
        }
        Instr::Ld(d, buf, mode) => {
            ctx.mem_op(1);
            ctx.int_op(1);
            let idx = locate_element(buffers, buf, mode, tid)?;
            regs[d.0 as usize] = buffers[buf][idx];
        }
        Instr::St(buf, mode, s) => {
            ctx.mem_op(1);
            ctx.int_op(1);
            let idx = locate_element(buffers, buf, mode, tid)?;
            buffers[buf][idx] = regs[s.0 as usize];
        }
    }
    Ok(())
}

/// When [`WarpInterpreter::launch`] may hand a proven-independent
/// kernel to the parallel substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CutoverPolicy {
    /// Cost model: go parallel only when the estimated work
    /// (instruction count × threads) clears the modeled per-launch
    /// overhead *and* the host actually has cores to spend.
    #[default]
    Adaptive,
    /// Always parallel when proven safe (differential tests and
    /// calibration runs).
    ForceParallel,
    /// Never parallel (reference measurements).
    ForceSequential,
}

/// Which execution engine [`WarpInterpreter::launch`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// The reference oracle: always the sequential per-thread
    /// re-interpretation of [`WarpInterpreter::launch_sequential`],
    /// whatever the worker budget. Every compiled path is compared
    /// against it.
    Interpreted,
    /// Config-compiled plans from [`crate::plan`]: the `(Program,
    /// IhwConfig)` pair is lowered once, then lanes run as tight loops
    /// over contiguous slices. Bit-identical to the interpreter in
    /// buffers, counters and traces; the default and the only
    /// production engine.
    #[default]
    Compiled,
}

impl ExecEngine {
    /// Stable lowercase label used by reports and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            ExecEngine::Interpreted => "interpreted",
            ExecEngine::Compiled => "compiled",
        }
    }
}

/// Which path a launch took, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchDecision {
    /// Worker budget, thread count or the reference engine permits no
    /// parallelism.
    SequentialBudget,
    /// No direct-write proof: the race analysis could not prove
    /// thread-independence, or some store window may be read by
    /// another thread.
    SequentialUnproven,
    /// Proven independent, but the cost model (or
    /// [`CutoverPolicy::ForceSequential`]) kept the sequential loop.
    SequentialCutover,
    /// Parallel chunks writing disjoint output sub-ranges in place.
    ParallelDirect,
}

impl LaunchDecision {
    /// Whether the launch actually fanned out.
    pub fn is_parallel(self) -> bool {
        self == LaunchDecision::ParallelDirect
    }

    /// Stable lowercase label used by reports and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            LaunchDecision::SequentialBudget => "sequential",
            LaunchDecision::SequentialUnproven => "unproven",
            LaunchDecision::SequentialCutover => "cutover",
            LaunchDecision::ParallelDirect => "direct",
        }
    }
}

/// Cost-model inputs and the path decision of one launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchStats {
    /// Threads of the launch.
    pub threads: u32,
    /// Effective worker budget (`min(budget, threads)`, floor 1).
    pub workers: usize,
    /// Estimated work: instruction count × threads.
    pub est_ops: u64,
    /// Modeled per-launch parallel overhead, in the same unit.
    pub overhead_ops: u64,
    /// The engine that served the launch.
    pub engine: ExecEngine,
    /// The path taken.
    pub decision: LaunchDecision,
}

/// Default per-launch parallel overhead estimate for the compiled
/// engine, in instruction executions. The simulator may not read the
/// wall clock (lint rule L003), so the adaptive cutover is denominated
/// in op counts; calibration (`repro racecheck --bench`) can replace
/// this via [`WarpInterpreter::set_parallel_overhead_ops`].
pub const DEFAULT_COMPILED_PARALLEL_OVERHEAD_OPS: u64 = 262_144;

/// Cached `available_parallelism`: the cost model never fans out on a
/// single-core host, where parallelism can only add overhead.
fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The `&self` launch core: the launch policy (worker budget, cutover,
/// overhead model, engine) and the plan cache. A launch reads the
/// policy, takes its counters in a caller-owned [`FpCtx`] (whose config
/// is the launch's config) and returns its own [`LaunchStats`], so any
/// number of threads can launch through one core at once; the plan
/// cache is the only shared mutable state and synchronises itself.
#[derive(Debug)]
pub(crate) struct LaunchCore {
    workers: usize,
    cutover: CutoverPolicy,
    overhead_ops: u64,
    engine: ExecEngine,
    plans: PlanCache,
}

impl Default for LaunchCore {
    /// Sequential: worker budget 1, adaptive cutover, compiled engine.
    fn default() -> Self {
        LaunchCore {
            workers: 1,
            cutover: CutoverPolicy::Adaptive,
            overhead_ops: DEFAULT_COMPILED_PARALLEL_OVERHEAD_OPS,
            engine: ExecEngine::default(),
            plans: PlanCache::default(),
        }
    }
}

impl LaunchCore {
    /// The cost-model inputs of a `threads`-thread launch of `prog`,
    /// before any path is chosen (decision `SequentialBudget`).
    pub(crate) fn price(&self, prog: &Program, threads: u32) -> LaunchStats {
        LaunchStats {
            threads,
            workers: self.workers.min(threads as usize).max(1),
            est_ops: prog.instrs.len() as u64 * u64::from(threads),
            overhead_ops: self.overhead_ops,
            engine: self.engine,
            decision: LaunchDecision::SequentialBudget,
        }
    }

    /// Runs `threads` threads of `prog` under `ctx.config()`, crediting
    /// `ctx`: see [`WarpInterpreter::launch`] for the decision tree.
    /// Returns the launch's stats alongside its result.
    pub(crate) fn launch(
        &self,
        ctx: &mut FpCtx,
        prog: &Program,
        threads: u32,
        buffers: &mut [Vec<f32>],
    ) -> (LaunchStats, Result<(), ExecError>) {
        let mut stats = self.price(prog, threads);
        if self.engine == ExecEngine::Interpreted {
            return (stats, run_interpreted(ctx, prog, threads, buffers));
        }
        let plan = self.plans.get_or_compile(prog, ctx.config());
        if stats.workers > 1 {
            if plan.direct_write().is_none() {
                stats.decision = LaunchDecision::SequentialUnproven;
            } else {
                let fan_out = match self.cutover {
                    CutoverPolicy::ForceParallel => true,
                    CutoverPolicy::ForceSequential => false,
                    CutoverPolicy::Adaptive => {
                        stats.workers.min(host_parallelism()) > 1
                            && stats.est_ops >= self.overhead_ops
                    }
                };
                if fan_out {
                    stats.decision = LaunchDecision::ParallelDirect;
                    let result = run_compiled_parallel(stats.workers, &plan, ctx, threads, buffers);
                    return (stats, result);
                }
                stats.decision = LaunchDecision::SequentialCutover;
            }
        }
        (stats, run_compiled_sequential(&plan, ctx, threads, buffers))
    }

    /// Snapshot of the plan cache's counters and occupancy.
    pub(crate) fn plan_cache_stats(&self) -> crate::plan::PlanCacheStats {
        self.plans.stats()
    }
}

/// Compiled sequential body: static fault precheck, lane blocks over
/// the clean tid range, scalar replay of the faulting thread's
/// instruction prefix, counters credited from the plan's static cost
/// table.
fn run_compiled_sequential(
    plan: &CompiledKernel,
    ctx: &mut FpCtx,
    threads: u32,
    buffers: &mut [Vec<f32>],
) -> Result<(), ExecError> {
    let fault = plan.first_fault(buffers, threads);
    let complete = fault.as_ref().map_or(threads, |f| f.tid);
    let mut rf = RegFile::new(plan.regs());
    let mut mem = SeqMem { buffers };
    plan.run_range(&mut rf, &mut mem, 0, complete);
    if let Some(f) = &fault {
        plan.run_prefix(&mut rf, &mut mem, f.tid, f.instr);
    }
    plan.absorb_into(ctx, complete, fault.as_ref().map(|f| f.instr));
    fault.map_or(Ok(()), |f| Err(f.err))
}

/// Compiled parallel body, licensed by the direct-write proof: no
/// snapshot copy. The static precheck bounds the clean tid range up
/// front, so chunks execute lane blocks against the launch-entry
/// buffers — *moved* behind an `Arc` and reclaimed once the pool has
/// dropped every chunk's captures — and hand back only their dense
/// disjoint output windows. Counters come from the plan's static table
/// — chunk workers do no counting at all.
fn run_compiled_parallel(
    workers: usize,
    plan: &Arc<CompiledKernel>,
    ctx: &mut FpCtx,
    threads: u32,
    buffers: &mut [Vec<f32>],
) -> Result<(), ExecError> {
    let fault = plan.first_fault(buffers, threads);
    let complete = fault.as_ref().map_or(threads, |f| f.tid);
    if complete > 0 {
        let chunk = (complete as usize).div_ceil(workers);
        let ranges: Vec<(u32, u32)> = (0..workers)
            .map(|w| {
                let lo = (w * chunk).min(complete as usize) as u32;
                let hi = ((w + 1) * chunk).min(complete as usize) as u32;
                (lo, hi)
            })
            .filter(|(lo, hi)| lo < hi)
            .collect();
        let base: Arc<Vec<Vec<f32>>> = Arc::new(buffers.iter_mut().map(std::mem::take).collect());
        let shared = Arc::clone(&base);
        let plan_shared = Arc::clone(plan);
        let results = ihw_pool::sweep_with(workers, ranges, move |(lo, hi)| {
            let mut rf = RegFile::new(plan_shared.regs());
            let offsets = plan_shared.direct_write().expect("fan-out needs the proof");
            let mut mem = ChunkMem::new(&shared, offsets, lo, hi);
            plan_shared.run_range(&mut rf, &mut mem, lo, hi);
            mem.into_windows()
        });
        let reclaimed = Arc::try_unwrap(base).expect("chunks released the launch snapshot");
        for (slot, owned) in buffers.iter_mut().zip(reclaimed) {
            *slot = owned;
        }
        for out in results.into_iter().flatten() {
            let dst = &mut buffers[out.buf];
            let blen = dst.len() as i64;
            let from = out.start.clamp(0, blen);
            let to = (out.start + out.vals.len() as i64).clamp(from, blen);
            if from < to {
                let voff = (from - out.start) as usize;
                let n = (to - from) as usize;
                dst[from as usize..to as usize].copy_from_slice(&out.vals[voff..voff + n]);
            }
        }
    }
    if let Some(f) = &fault {
        let mut rf = RegFile::new(plan.regs());
        let mut mem = SeqMem { buffers };
        plan.run_prefix(&mut rf, &mut mem, f.tid, f.instr);
    }
    plan.absorb_into(ctx, complete, fault.as_ref().map(|f| f.instr));
    fault.map_or(Ok(()), |f| Err(f.err))
}

/// The interpreted reference oracle: every thread re-interprets the
/// instruction stream through `exec_step`, in tid order.
fn run_interpreted(
    ctx: &mut FpCtx,
    prog: &Program,
    threads: u32,
    buffers: &mut [Vec<f32>],
) -> Result<(), ExecError> {
    let mut regs = vec![0.0f32; prog.regs as usize];
    for tid in 0..threads {
        regs.iter_mut().for_each(|r| *r = 0.0);
        for instr in &prog.instrs {
            exec_step(ctx, *instr, tid, &mut regs, buffers)?;
        }
    }
    Ok(())
}

/// Executes programs thread-by-thread through the IHW dispatch.
///
/// With a worker budget above 1 ([`WarpInterpreter::set_workers`]),
/// the compiled engine fans threads across the persistent worker pool
/// **only** for kernels whose plan carries the direct-write proof
/// ([`crate::deps::store_shape`]) — and, under the default
/// [`CutoverPolicy::Adaptive`], only when the per-program cost
/// estimate says the launch is big enough to repay the fan-out
/// overhead. Anything else takes the sequential body. Both paths
/// produce bit-identical buffers, op counters and issue-port traces;
/// [`WarpInterpreter::last_launch_stats`] records which path ran and
/// why.
///
/// The interpreter is a thin `&mut self` wrapper over a `&self` launch
/// core: it owns the accumulated counters and the last launch's stats.
/// [`crate::concurrent::SharedInterpreter`] drives the same core from
/// many threads at once.
#[derive(Debug)]
pub struct WarpInterpreter {
    ctx: FpCtx,
    core: LaunchCore,
    last_stats: LaunchStats,
}

impl WarpInterpreter {
    /// Creates an interpreter over the given datapath configuration
    /// (sequential: worker budget 1, adaptive cutover, compiled
    /// engine).
    pub fn new(cfg: IhwConfig) -> Self {
        let core = LaunchCore::default();
        let last_stats = LaunchStats {
            threads: 0,
            workers: 1,
            est_ops: 0,
            overhead_ops: core.overhead_ops,
            engine: core.engine,
            decision: LaunchDecision::SequentialBudget,
        };
        WarpInterpreter {
            ctx: FpCtx::new(cfg),
            core,
            last_stats,
        }
    }

    /// Gives up the launch core (policy and warm plan cache), dropping
    /// the counters.
    pub(crate) fn into_core(self) -> LaunchCore {
        self.core
    }

    /// Sets the execution engine and returns `self` (builder style).
    pub fn with_engine(mut self, engine: ExecEngine) -> Self {
        self.set_engine(engine);
        self
    }

    /// Selects which engine [`WarpInterpreter::launch`] drives. Both
    /// engines are bit-identical in buffers, counters and traces; the
    /// choice only moves throughput.
    pub fn set_engine(&mut self, engine: ExecEngine) {
        self.core.engine = engine;
    }

    /// The engine serving [`WarpInterpreter::launch`].
    pub fn engine(&self) -> ExecEngine {
        self.core.engine
    }

    /// Number of plans currently held by the compiled engine's cache.
    pub fn cached_plans(&self) -> usize {
        self.core.plans.len()
    }

    /// Snapshot of the plan cache's cumulative hit/miss/eviction
    /// counters and occupancy.
    pub fn plan_cache_stats(&self) -> crate::plan::PlanCacheStats {
        self.core.plan_cache_stats()
    }

    /// Rebounds the plan cache to `capacity` plans (min 1), evicting
    /// least-recently-used entries immediately if it now overflows.
    pub fn set_plan_cache_capacity(&mut self, capacity: usize) {
        self.core.plans.set_capacity(capacity);
    }

    /// The datapath configuration launches currently execute under.
    pub fn config(&self) -> &IhwConfig {
        self.ctx.config()
    }

    /// Sets the worker budget and returns `self` (builder style).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.set_workers(workers);
        self
    }

    /// Sets the worker budget for subsequent launches (min 1). The
    /// budget is an upper bound: it only takes effect on kernels the
    /// race analysis proves thread-independent.
    pub fn set_workers(&mut self, workers: usize) {
        self.core.workers = workers.max(1);
    }

    /// The current worker budget.
    pub fn workers(&self) -> usize {
        self.core.workers
    }

    /// Sets the cutover policy and returns `self` (builder style).
    pub fn with_cutover(mut self, cutover: CutoverPolicy) -> Self {
        self.set_cutover(cutover);
        self
    }

    /// Sets when proven-independent launches may actually fan out.
    pub fn set_cutover(&mut self, cutover: CutoverPolicy) {
        self.core.cutover = cutover;
    }

    /// The current cutover policy.
    pub fn cutover(&self) -> CutoverPolicy {
        self.core.cutover
    }

    /// Installs a calibrated per-launch parallel overhead estimate (in
    /// instruction executions; min 1). Launches whose estimated work
    /// falls below it stay sequential under
    /// [`CutoverPolicy::Adaptive`].
    pub fn set_parallel_overhead_ops(&mut self, ops: u64) {
        self.core.overhead_ops = ops.max(1);
    }

    /// The modeled per-launch parallel overhead: the calibrated value
    /// if one was installed, else
    /// [`DEFAULT_COMPILED_PARALLEL_OVERHEAD_OPS`].
    pub fn parallel_overhead_ops(&self) -> u64 {
        self.core.overhead_ops
    }

    /// Cost-model inputs and path decision of the most recent
    /// [`WarpInterpreter::launch`].
    pub fn last_launch_stats(&self) -> LaunchStats {
        self.last_stats
    }

    /// Whether the most recent [`WarpInterpreter::launch`] took the
    /// parallel path (for tests and diagnostics).
    pub fn last_launch_was_parallel(&self) -> bool {
        self.last_stats.decision.is_parallel()
    }

    /// The accumulated counters (shared across launches until reset).
    pub fn ctx(&self) -> &FpCtx {
        &self.ctx
    }

    /// Enables issue-port tracing on the interpreter's context.
    pub fn enable_trace(&mut self) {
        self.ctx.enable_trace();
    }

    /// Takes the captured issue-port trace (empty unless tracing was
    /// enabled).
    pub fn take_trace(&mut self) -> Vec<crate::simt::UnitClass> {
        self.ctx.take_trace()
    }

    /// Resets the performance counters.
    pub fn reset_counters(&mut self) {
        self.ctx.reset_counters();
    }

    /// Runs `threads` threads of `prog` over the given global buffers.
    ///
    /// On the compiled engine the plan cache serves (or lowers) the
    /// `(program, config)` plan, whose stored direct-write proof
    /// replaces a per-launch dependence analysis: the launch fans out
    /// when the worker budget allows it, the proof holds and the
    /// cutover policy agrees, and runs the compiled sequential body
    /// otherwise. The interpreted engine always runs
    /// [`WarpInterpreter::launch_sequential`].
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] for unknown buffers or out-of-bounds
    /// accesses; the buffers may be partially written in that case
    /// (identically so on every execution path).
    pub fn launch(
        &mut self,
        prog: &Program,
        threads: u32,
        buffers: &mut [Vec<f32>],
    ) -> Result<(), ExecError> {
        let (stats, result) = self.core.launch(&mut self.ctx, prog, threads, buffers);
        self.last_stats = stats;
        result
    }

    /// Runs the launch on the sequential tid loop unconditionally (the
    /// reference semantics; differential tests compare against this).
    ///
    /// # Errors
    ///
    /// As for [`WarpInterpreter::launch`].
    pub fn launch_sequential(
        &mut self,
        prog: &Program,
        threads: u32,
        buffers: &mut [Vec<f32>],
    ) -> Result<(), ExecError> {
        run_interpreted(&mut self.ctx, prog, threads, buffers)
    }

    /// Builds the timing-model launch descriptor for a completed run.
    pub fn kernel_launch(&self, prog: &Program, threads: u32) -> KernelLaunch {
        KernelLaunch::new(
            prog.name.clone(),
            threads.div_ceil(256).max(1),
            threads.min(256),
            InstrMix {
                fp: self.ctx.counts().clone(),
                int_ops: self.ctx.int_ops(),
                mem_ops: self.ctx.mem_ops(),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ihw_core::config::FpOp;

    fn saxpy() -> Program {
        Program::new(
            "saxpy",
            3,
            vec![
                Instr::Movi(Reg(0), 2.0),
                Instr::Ld(Reg(1), 0, AddrMode::Tid),
                Instr::Ld(Reg(2), 1, AddrMode::Tid),
                Instr::Ffma(Reg(2), Reg(0), Reg(1), Reg(2)),
                Instr::St(1, AddrMode::Tid, Reg(2)),
            ],
        )
        .expect("valid")
    }

    #[test]
    fn saxpy_functional() {
        let mut bufs = vec![vec![1.0f32, 2.0, 3.0, 4.0], vec![10.0, 20.0, 30.0, 40.0]];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        interp.launch(&saxpy(), 4, &mut bufs).expect("runs");
        assert_eq!(bufs[1], vec![12.0, 24.0, 36.0, 48.0]);
    }

    #[test]
    fn counters_match_static_program() {
        let mut bufs = vec![vec![0.0f32; 8], vec![0.0f32; 8]];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        interp.launch(&saxpy(), 8, &mut bufs).expect("runs");
        assert_eq!(interp.ctx().counts().get(FpOp::Fma), 8);
        assert_eq!(interp.ctx().mem_ops(), 3 * 8);
        let k = interp.kernel_launch(&saxpy(), 8);
        assert_eq!(k.mix.fp.total(), 8);
        assert_eq!(k.name, "saxpy");
    }

    #[test]
    fn imprecise_config_changes_results() {
        // y = x·x with x = 1.5: Table 1 multiplier gives 2.0, not 2.25.
        let prog = Program::new(
            "square",
            2,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::Tid),
                Instr::Fmul(Reg(1), Reg(0), Reg(0)),
                Instr::St(0, AddrMode::Tid, Reg(1)),
            ],
        )
        .expect("valid");
        let mut bufs = vec![vec![1.5f32]];
        let mut interp = WarpInterpreter::new(IhwConfig::all_imprecise());
        interp.launch(&prog, 1, &mut bufs).expect("runs");
        assert_eq!(bufs[0][0], 2.0);
    }

    #[test]
    fn sfu_instructions() {
        let prog = Program::new(
            "norm",
            3,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::Tid),
                Instr::Rsqrt(Reg(1), Reg(0)),
                Instr::Sqrt(Reg(2), Reg(0)),
                Instr::Fmul(Reg(1), Reg(1), Reg(2)), // √x · 1/√x ≈ 1
                Instr::St(0, AddrMode::Tid, Reg(1)),
            ],
        )
        .expect("valid");
        let mut bufs = vec![vec![4.0f32, 9.0, 16.0]];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        interp.launch(&prog, 3, &mut bufs).expect("runs");
        for &v in &bufs[0] {
            assert!((v - 1.0).abs() < 1e-6);
        }
        assert_eq!(interp.ctx().counts().get(FpOp::Rsqrt), 3);
        assert_eq!(interp.ctx().counts().get(FpOp::Sqrt), 3);
    }

    #[test]
    fn select_is_divergence_free_conditional() {
        // out[i] = |x[i]| via sel(x > 0, x, -x).
        let prog = Program::new(
            "abs",
            4,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::Tid),
                Instr::Movi(Reg(1), -1.0),
                Instr::Fmul(Reg(1), Reg(0), Reg(1)), // -x
                Instr::Sel(Reg(2), Reg(0), Reg(0), Reg(1)),
                Instr::St(1, AddrMode::Tid, Reg(2)),
            ],
        )
        .expect("valid");
        let mut bufs = vec![vec![-3.0f32, 4.0, -0.5], vec![0.0f32; 3]];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        interp.launch(&prog, 3, &mut bufs).expect("runs");
        assert_eq!(bufs[1], vec![3.0, 4.0, 0.5]);
    }

    #[test]
    fn broadcast_and_offset_addressing() {
        let prog = Program::new(
            "shift",
            2,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::TidPlus(1)),
                Instr::Ld(Reg(1), 0, AddrMode::Abs(0)),
                Instr::Fadd(Reg(0), Reg(0), Reg(1)),
                Instr::St(1, AddrMode::Tid, Reg(0)),
            ],
        )
        .expect("valid");
        let mut bufs = vec![vec![100.0f32, 1.0, 2.0, 3.0], vec![0.0f32; 3]];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        interp.launch(&prog, 3, &mut bufs).expect("runs");
        assert_eq!(bufs[1], vec![101.0, 102.0, 103.0]);
    }

    #[test]
    fn register_validation_at_build_time() {
        let err = Program::new("bad", 2, vec![Instr::Movi(Reg(5), 0.0)]).unwrap_err();
        assert_eq!(err, ExecError::InvalidRegister { reg: 5, regs: 2 });
        assert!(err.to_string().contains("register r5"));
    }

    #[test]
    fn out_of_bounds_detected() {
        let prog = Program::new("oob", 1, vec![Instr::Ld(Reg(0), 0, AddrMode::TidPlus(10))])
            .expect("valid");
        let mut bufs = vec![vec![0.0f32; 4]];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        let err = interp.launch(&prog, 4, &mut bufs).unwrap_err();
        assert!(matches!(err, ExecError::OutOfBounds { buffer: 0, .. }));
    }

    #[test]
    fn unknown_buffer_detected() {
        let prog =
            Program::new("nobuf", 1, vec![Instr::St(3, AddrMode::Tid, Reg(0))]).expect("valid");
        let mut bufs = vec![vec![0.0f32; 4]];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        assert_eq!(
            interp.launch(&prog, 1, &mut bufs).unwrap_err(),
            ExecError::UnknownBuffer { buffer: 3 }
        );
    }

    #[test]
    fn unroll_builds_longer_kernels() {
        let base = Program::new("acc", 2, vec![Instr::Movi(Reg(0), 0.0)]).expect("valid");
        let body = [
            Instr::Movi(Reg(1), 1.0),
            Instr::Fadd(Reg(0), Reg(0), Reg(1)),
        ];
        let prog = base.unroll(&body, 10).expect("valid");
        assert_eq!(prog.instrs().len(), 1 + 20);
        let with_st = Program::new(
            "acc",
            2,
            prog.instrs()
                .iter()
                .copied()
                .chain([Instr::St(0, AddrMode::Tid, Reg(0))])
                .collect(),
        )
        .expect("valid");
        let mut bufs = vec![vec![0.0f32; 2]];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        interp.launch(&with_st, 2, &mut bufs).expect("runs");
        assert_eq!(bufs[0], vec![10.0, 10.0]);
    }

    #[test]
    fn source_lines_default_unknown_and_survive_unroll() {
        let prog = saxpy();
        assert_eq!(prog.source_line(0), None);
        assert_eq!(prog.locate(0), "saxpy#0");
        let annotated = saxpy().with_source_lines(vec![3, 4, 5, 6, 7]);
        assert_eq!(annotated.source_line(4), Some(7));
        assert_eq!(annotated.locate(4), "saxpy.s:7");
        // Unrolled instructions have no source line; originals keep theirs.
        let body = [Instr::Fadd(Reg(2), Reg(2), Reg(1))];
        let unrolled = annotated.unroll(&body, 2).expect("valid");
        assert_eq!(unrolled.source_line(0), Some(3));
        assert_eq!(unrolled.source_line(5), None);
        assert_eq!(unrolled.instrs().len(), 7);
    }

    #[test]
    fn parallel_launch_matches_sequential_bitwise() {
        let n = 1000u32;
        let x: Vec<f32> = (0..n).map(|i| 0.25 + i as f32 * 0.5).collect();
        let y: Vec<f32> = (0..n).map(|i| 1000.0 - i as f32).collect();

        let mut seq_bufs = vec![x.clone(), y.clone()];
        let mut seq = WarpInterpreter::new(IhwConfig::all_imprecise());
        seq.enable_trace();
        seq.launch(&saxpy(), n, &mut seq_bufs).expect("runs");
        assert!(!seq.last_launch_was_parallel());

        let mut par_bufs = vec![x, y];
        let mut par = WarpInterpreter::new(IhwConfig::all_imprecise())
            .with_workers(4)
            .with_cutover(CutoverPolicy::ForceParallel);
        par.enable_trace();
        par.launch(&saxpy(), n, &mut par_bufs).expect("runs");
        assert!(par.last_launch_was_parallel());
        assert_eq!(
            par.last_launch_stats().decision,
            LaunchDecision::ParallelDirect,
            "saxpy stores only its own tid slot"
        );

        for (a, b) in seq_bufs[1].iter().zip(&par_bufs[1]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(seq.ctx().counts(), par.ctx().counts());
        assert_eq!(seq.ctx().int_ops(), par.ctx().int_ops());
        assert_eq!(seq.ctx().mem_ops(), par.ctx().mem_ops());
        assert_eq!(seq.take_trace(), par.take_trace());
    }

    #[test]
    fn carried_kernel_falls_back_to_sequential() {
        // prefix[tid] += prefix[tid-1]-style chain: thread t reads what
        // thread t−1 stored, so the worker budget must be ignored.
        let prog = Program::new(
            "chain",
            1,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::TidPlus(-1)),
                Instr::St(0, AddrMode::Tid, Reg(0)),
            ],
        )
        .expect("valid");
        let mut bufs = vec![vec![7.0f32, 0.0, 0.0, 0.0]];
        // Even under ForceParallel, the fallback is proof-driven.
        let mut interp = WarpInterpreter::new(IhwConfig::precise())
            .with_workers(4)
            .with_cutover(CutoverPolicy::ForceParallel);
        // tid 0 reads element −1 → OOB; but the point is the path taken.
        let _ = interp.launch(&prog, 4, &mut bufs);
        assert!(!interp.last_launch_was_parallel());
        assert_eq!(
            interp.last_launch_stats().decision,
            LaunchDecision::SequentialUnproven
        );

        let mut bufs = vec![vec![7.0f32, 0.0, 0.0, 0.0]];
        let prog_ok = Program::new(
            "chain_fwd",
            1,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::Abs(0)),
                Instr::St(0, AddrMode::Tid, Reg(0)),
            ],
        )
        .expect("valid");
        // Broadcast read of an element thread 0 also writes: carried.
        interp.launch(&prog_ok, 4, &mut bufs).expect("runs");
        assert!(!interp.last_launch_was_parallel());
        assert_eq!(bufs[0], vec![7.0; 4]);
    }

    #[test]
    fn parallel_error_path_matches_sequential_partial_state() {
        // Thread-independent kernel that faults on the last thread: the
        // strided read runs off the end of an exactly-sized buffer.
        let prog = Program::new(
            "strided",
            1,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::TidPlus(1)),
                Instr::St(1, AddrMode::Tid, Reg(0)),
            ],
        )
        .expect("valid");
        let n = 64u32;
        let input: Vec<f32> = (0..n).map(|i| i as f32).collect();

        let mut seq_bufs = vec![input.clone(), vec![0.0f32; n as usize]];
        let mut seq = WarpInterpreter::new(IhwConfig::precise());
        let seq_err = seq.launch(&prog, n, &mut seq_bufs).unwrap_err();

        let mut par_bufs = vec![input, vec![0.0f32; n as usize]];
        let mut par = WarpInterpreter::new(IhwConfig::precise())
            .with_workers(8)
            .with_cutover(CutoverPolicy::ForceParallel);
        let par_err = par.launch(&prog, n, &mut par_bufs).unwrap_err();
        assert!(par.last_launch_was_parallel());

        assert_eq!(seq_err, par_err);
        assert_eq!(seq_bufs, par_bufs);
        assert_eq!(seq.ctx().counts(), par.ctx().counts());
        assert_eq!(seq.ctx().int_ops(), par.ctx().int_ops());
        assert_eq!(seq.ctx().mem_ops(), par.ctx().mem_ops());
    }

    #[test]
    fn allow_markers_attach_and_survive_unroll() {
        let prog = saxpy()
            .with_allow(0, "A007", "immediate kept for readability")
            .unroll(&[Instr::Fadd(Reg(2), Reg(2), Reg(1))], 1)
            .expect("valid");
        assert!(prog.is_allowed(0, "A007"));
        assert!(!prog.is_allowed(0, "A004"));
        assert!(!prog.is_allowed(1, "A007"));
        assert_eq!(prog.allows().len(), 1);
        assert_eq!(prog.allows()[0].reason, "immediate kept for readability");
    }

    #[test]
    fn tid_instruction() {
        let prog = Program::new(
            "iota",
            1,
            vec![Instr::Tid(Reg(0)), Instr::St(0, AddrMode::Tid, Reg(0))],
        )
        .expect("valid");
        let mut bufs = vec![vec![0.0f32; 4]];
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        interp.launch(&prog, 4, &mut bufs).expect("runs");
        assert_eq!(bufs[0], vec![0.0, 1.0, 2.0, 3.0]);
    }

    /// out[tid] = in[tid+1] *within one buffer*: thread-independent,
    /// but an in-place chunk write would clobber a neighbour's unread
    /// input — no direct-write proof, so the launch stays sequential.
    fn fwd_shift() -> Program {
        Program::new(
            "fwd",
            1,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::TidPlus(1)),
                Instr::St(0, AddrMode::Tid, Reg(0)),
            ],
        )
        .expect("valid")
    }

    #[test]
    fn journal_shape_stays_sequential_and_matches() {
        let n = 100u32;
        let input: Vec<f32> = (0..=n).map(|i| i as f32 * 0.25).collect();

        let mut seq_bufs = vec![input.clone()];
        let mut seq = WarpInterpreter::new(IhwConfig::precise());
        seq.launch_sequential(&fwd_shift(), n, &mut seq_bufs)
            .expect("runs");

        let mut par_bufs = vec![input];
        let mut par = WarpInterpreter::new(IhwConfig::precise())
            .with_workers(4)
            .with_cutover(CutoverPolicy::ForceParallel);
        par.launch(&fwd_shift(), n, &mut par_bufs).expect("runs");
        assert_eq!(
            par.last_launch_stats().decision,
            LaunchDecision::SequentialUnproven
        );
        assert_eq!(seq_bufs, par_bufs);
        assert_eq!(seq.ctx().mem_ops(), par.ctx().mem_ops());
    }

    #[test]
    fn journal_shape_error_path_matches_partial_state() {
        // Exactly n elements: the last thread's `tid+1` read faults.
        let n = 37u32;
        let input: Vec<f32> = (0..n).map(|i| i as f32 + 0.5).collect();

        let mut seq_bufs = vec![input.clone()];
        let mut seq = WarpInterpreter::new(IhwConfig::precise());
        let seq_err = seq
            .launch_sequential(&fwd_shift(), n, &mut seq_bufs)
            .unwrap_err();

        let mut par_bufs = vec![input];
        let mut par = WarpInterpreter::new(IhwConfig::precise())
            .with_workers(8)
            .with_cutover(CutoverPolicy::ForceParallel);
        let par_err = par.launch(&fwd_shift(), n, &mut par_bufs).unwrap_err();

        assert_eq!(
            par.last_launch_stats().decision,
            LaunchDecision::SequentialUnproven
        );
        assert_eq!(seq_err, par_err);
        assert_eq!(seq_bufs, par_bufs);
        assert_eq!(seq.ctx().counts(), par.ctx().counts());
        assert_eq!(seq.ctx().mem_ops(), par.ctx().mem_ops());
    }

    #[test]
    fn cutover_decisions_are_recorded() {
        let n = 16u32; // 5 instrs × 16 threads = 80 est_ops ≪ overhead
        let mut bufs = vec![vec![1.0f32; 16], vec![1.0f32; 16]];

        // Worker budget 1: parallelism never considered.
        let mut interp = WarpInterpreter::new(IhwConfig::precise());
        interp.launch(&saxpy(), n, &mut bufs).expect("runs");
        let stats = interp.last_launch_stats();
        assert_eq!(stats.decision, LaunchDecision::SequentialBudget);
        assert_eq!(stats.threads, n);
        assert_eq!(stats.est_ops, 5 * u64::from(n));

        // Proven independent but below the overhead floor: the
        // adaptive cutover keeps the sequential loop (on any host).
        interp.set_workers(4);
        interp.launch(&saxpy(), n, &mut bufs).expect("runs");
        assert_eq!(
            interp.last_launch_stats().decision,
            LaunchDecision::SequentialCutover
        );
        assert!(!interp.last_launch_was_parallel());

        // ForceSequential pins the loop regardless of size.
        interp.set_cutover(CutoverPolicy::ForceSequential);
        interp.set_parallel_overhead_ops(1);
        interp.launch(&saxpy(), n, &mut bufs).expect("runs");
        assert_eq!(
            interp.last_launch_stats().decision,
            LaunchDecision::SequentialCutover
        );

        // ForceParallel fans out even a tiny proven launch.
        interp.set_cutover(CutoverPolicy::ForceParallel);
        interp.launch(&saxpy(), n, &mut bufs).expect("runs");
        assert_eq!(
            interp.last_launch_stats().decision,
            LaunchDecision::ParallelDirect
        );
        assert_eq!(interp.last_launch_stats().overhead_ops, 1);
    }

    #[test]
    fn offset_store_window_is_direct_and_bitwise_identical() {
        // out[tid+2] = 3·in[tid]: shifted disjoint output windows.
        let prog = Program::new(
            "shifted",
            2,
            vec![
                Instr::Ld(Reg(0), 0, AddrMode::Tid),
                Instr::Movi(Reg(1), 3.0),
                Instr::Fmul(Reg(0), Reg(0), Reg(1)),
                Instr::St(1, AddrMode::TidPlus(2), Reg(0)),
            ],
        )
        .expect("valid");
        let n = 65u32;
        let base = vec![
            (0..n).map(|i| 0.5 + i as f32 * 0.125).collect::<Vec<f32>>(),
            vec![9.0f32; n as usize + 2],
        ];

        let mut seq_bufs = base.clone();
        let mut seq = WarpInterpreter::new(IhwConfig::precise());
        seq.launch_sequential(&prog, n, &mut seq_bufs)
            .expect("runs");

        let mut par_bufs = base;
        let mut par = WarpInterpreter::new(IhwConfig::precise())
            .with_workers(4)
            .with_cutover(CutoverPolicy::ForceParallel);
        par.launch(&prog, n, &mut par_bufs).expect("runs");
        assert_eq!(
            par.last_launch_stats().decision,
            LaunchDecision::ParallelDirect
        );
        assert_eq!(seq_bufs, par_bufs);
        // The untouched prefix survives: the windows are clamped.
        assert_eq!(par_bufs[1][0], 9.0);
        assert_eq!(par_bufs[1][1], 9.0);
    }
}

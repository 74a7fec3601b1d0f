//! Direct-threaded execution tier.
//!
//! The reference interpreter ([`crate::machine`]) dispatches twice per
//! instruction: once on "is the instruction pointer inside the block or
//! at its terminator", then on the [`DInst`] enum. This tier flattens
//! each function into one linear stream of [`TStep`]s — instructions and
//! terminators alike — where every step carries a pre-selected handler
//! `fn` pointer, so the hot loop is
//!
//! ```text
//! (code[pc].run)(&mut ctx, &code[pc])
//! ```
//!
//! with no enum match, no block/ip pair, and block transitions reduced
//! to a `pc` assignment. On top of the flat stream,
//! [`crate::fuse`] installs *superinstructions*: a fused step at the
//! first constituent's pc executes two or three original instructions in
//! one handler call, while the constituents' ordinary steps remain in
//! the stream at their original pcs (branch targets only ever enter at
//! block heads, so the overlay never changes reachability).
//!
//! # Exactness
//!
//! The tier is observationally identical to the reference interpreter —
//! byte-identical memory, counters, injection records and timing — which
//! the fault model depends on. Two mechanisms make that cheap:
//!
//! * **Event fuel.** The reference loop re-evaluates its events — fault
//!   due-ness, a pause, the step limit — at *every* instruction
//!   boundary, through the same [`crate::events`] core this tier calls.
//!   All are monotone in counters that advance by at most one per
//!   boundary — except intrinsics, whose modeled cost advances them in
//!   jumps. The threaded loop therefore computes `next_check`, the
//!   earliest boundary at which any armed event could fire, checks
//!   events only when `boundary >= next_check`, and forces a
//!   recomputation after every intrinsic (the only non-unit advance).
//!   Firing boundaries are bit-exact with the reference loop.
//! * **Fusion decomposition.** A fused step of width `W` runs only when
//!   `boundary + W <= next_check`, i.e. no event can fall between its
//!   constituents. Otherwise the step's `single` handler executes just
//!   the first constituent and control falls through to the retained
//!   per-instruction steps.
//!
//! Traced runs (the enumeration census) always use the reference loop;
//! probe replays with [`crate::ExactFault`] run threaded and fire at the
//! identical boundary.
//!
//! Instruction-skip faults ride the same machinery: a skip is an armed
//! event, so `next_check` already forces the loop to a genuine
//! single-instruction boundary (decomposing any fused group) before it
//! can fire. Firing then advances `pc` by one — exactly the reference
//! tier's fall-through to the next instruction or next block in layout
//! order, because flattening emits blocks in index order — and running
//! off the end of the function's code is the same [`Trap::CodeRunoff`].
//!
//! A pause ([`crate::Machine::run_until_due`]) is one more armed event:
//! the boundary where a random plan would be due, with the plan's own
//! fuel. The loop therefore stops at a genuine single-instruction
//! boundary, decomposing a fused group exactly as it would for the
//! injection itself, and hands its state back to the machine before
//! anything at that boundary runs. A fault armed on the paused machine
//! (or on a fork of it) is then checked first on resume, at the same
//! boundary, with the same counters, as in a run it was armed on from
//! the start.

use rskip_ir::{Intrinsic, Operand, Reg, Value};

use crate::decoded::{DFunc, DInst, DTerm, Decoded};
use crate::events::{Clock, EventFrame, Events, Stop};
use crate::fuse;
use crate::hooks::RuntimeHooks;
use crate::machine::{bin_op, cmp_op, un_op, ExecConfig, ExecTier, RunState};
use crate::machine::{Termination, Trap};
use crate::pipeline::{OpClass, Pipeline};

/// One per-step handler. Executes the step (or its fused group), updates
/// counters/pc, and says how to continue.
pub(crate) type Handler = fn(&mut Ctx<'_>, &TStep) -> Control;

/// Handler verdict.
pub(crate) enum Control {
    /// Keep going; `pc` was updated by the handler.
    Cont,
    /// Stop; `ctx.termination` is set.
    Halt,
}

pub(crate) const F_HAS_DST: u8 = 1;
pub(crate) const F_RET_VALUE: u8 = 2;
/// In a load+bin fusion, the loaded value feeds the bin's *lhs*.
pub(crate) const F_LOAD_ON_LHS: u8 = 4;

/// One flattened step: handler pointers plus a flat payload wide enough
/// for every instruction shape and for fused groups (up to three operand
/// slots, two destinations, three timing classes).
pub(crate) struct TStep {
    /// Fused handler (equals `single` for unfused steps).
    pub(crate) run: Handler,
    /// First-constituent-only handler, used when an event could fire
    /// inside the fused width or when fusion is disabled by the tier.
    pub(crate) single: Handler,
    /// Instruction boundaries consumed by `run`.
    pub(crate) width: u32,
    pub(crate) flags: u8,
    pub(crate) class: OpClass,
    pub(crate) class2: OpClass,
    pub(crate) class3: OpClass,
    pub(crate) ty: rskip_ir::Ty,
    pub(crate) bop: rskip_ir::BinOp,
    pub(crate) cop: rskip_ir::CmpOp,
    pub(crate) uop: rskip_ir::UnOp,
    pub(crate) intr: Intrinsic,
    pub(crate) a: Operand,
    pub(crate) b: Operand,
    pub(crate) c: Operand,
    pub(crate) dst: Reg,
    pub(crate) dst2: Reg,
    pub(crate) t1: u32,
    pub(crate) t2: u32,
    pub(crate) t3: u32,
    /// Branch-predictor site of a (fused) conditional branch.
    pub(crate) site: u64,
}

impl TStep {
    fn blank(single: Handler, class: OpClass) -> TStep {
        TStep {
            run: single,
            single,
            width: 1,
            flags: 0,
            class,
            class2: class,
            class3: class,
            ty: rskip_ir::Ty::I64,
            bop: rskip_ir::BinOp::Add,
            cop: rskip_ir::CmpOp::Eq,
            uop: rskip_ir::UnOp::Neg,
            intr: Intrinsic::Print,
            a: Operand::ImmI(0),
            b: Operand::ImmI(0),
            c: Operand::ImmI(0),
            dst: Reg(0),
            dst2: Reg(0),
            t1: 0,
            t2: 0,
            t3: 0,
            site: 0,
        }
    }
}

/// One function's flattened code plus cold side tables.
pub(crate) struct TFunc {
    pub(crate) code: Box<[TStep]>,
    /// Call/intrinsic argument lists, referenced by `(t1, t3)` ranges.
    pub(crate) args_pool: Box<[Operand]>,
    /// Unresolved callee names (cold trap path).
    pub(crate) names: Box<[Box<str>]>,
    /// Flat pc → `(block, ip)`; terminators carry `ip == insts.len()`.
    /// Used only on the cold injection-record path.
    pub(crate) loc: Box<[(u32, u32)]>,
}

/// A module's direct-threaded form: flattened code per function plus the
/// static fusion statistics of the peephole overlay.
pub(crate) struct ThreadedModule {
    pub(crate) funcs: Box<[TFunc]>,
    pub(crate) fusion: fuse::FusionStats,
}

/// A call frame of the threaded tier: like the reference frame but with
/// a flat pc instead of a (block, ip) pair.
#[derive(Clone, Default)]
pub(crate) struct TFrame {
    pub(crate) func: u32,
    pub(crate) pc: u32,
    pub(crate) ret_dst: Option<Reg>,
    pub(crate) regs: Vec<Value>,
    pub(crate) written: Vec<bool>,
    pub(crate) ready: Vec<u64>,
}

impl EventFrame for TFrame {
    fn func(&self) -> u32 {
        self.func
    }

    fn site(&self, prog: &Decoded<'_>) -> (u32, u32) {
        prog.unit.threaded.funcs[self.func as usize].loc[self.pc as usize]
    }

    fn written(&self) -> &[bool] {
        &self.written
    }

    fn regs_mut(&mut self) -> &mut [Value] {
        &mut self.regs
    }

    /// Flattening emits blocks in index order, so the next flat step is
    /// the reference tier's fall-through.
    fn fall_through(&mut self, prog: &Decoded<'_>) -> Result<(), Trap> {
        self.pc += 1;
        let code = &prog.unit.threaded.funcs[self.func as usize].code;
        if self.pc as usize >= code.len() {
            return Err(Trap::CodeRunoff);
        }
        Ok(())
    }
}

/// Shared execution state threaded through every handler call.
///
/// Deliberately non-generic: hooks are a `dyn` reference so handler fn
/// pointers can live in the shared [`ThreadedModule`]; dynamic dispatch
/// is paid only at intrinsic calls, which the reference tier pays too
/// (they funnel into the same [`RuntimeHooks`] object).
pub(crate) struct Ctx<'a> {
    pub(crate) tprog: &'a ThreadedModule,
    /// The running frame's flattened code — cached so the dispatch loop
    /// avoids re-indexing `tprog.funcs` every step; call/ret handlers
    /// keep it in sync with `frame.func`.
    pub(crate) code: &'a [TStep],
    pub(crate) dfuncs: &'a [DFunc],
    pub(crate) prog: &'a Decoded<'a>,
    pub(crate) global_base: &'a [i64],
    pub(crate) hooks: &'a mut dyn RuntimeHooks,
    pub(crate) mem: &'a mut [Value],
    pub(crate) pool: &'a mut Vec<TFrame>,
    /// The running (innermost) frame, kept out of `stack` so handlers
    /// reach it without a bounds-checked `last_mut`.
    pub(crate) frame: TFrame,
    /// Suspended caller frames, outermost first.
    pub(crate) stack: Vec<TFrame>,
    pub(crate) clock: Clock,
    pub(crate) pipeline: Option<Pipeline>,
    pub(crate) prints: Vec<Value>,
    pub(crate) scratch: Vec<Value>,
    /// Earliest boundary at which an armed event (a fault, a pause or
    /// the step limit) must be re-evaluated.
    pub(crate) next_check: u64,
    pub(crate) events: &'a mut Events,
    pub(crate) termination: Option<Termination>,
    pub(crate) step_limit: u64,
    pub(crate) max_call_depth: usize,
}

#[inline(always)]
fn ev(gb: &[i64], f: &TFrame, op: Operand) -> Value {
    match op {
        Operand::Reg(r) => f.regs[r.index()],
        Operand::ImmI(v) => Value::I(v),
        Operand::ImmF(v) => Value::F(v),
        Operand::Global(g) => Value::I(gb[g.index()]),
    }
}

#[inline(always)]
fn ready1(f: &TFrame, op: Operand) -> u64 {
    match op {
        Operand::Reg(r) => f.ready[r.index()],
        _ => 0,
    }
}

/// Untimed register write (the `ready` lane is never read without a
/// pipeline, so it is not maintained).
#[inline(always)]
fn wr(f: &mut TFrame, dst: Reg, v: Value) {
    let i = dst.index();
    f.regs[i] = v;
    f.written[i] = true;
}

#[inline(always)]
fn wr_t(f: &mut TFrame, dst: Reg, v: Value, ready: u64) {
    let i = dst.index();
    f.regs[i] = v;
    f.written[i] = true;
    f.ready[i] = ready;
}

#[cold]
fn halt(ctx: &mut Ctx<'_>, trap: Trap) -> Control {
    ctx.termination = Some(Termination::Trapped(trap));
    Control::Halt
}

/// Issue + write for a one-source instruction.
#[inline(always)]
fn write1(ctx: &mut Ctx<'_>, st: &TStep, v: Value) {
    match ctx.pipeline.as_mut() {
        None => wr(&mut ctx.frame, st.dst, v),
        Some(p) => {
            let done = p.issue(st.class, ready1(&ctx.frame, st.a), None);
            wr_t(&mut ctx.frame, st.dst, v, done);
        }
    }
}

/// Issue + write for a two-source instruction (`a`, `b`).
#[inline(always)]
fn write2(ctx: &mut Ctx<'_>, st: &TStep, v: Value) {
    match ctx.pipeline.as_mut() {
        None => wr(&mut ctx.frame, st.dst, v),
        Some(p) => {
            let ready = ready1(&ctx.frame, st.a).max(ready1(&ctx.frame, st.b));
            let done = p.issue(st.class, ready, None);
            wr_t(&mut ctx.frame, st.dst, v, done);
        }
    }
}

// ---------------------------------------------------------------------
// Single-instruction handlers.
// ---------------------------------------------------------------------

fn h_mov(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    ctx.clock.tick();
    let v = ev(ctx.global_base, &ctx.frame, st.a);
    write1(ctx, st, v);
    ctx.frame.pc += 1;
    Control::Cont
}

macro_rules! bin_handler_i {
    ($name:ident, |$x:ident, $y:ident| $body:expr) => {
        fn $name(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
            ctx.clock.tick();
            let $x = ev(ctx.global_base, &ctx.frame, st.a).as_i();
            let $y = ev(ctx.global_base, &ctx.frame, st.b).as_i();
            let v = Value::I($body);
            write2(ctx, st, v);
            ctx.frame.pc += 1;
            Control::Cont
        }
    };
}

macro_rules! bin_handler_f {
    ($name:ident, |$x:ident, $y:ident| $body:expr) => {
        fn $name(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
            ctx.clock.tick();
            let $x = ev(ctx.global_base, &ctx.frame, st.a).as_f();
            let $y = ev(ctx.global_base, &ctx.frame, st.b).as_f();
            let v = Value::F($body);
            write2(ctx, st, v);
            ctx.frame.pc += 1;
            Control::Cont
        }
    };
}

bin_handler_i!(h_add_i, |x, y| x.wrapping_add(y));
bin_handler_i!(h_sub_i, |x, y| x.wrapping_sub(y));
bin_handler_i!(h_mul_i, |x, y| x.wrapping_mul(y));
bin_handler_i!(h_and_i, |x, y| x & y);
bin_handler_i!(h_or_i, |x, y| x | y);
bin_handler_i!(h_xor_i, |x, y| x ^ y);
bin_handler_i!(h_shl_i, |x, y| x.wrapping_shl((y & 63) as u32));
bin_handler_i!(h_shr_i, |x, y| x.wrapping_shr((y & 63) as u32));
bin_handler_i!(h_min_i, |x, y| x.min(y));
bin_handler_i!(h_max_i, |x, y| x.max(y));
bin_handler_f!(h_add_f, |x, y| x + y);
bin_handler_f!(h_sub_f, |x, y| x - y);
bin_handler_f!(h_mul_f, |x, y| x * y);
bin_handler_f!(h_div_f, |x, y| x / y);
bin_handler_f!(h_rem_f, |x, y| x % y);
bin_handler_f!(h_min_f, |x, y| x.min(y));
bin_handler_f!(h_max_f, |x, y| x.max(y));

fn h_div_i(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    ctx.clock.tick();
    let x = ev(ctx.global_base, &ctx.frame, st.a).as_i();
    let y = ev(ctx.global_base, &ctx.frame, st.b).as_i();
    if y == 0 {
        return halt(ctx, Trap::DivByZero);
    }
    write2(ctx, st, Value::I(x.wrapping_div(y)));
    ctx.frame.pc += 1;
    Control::Cont
}

fn h_rem_i(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    ctx.clock.tick();
    let x = ev(ctx.global_base, &ctx.frame, st.a).as_i();
    let y = ev(ctx.global_base, &ctx.frame, st.b).as_i();
    if y == 0 {
        return halt(ctx, Trap::DivByZero);
    }
    write2(ctx, st, Value::I(x.wrapping_rem(y)));
    ctx.frame.pc += 1;
    Control::Cont
}

macro_rules! cmp_handler {
    ($name:ident, $cast:ident, |$x:ident, $y:ident| $body:expr) => {
        fn $name(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
            ctx.clock.tick();
            let $x = ev(ctx.global_base, &ctx.frame, st.a).$cast();
            let $y = ev(ctx.global_base, &ctx.frame, st.b).$cast();
            let v = Value::I(($body) as i64);
            write2(ctx, st, v);
            ctx.frame.pc += 1;
            Control::Cont
        }
    };
}

cmp_handler!(h_eq_i, as_i, |x, y| x == y);
cmp_handler!(h_ne_i, as_i, |x, y| x != y);
cmp_handler!(h_lt_i, as_i, |x, y| x < y);
cmp_handler!(h_le_i, as_i, |x, y| x <= y);
cmp_handler!(h_gt_i, as_i, |x, y| x > y);
cmp_handler!(h_ge_i, as_i, |x, y| x >= y);
cmp_handler!(h_eq_f, as_f, |x, y| x == y);
cmp_handler!(h_ne_f, as_f, |x, y| x != y);
cmp_handler!(h_lt_f, as_f, |x, y| x < y);
cmp_handler!(h_le_f, as_f, |x, y| x <= y);
cmp_handler!(h_gt_f, as_f, |x, y| x > y);
cmp_handler!(h_ge_f, as_f, |x, y| x >= y);

fn h_un(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    ctx.clock.tick();
    let a = ev(ctx.global_base, &ctx.frame, st.a);
    let v = un_op(st.ty, st.uop, a);
    write1(ctx, st, v);
    ctx.frame.pc += 1;
    Control::Cont
}

fn h_select(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    ctx.clock.tick();
    let c = ev(ctx.global_base, &ctx.frame, st.a).as_i();
    let v = if c != 0 {
        ev(ctx.global_base, &ctx.frame, st.b)
    } else {
        ev(ctx.global_base, &ctx.frame, st.c)
    };
    match ctx.pipeline.as_mut() {
        None => wr(&mut ctx.frame, st.dst, v),
        Some(p) => {
            let ready = ready1(&ctx.frame, st.a)
                .max(ready1(&ctx.frame, st.b))
                .max(ready1(&ctx.frame, st.c));
            let done = p.issue(st.class, ready, None);
            wr_t(&mut ctx.frame, st.dst, v, done);
        }
    }
    ctx.frame.pc += 1;
    Control::Cont
}

fn h_load(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    ctx.clock.tick();
    ctx.clock.counters.loads += 1;
    let addr = ev(ctx.global_base, &ctx.frame, st.a).as_i();
    if addr < 0 || addr as usize >= ctx.mem.len() {
        return halt(ctx, Trap::OutOfBounds { addr });
    }
    let v = ctx.mem[addr as usize];
    match ctx.pipeline.as_mut() {
        None => wr(&mut ctx.frame, st.dst, v),
        Some(p) => {
            let done = p.issue(st.class, ready1(&ctx.frame, st.a), Some(addr));
            wr_t(&mut ctx.frame, st.dst, v, done);
        }
    }
    ctx.frame.pc += 1;
    Control::Cont
}

fn h_store(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    ctx.clock.tick();
    ctx.clock.counters.stores += 1;
    let addr = ev(ctx.global_base, &ctx.frame, st.a).as_i();
    let v = ev(ctx.global_base, &ctx.frame, st.b);
    // The reference loop issues the store into the pipeline before the
    // bounds check; replicate for timing equality on trapping stores.
    if let Some(p) = ctx.pipeline.as_mut() {
        let ready = ready1(&ctx.frame, st.a).max(ready1(&ctx.frame, st.b));
        p.issue(st.class, ready, Some(addr));
    }
    if addr < 0 || addr as usize >= ctx.mem.len() {
        return halt(ctx, Trap::OutOfBounds { addr });
    }
    ctx.mem[addr as usize] = v;
    ctx.frame.pc += 1;
    Control::Cont
}

fn h_call(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    ctx.clock.tick();
    ctx.clock.counters.calls += 1;
    // `stack` holds suspended frames only; +1 counts the running frame so
    // the threshold matches the reference interpreter exactly.
    if ctx.stack.len() + 1 >= ctx.max_call_depth {
        return halt(ctx, Trap::StackOverflow);
    }
    let tprog = ctx.tprog;
    let args_pool = &tprog.funcs[ctx.frame.func as usize].args_pool;
    let args = &args_pool[st.t1 as usize..(st.t1 + st.t3) as usize];
    let mut new = acquire(ctx.pool, ctx.dfuncs, st.t2 as usize);
    let timed = ctx.pipeline.is_some();
    for (i, &a) in args.iter().enumerate() {
        new.regs[i] = ev(ctx.global_base, &ctx.frame, a);
        new.written[i] = true;
        if timed {
            new.ready[i] = ready1(&ctx.frame, a);
        }
    }
    if let Some(p) = ctx.pipeline.as_mut() {
        let mut ready = 0u64;
        for &a in args {
            ready = ready.max(ready1(&ctx.frame, a));
        }
        p.issue(st.class, ready, None);
    }
    new.ret_dst = (st.flags & F_HAS_DST != 0).then_some(st.dst);
    ctx.frame.pc += 1;
    ctx.stack.push(std::mem::replace(&mut ctx.frame, new));
    ctx.code = &ctx.tprog.funcs[st.t2 as usize].code;
    Control::Cont
}

fn h_call_unknown(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    ctx.clock.tick();
    ctx.clock.counters.calls += 1;
    if ctx.stack.len() + 1 >= ctx.max_call_depth {
        return halt(ctx, Trap::StackOverflow);
    }
    let name = ctx.tprog.funcs[ctx.frame.func as usize].names[st.t1 as usize].to_string();
    halt(ctx, Trap::UnknownFunction(name))
}

fn h_intrinsic(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    ctx.clock.tick();
    let tprog = ctx.tprog;
    let args_pool = &tprog.funcs[ctx.frame.func as usize].args_pool;
    let args = &args_pool[st.t1 as usize..(st.t1 + st.t3) as usize];
    let mut scratch = std::mem::take(&mut ctx.scratch);
    scratch.clear();
    for &a in args {
        scratch.push(ev(ctx.global_base, &ctx.frame, a));
    }
    match st.intr {
        Intrinsic::RegionEnter => ctx.clock.region_depth += 1,
        Intrinsic::RegionExit => {
            ctx.clock.region_depth = ctx.clock.region_depth.saturating_sub(1);
        }
        Intrinsic::Print => ctx.prints.push(scratch[0]),
        _ => {}
    }
    let action = ctx.hooks.intrinsic(st.intr, &scratch);
    ctx.scratch = scratch;
    ctx.clock.charge(action.cost);
    let done = match ctx.pipeline.as_mut() {
        None => 0,
        Some(p) => {
            let mut ready = 0u64;
            for &a in args {
                ready = ready.max(ready1(&ctx.frame, a));
            }
            p.issue_bulk(1 + action.cost, ready)
        }
    };
    // Intrinsic cost is the only non-unit counter advance, and region
    // markers gate region-scoped due-ness: force an event re-check at the
    // next boundary.
    ctx.next_check = ctx.clock.boundary;
    if action.trap_detected {
        return halt(ctx, Trap::FaultDetected);
    }
    if action.trap_abort {
        return halt(ctx, Trap::RuntimeAbort);
    }
    if st.flags & F_HAS_DST != 0 {
        if let Some(v) = action.value {
            match ctx.pipeline.is_some() {
                false => wr(&mut ctx.frame, st.dst, v),
                true => wr_t(&mut ctx.frame, st.dst, v, done),
            }
        }
    }
    ctx.frame.pc += 1;
    Control::Cont
}

fn h_br(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    ctx.clock.tick();
    ctx.frame.pc = st.t1;
    Control::Cont
}

fn h_condbr(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    ctx.clock.tick();
    let taken = ev(ctx.global_base, &ctx.frame, st.a).as_i() != 0;
    ctx.clock.counters.branches += 1;
    if let Some(p) = ctx.pipeline.as_mut() {
        p.branch(st.site, taken, ready1(&ctx.frame, st.a));
    }
    ctx.frame.pc = if taken { st.t1 } else { st.t2 };
    Control::Cont
}

fn h_ret(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    ctx.clock.tick();
    let value = (st.flags & F_RET_VALUE != 0).then(|| ev(ctx.global_base, &ctx.frame, st.a));
    let timed = ctx.pipeline.is_some();
    let ready = if timed && st.flags & F_RET_VALUE != 0 {
        ready1(&ctx.frame, st.a)
    } else {
        0
    };
    let ret_dst = ctx.frame.ret_dst;
    match ctx.stack.pop() {
        None => {
            ctx.termination = Some(Termination::Returned(value));
            Control::Halt
        }
        Some(caller) => {
            let done = std::mem::replace(&mut ctx.frame, caller);
            ctx.pool.push(done);
            ctx.code = &ctx.tprog.funcs[ctx.frame.func as usize].code;
            if let (Some(dst), Some(val)) = (ret_dst, value) {
                match timed {
                    false => wr(&mut ctx.frame, dst, val),
                    true => wr_t(&mut ctx.frame, dst, val, ready),
                }
            }
            Control::Cont
        }
    }
}

// ---------------------------------------------------------------------
// Fused (superinstruction) handlers. Each constituent performs exactly
// the bookkeeping its single-step handler would; the payload layout per
// pattern is documented in `crate::fuse`.
// ---------------------------------------------------------------------

/// `cmp dst, a, b ; condbr dst, t1, t2`
fn h_cmp_br(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    ctx.clock.tick();
    let a = ev(ctx.global_base, &ctx.frame, st.a);
    let b = ev(ctx.global_base, &ctx.frame, st.b);
    let taken = cmp_op(st.ty, st.cop, a, b);
    write2(ctx, st, Value::I(taken as i64));
    ctx.clock.tick();
    ctx.clock.counters.branches += 1;
    if let Some(p) = ctx.pipeline.as_mut() {
        p.branch(st.site, taken, ctx.frame.ready[st.dst.index()]);
    }
    ctx.frame.pc = if taken { st.t1 } else { st.t2 };
    Control::Cont
}

/// `load dst, [a] ; bin dst2, b, c`
fn h_load_bin(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    ctx.clock.tick();
    ctx.clock.counters.loads += 1;
    let addr = ev(ctx.global_base, &ctx.frame, st.a).as_i();
    if addr < 0 || addr as usize >= ctx.mem.len() {
        return halt(ctx, Trap::OutOfBounds { addr });
    }
    let v = ctx.mem[addr as usize];
    match ctx.pipeline.as_mut() {
        None => wr(&mut ctx.frame, st.dst, v),
        Some(p) => {
            let done = p.issue(st.class, ready1(&ctx.frame, st.a), Some(addr));
            wr_t(&mut ctx.frame, st.dst, v, done);
        }
    }
    ctx.clock.tick();
    let x = ev(ctx.global_base, &ctx.frame, st.b);
    let y = ev(ctx.global_base, &ctx.frame, st.c);
    let v = match bin_op(st.ty, st.bop, x, y) {
        Ok(v) => v,
        Err(trap) => return halt(ctx, trap),
    };
    match ctx.pipeline.as_mut() {
        None => wr(&mut ctx.frame, st.dst2, v),
        Some(p) => {
            let ready = ready1(&ctx.frame, st.b).max(ready1(&ctx.frame, st.c));
            let done = p.issue(st.class2, ready, None);
            wr_t(&mut ctx.frame, st.dst2, v, done);
        }
    }
    ctx.frame.pc += 2;
    Control::Cont
}

/// `bin dst, a, b ; store [c], dst`
fn h_bin_store(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    ctx.clock.tick();
    let x = ev(ctx.global_base, &ctx.frame, st.a);
    let y = ev(ctx.global_base, &ctx.frame, st.b);
    let v = match bin_op(st.ty, st.bop, x, y) {
        Ok(v) => v,
        Err(trap) => return halt(ctx, trap),
    };
    write2(ctx, st, v);
    ctx.clock.tick();
    ctx.clock.counters.stores += 1;
    let addr = ev(ctx.global_base, &ctx.frame, st.c).as_i();
    if let Some(p) = ctx.pipeline.as_mut() {
        let ready = ready1(&ctx.frame, st.c).max(ctx.frame.ready[st.dst.index()]);
        p.issue(st.class2, ready, Some(addr));
    }
    if addr < 0 || addr as usize >= ctx.mem.len() {
        return halt(ctx, Trap::OutOfBounds { addr });
    }
    ctx.mem[addr as usize] = ctx.frame.regs[st.dst.index()];
    ctx.frame.pc += 2;
    Control::Cont
}

/// `load dst, [a] ; bin dst2, (dst|b) ; store [c], dst2`
fn h_load_bin_store(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    ctx.clock.tick();
    ctx.clock.counters.loads += 1;
    let addr = ev(ctx.global_base, &ctx.frame, st.a).as_i();
    if addr < 0 || addr as usize >= ctx.mem.len() {
        return halt(ctx, Trap::OutOfBounds { addr });
    }
    let v = ctx.mem[addr as usize];
    match ctx.pipeline.as_mut() {
        None => wr(&mut ctx.frame, st.dst, v),
        Some(p) => {
            let done = p.issue(st.class, ready1(&ctx.frame, st.a), Some(addr));
            wr_t(&mut ctx.frame, st.dst, v, done);
        }
    }
    ctx.clock.tick();
    let loaded = ctx.frame.regs[st.dst.index()];
    let other = ev(ctx.global_base, &ctx.frame, st.b);
    let (x, y) = if st.flags & F_LOAD_ON_LHS != 0 {
        (loaded, other)
    } else {
        (other, loaded)
    };
    let v = match bin_op(st.ty, st.bop, x, y) {
        Ok(v) => v,
        Err(trap) => return halt(ctx, trap),
    };
    match ctx.pipeline.as_mut() {
        None => wr(&mut ctx.frame, st.dst2, v),
        Some(p) => {
            let ready = ready1(&ctx.frame, st.b).max(ctx.frame.ready[st.dst.index()]);
            let done = p.issue(st.class2, ready, None);
            wr_t(&mut ctx.frame, st.dst2, v, done);
        }
    }
    ctx.clock.tick();
    ctx.clock.counters.stores += 1;
    let addr = ev(ctx.global_base, &ctx.frame, st.c).as_i();
    if let Some(p) = ctx.pipeline.as_mut() {
        let ready = ready1(&ctx.frame, st.c).max(ctx.frame.ready[st.dst2.index()]);
        p.issue(st.class3, ready, Some(addr));
    }
    if addr < 0 || addr as usize >= ctx.mem.len() {
        return halt(ctx, Trap::OutOfBounds { addr });
    }
    ctx.mem[addr as usize] = ctx.frame.regs[st.dst2.index()];
    ctx.frame.pc += 3;
    Control::Cont
}

/// Generic two-wide fusion: runs this step's own single handler, then
/// the next step's, without returning to the dispatch loop. The
/// constituents keep their specialized handlers and payloads; only the
/// loop overhead (event/fuel checks, step fetch) is eliminated.
fn h_pair(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    if let Control::Halt = (st.single)(ctx, st) {
        return Control::Halt;
    }
    let code = ctx.code;
    let next = &code[ctx.frame.pc as usize];
    (next.single)(ctx, next)
}

/// Generic three-wide fusion (see [`h_pair`]).
fn h_triple(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    if let Control::Halt = (st.single)(ctx, st) {
        return Control::Halt;
    }
    let code = ctx.code;
    let next = &code[ctx.frame.pc as usize];
    if let Control::Halt = (next.single)(ctx, next) {
        return Control::Halt;
    }
    let code = ctx.code;
    let next = &code[ctx.frame.pc as usize];
    (next.single)(ctx, next)
}

/// `bin dst, a, b ; load dst2, [dst]` (address-compute-then-load)
fn h_bin_load(ctx: &mut Ctx<'_>, st: &TStep) -> Control {
    ctx.clock.tick();
    let x = ev(ctx.global_base, &ctx.frame, st.a);
    let y = ev(ctx.global_base, &ctx.frame, st.b);
    let v = match bin_op(st.ty, st.bop, x, y) {
        Ok(v) => v,
        Err(trap) => return halt(ctx, trap),
    };
    write2(ctx, st, v);
    ctx.clock.tick();
    ctx.clock.counters.loads += 1;
    let addr = ctx.frame.regs[st.dst.index()].as_i();
    if addr < 0 || addr as usize >= ctx.mem.len() {
        return halt(ctx, Trap::OutOfBounds { addr });
    }
    let loaded = ctx.mem[addr as usize];
    match ctx.pipeline.as_mut() {
        None => wr(&mut ctx.frame, st.dst2, loaded),
        Some(p) => {
            let done = p.issue(st.class2, ctx.frame.ready[st.dst.index()], Some(addr));
            wr_t(&mut ctx.frame, st.dst2, loaded, done);
        }
    }
    ctx.frame.pc += 2;
    Control::Cont
}

// ---------------------------------------------------------------------
// Lowering: DFunc → flattened TFunc stream.
// ---------------------------------------------------------------------

/// Builds the direct-threaded form of a decoded module, including the
/// superinstruction fusion overlay.
pub(crate) fn build(dfuncs: &[DFunc]) -> ThreadedModule {
    let mut fusion = fuse::FusionStats::default();
    let funcs = dfuncs
        .iter()
        .enumerate()
        .map(|(fi, df)| build_func(fi as u32, df, &mut fusion))
        .collect();
    ThreadedModule { funcs, fusion }
}

fn build_func(func: u32, df: &DFunc, fusion: &mut fuse::FusionStats) -> TFunc {
    // Pass 1: block entry pcs.
    let mut block_entry = Vec::with_capacity(df.blocks.len());
    let mut pc = 0u32;
    for b in df.blocks.iter() {
        block_entry.push(pc);
        pc += b.insts.len() as u32 + 1;
    }

    // Pass 2: lower every instruction and terminator.
    let mut code: Vec<TStep> = Vec::with_capacity(pc as usize);
    let mut args_pool: Vec<Operand> = Vec::new();
    let mut names: Vec<Box<str>> = Vec::new();
    let mut loc: Vec<(u32, u32)> = Vec::with_capacity(pc as usize);
    for (bi, b) in df.blocks.iter().enumerate() {
        for (ip, ds) in b.insts.iter().enumerate() {
            code.push(lower_inst(ds, &mut args_pool, &mut names));
            loc.push((bi as u32, ip as u32));
        }
        code.push(lower_term(&b.term, func, bi as u32, &block_entry));
        loc.push((bi as u32, b.insts.len() as u32));
    }

    // Pass 3: install the superinstruction overlay.
    fuse::fuse_function(&mut code, &df.blocks, &block_entry, fusion);

    TFunc {
        code: code.into_boxed_slice(),
        args_pool: args_pool.into_boxed_slice(),
        names: names.into_boxed_slice(),
        loc: loc.into_boxed_slice(),
    }
}

fn lower_inst(
    ds: &crate::decoded::DStep,
    args_pool: &mut Vec<Operand>,
    names: &mut Vec<Box<str>>,
) -> TStep {
    use rskip_ir::{BinOp, CmpOp, Ty};
    match &ds.op {
        DInst::Mov { dst, src } => {
            let mut st = TStep::blank(h_mov, ds.class);
            st.dst = *dst;
            st.a = *src;
            st
        }
        DInst::Bin {
            ty,
            op,
            dst,
            lhs,
            rhs,
        } => {
            let single: Handler = match (ty, op) {
                (Ty::I64, BinOp::Add) => h_add_i,
                (Ty::I64, BinOp::Sub) => h_sub_i,
                (Ty::I64, BinOp::Mul) => h_mul_i,
                (Ty::I64, BinOp::Div) => h_div_i,
                (Ty::I64, BinOp::Rem) => h_rem_i,
                (Ty::I64, BinOp::And) => h_and_i,
                (Ty::I64, BinOp::Or) => h_or_i,
                (Ty::I64, BinOp::Xor) => h_xor_i,
                (Ty::I64, BinOp::Shl) => h_shl_i,
                (Ty::I64, BinOp::Shr) => h_shr_i,
                (Ty::I64, BinOp::Min) => h_min_i,
                (Ty::I64, BinOp::Max) => h_max_i,
                (Ty::F64, BinOp::Add) => h_add_f,
                (Ty::F64, BinOp::Sub) => h_sub_f,
                (Ty::F64, BinOp::Mul) => h_mul_f,
                (Ty::F64, BinOp::Div) => h_div_f,
                (Ty::F64, BinOp::Rem) => h_rem_f,
                (Ty::F64, BinOp::Min) => h_min_f,
                (Ty::F64, BinOp::Max) => h_max_f,
                (Ty::F64, _) => unreachable!("verifier rejects bitwise float ops"),
            };
            let mut st = TStep::blank(single, ds.class);
            st.ty = *ty;
            st.bop = *op;
            st.dst = *dst;
            st.a = *lhs;
            st.b = *rhs;
            st
        }
        DInst::Un { ty, op, dst, src } => {
            let mut st = TStep::blank(h_un, ds.class);
            st.ty = *ty;
            st.uop = *op;
            st.dst = *dst;
            st.a = *src;
            st
        }
        DInst::Cmp {
            ty,
            op,
            dst,
            lhs,
            rhs,
        } => {
            let single: Handler = match (ty, op) {
                (Ty::I64, CmpOp::Eq) => h_eq_i,
                (Ty::I64, CmpOp::Ne) => h_ne_i,
                (Ty::I64, CmpOp::Lt) => h_lt_i,
                (Ty::I64, CmpOp::Le) => h_le_i,
                (Ty::I64, CmpOp::Gt) => h_gt_i,
                (Ty::I64, CmpOp::Ge) => h_ge_i,
                (Ty::F64, CmpOp::Eq) => h_eq_f,
                (Ty::F64, CmpOp::Ne) => h_ne_f,
                (Ty::F64, CmpOp::Lt) => h_lt_f,
                (Ty::F64, CmpOp::Le) => h_le_f,
                (Ty::F64, CmpOp::Gt) => h_gt_f,
                (Ty::F64, CmpOp::Ge) => h_ge_f,
            };
            let mut st = TStep::blank(single, ds.class);
            st.ty = *ty;
            st.cop = *op;
            st.dst = *dst;
            st.a = *lhs;
            st.b = *rhs;
            st
        }
        DInst::Select {
            dst,
            cond,
            on_true,
            on_false,
        } => {
            let mut st = TStep::blank(h_select, ds.class);
            st.dst = *dst;
            st.a = *cond;
            st.b = *on_true;
            st.c = *on_false;
            st
        }
        DInst::Load { dst, addr } => {
            let mut st = TStep::blank(h_load, ds.class);
            st.dst = *dst;
            st.a = *addr;
            st
        }
        DInst::Store { addr, value } => {
            let mut st = TStep::blank(h_store, ds.class);
            st.a = *addr;
            st.b = *value;
            st
        }
        DInst::Call { dst, target, args } => {
            let mut st = TStep::blank(h_call, ds.class);
            st.t1 = args_pool.len() as u32;
            st.t2 = *target;
            st.t3 = args.len() as u32;
            args_pool.extend_from_slice(args);
            if let Some(d) = dst {
                st.flags |= F_HAS_DST;
                st.dst = *d;
            }
            st
        }
        DInst::CallUnknown { name } => {
            let mut st = TStep::blank(h_call_unknown, ds.class);
            st.t1 = names.len() as u32;
            names.push(name.clone());
            st
        }
        DInst::IntrinsicCall { dst, intr, args } => {
            let mut st = TStep::blank(h_intrinsic, ds.class);
            st.intr = *intr;
            st.t1 = args_pool.len() as u32;
            st.t3 = args.len() as u32;
            args_pool.extend_from_slice(args);
            if let Some(d) = dst {
                st.flags |= F_HAS_DST;
                st.dst = *d;
            }
            st
        }
    }
}

fn lower_term(term: &DTerm, func: u32, block: u32, block_entry: &[u32]) -> TStep {
    // Terminators are classified as branches by the timing model, like
    // the reference loop's terminator arm (which issues nothing for Br
    // and Ret, and only `branch()`es for CondBr).
    match term {
        DTerm::Br(t) => {
            let mut st = TStep::blank(h_br, OpClass::Alu);
            st.t1 = block_entry[*t as usize];
            st
        }
        DTerm::CondBr {
            cond,
            on_true,
            on_false,
        } => {
            let mut st = TStep::blank(h_condbr, OpClass::Alu);
            st.a = *cond;
            st.t1 = block_entry[*on_true as usize];
            st.t2 = block_entry[*on_false as usize];
            st.site = (u64::from(func) << 32) | u64::from(block);
            st
        }
        DTerm::Ret(v) => {
            let mut st = TStep::blank(h_ret, OpClass::Alu);
            if let Some(op) = v {
                st.flags |= F_RET_VALUE;
                st.a = *op;
            }
            st
        }
    }
}

/// Handler table shared with `crate::fuse` so the overlay can install
/// fused entry points without knowing handler internals.
pub(crate) const FUSED: fuse::FusedHandlers = fuse::FusedHandlers {
    cmp_br: h_cmp_br,
    load_bin: h_load_bin,
    bin_store: h_bin_store,
    load_bin_store: h_load_bin_store,
    bin_load: h_bin_load,
    pair: h_pair,
    triple: h_triple,
};

// ---------------------------------------------------------------------
// The threaded execution loop.
// ---------------------------------------------------------------------

/// Pops a recycled frame (or a fresh one) and initializes it for `func`.
pub(crate) fn acquire(pool: &mut Vec<TFrame>, dfuncs: &[DFunc], func: usize) -> TFrame {
    let init = &dfuncs[func].reg_init;
    let n = init.len();
    let mut fr = pool.pop().unwrap_or_default();
    fr.func = func as u32;
    fr.pc = 0;
    fr.ret_dst = None;
    fr.regs.clear();
    fr.regs.extend_from_slice(init);
    fr.written.clear();
    fr.written.resize(n, false);
    fr.ready.clear();
    fr.ready.resize(n, 0);
    fr
}

/// Continues the run in flight on the threaded tier until it ends
/// (`Some`) or a pause comes due (`None`). Semantics are byte-identical
/// to [`crate::machine`]'s reference loop (see the module docs for the
/// exactness argument).
pub(crate) fn exec_threaded(
    prog: &Decoded<'_>,
    hooks: &mut dyn RuntimeHooks,
    config: &ExecConfig,
    mem: &mut [Value],
    pool: &mut Vec<TFrame>,
    run: &mut RunState,
) -> Option<Termination> {
    let unit = &*prog.unit;
    let mut stack = std::mem::take(&mut run.tstack);
    let frame = stack.pop().expect("a run in flight");
    let fuse_enabled = config.tier == ExecTier::Threaded;
    let mut ctx = Ctx {
        tprog: &unit.threaded,
        code: &unit.threaded.funcs[frame.func as usize].code,
        dfuncs: &unit.funcs,
        prog,
        global_base: &unit.global_base,
        hooks,
        mem,
        pool,
        frame,
        stack,
        clock: run.clock,
        pipeline: run.pipeline.take(),
        prints: std::mem::take(&mut run.prints),
        scratch: Vec::new(),
        // Check events before the first step, mirroring the reference
        // loop's check-first ordering.
        next_check: 0,
        events: &mut run.events,
        termination: None,
        step_limit: config.step_limit,
        max_call_depth: config.max_call_depth,
    };

    let termination = loop {
        if ctx.clock.boundary >= ctx.next_check {
            if let Err(stop) = handle_events(&mut ctx) {
                break stop.termination();
            }
        }
        let code = ctx.code;
        let step = &code[ctx.frame.pc as usize];
        let ctl = if step.width == 1
            || (fuse_enabled && ctx.clock.boundary + u64::from(step.width) <= ctx.next_check)
        {
            (step.run)(&mut ctx, step)
        } else {
            (step.single)(&mut ctx, step)
        };
        match ctl {
            Control::Cont => {}
            Control::Halt => {
                break Some(ctx.termination.take().expect("handler set termination"));
            }
        }
    };

    let Ctx {
        frame,
        mut stack,
        clock,
        pipeline,
        prints,
        ..
    } = ctx;
    stack.push(frame);
    run.tstack = stack;
    run.clock = clock;
    run.pipeline = pipeline;
    run.prints = prints;
    termination
}

/// Runs the events due at this boundary and recomputes the fuel until
/// the next check.
#[cold]
fn handle_events(ctx: &mut Ctx<'_>) -> Result<(), Stop> {
    ctx.events.at_boundary(
        &mut ctx.clock,
        ctx.step_limit,
        &mut *ctx.hooks,
        ctx.prog,
        &mut ctx.stack,
        &mut ctx.frame,
    )?;
    ctx.next_check = ctx.events.next_check(&ctx.clock, ctx.step_limit);
    Ok(())
}

//! The event core both execution tiers share.
//!
//! An *event* is something armed on a run that must happen at an exact
//! instruction boundary: a fault ([`ArmedFault`]), a pause
//! ([`crate::Machine::run_until_due`]) or the step limit. The reference
//! loop calls [`Events::at_boundary`] at every boundary; the threaded
//! loop calls it whenever its event fuel ([`Events::next_check`]) runs
//! out. Due-ness, the skip model's hold-fire rule and every injector
//! therefore exist once, written against [`EventFrame`], the view of a
//! call frame both tiers' frame layouts provide.

use rand::{Rng, SeedableRng};
use rskip_ir::{BlockId, Reg, Value};

use crate::counters::Counters;
use crate::decoded::{DInst, Decoded};
use crate::fault::{
    burst_window, ExactFault, ExactFaultKind, FaultEffect, FaultModel, InjectionPlan,
    InjectionRecord,
};
use crate::hooks::RuntimeHooks;
use crate::machine::{Termination, Trap};

/// An armed fault: a random draw from a fault model, a deterministic
/// exact fault, or a strike against the prediction runtime's own
/// metadata.
#[derive(Clone, Copy)]
pub(crate) enum ArmedFault {
    Random(InjectionPlan),
    Exact(ExactFault),
    RuntimeState { trigger: u64, seed: u64 },
}

impl ArmedFault {
    fn due(&self, clock: &Clock) -> bool {
        match self {
            ArmedFault::Random(plan) => plan_due(plan, clock),
            ArmedFault::Exact(fault) => clock.boundary >= fault.at,
            // The runtime's own metadata outlives region activations (the
            // pending queue, for one, drains in the post-exit flush
            // recheck), so once the trigger count is reached the strike
            // may land at any boundary, in or out of a region.
            ArmedFault::RuntimeState { trigger, .. } => clock.counters.region_retired >= *trigger,
        }
    }

    fn fuel(&self, clock: &Clock) -> u64 {
        match self {
            ArmedFault::Random(plan) => plan_fuel(plan, clock),
            // `.max(1)`: an exact skip held over an intrinsic is already
            // past `at` and retries at the next boundary.
            ArmedFault::Exact(fault) => fault.at.saturating_sub(clock.boundary).max(1),
            // Once due, a strike that found no live target retries at
            // every boundary.
            ArmedFault::RuntimeState { trigger, .. } => {
                trigger.saturating_sub(clock.counters.region_retired).max(1)
            }
        }
    }

    fn skips(&self) -> bool {
        matches!(
            self,
            ArmedFault::Random(InjectionPlan {
                model: FaultModel::InstructionSkip,
                ..
            }) | ArmedFault::Exact(ExactFault {
                kind: ExactFaultKind::Skip,
                ..
            })
        )
    }
}

/// Whether a random plan is due: its trigger is reached in its count,
/// and a region-scoped plan fires only inside a region.
fn plan_due(plan: &InjectionPlan, clock: &Clock) -> bool {
    if plan.anywhere {
        clock.counters.retired >= plan.trigger
    } else {
        clock.region_depth > 0 && clock.counters.region_retired >= plan.trigger
    }
}

fn plan_fuel(plan: &InjectionPlan, clock: &Clock) -> u64 {
    if plan.anywhere {
        // `.max(1)`: a due skip held over an intrinsic stays armed past
        // its trigger and retries at the next boundary.
        plan.trigger.saturating_sub(clock.counters.retired).max(1)
    } else if clock.counters.region_retired >= plan.trigger {
        // Due-ness now only awaits a RegionEnter, which is an intrinsic
        // and forces its own re-check.
        u64::MAX
    } else {
        plan.trigger - clock.counters.region_retired
    }
}

/// The monotone position of a run that every event is timed against.
#[derive(Clone, Copy, Default)]
pub(crate) struct Clock {
    pub(crate) counters: Counters,
    /// Nesting depth of protection regions.
    pub(crate) region_depth: u32,
    /// Instruction boundaries crossed so far. Differs from
    /// `counters.retired` because intrinsic actions charge extra modeled
    /// instructions; exact faults and the enumeration census count actual
    /// boundaries so they stay in lockstep across runs.
    pub(crate) boundary: u64,
}

impl Clock {
    /// Retires the instruction at one boundary.
    #[inline(always)]
    pub(crate) fn tick(&mut self) {
        self.boundary += 1;
        self.counters.retired += 1;
        if self.region_depth > 0 {
            self.counters.region_retired += 1;
        }
    }

    /// Charges an intrinsic's modeled cost — the only advance of the
    /// counters by more than one per boundary.
    #[inline(always)]
    pub(crate) fn charge(&mut self, cost: u64) {
        self.counters.retired += cost;
        if self.region_depth > 0 {
            self.counters.region_retired += cost;
        }
    }
}

/// What the event core needs of a call frame. The tiers lay frames out
/// differently: a `(block, ip)` pair in the reference tier, a flat pc in
/// the threaded one.
pub(crate) trait EventFrame {
    fn func(&self) -> u32;
    /// `(block, ip)` of the step the frame executes next; a terminator
    /// has `ip == insts.len()`.
    fn site(&self, prog: &Decoded<'_>) -> (u32, u32);
    fn written(&self) -> &[bool];
    fn regs_mut(&mut self) -> &mut [Value];
    /// Moves past the next step without executing it: to the next
    /// instruction, or after a terminator to the next block in layout
    /// order. Skipping the terminator of a function's last block leaves
    /// nothing to fall through to: [`Trap::CodeRunoff`].
    fn fall_through(&mut self, prog: &Decoded<'_>) -> Result<(), Trap>;
}

/// Why a run stopped at a boundary.
pub(crate) enum Stop {
    /// A pause came due; nothing at this boundary has happened yet.
    Pause,
    Trap(Trap),
}

impl Stop {
    /// The run's termination; `None` for a pause.
    pub(crate) fn termination(self) -> Option<Termination> {
        match self {
            Stop::Pause => None,
            Stop::Trap(trap) => Some(Termination::Trapped(trap)),
        }
    }
}

/// The events armed on a run, and what the faults among them did.
#[derive(Clone, Default)]
pub(crate) struct Events {
    pub(crate) armed: Option<ArmedFault>,
    /// Pause at the first boundary where this plan would be due.
    pub(crate) pause: Option<InjectionPlan>,
    pub(crate) injected: Option<InjectionRecord>,
    pub(crate) state_injected: Option<String>,
}

impl Events {
    /// Handles the current boundary before its step executes: a due
    /// pause stops the run first, so a fault armed on the paused run
    /// fires at this very boundary on resume, as it would have from the
    /// start; then a due fault fires; then the step limit is checked.
    #[inline]
    pub(crate) fn at_boundary<F: EventFrame>(
        &mut self,
        clock: &mut Clock,
        step_limit: u64,
        hooks: &mut dyn RuntimeHooks,
        prog: &Decoded<'_>,
        outer: &mut [F],
        inner: &mut F,
    ) -> Result<(), Stop> {
        if self.armed.is_some() || self.pause.is_some() {
            self.fire_due(clock, hooks, prog, outer, inner)?;
        }
        if clock.counters.retired >= step_limit {
            return Err(Stop::Trap(Trap::StepLimit));
        }
        Ok(())
    }

    #[inline(never)]
    fn fire_due<F: EventFrame>(
        &mut self,
        clock: &mut Clock,
        hooks: &mut dyn RuntimeHooks,
        prog: &Decoded<'_>,
        outer: &mut [F],
        inner: &mut F,
    ) -> Result<(), Stop> {
        loop {
            if self.pause.is_some_and(|p| plan_due(&p, clock)) {
                self.pause = None;
                return Err(Stop::Pause);
            }
            let Some(armed) = self.armed else {
                return Ok(());
            };
            if !armed.due(clock) {
                return Ok(());
            }
            let at_retired = clock.counters.retired;
            self.injected = match armed {
                // A skip swallows the step the boundary is about to run.
                // It strikes architectural instructions only: over an
                // intrinsic (the runtime interface executes host-side) it
                // holds fire and retries at the next boundary, like a
                // runtime-state fault with no live target.
                _ if armed.skips() => {
                    if next_is_intrinsic(prog, inner) {
                        return Ok(());
                    }
                    self.armed = None;
                    let effect = FaultEffect::SkippedInstruction;
                    self.injected = Some(record(prog, inner, at_retired, effect));
                    // The bubble still retires; the next boundary is
                    // checked in turn.
                    clock.tick();
                    inner.fall_through(prog).map_err(Stop::Trap)?;
                    continue;
                }
                ArmedFault::Random(plan) => random_target(&plan, outer, inner)
                    .map(|(frame, kind)| strike(prog, frame, kind, at_retired)),
                // A never-written register is architecturally invisible:
                // the verifier guarantees it is never read on this path.
                ArmedFault::Exact(fault) => match fault.kind {
                    ExactFaultKind::BitFlip { reg, .. } | ExactFaultKind::Burst { reg, .. }
                        if inner.written().get(reg.index()) == Some(&true) =>
                    {
                        Some(strike(prog, inner, fault.kind, at_retired))
                    }
                    _ => None,
                },
                ArmedFault::RuntimeState { seed, .. } => {
                    // With no live state of the chosen kind at this
                    // boundary, the fault stays armed for the next one.
                    if let Some(site) = hooks.flip_runtime_state(seed) {
                        self.armed = None;
                        self.state_injected = Some(site);
                    }
                    return Ok(());
                }
            };
            self.armed = None;
            return Ok(());
        }
    }

    /// The earliest boundary at which an event could come due, assuming
    /// every counter advances by at most one per boundary (intrinsics,
    /// the only exception, force a re-check themselves). Only valid right
    /// after [`Events::at_boundary`] returned `Ok`.
    pub(crate) fn next_check(&self, clock: &Clock, step_limit: u64) -> u64 {
        let mut fuel = step_limit - clock.counters.retired;
        if let Some(armed) = &self.armed {
            fuel = fuel.min(armed.fuel(clock));
        }
        if let Some(pause) = &self.pause {
            fuel = fuel.min(plan_fuel(pause, clock));
        }
        clock.boundary.saturating_add(fuel)
    }
}

fn record<F: EventFrame>(
    prog: &Decoded<'_>,
    frame: &F,
    at_retired: u64,
    effect: FaultEffect,
) -> InjectionRecord {
    let (block, ip) = frame.site(prog);
    InjectionRecord {
        function: prog.module.functions[frame.func() as usize].name.clone(),
        block: BlockId(block),
        ip: ip as usize,
        at_retired,
        effect,
    }
}

fn next_is_intrinsic<F: EventFrame>(prog: &Decoded<'_>, frame: &F) -> bool {
    let (block, ip) = frame.site(prog);
    prog.unit.funcs[frame.func() as usize].blocks[block as usize]
        .insts
        .get(ip as usize)
        .is_some_and(|step| matches!(step.op, DInst::IntrinsicCall { .. }))
}

/// Draws the target of a random register fault: one live register of
/// any active frame (the architectural register file is shared state on
/// real hardware) and the effect of `plan.model` on it. Targets are
/// enumerated outermost frame first, and the target draw precedes the
/// effect draw for every model, so the SEU stream is the one the
/// original single-model injector drew.
fn random_target<'f, F: EventFrame>(
    plan: &InjectionPlan,
    outer: &'f mut [F],
    inner: &'f mut F,
) -> Option<(&'f mut F, ExactFaultKind)> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(plan.seed);
    let mut targets: Vec<(usize, usize)> = Vec::new();
    for (fi, frame) in outer.iter().chain(std::iter::once(&*inner)).enumerate() {
        let live = frame.written().iter().enumerate().filter(|(_, &w)| w);
        targets.extend(live.map(|(ri, _)| (fi, ri)));
    }
    if targets.is_empty() {
        return None;
    }
    let (fi, ri) = targets[rng.gen_range(0..targets.len())];
    let reg = Reg(ri as u32);
    let kind = match plan.model {
        FaultModel::InstructionSkip => unreachable!("skip faults retire as bubbles"),
        FaultModel::SingleBitSeu => ExactFaultKind::BitFlip {
            reg,
            bit: rng.gen_range(0..64u32),
        },
        FaultModel::MultiBitBurst { width } => {
            let width = width.clamp(1, 64);
            ExactFaultKind::Burst {
                reg,
                start: rng.gen_range(0..(65 - width)),
                width,
            }
        }
    };
    Some((outer.get_mut(fi).unwrap_or(inner), kind))
}

/// Flips the bits `kind` names in `frame` and records the flip as
/// applied.
fn strike<F: EventFrame>(
    prog: &Decoded<'_>,
    frame: &mut F,
    kind: ExactFaultKind,
    at_retired: u64,
) -> InjectionRecord {
    let (reg, mask) = match kind {
        ExactFaultKind::BitFlip { reg, bit } => (reg, 1u64 << bit.min(63)),
        ExactFaultKind::Burst { reg, start, width } => (reg, burst_window(start, width).2),
        ExactFaultKind::Skip => unreachable!("skip faults retire as bubbles"),
    };
    let slot = &mut frame.regs_mut()[reg.index()];
    let old = *slot;
    *slot = old.with_bits_flipped(mask);
    let (old_bits, new_bits) = (old.bits(), slot.bits());
    let effect = match kind {
        ExactFaultKind::BitFlip { reg, bit } => FaultEffect::BitFlip {
            reg,
            bit,
            old_bits,
            new_bits,
        },
        ExactFaultKind::Burst { reg, start, width } => {
            let (start, width, _) = burst_window(start, width);
            FaultEffect::Burst {
                reg,
                start,
                width,
                old_bits,
                new_bits,
            }
        }
        ExactFaultKind::Skip => unreachable!("skip faults retire as bubbles"),
    };
    record(prog, frame, at_retired, effect)
}

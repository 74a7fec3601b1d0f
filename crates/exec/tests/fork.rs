//! Pausing, forking and resuming a run against the uninterrupted oracle.
//!
//! A trial forked from a paused golden run must end byte-identical to
//! the same trial run from scratch — outcome, counters, injection record,
//! memory image and hook state — on every tier. These micro modules aim
//! at the edges of that equivalence: a trigger that never comes due, a
//! fault that hangs, several trials cut at one boundary, a skip held over
//! an intrinsic at the pause boundary, and a clone resumed side by side
//! with its original.

use rskip_exec::{
    ExecConfig, ExecTier, FaultEffect, FaultModel, InjectionPlan, IntrinsicAction, Machine,
    NoopHooks, RunOutcome, RuntimeHooks, Termination, Trap,
};
use rskip_ir::{BinOp, CmpOp, Intrinsic, Module, ModuleBuilder, Operand, Ty, Value};

const TIERS: [ExecTier; 2] = [ExecTier::Match, ExecTier::Threaded];

/// Hooks whose `print` charges a modeled cost and that count their
/// calls, so forked hook state shows in the comparison.
#[derive(Clone)]
struct Counting {
    print_cost: u64,
    calls: u64,
}

impl RuntimeHooks for Counting {
    fn intrinsic(&mut self, intr: Intrinsic, args: &[Value]) -> IntrinsicAction {
        self.calls += 1;
        match intr {
            Intrinsic::Print => IntrinsicAction::void(self.print_cost),
            _ => NoopHooks.intrinsic(intr, args),
        }
    }

    fn fork(&self) -> Option<Self> {
        Some(self.clone())
    }
}

type Snapshot = (RunOutcome, Vec<Value>, u64);

fn machine(module: &Module, tier: ExecTier, print_cost: u64) -> Machine<'_, Counting> {
    let hooks = Counting {
        print_cost,
        calls: 0,
    };
    let config = ExecConfig {
        step_limit: 5_000,
        tier,
        ..ExecConfig::default()
    };
    Machine::with_config(module, hooks, config)
}

fn snapshot(m: &Machine<'_, Counting>, out: RunOutcome) -> Snapshot {
    (out, m.memory().to_vec(), m.hooks().calls)
}

/// Each plan armed on a fresh machine and run from the start.
fn from_scratch(
    module: &Module,
    tier: ExecTier,
    cost: u64,
    plans: &[InjectionPlan],
) -> Vec<Snapshot> {
    plans
        .iter()
        .map(|plan| {
            let mut m = machine(module, tier, cost);
            m.set_injection(*plan);
            let out = m.run("main", &[]);
            snapshot(&m, out)
        })
        .collect()
}

/// Each plan armed on a fork of one golden run, cut where the plan comes
/// due; `plans` must be in trigger order.
fn forked(module: &Module, tier: ExecTier, cost: u64, plans: &[InjectionPlan]) -> Vec<Snapshot> {
    let mut golden = machine(module, tier, cost);
    golden.start("main", &[]);
    let mut ended = None;
    plans
        .iter()
        .map(|plan| {
            if ended.is_none() {
                ended = golden.run_until_due(plan);
            }
            match &ended {
                Some(out) => snapshot(&golden, out.clone()),
                None => {
                    let mut fork = golden.fork().expect("counting hooks fork");
                    fork.set_injection(*plan);
                    let out = fork.resume();
                    snapshot(&fork, out)
                }
            }
        })
        .collect()
}

fn assert_forks_match(module: &Module, cost: u64, plans: &[InjectionPlan]) -> Vec<Snapshot> {
    let oracle = from_scratch(module, ExecTier::Match, cost, plans);
    for tier in TIERS {
        assert_eq!(
            forked(module, tier, cost, plans),
            oracle,
            "forked runs on {tier} differ from scratch"
        );
    }
    oracle
}

fn plan(trigger: u64, seed: u64, model: FaultModel) -> InjectionPlan {
    InjectionPlan {
        trigger,
        seed,
        anywhere: false,
        model,
    }
}

/// `region { x = 1 + 2; print x; y = x * 10; store y } ; ret y`
fn printing_region() -> Module {
    let mut mb = ModuleBuilder::new("fork_print");
    let out = mb.global_zeroed("out", Ty::I64, 1);
    let mut f = mb.function("main", vec![], Some(Ty::I64));
    f.intrinsic(Intrinsic::RegionEnter, vec![Operand::imm_i(0)]);
    let x = f.bin(BinOp::Add, Ty::I64, Operand::imm_i(1), Operand::imm_i(2));
    f.intrinsic(Intrinsic::Print, vec![Operand::reg(x)]);
    let y = f.bin(BinOp::Mul, Ty::I64, Operand::reg(x), Operand::imm_i(10));
    f.store(Ty::I64, Operand::global(out), Operand::reg(y));
    f.intrinsic(Intrinsic::RegionExit, vec![Operand::imm_i(0)]);
    f.ret(Some(Operand::reg(y)));
    f.finish();
    mb.finish()
}

/// `region { i = 0; do { i = i + 1 } while i != 20 } ; store i` — a
/// corrupted counter runs away to the step limit.
fn counting_loop() -> Module {
    let mut mb = ModuleBuilder::new("fork_loop");
    let out = mb.global_zeroed("out", Ty::I64, 1);
    let mut f = mb.function("main", vec![], None);
    let entry = f.entry_block();
    let body = f.new_block("body");
    let exit = f.new_block("exit");
    let i = f.def_reg(Ty::I64, "i");
    f.switch_to(entry);
    f.intrinsic(Intrinsic::RegionEnter, vec![Operand::imm_i(0)]);
    f.mov(i, Operand::imm_i(0));
    f.br(body);
    f.switch_to(body);
    f.bin_into(i, BinOp::Add, Ty::I64, Operand::reg(i), Operand::imm_i(1));
    let c = f.cmp(CmpOp::Ne, Ty::I64, Operand::reg(i), Operand::imm_i(20));
    f.cond_br(Operand::reg(c), body, exit);
    f.switch_to(exit);
    f.intrinsic(Intrinsic::RegionExit, vec![Operand::imm_i(0)]);
    f.store(Ty::I64, Operand::global(out), Operand::reg(i));
    f.ret(None);
    f.finish();
    mb.finish()
}

#[test]
fn trigger_never_due_gives_the_unfired_golden_run() {
    // The print's modeled cost jumps region_retired from 2 to 102, past
    // trigger 50, which then comes due at the mul. The region's exit
    // retires its last instruction, carrying region_retired to its final
    // count R as the region closes: a trigger of R or more is never due.
    let m = printing_region();
    let mut clean = machine(&m, ExecTier::Match, 100);
    let region_total = clean.run("main", &[]).counters.region_retired;
    let plans = [
        plan(50, 1, FaultModel::SingleBitSeu),
        plan(region_total, 2, FaultModel::SingleBitSeu),
        plan(region_total + 300, 3, FaultModel::InstructionSkip),
    ];
    let oracle = assert_forks_match(&m, 100, &plans);
    assert_eq!(
        oracle[0].0.injection.as_ref().map(|rec| rec.at_retired),
        Some(103),
        "trigger 50 fires at the mul, after the print's jump"
    );
    for (out, ..) in &oracle[1..] {
        assert!(out.injection.is_none(), "never-due trigger fired");
        assert_eq!(out.termination, Termination::Returned(Some(Value::I(30))));
    }
}

#[test]
fn hang_hits_the_step_limit_at_the_same_retired_count() {
    let m = counting_loop();
    let plans: Vec<_> = (0..48)
        .map(|seed| plan(10 + seed / 8, seed, FaultModel::SingleBitSeu))
        .collect();
    let oracle = assert_forks_match(&m, 0, &plans);
    let hangs: Vec<_> = oracle
        .iter()
        .filter(|(out, ..)| out.termination == Termination::Trapped(Trap::StepLimit))
        .collect();
    assert!(
        !hangs.is_empty(),
        "no seed corrupted the counter into a hang"
    );
    for (out, ..) in hangs {
        // The prefix before the fork counts toward the limit.
        assert_eq!(out.counters.retired, 5_000);
    }
}

#[test]
fn trials_sharing_a_trigger_fork_from_one_pause() {
    let m = counting_loop();
    let plans: Vec<_> = [FaultModel::SingleBitSeu, FaultModel::InstructionSkip]
        .into_iter()
        .flat_map(|model| (0..6).map(move |seed| plan(25, seed, model)))
        .collect();
    assert_forks_match(&m, 0, &plans);

    // A second pause at an already-due trigger cuts at the same boundary.
    for tier in TIERS {
        let mut golden = machine(&m, tier, 0);
        golden.start("main", &[]);
        assert!(golden.run_until_due(&plans[0]).is_none());
        let once = golden.fork().expect("fork").resume();
        assert!(golden.run_until_due(&plans[0]).is_none());
        assert_eq!(golden.fork().expect("fork").resume(), once);
    }
}

#[test]
fn skip_due_at_an_intrinsic_holds_fire_after_the_pause() {
    // Trigger 1 comes due at the print boundary (the add retired inside
    // the region), so the pause sits on an intrinsic: the skip armed on
    // the fork must hold fire over it and swallow the mul instead.
    let m = printing_region();
    let plans: Vec<_> = (0..4)
        .map(|seed| plan(1, seed, FaultModel::InstructionSkip))
        .collect();
    let oracle = assert_forks_match(&m, 0, &plans);
    for (out, ..) in &oracle {
        let rec = out.injection.as_ref().expect("held skip fires later");
        assert_eq!(rec.effect, FaultEffect::SkippedInstruction);
        assert_eq!(rec.ip, 3, "the mul after the print is skipped");
        assert_eq!(out.prints, vec![Value::I(3)]);
    }
}

#[test]
fn clone_resumed_beside_its_original_ends_like_an_uninterrupted_run() {
    for (module, cost) in [(counting_loop(), 0), (printing_region(), 7)] {
        for tier in TIERS {
            let mut whole = machine(&module, tier, cost);
            let out = whole.run("main", &[]);
            let uninterrupted = snapshot(&whole, out);

            let mut original = machine(&module, tier, cost);
            original.start("main", &[]);
            let pause = plan(2, 0, FaultModel::SingleBitSeu);
            assert!(original.run_until_due(&pause).is_none(), "paused mid-run");
            let mut clone = original.fork().expect("fork");
            let out = clone.resume();
            assert_eq!(snapshot(&clone, out), uninterrupted, "clone on {tier}");
            let out = original.resume();
            assert_eq!(
                snapshot(&original, out),
                uninterrupted,
                "original on {tier}"
            );
        }
    }
}

//! Golden-forked campaign trials against the from-scratch oracle.
//!
//! `Campaign::trial_outcomes_on` runs every trial of a chunk as a suffix
//! forked from one golden run. Each of those trials must be exactly the
//! trial `Campaign::run_trial` runs from scratch on the reference
//! `ExecTier::Match` interpreter: class, `fired` and `recovered` alike,
//! for every benchmark, scheme and fault model, on both the reference and
//! the threaded tier, serial and pipelined. For one protected benchmark
//! the whole `RunOutcome` is compared as well — counters, injection
//! record with its `at_retired`, prints — together with the memory image
//! and the recovery count.

use rskip_exec::{ExecTier, FaultModel, Machine, NoopHooks, RuntimeHooks};
use rskip_harness::campaign::run_forked;
use rskip_harness::experiment::{all_bench_names, campaign_seed};
use rskip_harness::{ArSetting, Campaign, Engine, EvalOptions, SchemeVariant};
use rskip_ir::{Module, Value};
use rskip_workloads::{InputSet, SizeProfile};

const TRIALS: u32 = 12;
const AR20: ArSetting = ArSetting { percent: 20 };

fn tiny_engine() -> Engine {
    Engine::new(EvalOptions {
        size: SizeProfile::Tiny,
        train_seeds: vec![1000, 1001],
        ..EvalOptions::default()
    })
}

fn models() -> [FaultModel; 3] {
    [
        FaultModel::SingleBitSeu,
        FaultModel::InstructionSkip,
        FaultModel::MultiBitBurst { width: 4 },
    ]
}

/// Checks one campaign's forked trials against the oracle; returns how
/// many of them fired.
#[allow(clippy::too_many_arguments)]
fn check_cell<H: RuntimeHooks>(
    label: &str,
    module: &Module,
    input: &InputSet,
    golden: &[Value],
    output: &str,
    seed0: u64,
    model: FaultModel,
    make: impl Fn() -> H + Sync,
    observe: impl Fn(&H) -> u64 + Sync,
) -> usize {
    let mut campaign = Campaign::new(module, input, golden, output, &make, seed0, TRIALS);
    campaign.set_fault_model(model);
    campaign.set_tier(ExecTier::Match);
    let oracle: Vec<_> = (0..TRIALS)
        .map(|trial| campaign.run_trial(trial, &make, &observe))
        .collect();
    for tier in [ExecTier::Match, ExecTier::Threaded] {
        campaign.set_tier(tier);
        for threads in [1, 3] {
            let forked = campaign.trial_outcomes_on(threads, 0..TRIALS, &make, &observe);
            assert_eq!(
                forked, oracle,
                "{label}: forked trials on {tier} with {threads} threads differ from scratch"
            );
        }
    }
    oracle.iter().filter(|t| t.fired).count()
}

#[test]
fn forked_trials_equal_from_scratch_trials_everywhere() {
    let engine = tiny_engine();
    let mut fired = 0;
    for name in all_bench_names() {
        let setup = engine.setup(&name);
        let input = setup.test_input();
        let golden = setup.bench.golden(setup.options.size, &input);
        let output = setup.bench.output_global();
        for model in models() {
            let seed0 = |v| campaign_seed(&name, v, model, TRIALS);
            let label = |scheme: &str| format!("{name} {scheme} {}", model.label());
            fired += check_cell(
                &label("UNSAFE"),
                &setup.unsafe_build.module,
                &input,
                &golden,
                output,
                seed0(SchemeVariant::Unsafe),
                model,
                || NoopHooks,
                |_| 0,
            );
            fired += check_cell(
                &label("SWIFT-R"),
                &setup.swift_r.module,
                &input,
                &golden,
                output,
                seed0(SchemeVariant::SwiftR),
                model,
                || NoopHooks,
                |_| 0,
            );
            fired += check_cell(
                &label("AR20"),
                &setup.rskip.module,
                &input,
                &golden,
                output,
                seed0(SchemeVariant::RSkip(AR20)),
                model,
                || setup.runtime(AR20),
                |h| h.total_faults_recovered(),
            );
        }
    }
    let cells = all_bench_names().len() * 9;
    assert!(
        fired > cells * TRIALS as usize / 2,
        "only {fired} trials fired: the comparison is mostly of clean runs"
    );
}

#[test]
fn forked_run_outcomes_equal_from_scratch_runs() {
    let engine = tiny_engine();
    let setup = engine.setup("conv1d");
    let input = setup.test_input();
    let golden = setup.bench.golden(setup.options.size, &input);
    let make = || setup.runtime(AR20);
    let module = &setup.rskip.module;
    let trials = 24;
    for model in models() {
        let mut campaign = Campaign::new(
            module,
            &input,
            &golden,
            setup.bench.output_global(),
            make,
            0xF0_4CED ^ model.seed_tag(),
            trials,
        );
        campaign.set_fault_model(model);
        let plans: Vec<_> = (0..trials).map(|trial| campaign.plan(trial)).collect();

        let mut config = campaign.config().clone();
        config.tier = ExecTier::Match;
        let scratch: Vec<_> = plans
            .iter()
            .map(|plan| {
                let mut machine = Machine::with_config(module, make(), config.clone());
                input.apply(&mut machine);
                machine.set_injection(*plan);
                let out = machine.run("main", &[]);
                let recovered = machine.hooks().total_faults_recovered();
                (out, machine.memory().to_vec(), recovered)
            })
            .collect();

        for tier in [ExecTier::Match, ExecTier::Threaded] {
            config.tier = tier;
            let mut machine = Machine::with_config(module, make(), config.clone());
            input.apply(&mut machine);
            machine.start("main", &[]);
            let forked = run_forked(machine, &plans, 2, |m, out| {
                (out, m.memory().to_vec(), m.hooks().total_faults_recovered())
            });
            for (trial, (f, s)) in forked.iter().zip(&scratch).enumerate() {
                assert_eq!(
                    f,
                    s,
                    "{} trial {trial} on {tier}: forked run differs from scratch",
                    model.label()
                );
            }
        }
        let injected = scratch.iter().filter(|(out, ..)| out.injection.is_some());
        assert!(
            injected.count() > trials as usize / 2,
            "{}: most trials must inject",
            model.label()
        );
    }
}

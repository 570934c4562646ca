//! The off-phase charging run is a pure speed-up.
//!
//! `drive` hands a powered-off (or charging) platform whole runs of
//! samples through `Platform::charge_run`. Driving the same platform
//! through a reference loop that banks income and calls `tick` once per
//! sample must give a bit-identical `RunReport` (every f64 compared by
//! its bits), the same event stream with bit-identical timestamps, and
//! the same final platform state, for both platforms and across the
//! phase machine's corner cases.

use nvp::energy::units::{Joules, Seconds, Watts};
use nvp::platform::{drive_observed, Platform, SimEvent, SimObserver, TickIncome, TickOutcome};
use nvp::prelude::*;
use nvp::sim::SimError;

/// Records every event with the bits of its timestamp.
#[derive(Debug, Default, PartialEq)]
struct Recorder(Vec<(u64, SimEvent)>);

impl SimObserver for Recorder {
    fn on_event(&mut self, t_s: f64, event: SimEvent) {
        self.0.push((t_s.to_bits(), event));
    }
}

/// Delegates to a platform and counts the samples its charging runs
/// consume, so each case can show that the run really engaged.
struct Counting<'a, P> {
    inner: &'a mut P,
    consumed: usize,
}

impl<P: Platform> Platform for Counting<'_, P> {
    fn front_end(&self) -> &nvp::platform::EnergyFrontEnd {
        self.inner.front_end()
    }
    fn front_end_mut(&mut self) -> &mut nvp::platform::EnergyFrontEnd {
        self.inner.front_end_mut()
    }
    fn tick(
        &mut self,
        income: TickIncome,
        dt_s: f64,
        obs: &mut dyn SimObserver,
    ) -> Result<TickOutcome, SimError> {
        self.inner.tick(income, dt_s, obs)
    }
    fn report(&self) -> &RunReport {
        self.inner.report()
    }
    fn report_mut(&mut self) -> &mut RunReport {
        self.inner.report_mut()
    }
    fn machine(&self) -> &Machine {
        self.inner.machine()
    }
    fn uncommitted(&self) -> u64 {
        self.inner.uncommitted()
    }
    fn charge_run(&mut self, samples: &[f64], dt_s: f64) -> usize {
        let n = self.inner.charge_run(samples, dt_s);
        self.consumed += n;
        n
    }
}

/// The trace loop without charging runs: bank one sample's income,
/// then tick, for every sample; then the end-of-window snapshots.
fn reference_drive<P: Platform>(
    trace: &PowerTrace,
    p: &mut P,
    obs: &mut dyn SimObserver,
) -> RunReport {
    let dt = trace.dt_s();
    for &w in trace.samples() {
        let income = p.front_end_mut().tick(Watts::new(w), Seconds::new(dt));
        let energy = &mut p.report_mut().energy;
        energy.harvested += income.harvested;
        energy.converted += income.converted;
        p.tick(income, dt, obs).expect("workload does not fault");
        p.report_mut().duration_s += dt;
    }
    let uncommitted = p.uncommitted();
    let stored = p.front_end().storage().energy();
    let wasted = p.front_end().storage().wasted();
    let report = p.report_mut();
    report.uncommitted_at_end = uncommitted;
    report.energy.stored_at_end = stored;
    report.energy.storage_wasted = wasted;
    *report
}

/// Every field of a report, f64s by their bits.
fn report_bits(r: &RunReport) -> Vec<u64> {
    let e = &r.energy;
    let mut v = vec![r.duration_s.to_bits(), r.on_time_s.to_bits()];
    v.extend([
        r.committed,
        r.executed,
        r.lost,
        r.uncommitted_at_end,
        r.backups,
        r.restores,
        r.rollbacks,
        r.tasks_completed,
        r.backups_torn,
        r.backup_retries,
        r.restores_corrupt,
        r.safe_mode_entries,
        r.committed_lost,
    ]);
    v.extend(
        [
            e.harvested,
            e.converted,
            e.compute,
            e.backup,
            e.restore,
            e.sleep,
            e.regulator,
            e.stored_at_end,
            e.storage_wasted,
        ]
        .map(|j| j.get().to_bits()),
    );
    v
}

/// Drives two fresh platforms over the same windows, one through
/// `drive_observed` and one through the reference loop, and asserts
/// they agree bit for bit after every window. Returns both platforms
/// and the samples the charging runs consumed.
fn assert_equivalent<P: Platform>(
    label: &str,
    build: impl Fn() -> P,
    windows: &[PowerTrace],
) -> (P, P, usize) {
    let (mut fast, mut slow) = (build(), build());
    let (mut fast_events, mut slow_events) = (Recorder::default(), Recorder::default());
    let mut consumed = 0;
    for (k, window) in windows.iter().enumerate() {
        let mut counting = Counting { inner: &mut fast, consumed: 0 };
        let got = drive_observed(window, &mut counting, &mut fast_events)
            .expect("workload does not fault");
        consumed += counting.consumed;
        let want = reference_drive(window, &mut slow, &mut slow_events);
        assert_eq!(report_bits(&got), report_bits(&want), "{label}: report after window {k}");
        assert_eq!(got, want, "{label}: report after window {k}");
        assert_eq!(fast_events, slow_events, "{label}: events after window {k}");
        let (f, s) = (fast.front_end().storage(), slow.front_end().storage());
        assert_eq!(f.energy_j().to_bits(), s.energy_j().to_bits(), "{label}: stored energy");
        assert_eq!(f.wasted_j().to_bits(), s.wasted_j().to_bits(), "{label}: storage waste");
        assert_eq!(fast.machine().pc(), slow.machine().pc(), "{label}: pc");
    }
    assert!(!fast_events.0.is_empty(), "{label}: the case must exercise the phase machine");
    (fast, slow, consumed)
}

fn counter_program() -> Program {
    assemble("start: addi r1, r1, 1\n sw r1, 0(r0)\n j start").unwrap()
}

fn task_program() -> Program {
    assemble("li r2, 2000\nloop: addi r1, r1, 1\nbne r1, r2, loop\nsw r1, 0(r0)\nhalt").unwrap()
}

/// Bursts separated by outages far longer than the bursts.
fn outage_trace() -> PowerTrace {
    PowerTrace::from_segments(
        1e-4,
        &[
            (1e-3, 0.05),
            (0.0, 0.4),
            (2e-6, 0.3),
            (1e-3, 0.05),
            (0.0, 0.3),
            (60e-6, 0.2),
            (1e-3, 0.05),
        ],
    )
}

fn nvp_with(
    program: &Program,
    config: SystemConfig,
    policy: BackupPolicy,
    plan: FaultPlan,
) -> IntermittentSystem {
    let backup = BackupModel::distributed(NvmTechnology::Feram, 2048);
    IntermittentSystem::with_faults(program, config, backup, policy, plan).unwrap()
}

#[test]
fn nvp_charging_runs_match_per_tick_driving_over_long_outages() {
    let program = counter_program();
    let build =
        || nvp_with(&program, SystemConfig::default(), BackupPolicy::demand(), FaultPlan::none());
    for (label, trace) in [
        ("outages", outage_trace()),
        ("wrist-watch 3", harvester::wrist_watch(3, 3.0)),
        ("rf-wifi 2", harvester::rf_wifi(2, 2.0)),
    ] {
        let (_, _, consumed) = assert_equivalent(label, build, std::slice::from_ref(&trace));
        assert!(consumed > trace.len() / 2, "{label}: {consumed} of {} samples", trace.len());
    }
    // Constant 0 W and 2 µW never wake the platform: the whole trace is
    // one run.
    for power in [0.0, 2e-6] {
        let trace = PowerTrace::constant(1e-4, power, 0.5);
        let (mut fast, mut slow) = (build(), build());
        assert_eq!(fast.charge_run(trace.samples(), trace.dt_s()), trace.len());
        let want = reference_drive(&trace, &mut slow, &mut Recorder::default());
        let got = drive_observed(&trace, &mut build(), &mut Recorder::default()).unwrap();
        assert_eq!(report_bits(&got), report_bits(&want), "constant {power} W");
    }
}

#[test]
fn wait_charging_runs_match_per_tick_driving_over_long_outages() {
    let program = task_program();
    let cost = measure_task(&program, &SystemConfig::default(), 10_000_000).unwrap();
    let sized = WaitComputeConfig::default().sized_for(&cost, 1.3);
    let mut starved = sized;
    starved.start_energy_j *= 0.3; // mid-task brown-outs
    for (label, cfg) in [("sized", sized), ("starved", starved)] {
        for (name, trace) in
            [("outages", outage_trace()), ("wrist-watch 1", harvester::wrist_watch(1, 4.0))]
        {
            let label = format!("wait/{label}/{name}");
            let build = || WaitComputeSystem::new(&program, cfg).unwrap();
            let (_, _, consumed) = assert_equivalent(&label, build, std::slice::from_ref(&trace));
            assert!(consumed > trace.len() / 2, "{label}: {consumed} of {} samples", trace.len());
        }
    }
}

/// A 16-cycle divide often straddles the end of a 100-cycle tick, so
/// the instruction that browns out leaves the platform powered down and
/// owing time to the next tick, which must not start a run.
#[test]
fn power_down_with_time_debt_matches_per_tick_driving() {
    let program =
        assemble("li r2, 3\nstart: divu r3, r1, r2\n divu r4, r3, r2\n addi r1, r1, 1\n j start")
            .unwrap();
    let config = SystemConfig::default();
    let build = || {
        let mut sys = nvp_with(&program, config, BackupPolicy::demand(), FaultPlan::none());
        // No backup reserve: the core runs storage dry and browns out
        // inside an instruction.
        let start = sys.thresholds().start;
        sys.set_thresholds(Thresholds { start, backup_reserve: Joules::ZERO });
        sys
    };
    let trace = harvester::wrist_watch(4, 4.0);
    let (fast, _, _) = assert_equivalent("nvp/debt", build, std::slice::from_ref(&trace));
    assert!(fast.report().rollbacks > 20, "{:?}", fast.report());

    let task =
        assemble("li r2, 900\nloop: divu r3, r2, r1\n addi r1, r1, 1\n bne r1, r2, loop\n halt")
            .unwrap();
    let cost = measure_task(&task, &SystemConfig::default(), 10_000_000).unwrap();
    let mut cfg = WaitComputeConfig::default().sized_for(&cost, 1.3);
    cfg.start_energy_j *= 0.3; // mid-task brown-outs
    let build = || WaitComputeSystem::new(&task, cfg).unwrap();
    let (fast, _, _) = assert_equivalent("wait/debt", build, &[trace]);
    assert!(fast.report().rollbacks > 20, "{:?}", fast.report());
}

#[test]
fn adaptive_clock_ends_on_the_same_clock() {
    let program = counter_program();
    let config = SystemConfig::default().with_clock_policy(ClockPolicy::adaptive());
    let build = || nvp_with(&program, config, BackupPolicy::demand(), FaultPlan::none());
    for seed in [1, 5] {
        let trace = harvester::wrist_watch(seed, 3.0);
        let (fast, slow, _) = assert_equivalent("adaptive", build, &[trace]);
        assert_eq!(fast.current_clock_hz().to_bits(), slow.current_clock_hz().to_bits());
    }
    // A window that ends while the platform charges from a spike strong
    // enough to select a faster clock: only the last tick decides it.
    let trace = PowerTrace::from_segments(1e-4, &[(2e-3, 0.02), (0.0, 0.3), (2e-3, 0.0005)]);
    let (fast, slow, _) = assert_equivalent("adaptive/spike", build, &[trace]);
    assert_eq!(fast.current_clock_hz().to_bits(), slow.current_clock_hz().to_bits());
}

#[test]
fn retention_decay_and_restore_failures_match_per_tick_driving() {
    let program = counter_program();
    // Retention of 10–1000 s against outages of 0.02–0.7 s: whether a
    // stored image decays at all depends on the accumulated off time.
    let retention = RetentionShaper::new(RelaxPolicy::Linear, 16, 10.0, 1000.0).bit_retention();
    let plan = FaultPlan::with_rates(13, 0.2, 0.3).with_retention(retention);
    let build =
        || nvp_with(&program, SystemConfig::default(), BackupPolicy::demand(), plan.clone());
    let (fast, _, _) = assert_equivalent("faults", build, &[outage_trace().repeated(3)]);
    let r = fast.report();
    assert!(r.restores_corrupt > 0 && r.backups_torn > 0, "{r:?}");
}

#[test]
fn halted_platform_without_restart_matches_per_tick_driving() {
    let program = task_program();
    let config = SystemConfig { restart_on_halt: false, ..SystemConfig::default() };
    let build = || nvp_with(&program, config, BackupPolicy::demand(), FaultPlan::none());
    let (fast, _, _) = assert_equivalent("no-restart", build, &[harvester::wrist_watch(2, 4.0)]);
    assert_eq!(fast.report().tasks_completed, 1);
}

#[test]
fn successive_windows_match_per_tick_driving() {
    let trace = harvester::wrist_watch(5, 4.0);
    let windows = [trace.slice(0.0, 1.7), trace.slice(1.7, 2.3)];
    let program = counter_program();
    let build =
        || nvp_with(&program, SystemConfig::default(), BackupPolicy::demand(), FaultPlan::none());
    assert_equivalent("nvp/windows", build, &windows);
    let task = task_program();
    let cost = measure_task(&task, &SystemConfig::default(), 10_000_000).unwrap();
    let cfg = WaitComputeConfig::default().sized_for(&cost, 1.3);
    assert_equivalent("wait/windows", || WaitComputeSystem::new(&task, cfg).unwrap(), &windows);
}

//! Per-layer probes, each timed from outside around one public entry
//! point over a whole batch of work (never per trace tick: clock reads
//! would dominate a per-tick timing).

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

use nvp_core::{
    measure_task, BackupModel, BackupPolicy, IntermittentSystem, SystemConfig, TaskCost,
    WaitComputeConfig, WaitComputeSystem,
};
use nvp_device::NvmTechnology;
use nvp_energy::harvester::SourceKind;
use nvp_energy::{EnergyFrontEnd, Farads, FrontEndConfig, PowerTrace, Seconds, Volts, Watts};
use nvp_experiments::wire::{
    content_digest, decode_result_bytes, encode_result_bytes, request_key,
};
use nvp_experiments::{CampaignRequest, CampaignResult, ExpConfig};
use nvp_sim::Machine;
use nvp_workloads::{GrayImage, KernelInstance, KernelKind};
use nvpd::faultplan::ServiceFaultPlan;
use nvpd::journal::Journal;

use crate::stats::median;

/// Volatile state bits of the reference NVP (as the evaluation uses).
const STATE_BITS: u64 = 2048;

/// Instruction cap for one unconstrained kernel run.
const MAX_TASK_INSTS: u64 = 500_000_000;

/// Snapshot/restore pairs timed per repetition.
const CHECKPOINT_REPS: u32 = 1_000_000;

/// A named per-layer value.
pub type Layer = (String, f64);

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn system_config_for(inst: &KernelInstance) -> SystemConfig {
    let mut cfg = SystemConfig::default();
    cfg.dmem_words = cfg.dmem_words.max(inst.min_dmem_words());
    cfg
}

/// Every harvester trace the full configuration draws: the wrist-watch
/// profiles, plus one trace of each other source class for the
/// technology × harvester grid and the clock-scaling study.
fn full_config_traces(cfg: &ExpConfig) -> Vec<(SourceKind, u64)> {
    let mut v: Vec<(SourceKind, u64)> =
        cfg.profile_seeds.iter().map(|&s| (SourceKind::WristWatch, s)).collect();
    v.extend(SourceKind::ALL.iter().skip(1).map(|&k| (k, cfg.profile_seeds[0])));
    v
}

/// One repetition's raw measurements.
#[derive(Debug, Clone, Default, PartialEq)]
struct Pass {
    trace_gen_s: f64,
    trace_samples: u64,
    kernel_build_s: f64,
    engine_s: f64,
    engine_insts: u64,
    nvp_s: f64,
    nvp_ticks: u64,
    nvp_counts: [u64; 4],
    wait_s: f64,
    wait_insts: u64,
    frontend_s: f64,
    frontend_ticks: u64,
    snapshot_s: f64,
    restore_s: f64,
}

impl Pass {
    /// The simulated counts, which must repeat exactly.
    fn counts(&self) -> (u64, u64, [u64; 4], u64, u64) {
        (self.trace_samples, self.engine_insts, self.nvp_counts, self.wait_insts, self.nvp_ticks)
    }
}

fn pass(cfg: &ExpConfig) -> Pass {
    let mut p = Pass::default();

    let t = Instant::now();
    let traces: Vec<PowerTrace> = full_config_traces(cfg)
        .into_iter()
        .map(|(kind, seed)| kind.generate(seed, cfg.trace_duration_s))
        .collect();
    p.trace_gen_s = secs(t);
    p.trace_samples = traces.iter().map(|t| t.len() as u64).sum();
    let watch = &traces[..cfg.profile_seeds.len()];

    let image = GrayImage::synthetic(cfg.frame_seed, cfg.frame_w, cfg.frame_h);
    let t = Instant::now();
    let kernels: Vec<KernelInstance> = KernelKind::ALL
        .iter()
        .map(|k| k.build(&image).expect("kernel builds on the standard frame"))
        .collect();
    p.kernel_build_s = secs(t);

    let t = Instant::now();
    let costs: Vec<TaskCost> = kernels
        .iter()
        .map(|k| {
            measure_task(k.program(), &system_config_for(k), MAX_TASK_INSTS)
                .expect("kernel terminates under continuous power")
        })
        .collect();
    p.engine_s = secs(t);
    p.engine_insts = costs.iter().map(|c| c.instructions).sum();

    for inst in &kernels {
        for trace in watch {
            let mut sys = IntermittentSystem::new(
                inst.program(),
                system_config_for(inst),
                BackupModel::distributed(NvmTechnology::Feram, STATE_BITS),
                BackupPolicy::demand(),
            )
            .expect("platform builds");
            let t = Instant::now();
            let r = sys.run(trace).expect("workload does not fault");
            p.nvp_s += secs(t);
            p.nvp_ticks += trace.len() as u64;
            for (acc, v) in
                p.nvp_counts.iter_mut().zip([r.executed, r.backups, r.restores, r.rollbacks])
            {
                *acc += v;
            }
        }
    }

    for (inst, cost) in kernels.iter().zip(&costs) {
        let mut wcfg = WaitComputeConfig::default().sized_for(cost, 1.3);
        wcfg.dmem_words = wcfg.dmem_words.max(inst.min_dmem_words());
        for trace in watch {
            let mut sys = WaitComputeSystem::new(inst.program(), wcfg).expect("platform builds");
            let t = Instant::now();
            let r = sys.run(trace).expect("workload does not fault");
            p.wait_s += secs(t);
            p.wait_insts += r.executed;
        }
    }

    let sc = SystemConfig::default();
    for trace in watch {
        let mut fe = EnergyFrontEnd::new(FrontEndConfig::direct(
            sc.rectifier,
            Farads::new(sc.capacitance_f),
            Volts::new(sc.cap_voltage_v),
            Seconds::new(sc.cap_leak_tau_s),
        ));
        let dt = Seconds::new(trace.dt_s());
        let t = Instant::now();
        for &w in trace.samples() {
            black_box(fe.tick(Watts::new(w), dt));
        }
        p.frontend_s += secs(t);
        p.frontend_ticks += trace.len() as u64;
    }

    let k = &kernels[0];
    let sc = system_config_for(k);
    let mut m = Machine::with_config(k.program(), sc.dmem_words, sc.cycle_model, sc.energy_model)
        .expect("machine builds");
    m.run(1_000).expect("kernel runs");
    let t = Instant::now();
    for _ in 0..CHECKPOINT_REPS {
        black_box(black_box(&m).snapshot());
    }
    p.snapshot_s = secs(t);
    let state = m.snapshot();
    let t = Instant::now();
    for _ in 0..CHECKPOINT_REPS {
        black_box(&mut m).restore(black_box(&state));
    }
    p.restore_s = secs(t);
    p
}

/// Runs the probe suite `reps` times on the full configuration and
/// returns the per-layer values (timings are medians over repetitions)
/// plus one line per repetition whose simulated counts drifted.
#[must_use]
pub fn probes(reps: usize) -> (Vec<Layer>, Vec<String>) {
    let cfg = ExpConfig::default();
    let passes: Vec<Pass> = (0..reps.max(1)).map(|_| pass(&cfg)).collect();
    let drift: Vec<String> = passes
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(_, p)| p.counts() != passes[0].counts())
        .map(|(i, p)| {
            format!("probe pass {i}: counts {:?} != {:?}", p.counts(), passes[0].counts())
        })
        .collect();
    let med = |f: &dyn Fn(&Pass) -> f64| {
        median(&passes.iter().map(f).collect::<Vec<_>>()).expect("at least one pass")
    };
    let p0 = &passes[0];
    let nvp_ips = med(&|p| p.nvp_counts[0] as f64 / p.nvp_s);
    let engine_ips = med(&|p| p.engine_insts as f64 / p.engine_s);
    let layers = vec![
        ("energy.trace.gen_s".into(), med(&|p| p.trace_gen_s)),
        ("energy.trace.samples".into(), p0.trace_samples as f64),
        (
            "energy.frontend.ns_per_tick".into(),
            med(&|p| p.frontend_s * 1e9 / p.frontend_ticks as f64),
        ),
        ("core.nvp.insts_per_s".into(), nvp_ips),
        ("core.nvp.ns_per_tick".into(), med(&|p| p.nvp_s * 1e9 / p.nvp_ticks as f64)),
        ("core.nvp.engine_ratio".into(), engine_ips / nvp_ips),
        ("core.nvp.insts".into(), p0.nvp_counts[0] as f64),
        ("core.nvp.backups".into(), p0.nvp_counts[1] as f64),
        ("core.nvp.restores".into(), p0.nvp_counts[2] as f64),
        ("core.nvp.rollbacks".into(), p0.nvp_counts[3] as f64),
        ("core.wait.insts_per_s".into(), med(&|p| p.wait_insts as f64 / p.wait_s)),
        ("sim.engine.insts".into(), p0.engine_insts as f64),
        ("sim.engine.insts_per_s".into(), engine_ips),
        (
            "sim.checkpoint.snapshot_ns".into(),
            med(&|p| p.snapshot_s * 1e9 / f64::from(CHECKPOINT_REPS)),
        ),
        (
            "sim.checkpoint.restore_ns".into(),
            med(&|p| p.restore_s * 1e9 / f64::from(CHECKPOINT_REPS)),
        ),
        ("workloads.kernel.build_s".into(), med(&|p| p.kernel_build_s)),
    ];
    (layers, drift)
}

fn median_of(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(0.0)
}

/// Wire-codec costs over a stream's requests and reference results.
#[must_use]
pub fn wire(requests: &[&CampaignRequest], results: &[&CampaignResult]) -> Vec<Layer> {
    let key_us: Vec<f64> = requests
        .iter()
        .map(|r| {
            let t = Instant::now();
            black_box(request_key(black_box(r)));
            secs(t) * 1e6
        })
        .collect();
    let (mut enc_us, mut dec_us, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for r in results {
        let t = Instant::now();
        let b = encode_result_bytes(black_box(r));
        enc_us.push(secs(t) * 1e6);
        let t = Instant::now();
        black_box(decode_result_bytes(black_box(&b)).expect("round trip"));
        dec_us.push(secs(t) * 1e6);
        bytes.push(b.len() as f64);
    }
    vec![
        ("experiments.wire.request_key_us".into(), median_of(&key_us)),
        ("experiments.wire.encode_result_us".into(), median_of(&enc_us)),
        ("experiments.wire.decode_result_us".into(), median_of(&dec_us)),
        ("experiments.wire.result_bytes".into(), median_of(&bytes)),
    ]
}

/// Drives a [`Journal`] on a fresh state directory through the job
/// sequence the server would journal for `jobs`: lookup first, then
/// either a replayed completion or start, store and complete.
pub fn journal(
    state: &Path,
    jobs: &[&CampaignRequest],
    refs: &crate::nvpd::References,
) -> io::Result<Vec<Layer>> {
    let t = Instant::now();
    let (journal, _) = Journal::open(state, ServiceFaultPlan::none())?;
    let open_s = secs(t);
    let mut ms: [Vec<f64>; 5] = Default::default();
    let mut timed = |slot: usize, t: Instant| ms[slot].push(secs(t) * 1e3);
    for (id, req) in (0u64..).zip(jobs) {
        let key = request_key(req);
        let t = Instant::now();
        journal.admitted(id, &key, req)?;
        timed(0, t);
        let t = Instant::now();
        let stored = journal.lookup_result(&key);
        timed(4, t);
        let digest = match stored {
            Some(result) => content_digest(&encode_result_bytes(&result)),
            None => {
                let result = refs.get(&key).ok_or_else(|| io::Error::other("no reference"))?;
                let t = Instant::now();
                journal.started(id)?;
                timed(1, t);
                let t = Instant::now();
                let digest = journal.put_result(&key, result)?;
                timed(3, t);
                digest
            }
        };
        let t = Instant::now();
        journal.completed(id, &digest)?;
        timed(2, t);
    }
    let names = ["admitted_ms", "started_ms", "completed_ms", "put_result_ms", "lookup_result_ms"];
    let mut out = vec![("nvpd.journal.open_s".to_string(), open_s)];
    out.extend(names.iter().zip(&ms).map(|(n, v)| (format!("nvpd.journal.{n}"), median_of(v))));
    Ok(out)
}

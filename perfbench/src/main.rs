//! `nvpbench` — the end-to-end and per-layer benchmark of this
//! repository.
//!
//! Run it through `python3 perfbench/run.py`, which builds `repro`,
//! `nvpd` and this binary from the checkout, then calls
//!
//! ```text
//! nvpbench run --workload W --seed N --seconds S --trace 0|1 --bin-dir DIR
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//!
//! * `campaign_cold` — full `repro` campaigns, each a fresh process with
//!   an empty cache directory, on one scheduler worker;
//! * `campaign_warm` — the same campaign reloading a cache directory a
//!   cold run of this build wrote earlier in the same invocation;
//! * `nvpd_mixed` — a real `nvpd serve` child with a fresh state
//!   directory, fed a seeded closed-loop stream of sim, dedup and replay
//!   jobs by one client.
//!
//! Every output is checked: campaign artifacts against an in-process
//! `--no-cache` reference and the checked-in `results/`, every `nvpd`
//! result by digest against an in-process `run_request`. An untraced
//! run (`--trace 0`) reports the end-to-end metrics; a traced run
//! (`--trace 1`) reports the per-layer table, timed by spans this
//! benchmark records around public entry points. The last stdout line
//! is one JSON object; a copy of the whole report lands in
//! `.bench_out/`.

mod campaign;
mod layers;
mod metrics;
mod nvpd;
mod proc;
mod stats;
mod stream;

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use nvp_experiments::{CampaignRequest, ExpConfig};

use crate::campaign::{TracedCampaign, CACHE_COUNTERS};
use crate::layers::Layer;
use crate::proc::Timed;
use crate::stats::{median, percentile, quartiles, tail};
use crate::stream::{campaign_seed, JobClass};

/// Fewest campaign processes one untraced run measures.
const MIN_SAMPLES: usize = 3;

/// Extra processes started (and stopped once ready) per untraced run,
/// so `setup_s` is a median over many set-ups.
const SETUP_PROBES: usize = 30;

/// Untraced/traced campaign pairs in a traced run.
const TRACED_PAIRS: usize = 2;

/// Repetitions of the in-process probe suite in a traced run.
const PROBE_REPS: usize = 2;

const USAGE: &str = "usage: nvpbench run --workload campaign_cold|campaign_warm|nvpd_mixed \
                     --seed N --seconds S --trace 0|1 --bin-dir DIR [--rustc V] [--commit C] \
                     [--source-sha256 H]";

/// Parsed `run` arguments.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin: PathBuf,
    stamps: Vec<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !["campaign_cold", "campaign_warm", "nvpd_mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = get("--seed")?.parse().map_err(|_| "--seed must be an integer".to_string())?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let bin = PathBuf::from(get("--bin-dir")?);
    let mut stamps = Vec::new();
    for flag in ["--rustc", "--commit", "--source-sha256"] {
        stamps.push((flag.trim_start_matches('-').to_string(), get(flag).unwrap_or_default()));
    }
    Ok(Args { workload, seed, seconds, trace, bin, stamps })
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Counts one operation; any problem fails it.
    fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
struct Report {
    tally: Tally,
    /// `(name, value, unit)` for the final JSON line.
    metrics: Vec<(String, f64, String)>,
    /// Human-readable table rows.
    table: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.to_string(), value, unit.to_string()));
    }

    /// An end-to-end metric, with its unit from the catalogue.
    fn end_to_end(&mut self, name: &str, value: f64) {
        let (_, unit) = metrics::END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .expect("end-to-end metric is catalogued");
        self.metric(name, value, unit);
    }

    /// A table row for a timing: median, quartiles, tail and count.
    fn timing_row(&mut self, name: &str, scale: f64, unit: &str, xs: &[f64]) {
        let xs: Vec<f64> = xs.iter().map(|x| x * scale).collect();
        let mut row = format!("{name:<28} n={:<5}", xs.len());
        if let Some(m) = median(&xs) {
            let _ = write!(row, " p50={m:.4} {unit}");
        }
        if let Some([q1, _, q3]) = quartiles(&xs) {
            let _ = write!(row, "  p25={q1:.4}  p75={q3:.4}");
        }
        match tail(&xs) {
            Some((pct, v)) => {
                let _ = write!(row, "  p{pct}={v:.4} (>=10 beyond)");
            }
            None => {
                // Too few for a tail: list them, in measurement order.
                let all: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
                let _ = write!(row, "  samples: {}", all.join(" "));
            }
        }
        self.table.push(row);
    }
}

/// Set-up probes spread evenly over a run's measuring window, so the
/// median describes the whole window rather than one burst at its start.
#[derive(Default)]
struct Setups {
    started: usize,
    samples: Vec<f64>,
}

impl Setups {
    /// Runs `probe` until `SETUP_PROBES × progress` probes have started.
    fn catch_up(
        &mut self,
        progress: f64,
        tally: &mut Tally,
        probe: &mut dyn FnMut() -> io::Result<f64>,
    ) {
        let due = (SETUP_PROBES as f64 * progress.clamp(0.0, 1.0)).ceil() as usize;
        while self.started < due {
            self.started += 1;
            match probe() {
                Ok(s) => {
                    tally.op(Vec::new());
                    self.samples.push(s);
                }
                Err(e) => tally.op(vec![format!("set-up probe: {e}")]),
            }
        }
    }
}

/// Fresh numbered directories under one work root.
#[derive(Debug)]
pub struct Dirs {
    root: PathBuf,
    next: usize,
}

impl Dirs {
    /// Uses `root` (created if missing) for every directory handed out.
    pub fn new(root: &Path) -> io::Result<Dirs> {
        fs::create_dir_all(root)?;
        Ok(Dirs { root: root.to_path_buf(), next: 0 })
    }

    /// A path under the root that does not exist yet.
    pub fn fresh(&mut self, tag: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{tag}-{}", self.next))
    }
}

/// Shared state of one run.
struct Ctx {
    root: PathBuf,
    bin: PathBuf,
    seed: u64,
    seconds: f64,
    dirs: Dirs,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("traced-campaign") if argv.len() == 3 => {
            let Ok(seed) = argv[2].parse() else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            match campaign::traced_main(Path::new(&argv[1]), seed) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("run") => match parse_args(&argv[1..]) {
            Ok(args) => run(&args),
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> ExitCode {
    let root = match std::env::current_dir() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let work = root.join(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let outcome = Dirs::new(&work).and_then(|dirs| {
        let mut ctx = Ctx {
            root: root.clone(),
            bin: args.bin.clone(),
            seed: args.seed,
            seconds: args.seconds,
            dirs,
        };
        match (args.workload.as_str(), args.trace) {
            ("campaign_cold", false) => campaign_run(&mut ctx, false),
            ("campaign_warm", false) => campaign_run(&mut ctx, true),
            ("nvpd_mixed", false) => nvpd_run(&mut ctx),
            (w, true) => traced_run(&mut ctx, w),
            _ => unreachable!("workload validated by parse_args"),
        }
    });
    let _ = fs::remove_dir_all(&work);
    match outcome {
        Ok(report) => {
            print_report(&root, args, &report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

fn print_report(root: &Path, args: &Args, report: &Report) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut text = format!(
        "# nvpbench workload={} seed={} trace={} seconds={} host_cores={cores} campaign_seed={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.seconds,
        campaign_seed(args.seed)
    );
    for (k, v) in &args.stamps {
        let _ = write!(text, " {k}=\"{v}\"");
    }
    text.push('\n');
    for row in &report.table {
        text.push_str(row);
        text.push('\n');
    }
    for p in report.tally.problems.iter().take(20) {
        eprintln!("FAILED: {p}");
    }
    let mut correct = report.tally.failed == 0;
    let mut json = String::new();
    for (name, value, unit) in &report.metrics {
        let value = if value.is_finite() {
            *value
        } else {
            eprintln!("FAILED: metric {name} is not finite");
            correct = false;
            0.0
        };
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    let _ = writeln!(
        text,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        report.tally.attempted.max(1),
        report.tally.failed
    );
    print!("{text}");
    let out = root.join(".bench_out");
    let file =
        out.join(format!("{}-seed{}-trace{}.txt", args.workload, args.seed, u8::from(args.trace)));
    if let Err(e) = fs::create_dir_all(&out).and_then(|()| fs::write(&file, &text)) {
        eprintln!("warning: cannot write {}: {e}", file.display());
    }
}

/// Problems with one finished `repro` process and its artifacts.
fn repro_problems(
    t: &Timed,
    out: &Path,
    reference: &Path,
    golden: &Path,
    warm: bool,
) -> Vec<String> {
    if t.code != Some(0) {
        let last = t.stderr.lines().last().unwrap_or_default();
        return vec![format!("repro exited with {:?}: {last}", t.code)];
    }
    let mut bad = campaign::check(out, reference, golden);
    if t.ready_s.is_none() {
        bad.push("repro printed no ready line".into());
    }
    if warm {
        // A warm run reruns nothing the cache holds and appends nothing.
        match campaign::cache_line(&t.stderr) {
            Some([0, _, _, 0, _]) => {}
            other => bad.push(format!("warm repro simulated or appended: {other:?}")),
        }
    }
    bad
}

/// Reference artifacts plus, for the warm workload, a cache directory
/// written by a cold run of this build.
struct CampaignInputs {
    seed: u64,
    reference: PathBuf,
    golden: PathBuf,
    warm_cache: Option<PathBuf>,
}

fn campaign_inputs(ctx: &mut Ctx, warm: bool, tally: &mut Tally) -> io::Result<CampaignInputs> {
    let seed = campaign_seed(ctx.seed);
    let reference = ctx.dirs.fresh("reference");
    campaign::reference(seed, &reference)?;
    let golden = ctx.root.join("results");
    let warm_cache = if warm {
        let src = ctx.dirs.fresh("warm-source");
        let t = campaign::repro(&ctx.bin, &src, seed, None)?;
        tally.op(repro_problems(&t, &src, &reference, &golden, false));
        Some(src.join(".simcache"))
    } else {
        None
    };
    Ok(CampaignInputs { seed, reference, golden, warm_cache })
}

/// One measured `repro` process, checked and cleaned up.
fn repro_sample(ctx: &mut Ctx, inputs: &CampaignInputs, tally: &mut Tally) -> io::Result<Timed> {
    let out = ctx.dirs.fresh("sample");
    let t = campaign::repro(&ctx.bin, &out, inputs.seed, inputs.warm_cache.as_deref())?;
    let warm = inputs.warm_cache.is_some();
    tally.op(repro_problems(&t, &out, &inputs.reference, &inputs.golden, warm));
    let _ = fs::remove_dir_all(&out);
    Ok(t)
}

fn campaign_run(ctx: &mut Ctx, warm: bool) -> io::Result<Report> {
    let mut report = Report::default();
    let inputs = campaign_inputs(ctx, warm, &mut report.tally)?;
    // One untimed sample first: after the reference run (or a quiet
    // spell) the first process measures consistently slow.
    repro_sample(ctx, &inputs, &mut report.tally)?;
    let mut samples = Vec::new();
    let mut setups = Setups::default();
    let start = Instant::now();
    while samples.len() < MIN_SAMPLES || start.elapsed().as_secs_f64() < ctx.seconds {
        samples.push(repro_sample(ctx, &inputs, &mut report.tally)?);
        let progress = start.elapsed().as_secs_f64() / ctx.seconds;
        let Ctx { bin, dirs, .. } = &mut *ctx;
        setups.catch_up(progress, &mut report.tally, &mut || {
            let out = dirs.fresh("setup");
            let s = campaign::repro_setup(bin, &out, inputs.seed, inputs.warm_cache.as_deref());
            let _ = fs::remove_dir_all(&out);
            s
        });
    }
    let mut ready: Vec<f64> = samples.iter().filter_map(|t| t.ready_s).collect();
    ready.extend(&setups.samples);
    let walls: Vec<f64> = samples.iter().map(|t| t.wall_s).collect();
    let rss: Vec<f64> = samples.iter().map(|t| t.peak_rss_mb).collect();
    let n = walls.len() as f64;
    report.end_to_end("setup_s", median(&ready).unwrap_or(f64::NAN));
    report.end_to_end("peak_rss_mb", median(&rss).unwrap_or(f64::NAN));
    report.end_to_end("wall_s", median(&walls).unwrap_or(f64::NAN));
    report.end_to_end("jobs_per_s", n / walls.iter().sum::<f64>());
    report.timing_row("setup_s", 1.0, "s", &ready);
    report.timing_row("peak_rss_mb", 1.0, "MB", &rss);
    report.timing_row("wall_s", 1.0, "s", &walls);
    push_failed_frac(&mut report);
    Ok(report)
}

fn push_failed_frac(report: &mut Report) {
    let t = &report.tally;
    let frac = t.failed as f64 / t.attempted.max(1) as f64;
    report
        .table
        .push(format!("{:<28} {frac} ({} of {} operations)", "failed_frac", t.failed, t.attempted));
}

/// Latencies of the successful timed jobs of `class` (all if `None`).
fn latencies(
    run: &nvpd::StreamRun,
    class: Option<JobClass>,
    f: fn(&nvpd::Done) -> f64,
) -> Vec<f64> {
    run.samples
        .iter()
        .filter(|s| class.is_none_or(|c| s.class == c))
        .filter_map(|s| s.done.as_ref().ok().map(f))
        .collect()
}

/// Runs the stream, verifies every job and tallies it.
/// `between` runs after each job with the share of the window elapsed.
fn checked_stream(
    ctx: &mut Ctx,
    seconds: f64,
    tally: &mut Tally,
    between: &mut dyn FnMut(&mut Ctx, &mut Tally, f64),
) -> io::Result<(nvpd::StreamRun, nvpd::References)> {
    let state = ctx.dirs.fresh("nvpd-state");
    let (bin, seed) = (ctx.bin.clone(), ctx.seed);
    let run = nvpd::run_stream(&bin, &state, seed, seconds, &mut |progress| {
        between(ctx, tally, progress);
    })?;
    let requests = run.warmup.iter().map(|(r, _)| r).chain(run.samples.iter().map(|s| &s.request));
    let refs = nvpd::references(requests)?;
    for problems in nvpd::verify(&run, &refs) {
        tally.op(problems);
    }
    Ok((run, refs))
}

fn nvpd_run(ctx: &mut Ctx) -> io::Result<Report> {
    let mut report = Report::default();
    let probe = CampaignRequest::only(ExpConfig::quick(), &["t1"]);
    let mut setups = Setups::default();
    let seconds = ctx.seconds;
    let (run, _) = checked_stream(ctx, seconds, &mut report.tally, &mut |ctx, tally, progress| {
        setups.catch_up(progress, tally, &mut || {
            // Journal open and admission fsync: flush the stream's own
            // writes first so each probe starts from a clean disk.
            let state = ctx.dirs.fresh("nvpd-probe");
            proc::sync_fs(&ctx.root);
            nvpd::setup_probe(&ctx.bin, &state, &probe)
        });
    })?;
    let mut setups = setups.samples;
    setups.push(run.setup_s);
    let all = latencies(&run, None, |d| d.latency_s);
    let jobs_per_s = all.len() as f64 / all.iter().sum::<f64>();
    // The mix has three latency modes, so a median over all jobs would
    // sit on a class boundary. One round is one job of each class (the
    // generator's block), a unit of work with a single mode.
    let rounds: Vec<f64> = run
        .samples
        .chunks_exact(JobClass::ALL.len())
        .filter_map(|b| b.iter().map(|s| s.done.as_ref().ok().map(|d| d.latency_s)).sum())
        .collect();
    report.end_to_end("setup_s", median(&setups).unwrap_or(f64::NAN));
    report.end_to_end("peak_rss_mb", run.peak_rss_mb);
    report.end_to_end("wall_s", median(&rounds).unwrap_or(f64::NAN));
    report.end_to_end("jobs_per_s", jobs_per_s);
    report.timing_row("setup_s", 1.0, "s", &setups);
    report.table.push(format!("{:<28} {:.2} MB", "peak_rss_mb", run.peak_rss_mb));
    report.timing_row("wall_s (one round, s)", 1.0, "s", &rounds);
    report.timing_row("job_ms (all classes)", 1e3, "ms", &all);
    report.table.push(format!("{:<28} {jobs_per_s:.3} 1/s", "jobs_per_s"));
    for class in JobClass::ALL {
        let xs = latencies(&run, Some(class), |d| d.latency_s);
        for pct in [50.0, 90.0] {
            let name = format!("{}_job_p{pct}_ms", class.name());
            let row = match percentile(&xs, pct) {
                Some((v, beyond)) => {
                    format!("{name:<28} {:.4} ms (n={}, {beyond} beyond)", v * 1e3, xs.len())
                }
                None => format!("{name:<28} no samples"),
            };
            report.table.push(row);
        }
    }
    push_failed_frac(&mut report);
    Ok(report)
}

/// The traced twin of each workload: the per-layer table, with the
/// campaign layers measured in this workload's cache state.
fn traced_run(ctx: &mut Ctx, workload: &str) -> io::Result<Report> {
    let mut report = Report::default();
    let tally = &mut report.tally;
    let inputs = campaign_inputs(ctx, workload == "campaign_warm", tally)?;
    let (mut values, campaign_overhead) = campaign_layers(ctx, &inputs, tally)?;

    let (probe_values, drift) = layers::probes(PROBE_REPS);
    tally.op(drift);
    values.extend(probe_values);

    let stream_s = ctx.seconds / 2.0;
    let untraced = if workload == "nvpd_mixed" {
        let (run, _) = checked_stream(ctx, stream_s, tally, &mut |_, _, _| {})?;
        Some(mean(&latencies(&run, None, |d| d.latency_s)))
    } else {
        None
    };
    let (run, refs) = checked_stream(ctx, stream_s, tally, &mut |_, _, _| {})?;
    values.extend(stream_layers(ctx, &run, &refs)?);
    let overhead = match untraced {
        Some(base) => mean(&latencies(&run, None, |d| d.latency_s)) / base - 1.0,
        None => campaign_overhead,
    };
    values.push(("trace_overhead_frac".into(), overhead));

    for (name, unit) in metrics::per_layer() {
        let value = values.iter().find(|(n, _)| *n == name).map_or(f64::NAN, |&(_, v)| v);
        report.table.push(format!("{name:<40} {value} {unit}"));
        report.metric(&name, value, unit);
    }
    push_failed_frac(&mut report);
    Ok(report)
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn med(xs: impl IntoIterator<Item = f64>) -> f64 {
    median(&xs.into_iter().collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// Alternates untraced `repro` processes with traced twins and returns
/// the campaign layers plus the tracing overhead on wall time.
fn campaign_layers(
    ctx: &mut Ctx,
    inputs: &CampaignInputs,
    tally: &mut Tally,
) -> io::Result<(Vec<Layer>, f64)> {
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut children: Vec<TracedCampaign> = Vec::new();
    for _ in 0..TRACED_PAIRS {
        let t = repro_sample(ctx, inputs, tally)?;
        untraced.push(t.wall_s);
        let repro_counts = campaign::cache_line(&t.stderr);

        let out = ctx.dirs.fresh("traced");
        let t = campaign::traced(&out, inputs.seed, inputs.warm_cache.as_deref())?;
        let child = TracedCampaign::parse(&t.stderr);
        let mut bad = repro_problems(&t, &out, &inputs.reference, &inputs.golden, false);
        let counts: Option<Vec<u64>> = CACHE_COUNTERS
            .iter()
            .map(|c| child.count(&format!("experiments.simcache.{c}")).map(|v| v as u64))
            .collect();
        if counts.as_deref() != repro_counts.as_ref().map(|c| c.as_slice()) {
            bad.push(format!(
                "traced cache counts {counts:?} differ from repro's {repro_counts:?}"
            ));
        }
        if let Some(first) = children.first() {
            if first.counts != child.counts {
                bad.push(format!(
                    "traced counts drifted: {:?} vs {:?}",
                    child.counts, first.counts
                ));
            }
        }
        tally.op(bad);
        let _ = fs::remove_dir_all(&out);
        traced.push(t.wall_s - child.seconds("untimed"));
        children.push(child);
    }
    let span = |name: &str| med(children.iter().map(|c| c.seconds(name)));
    let count = |name: &str| children[0].count(name).unwrap_or(f64::NAN);
    let mut values: Vec<Layer> = metrics::REGISTRY_IDS
        .iter()
        .map(|id| {
            (
                format!("experiments.registry.{id}.build_s"),
                span(&format!("experiments.registry.{id}.build")),
            )
        })
        .collect();
    values.push(("experiments.f1.profiles_s".into(), span("experiments.f1.profiles")));
    values.push(("experiments.simcache.reload_s".into(), span("experiments.simcache.reload")));
    values.push(("experiments.report.write_s".into(), span("experiments.report.write")));
    for c in CACHE_COUNTERS.iter().map(|c| format!("experiments.simcache.{c}")).chain([
        "experiments.simcache.reloaded".to_string(),
        "experiments.report.artifact_bytes".to_string(),
    ]) {
        values.push((c.clone(), count(&c)));
    }
    let hits = count("experiments.simcache.hits");
    values.push((
        "experiments.simcache.hit_ratio".into(),
        hits / (hits + count("experiments.simcache.misses")),
    ));
    Ok((values, med(traced) / med(untraced) - 1.0))
}

/// Client, wire and journal layers of one verified stream.
fn stream_layers(
    ctx: &mut Ctx,
    run: &nvpd::StreamRun,
    refs: &nvpd::References,
) -> io::Result<Vec<Layer>> {
    let mut values: Vec<Layer> = vec![(
        "experiments.client.accepted_ms".into(),
        med(latencies(run, None, |d| d.accepted_s * 1e3)),
    )];
    for class in JobClass::ALL {
        values.push((
            format!("experiments.client.result_ms.{}", class.name()),
            med(latencies(run, Some(class), |d| (d.latency_s - d.accepted_s) * 1e3)),
        ));
    }
    let replays: Vec<bool> = run
        .samples
        .iter()
        .filter(|s| s.class == JobClass::Replay)
        .filter_map(|s| s.done.as_ref().ok().map(|d| d.replayed))
        .collect();
    let replayed = replays.iter().filter(|&&r| r).count() as f64;
    values.push(("nvpd.replay_ratio".into(), replayed / replays.len() as f64));
    values.push(("nvpd.queue_depth".into(), med(latencies(run, None, |d| f64::from(d.queued)))));

    let requests: Vec<&CampaignRequest> =
        run.warmup.iter().map(|(r, _)| r).chain(run.samples.iter().map(|s| &s.request)).collect();
    let results: Vec<_> = refs.values().collect();
    values.extend(layers::wire(&requests, &results));
    values.extend(layers::journal(&ctx.dirs.fresh("journal"), &requests, refs)?);
    Ok(values)
}

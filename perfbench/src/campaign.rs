//! The `campaign_cold` and `campaign_warm` workloads: full `repro`
//! campaigns in fresh processes, checked against an in-process
//! `--no-cache` reference and the checked-in `results/`.

use std::fs;
use std::io;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use nvp_experiments::{
    f1_power_profiles, registry, run_request, set_cache_dir, sim_cache_stats, CachePolicy,
    CampaignRequest, ExpConfig,
};

use crate::proc::{run_timed, time_to_ready, Timed};

/// `repro` prints this once its cache directory is open (reloaded when
/// warm) and the campaign is about to start: the end of set-up.
const READY_MARKER: &str = "regenerating evaluation";

/// Counter names of the simulation cache, in `repro`'s summary order.
pub const CACHE_COUNTERS: [&str; 5] = ["misses", "hits", "disk_hits", "persisted", "quarantined"];

/// Writes the in-process `--no-cache` artifacts for `seed` into `dir`.
pub fn reference(seed: u64, dir: &Path) -> io::Result<()> {
    set_cache_dir(None)?;
    let mut req = CampaignRequest::all(ExpConfig::default());
    req.seed = Some(seed);
    req.cache = CachePolicy::MemoryOnly;
    run_request(&req)?.write(dir).map(drop)
}

fn artifact_names(dir: &Path) -> io::Result<Vec<String>> {
    let mut names: Vec<String> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .filter(|e| e.file_type().is_ok_and(|t| t.is_file()))
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    Ok(names)
}

/// Compares a campaign's artifacts with the reference (every file, byte
/// for byte) and with the checked-in seed-independent CSVs in `golden`.
/// Returns one line per discrepancy.
pub fn check(out: &Path, reference: &Path, golden: &Path) -> Vec<String> {
    let mut bad = Vec::new();
    let (got, want) = match (artifact_names(out), artifact_names(reference)) {
        (Ok(g), Ok(w)) => (g, w),
        (Err(e), _) | (_, Err(e)) => return vec![format!("{}: {e}", out.display())],
    };
    if got != want {
        bad.push(format!("{}: artifact set {got:?}, expected {want:?}", out.display()));
    }
    for name in &want {
        if fs::read(out.join(name)).ok() != fs::read(reference.join(name)).ok() {
            bad.push(format!("{}: {name} differs from the --no-cache reference", out.display()));
        }
    }
    // F12 (and the RESULTS.md that embeds it) follows the seed; every
    // other checked-in CSV must match at any seed.
    for name in artifact_names(golden).unwrap_or_default() {
        if name.ends_with(".csv")
            && name != "f12.csv"
            && fs::read(out.join(&name)).ok() != fs::read(golden.join(&name)).ok()
        {
            bad.push(format!("{}: {name} differs from results/{name}", out.display()));
        }
    }
    bad
}

/// Parses the counters from `repro`'s `sim cache:` summary line.
#[must_use]
pub fn cache_line(stderr: &str) -> Option<[u64; 5]> {
    let line = stderr.lines().find(|l| l.starts_with("sim cache:"))?;
    let nums: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.parse().ok())
        .collect();
    nums.try_into().ok()
}

/// The `repro` command writing the full campaign into `out` on one
/// scheduler worker. A `warm_cache` is copied to `out/.simcache` first,
/// so `repro` reloads it before it reports ready.
fn repro_cmd(bin: &Path, out: &Path, seed: u64, warm_cache: Option<&Path>) -> io::Result<Command> {
    if let Some(src) = warm_cache {
        copy_dir(src, &out.join(".simcache"))?;
    }
    let mut cmd = Command::new(bin.join("repro"));
    cmd.arg(out).arg("--seed").arg(seed.to_string());
    cmd.env("NVP_THREADS", "1").env_remove("NVP_CACHE_DIR");
    Ok(cmd)
}

/// One measured `repro` process (see [`repro_cmd`]).
pub fn repro(bin: &Path, out: &Path, seed: u64, warm_cache: Option<&Path>) -> io::Result<Timed> {
    run_timed(repro_cmd(bin, out, seed, warm_cache)?, READY_MARKER)
}

/// Spawn-to-ready of one `repro` process, stopped once ready.
pub fn repro_setup(
    bin: &Path,
    out: &Path,
    seed: u64,
    warm_cache: Option<&Path>,
) -> io::Result<f64> {
    time_to_ready(repro_cmd(bin, out, seed, warm_cache)?, READY_MARKER)
}

/// The traced twin of [`repro`]: this benchmark's own binary runs the
/// same campaign in a fresh process through the library, with a span
/// around every layer call (see [`traced_main`]).
pub fn traced(out: &Path, seed: u64, warm_cache: Option<&Path>) -> io::Result<Timed> {
    let cache = out.join(".simcache");
    if let Some(src) = warm_cache {
        copy_dir(src, &cache)?;
    }
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.arg("traced-campaign").arg(out).arg(seed.to_string());
    cmd.env("NVP_THREADS", "1").env_remove("NVP_CACHE_DIR");
    run_timed(cmd, READY_MARKER)
}

fn copy_dir(src: &Path, dst: &Path) -> io::Result<()> {
    fs::create_dir_all(dst)?;
    for entry in fs::read_dir(src)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            fs::copy(entry.path(), dst.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// A span the traced child recorded: name, start and end in seconds
/// since the child's set-up began. All spans are children of the one
/// campaign span, so they carry no parent field.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `experiments.registry.f3.build`.
    pub name: String,
    /// Seconds from the child's origin.
    pub start_s: f64,
    /// Seconds from the child's origin.
    pub end_s: f64,
}

/// Parsed output of one traced child.
#[derive(Debug, Clone, Default)]
pub struct TracedCampaign {
    /// Layer spans in call order.
    pub spans: Vec<Span>,
    /// Counts taken at the same boundaries.
    pub counts: Vec<(String, f64)>,
}

impl TracedCampaign {
    /// Parses `span NAME START END` and `count NAME VALUE` lines.
    #[must_use]
    pub fn parse(text: &str) -> TracedCampaign {
        let mut out = TracedCampaign::default();
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                ["span", name, a, b] => {
                    if let (Ok(start_s), Ok(end_s)) = (a.parse(), b.parse()) {
                        out.spans.push(Span { name: (*name).to_string(), start_s, end_s });
                    }
                }
                ["count", name, v] => {
                    if let Ok(v) = v.parse() {
                        out.counts.push(((*name).to_string(), v));
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Total seconds under spans named `name`.
    #[must_use]
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_s - s.start_s).sum()
    }

    /// The count named `name`.
    #[must_use]
    pub fn count(&self, name: &str) -> Option<f64> {
        self.counts.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Entry point of the traced child: `traced-campaign OUT SEED`. Mirrors
/// what `repro OUT --seed SEED` does in process, in registry order on
/// one worker, and prints one line per span and count to stderr.
pub fn traced_main(out: &Path, seed: u64) -> io::Result<()> {
    let origin = Instant::now();
    let mut spans: Vec<(String, f64, f64)> = Vec::new();
    let mut time = |name: String, f: &mut dyn FnMut()| {
        let a = origin.elapsed().as_secs_f64();
        f();
        spans.push((name, a, origin.elapsed().as_secs_f64()));
    };

    let mut reloaded = Ok(0);
    time("experiments.simcache.reload".into(), &mut || {
        reloaded = set_cache_dir(Some(&out.join(".simcache")));
    });
    let reloaded = reloaded?;
    eprintln!("{READY_MARKER} (traced) into {}", out.display());

    let cfg = ExpConfig { fault_seed: seed, ..ExpConfig::default() };
    let before = sim_cache_stats();
    let mut tables = Vec::new();
    for exp in registry() {
        time(format!("experiments.registry.{}.build", exp.id()), &mut || {
            tables.push(exp.build(&cfg));
        });
    }
    time("experiments.f1.profiles".into(), &mut || {
        for &p in &cfg.profile_seeds {
            std::hint::black_box(f1_power_profiles::series(&cfg, p).to_csv());
        }
    });
    let cache = sim_cache_stats().since(before);

    // `CampaignResult::write` needs a result value; the f1-only request
    // supplies one (with the profile series) and takes the full table
    // list. Its run is outside every layer span and reported as
    // `untimed` so the parent can take it out of the traced wall time.
    let mut result = None;
    time("untimed".into(), &mut || {
        result = Some(run_request(&CampaignRequest::only(cfg.clone(), &["f1"])));
    });
    let mut result = result.expect("set above")?;
    result.tables = tables;
    let mut written = Ok(Vec::new());
    time("experiments.report.write".into(), &mut || written = result.write(out));
    let bytes: u64 = written?.iter().map(|p| fs::metadata(p).map_or(0, |m| m.len())).sum();

    for (name, a, b) in &spans {
        eprintln!("span {name} {a} {b}");
    }
    let counters = [cache.misses, cache.hits, cache.disk_hits, cache.persisted, cache.quarantined];
    for (name, v) in CACHE_COUNTERS.iter().zip(counters) {
        eprintln!("count experiments.simcache.{name} {v}");
    }
    eprintln!("count experiments.simcache.reloaded {reloaded}");
    eprintln!("count experiments.report.artifact_bytes {bytes}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_line_reads_the_repro_summary() {
        let err = "regenerating evaluation ...\nsim cache: 155 unique simulations, 21 duplicate \
                   run(s) deduplicated, 0 served from disk, 155 record(s) persisted, 0 shard(s) \
                   quarantined\nwrote 22 files to x\n";
        assert_eq!(cache_line(err), Some([155, 21, 0, 155, 0]));
        assert_eq!(cache_line("no summary"), None);
    }

    #[test]
    fn traced_output_round_trips() {
        let t = TracedCampaign::parse("span a 0.5 1.5\nspan a 2 2.25\ncount c 7\nnoise\n");
        assert!((t.seconds("a") - 1.25).abs() < 1e-12);
        assert_eq!(t.count("c"), Some(7.0));
        assert_eq!(t.count("d"), None);
    }
}

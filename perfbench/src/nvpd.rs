//! The `nvpd_mixed` workload: a real `nvpd serve` child on loopback and
//! one closed-loop client submitting the seeded job stream.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use nvp_experiments::wire::{content_digest, read_frame, request_key, write_frame, Message};
use nvp_experiments::{run_request, set_cache_dir, CampaignRequest, CampaignResult};

use crate::proc::live_peak_rss_mb;
use crate::stream::{JobClass, JobStream};

/// Generous per-read bound: a quick job takes tens of milliseconds.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `nvpd serve` child with a fresh state directory.
pub struct Server {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
    /// When the process was spawned.
    pub spawned: Instant,
}

impl Server {
    /// Spawns `nvpd serve` on an ephemeral loopback port with one job
    /// worker and a two-worker scheduler, durable state in `state`.
    pub fn spawn(bin: &Path, state: &Path) -> io::Result<Server> {
        std::fs::create_dir_all(state)?;
        let port_file = state.with_extension("port");
        let mut cmd = Command::new(bin.join("nvpd"));
        cmd.args(["serve", "127.0.0.1:0", "--workers", "1", "--state-dir"])
            .arg(state)
            .arg("--port-file")
            .arg(&port_file)
            .env("NVP_THREADS", "2")
            .env_remove("NVP_CACHE_DIR")
            .env_remove("NVPD_FAULT_SPEC")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let spawned = Instant::now();
        let mut server =
            Server { child: cmd.spawn()?, addr: SocketAddr::from(([127, 0, 0, 1], 0)), spawned };
        loop {
            if let Some(addr) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|s| s.trim().parse::<SocketAddr>().ok())
            {
                server.addr = addr;
                return Ok(server);
            }
            if spawned.elapsed() > IO_TIMEOUT {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "nvpd never bound"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Stops the server and returns its peak resident set, MiB.
    pub fn stop(self) -> io::Result<f64> {
        live_peak_rss_mb(self.child.id())
            .ok_or_else(|| io::Error::other("nvpd peak RSS unreadable"))
    }
}

impl Drop for Server {
    /// The server never exits on its own: kill it and reap it.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One job as the client saw it.
#[derive(Debug, Clone)]
pub struct Done {
    /// When the `Accepted` frame arrived.
    pub accepted_at: Instant,
    /// Seconds from connect to the `Accepted` frame.
    pub accepted_s: f64,
    /// Seconds from connect to the `Result` frame.
    pub latency_s: f64,
    /// Queue depth the server reported at admission.
    pub queued: u32,
    /// The server's replay marker.
    pub replayed: bool,
    /// The returned values.
    pub result: CampaignResult,
}

/// Submits one request over a fresh connection, speaking the wire
/// protocol directly so the Submit → Accepted → Result boundaries can
/// be timed apart.
pub fn submit(addr: SocketAddr, req: &CampaignRequest) -> io::Result<Done> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    write_frame(&mut stream, &Message::Submit(req.clone()))?;
    let (job, queued) = match read_frame(&mut stream)? {
        Message::Accepted { job, queued } => (job, queued),
        other => return Err(io::Error::other(format!("expected Accepted, got {other:?}"))),
    };
    let accepted_at = Instant::now();
    let accepted_s = (accepted_at - t0).as_secs_f64();
    match read_frame(&mut stream)? {
        Message::Result { job: j, replayed, result } if j == job => Ok(Done {
            accepted_at,
            accepted_s,
            latency_s: t0.elapsed().as_secs_f64(),
            queued,
            replayed,
            result,
        }),
        other => Err(io::Error::other(format!("expected Result for job {job}, got {other:?}"))),
    }
}

/// Digest of everything a result renders to disk: each table's CSV, the
/// profile series and `RESULTS.md`. Counters are excluded — they
/// describe how the server got the values, not the values.
#[must_use]
pub fn artifact_digest(result: &CampaignResult) -> [u8; 32] {
    let mut bytes = Vec::new();
    for t in &result.tables {
        bytes.extend_from_slice(t.id().as_bytes());
        bytes.extend_from_slice(t.to_csv().as_bytes());
    }
    for (seed, csv) in &result.profiles {
        bytes.extend_from_slice(&seed.to_le_bytes());
        bytes.extend_from_slice(csv.as_bytes());
    }
    bytes.extend_from_slice(result.results_markdown().as_bytes());
    content_digest(&bytes)
}

/// A timed job of the stream.
#[derive(Debug, Clone)]
pub struct Sample {
    /// What the generator submitted.
    pub class: JobClass,
    /// The request.
    pub request: CampaignRequest,
    /// How it went, or why it failed.
    pub done: Result<Done, String>,
}

/// One stream against one fresh server.
#[derive(Debug)]
pub struct StreamRun {
    /// Spawn to the first `Accepted` frame, seconds.
    pub setup_s: f64,
    /// The server's peak resident set, MiB.
    pub peak_rss_mb: f64,
    /// Timed jobs in submission order.
    pub samples: Vec<Sample>,
    /// Warm-up requests and their results (untimed).
    pub warmup: Vec<(CampaignRequest, Result<Done, String>)>,
}

/// Spawns a server on `state`, runs the warm-up, then submits jobs
/// closed-loop until `seconds` have passed, calling `between` after each
/// job with the share of the window elapsed.
pub fn run_stream(
    bin: &Path,
    state: &Path,
    seed: u64,
    seconds: f64,
    between: &mut dyn FnMut(f64),
) -> io::Result<StreamRun> {
    let server = Server::spawn(bin, state)?;
    let mut stream = JobStream::new(seed);
    let mut warmup = Vec::new();
    let mut setup_s = None;
    for req in stream.warmup() {
        let done = submit(server.addr, &req);
        if setup_s.is_none() {
            setup_s = done.as_ref().ok().map(|d| (d.accepted_at - server.spawned).as_secs_f64());
        }
        warmup.push((req, done.map_err(|e| e.to_string())));
    }
    let start = Instant::now();
    let mut samples = Vec::new();
    while start.elapsed().as_secs_f64() < seconds {
        let job = stream.next_job();
        let done = submit(server.addr, &job.request).map_err(|e| e.to_string());
        samples.push(Sample { class: job.class, request: job.request, done });
        between(start.elapsed().as_secs_f64() / seconds);
    }
    let peak_rss_mb = server.stop()?;
    let setup_s = setup_s.ok_or_else(|| io::Error::other("nvpd accepted no warm-up job"))?;
    Ok(StreamRun { setup_s, peak_rss_mb, samples, warmup })
}

/// Spawn-to-ready of a server that is then stopped: ready is the first
/// `Accepted` frame, which follows bind, cache attach and journal open.
pub fn setup_probe(bin: &Path, state: &Path, req: &CampaignRequest) -> io::Result<f64> {
    let server = Server::spawn(bin, state)?;
    let spawned = server.spawned;
    let done = submit(server.addr, req);
    server.stop()?;
    Ok((done?.accepted_at - spawned).as_secs_f64())
}

/// Reference results keyed by request idempotency key.
pub type References = HashMap<[u8; 32], CampaignResult>;

/// In-process reference results for every distinct request, computed
/// memory-only on this process's scheduler.
pub fn references<'a>(
    requests: impl IntoIterator<Item = &'a CampaignRequest>,
) -> io::Result<References> {
    set_cache_dir(None)?;
    let mut out = HashMap::new();
    for req in requests {
        let key = request_key(req);
        if let Entry::Vacant(slot) = out.entry(key) {
            slot.insert(run_request(req)?);
        }
    }
    Ok(out)
}

/// Checks every job of `run` (warm-up first) against the references:
/// the artifact digest must match, and the replay marker must say
/// exactly what the generator expected. Returns each job's problems.
#[must_use]
pub fn verify(run: &StreamRun, refs: &References) -> Vec<Vec<String>> {
    let warm = run.warmup.iter().map(|(req, done)| (JobClass::Sim, req, done));
    let timed = run.samples.iter().map(|s| (s.class, &s.request, &s.done));
    let check =
        |(i, (class, req, done)): (usize, (JobClass, &CampaignRequest, &Result<Done, String>))| {
            let tag = format!("nvpd job {i} ({})", class.name());
            let d = match done {
                Err(e) => return vec![format!("{tag}: {e}")],
                Ok(d) => d,
            };
            let mut bad = Vec::new();
            if refs.get(&request_key(req)).map(artifact_digest) != Some(artifact_digest(&d.result))
            {
                bad.push(format!("{tag}: artifact digest differs from the in-process run"));
            }
            let want_replay = class == JobClass::Replay;
            if d.replayed != want_replay {
                bad.push(format!(
                    "{tag}: replayed={} but the generator expected {want_replay}",
                    d.replayed
                ));
            }
            bad
        };
    warm.chain(timed).enumerate().map(check).collect()
}

//! Child processes: wall time, time to a ready line, and peak RSS.

use std::io::{self, BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::Instant;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which the first is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reaps `child` with `wait4`, returning its exit code (`None` when a
/// signal ended it) and its own peak resident set in KiB. `std`'s
/// `Child::wait` discards the rusage that only the reaping call sees.
fn reap(child: &Child) -> io::Result<(Option<i32>, u64)> {
    let pid = i32::try_from(child.id()).map_err(io::Error::other)?;
    let mut status = 0i32;
    let mut usage = Rusage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    loop {
        // SAFETY: `status` and `usage` are live, exclusively borrowed
        // locals laid out as the C ABI expects (`int` and `struct
        // rusage` on 64-bit Linux); `pid` is our own unreaped child, and
        // `run_timed` drops the `Child` without `std` ever waiting on it.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok((code, u64::try_from(usage.maxrss).unwrap_or(0)))
}

/// What one timed child did.
#[derive(Debug, Clone)]
pub struct Timed {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// Spawn to the first stderr line containing the ready marker.
    pub ready_s: Option<f64>,
    /// Exit code; `None` if a signal ended the child.
    pub code: Option<i32>,
    /// Peak resident set, MiB.
    pub peak_rss_mb: f64,
    /// Everything the child wrote to stderr.
    pub stderr: String,
}

/// Runs `cmd` to completion with stdout discarded, timing it from spawn
/// and noting when stderr first shows `marker`.
pub fn run_timed(mut cmd: Command, marker: &str) -> io::Result<Timed> {
    cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(Stdio::piped());
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let stderr = child.stderr.take().expect("stderr is piped");
    let marker = marker.to_string();
    let reader = thread::spawn(move || {
        let mut ready = None;
        let mut text = String::new();
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            if ready.is_none() && line.contains(&marker) {
                ready = Some(start.elapsed().as_secs_f64());
            }
            text.push_str(&line);
            text.push('\n');
        }
        (ready, text)
    });
    let reaped = reap(&child);
    let wall_s = start.elapsed().as_secs_f64();
    let (ready_s, stderr) = reader.join().expect("stderr reader thread");
    let (code, maxrss_kb) = reaped?;
    Ok(Timed { wall_s, ready_s, code, peak_rss_mb: maxrss_kb as f64 / 1024.0, stderr })
}

/// Peak resident set of a live process, MiB (`VmHWM`).
#[must_use]
pub fn live_peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Spawn-to-ready of `cmd`: the time until stderr first shows `marker`.
/// The child is killed there, since only its set-up is measured.
pub fn time_to_ready(mut cmd: Command, marker: &str) -> io::Result<f64> {
    cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(Stdio::piped());
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let stderr = child.stderr.take().expect("stderr is piped");
    let ready = BufReader::new(stderr)
        .lines()
        .map_while(Result::ok)
        .find(|line| line.contains(marker))
        .map(|_| start.elapsed().as_secs_f64());
    let _ = child.kill();
    child.wait()?;
    ready.ok_or_else(|| io::Error::other(format!("no `{marker}` line before exit")))
}

/// Flushes the file system holding `path` (`sync -f`), so a following
/// fsync-bound measurement does not pay for earlier writes. Best effort.
pub fn sync_fs(path: &std::path::Path) {
    let _ = Command::new("sync").arg("-f").arg(path).status();
}

//! Write-ahead job journal and content-addressed result store.
//!
//! The source paper's nonvolatile processor survives power failure by
//! checkpointing to NVM and resuming exactly where it left off; this
//! module gives the campaign *server* the same property. Before a job
//! is promised to a client (`Accepted` frame), it is made durable in an
//! append-only journal under `--state-dir`; after a crash, a restarted
//! server replays the journal, re-enqueues every job that was admitted
//! but not completed, and serves already-finished work straight from a
//! content-addressed result store without re-simulating.
//!
//! ## Journal format
//!
//! One file, `journal.log`: a record log
//! ([`nvp_experiments::recordlog`], which owns the framing, the
//! damage-tolerant scan, quarantine naming and the atomic rewrite)
//! headed by the magic `b"nvpjrnl1"`, whose record payloads are
//!
//! ```text
//! payload = tag (1 byte) ++ body
//!   tag 1 Admitted:  job u64 ++ key 32B ++ req_len u32 ++ request wire bytes
//!   tag 2 Started:   job u64
//!   tag 3 Completed: job u64 ++ result digest 32B
//! ```
//!
//! `key` is the request's content-addressed idempotency key
//! ([`nvp_experiments::wire::request_key`]); the `Completed` digest is
//! the SHA-256 of the stored result encoding, tying the log to the
//! store. Only the `Admitted` append is fsync'd: it must be durable
//! before `Accepted` goes out, while a lost `Started` or `Completed`
//! merely re-runs an idempotent job.
//!
//! ## Recovery state machine
//!
//! A journal entry moves `Admitted` → `Started` → `Completed`. On
//! open, the scan folds records into a per-job state; every job that
//! never reached `Completed` is **pending** and gets re-enqueued
//! (whether or not it `Started` — jobs are idempotent through the
//! simulation cache, so restarting a half-run job is merely warm). The
//! journal is then **compacted**: rewritten to hold exactly the pending
//! `Admitted` records. Compaction also runs at runtime whenever the
//! live set empties, as a rewrite of the empty set.
//!
//! Any damage the scan finds (a torn tail — the shape an injected or
//! real crash leaves — bad magic, a corrupt interior record, an
//! undecodable body) is counted and **quarantines** the journal: the
//! file is copied aside as `journal.log.quarantine[.N]` before the
//! rewrite, so the evidence survives, a crash mid-rewrite still leaves
//! `journal.log` to rescan, and the server carries on with what it
//! could salvage. The store never aborts the server over a bad file.
//!
//! ## Result store
//!
//! `results/<key-hex>.res` holds the canonical wire encoding
//! ([`nvp_experiments::wire::encode_result_bytes`]) of each completed
//! job's values, written tmp-then-rename so readers never observe a
//! half file. Lookups verify decodability; a corrupt entry is
//! quarantined (renamed) and reported as a miss, which simply re-runs
//! the job against the warm simulation cache.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use nvp_experiments::recordlog;
use nvp_experiments::wire::{
    content_digest, decode_request_bytes, decode_result_bytes, encode_request_bytes,
    encode_result_bytes,
};
use nvp_experiments::{CampaignRequest, CampaignResult};

use crate::faultplan::{AppendAction, ServiceFaultPlan, CRASH_EXIT_CODE};

/// Journal-file magic: `nvpjrnl` + schema version digit.
const MAGIC: &[u8; 8] = b"nvpjrnl1";

/// Record tags.
const TAG_ADMITTED: u8 = 1;
const TAG_STARTED: u8 = 2;
const TAG_COMPLETED: u8 = 3;

/// A 256-bit content digest (idempotency key or result digest).
pub type Digest = [u8; 32];

/// A journalled job that must be re-run (admitted, never completed).
#[derive(Debug, Clone, PartialEq)]
pub struct PendingJob {
    /// The job id the original server assigned (ids stay stable across
    /// restarts so clients' logs line up).
    pub id: u64,
    /// The request's content-addressed idempotency key.
    pub key: Digest,
    /// The request itself, decoded from the journalled wire bytes.
    pub request: CampaignRequest,
}

/// What [`Journal::open`] recovered from a state directory.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Jobs to re-enqueue, in admission order.
    pub pending: Vec<PendingJob>,
    /// The next job id to assign (one past the highest journalled id).
    pub next_job: u64,
    /// Records dropped during the scan (torn tail, corrupt interior).
    pub skipped: u64,
    /// Files quarantined while opening (damaged journal, undecodable
    /// results).
    pub quarantined: u64,
}

/// Per-job fold state during the recovery scan.
#[derive(Debug)]
struct ScanEntry {
    key: Digest,
    request_bytes: Vec<u8>,
    completed: bool,
}

/// Appendable journal state guarded by one lock: the append handle and
/// the live-entry count that triggers compaction.
#[derive(Debug)]
struct Inner {
    file: fs::File,
    /// Admitted-but-not-completed entries in the current journal file.
    live: u64,
}

/// An open write-ahead journal plus its content-addressed result store.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    results_dir: PathBuf,
    faults: ServiceFaultPlan,
    inner: Mutex<Inner>,
    quarantined: AtomicU64,
    compactions: AtomicU64,
}

impl Journal {
    /// Opens (creating if missing) the journal under `state_dir`,
    /// replays it, compacts it down to the pending set, and returns
    /// the recovery outcome.
    ///
    /// # Errors
    ///
    /// Directory/file creation failures pass through; *content* damage
    /// never errors — it is quarantined and counted instead.
    pub fn open(state_dir: &Path, faults: ServiceFaultPlan) -> io::Result<(Journal, Recovery)> {
        let results_dir = state_dir.join("results");
        fs::create_dir_all(&results_dir)?;
        let path = state_dir.join("journal.log");

        let mut recovery = Recovery::default();
        match fs::read(&path) {
            Ok(bytes) => fold(&bytes, &mut recovery),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(_) => recovery.skipped += 1,
        }
        // Keep the evidence. A copy (not a rename), so a crash during
        // the rewrite below still leaves `journal.log` to rescan —
        // recovery must never lose admitted jobs.
        if recovery.skipped > 0
            && recordlog::quarantine_name(&path).and_then(|q| fs::copy(&path, q)).is_ok()
        {
            recovery.quarantined += 1;
            eprintln!(
                "nvpd: journal {} damaged ({} record(s) dropped); quarantined a copy",
                path.display(),
                recovery.skipped
            );
        }

        // Startup compaction: the new journal holds exactly the
        // pending admissions.
        let pending: Vec<Vec<u8>> = recovery
            .pending
            .iter()
            .map(|job| admitted_body(job.id, &job.key, &job.request))
            .collect();
        let file = recordlog::rewrite(&path, MAGIC, pending.iter().map(Vec::as_slice))?;
        let journal = Journal {
            path,
            results_dir,
            faults,
            inner: Mutex::new(Inner { file, live: pending.len() as u64 }),
            quarantined: AtomicU64::new(recovery.quarantined),
            compactions: AtomicU64::new(0),
        };
        Ok((journal, recovery))
    }

    /// Journals an admission and fsyncs it: it MUST be durable before
    /// the `Accepted` frame is sent (write-ahead: promise only what is
    /// logged).
    ///
    /// # Errors
    ///
    /// Append and sync I/O errors pass through (callers degrade
    /// gracefully), as does [`io::ErrorKind::InvalidInput`] for a record
    /// over the record-log cap, which writes nothing.
    pub fn admitted(&self, job: u64, key: &Digest, request: &CampaignRequest) -> io::Result<()> {
        let body = admitted_body(job, key, request);
        let mut inner = self.lock();
        // Counted even if the append fails: the job still runs and
        // completes, and an undercount would compact live entries away.
        inner.live += 1;
        self.append_record(&mut inner, &body, true)
    }

    /// Journals the start-of-execution transition.
    ///
    /// # Errors
    ///
    /// Append I/O errors pass through.
    pub fn started(&self, job: u64) -> io::Result<()> {
        let body = [&[TAG_STARTED][..], &job.to_le_bytes()].concat();
        let mut inner = self.lock();
        self.append_record(&mut inner, &body, false)
    }

    /// Journals completion (with the stored result's digest) and
    /// compacts the journal once no live entries remain.
    ///
    /// # Errors
    ///
    /// Append I/O errors pass through.
    pub fn completed(&self, job: u64, digest: &Digest) -> io::Result<()> {
        let body = [&[TAG_COMPLETED][..], &job.to_le_bytes(), digest].concat();
        let mut inner = self.lock();
        self.append_record(&mut inner, &body, false)?;
        inner.live = inner.live.saturating_sub(1);
        if inner.live == 0 {
            // Everything journalled is done: shrink the log to its
            // header so restarts replay nothing.
            inner.file = recordlog::rewrite(&self.path, MAGIC, [])?;
            self.compactions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Stores a completed result under its request's idempotency key
    /// (tmp + atomic rename) and returns the content digest of the
    /// stored bytes.
    ///
    /// # Errors
    ///
    /// Store I/O errors pass through.
    pub fn put_result(&self, key: &Digest, result: &CampaignResult) -> io::Result<Digest> {
        let bytes = encode_result_bytes(result);
        let digest = content_digest(&bytes);
        let path = self.result_path(key);
        if !path.exists() {
            let tmp = path.with_extension("res.tmp");
            fs::write(&tmp, &bytes)?;
            fs::rename(&tmp, &path)?;
        }
        Ok(digest)
    }

    /// Fetches a completed result by idempotency key, or `None` on a
    /// miss. An undecodable entry is quarantined (renamed aside,
    /// counted) and reported as a miss — degradation, not an abort.
    #[must_use]
    pub fn lookup_result(&self, key: &Digest) -> Option<CampaignResult> {
        let path = self.result_path(key);
        let bytes = fs::read(&path).ok()?;
        match decode_result_bytes(&bytes) {
            Ok(result) => Some(result),
            Err(_) => {
                if recordlog::quarantine_name(&path).and_then(|q| fs::rename(&path, q)).is_ok() {
                    self.quarantined.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "nvpd: result store entry {} undecodable; quarantined",
                        path.display()
                    );
                }
                None
            }
        }
    }

    /// Files this journal has quarantined so far (including at open).
    #[must_use]
    pub fn quarantined_total(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Completed-set compactions performed (startup rewrite excluded).
    #[must_use]
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn result_path(&self, key: &Digest) -> PathBuf {
        self.results_dir.join(format!("{}.res", hex(key)))
    }

    /// Frames `body` and appends it through the fault plan: a planned
    /// tear writes a prefix of the framed record and aborts the
    /// process, leaving exactly the torn-tail shape recovery must
    /// tolerate.
    fn append_record(&self, inner: &mut Inner, body: &[u8], sync: bool) -> io::Result<()> {
        let record = recordlog::frame(body)?;
        match self.faults.journal_append_action(record.len()) {
            AppendAction::Full => recordlog::append(&mut inner.file, &record, sync),
            AppendAction::TearAndCrash(bytes) => {
                let _ = inner.file.write_all(&record[..bytes]);
                let _ = inner.file.sync_all();
                eprintln!("nvpd: injected crash (torn append, {bytes} of {} bytes)", record.len());
                std::process::exit(CRASH_EXIT_CODE);
            }
            AppendAction::CrashAfter => {
                inner.file.write_all(&record)?;
                let _ = inner.file.sync_all();
                eprintln!("nvpd: injected crash (after append)");
                std::process::exit(CRASH_EXIT_CODE);
            }
        }
    }
}

/// The `Admitted` record body for one job.
fn admitted_body(job: u64, key: &Digest, request: &CampaignRequest) -> Vec<u8> {
    let req_bytes = encode_request_bytes(request);
    // A request past `u32::MAX` bytes is far over the record cap, so
    // `recordlog::frame` refuses the body before anything is written.
    let req_len = u32::try_from(req_bytes.len()).unwrap_or(u32::MAX);
    [&[TAG_ADMITTED][..], &job.to_le_bytes(), key, &req_len.to_le_bytes(), &req_bytes].concat()
}

/// Folds journal bytes into a [`Recovery`], counting every kind of
/// damage in `skipped`.
fn fold(bytes: &[u8], recovery: &mut Recovery) {
    let scan = recordlog::scan(MAGIC, bytes);
    recovery.skipped += scan.damaged;
    let mut entries: BTreeMap<u64, ScanEntry> = BTreeMap::new();
    for body in scan.payloads {
        if decode_record(body, &mut entries).is_none() {
            recovery.skipped += 1;
        }
    }
    recovery.next_job = entries.keys().next_back().map_or(0, |max| max + 1);
    for (id, entry) in entries {
        if entry.completed {
            continue;
        }
        match decode_request_bytes(&entry.request_bytes) {
            Ok(request) => {
                recovery.pending.push(PendingJob { id, key: entry.key, request });
            }
            // CRC-valid but undecodable request (e.g. journalled by a
            // different protocol revision): drop it — the client will
            // resubmit under the current protocol.
            Err(_) => recovery.skipped += 1,
        }
    }
}

/// Applies one CRC-valid record body to the fold state; `None` marks a
/// malformed body.
fn decode_record(body: &[u8], entries: &mut BTreeMap<u64, ScanEntry>) -> Option<()> {
    let (&tag, rest) = body.split_first()?;
    let (job, rest) = rest.split_first_chunk::<8>()?;
    let job = u64::from_le_bytes(*job);
    match tag {
        TAG_ADMITTED => {
            let (key, rest) = rest.split_first_chunk::<32>()?;
            let (req_len, request) = rest.split_first_chunk::<4>()?;
            if request.len() != u32::from_le_bytes(*req_len) as usize {
                return None; // short or trailing bytes
            }
            let entry = ScanEntry { key: *key, request_bytes: request.to_vec(), completed: false };
            entries.insert(job, entry);
        }
        // Started is informational; recovery re-runs regardless.
        TAG_STARTED if rest.is_empty() => {}
        TAG_COMPLETED if rest.len() == 32 => {
            if let Some(entry) = entries.get_mut(&job) {
                entry.completed = true;
            }
        }
        _ => return None,
    }
    Some(())
}

/// Lowercase hex of a digest (result-store file names).
fn hex(digest: &Digest) -> String {
    use std::fmt::Write as _;
    digest.iter().fold(String::with_capacity(64), |mut s, b| {
        write!(s, "{b:02x}").expect("write to String");
        s
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvp_experiments::wire::request_key;
    use nvp_experiments::ExpConfig;

    fn unique_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::AtomicUsize;
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("{tag}_{}_{n}", std::process::id()))
    }

    fn request(seed: u64) -> CampaignRequest {
        let mut req = CampaignRequest::all(ExpConfig::quick());
        req.only = Some(vec!["t1".to_string()]);
        req.seed = Some(seed);
        req
    }

    #[test]
    fn fresh_journal_recovers_nothing() {
        let dir = unique_dir("nvpd_journal_fresh");
        let (journal, recovery) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        assert!(recovery.pending.is_empty());
        assert_eq!(recovery.next_job, 0);
        assert_eq!(recovery.skipped, 0);
        assert_eq!(recovery.quarantined, 0);
        assert_eq!(journal.quarantined_total(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn admitted_without_completed_is_reenqueued_with_stable_ids() {
        let dir = unique_dir("nvpd_journal_pending");
        let (journal, _) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        let (ra, rb) = (request(1), request(2));
        let (ka, kb) = (request_key(&ra), request_key(&rb));
        journal.admitted(0, &ka, &ra).unwrap();
        journal.started(0).unwrap();
        journal.admitted(1, &kb, &rb).unwrap();
        drop(journal);

        let (_, recovery) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        assert_eq!(recovery.next_job, 2, "ids keep counting past journalled jobs");
        assert_eq!(recovery.pending.len(), 2, "neither job completed");
        assert_eq!(recovery.pending[0], PendingJob { id: 0, key: ka, request: ra });
        assert_eq!(recovery.pending[1], PendingJob { id: 1, key: kb, request: rb });
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_jobs_are_not_reenqueued_and_empty_live_set_compacts() {
        let dir = unique_dir("nvpd_journal_complete");
        let (journal, _) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        let req = request(3);
        let key = request_key(&req);
        journal.admitted(0, &key, &req).unwrap();
        journal.started(0).unwrap();
        journal.completed(0, &[0u8; 32]).unwrap();
        assert_eq!(journal.compactions(), 1, "live set emptied: journal compacts");
        // Compaction shrank the log to its header.
        assert_eq!(fs::read(dir.join("journal.log")).unwrap(), MAGIC);
        drop(journal);
        let (_, recovery) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        assert!(recovery.pending.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_and_journal_quarantined() {
        let dir = unique_dir("nvpd_journal_torn");
        let (journal, _) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        let (ra, rb) = (request(4), request(5));
        journal.admitted(0, &request_key(&ra), &ra).unwrap();
        journal.admitted(1, &request_key(&rb), &rb).unwrap();
        drop(journal);
        let path = dir.join("journal.log");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 10]).unwrap(); // tear the tail
        let (journal, recovery) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        assert_eq!(recovery.pending.len(), 1, "intact prefix survives");
        assert_eq!(recovery.pending[0].id, 0);
        assert_eq!(recovery.skipped, 1);
        assert_eq!(recovery.quarantined, 1, "damage quarantines the journal");
        assert!(path.with_extension("log.quarantine").exists());
        drop(journal);
        // The rewrite healed the file: reopening is clean.
        let (_, healed) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        assert_eq!(healed.skipped, 0);
        assert_eq!(healed.pending.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_admission_survives_restart_with_the_jobs_after_it() {
        let dir = unique_dir("nvpd_journal_large");
        let (journal, _) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        // 200,000 duplicate ids: about 1.2 MB of request bytes, inside
        // the wire's frame cap, and `resolve` dedups them, so a server
        // admits this request.
        let mut large = request(10);
        large.only = Some(vec!["t1".to_string(); 200_000]);
        for (id, req) in [request(9), large, request(11)].iter().enumerate() {
            journal.admitted(id as u64, &request_key(req), req).unwrap();
        }
        drop(journal);
        let (_, recovery) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        let ids: Vec<u64> = recovery.pending.iter().map(|job| job.id).collect();
        assert_eq!(ids, [0, 1, 2], "every admitted job comes back");
        assert_eq!(recovery.skipped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_journal_is_quarantined_not_fatal() {
        let dir = unique_dir("nvpd_journal_foreign");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("journal.log"), b"not a journal at all").unwrap();
        let (_, recovery) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        assert!(recovery.pending.is_empty());
        assert_eq!(recovery.quarantined, 1);
        assert!(dir.join("journal.log.quarantine").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn result_store_round_trips_and_quarantines_corruption() {
        let dir = unique_dir("nvpd_journal_results");
        let (journal, _) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        let req = request(6);
        let key = request_key(&req);
        assert!(journal.lookup_result(&key).is_none(), "miss before put");
        let result = nvp_experiments::run_request(&req).unwrap();
        let digest = journal.put_result(&key, &result).unwrap();
        let fetched = journal.lookup_result(&key).expect("hit after put");
        assert_eq!(fetched, result, "store round-trips the result bit-exactly");
        assert_eq!(digest, content_digest(&encode_result_bytes(&result)));
        // Corrupt the stored entry: lookup degrades to a quarantined miss.
        let path = dir.join("results").join(format!("{}.res", hex(&key)));
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() / 2);
        fs::write(&path, &bytes).unwrap();
        assert!(journal.lookup_result(&key).is_none());
        assert_eq!(journal.quarantined_total(), 1);
        assert!(path.with_extension("res.quarantine").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn startup_rewrite_compacts_completed_entries_away() {
        let dir = unique_dir("nvpd_journal_rewrite");
        let (journal, _) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        let (ra, rb) = (request(7), request(8));
        journal.admitted(0, &request_key(&ra), &ra).unwrap();
        journal.admitted(1, &request_key(&rb), &rb).unwrap();
        journal.completed(0, &[1u8; 32]).unwrap();
        let before = fs::metadata(dir.join("journal.log")).unwrap().len();
        drop(journal);
        let (_, recovery) = Journal::open(&dir, ServiceFaultPlan::none()).unwrap();
        assert_eq!(recovery.pending.len(), 1);
        assert_eq!(recovery.pending[0].id, 1);
        let after = fs::metadata(dir.join("journal.log")).unwrap().len();
        assert!(after < before, "startup compaction shrank the journal ({before} -> {after})");
        let _ = fs::remove_dir_all(&dir);
    }
}

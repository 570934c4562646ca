//! Persistent on-disk backing for the simulation-result cache.
//!
//! The in-memory cache in [`crate::simcache`] dies with the process, so
//! a warm full-campaign rerun still pays for every unique simulation.
//! This module makes the cache durable as a typed layer over
//! [`crate::recordlog`], which owns the framing, the damage-tolerant
//! scan, append, quarantine naming and the atomic rewrite. Records are
//! **sharded by the first byte** of the SHA-256 content key under a
//! cache directory (`NVP_CACHE_DIR`, or `<out_dir>/.simcache` for the
//! `repro` binary), so concurrent writers rarely touch the same file
//! and reloads stream a few small files instead of one huge one.
//!
//! What is this module's own:
//!
//! * the shard file `<xx>.log` (`xx` = first key byte, hex) and its
//!   magic `b"nvpsimc2"` — the `2` is the schema version, bumped
//!   whenever the record layout changes so stale caches are skipped
//!   wholesale rather than misdecoded (`nvpsimc1` shards, which held
//!   fixed-size `RunReport`-only records, are quarantined on load);
//! * the variable-length record payload, `key (32 bytes) ++ RunReport
//!   (24 × 8-byte fields) ++ latency count (8 bytes) ++ latencies
//!   (8 bytes each)`, little-endian, with floats stored as IEEE-754 bit
//!   patterns, so a reloaded [`SimResult`] is bit-identical to the one
//!   computed and artifacts built from cache hits stay byte-identical
//!   to cold runs.
//!
//! Loading is best-effort: a damaged cache can cost time, never
//! correctness. A shard showing *any* damage (a torn tail, a CRC
//! mismatch, a foreign or stale-schema file, a CRC-valid payload of the
//! wrong shape) is **quarantined**: copied aside as
//! `<name>.quarantine[.N]`, then rewritten to hold exactly the records
//! salvaged from it, which are still served. The counter flows through
//! [`LoadOutcome::quarantined`] and [`crate::SimCacheStats::quarantined`]
//! into the `repro` cache summary and the `nvpd` wire stats, so
//! operators can tell a *cold* cache from a *corrupted* one. Duplicate
//! keys from concurrent appenders are benign: both writers computed
//! bit-identical reports.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use nvp_core::RunReport;
use nvp_energy::units::Joules;

use crate::recordlog;
use crate::sha256::Digest;
use crate::simcache::SimResult;

/// Shard-file magic: `nvpsimc` + schema version digit.
const MAGIC: &[u8; 8] = b"nvpsimc2";

/// Serialized `RunReport`: 2 + 13 + 9 eight-byte fields.
const REPORT_BYTES: usize = 24 * 8;

/// Payload length of a record with no latencies: key + report + count.
const FIXED_BYTES: usize = 32 + REPORT_BYTES + 8;

/// What [`PersistentStore::open`] recovered from disk.
#[derive(Debug, Default)]
pub(crate) struct LoadOutcome {
    /// Every valid `(key, value)` record, shard-major in file order.
    pub records: Vec<(Digest, SimResult)>,
    /// Records (or whole unreadable/foreign files) dropped during the
    /// scan — corruption tolerated, never served.
    pub skipped: u64,
    /// Damaged shard files copied to `*.quarantine` and rewritten to
    /// their salvaged records, so a subsequent open reports the
    /// directory clean.
    pub quarantined: u64,
}

/// An open cache directory: load-once at open, append-only afterwards.
#[derive(Debug)]
pub(crate) struct PersistentStore {
    dir: PathBuf,
}

impl PersistentStore {
    /// Opens (creating if missing) a cache directory and scans every
    /// shard for valid records.
    pub(crate) fn open(dir: &Path) -> io::Result<(PersistentStore, LoadOutcome)> {
        fs::create_dir_all(dir)?;
        let mut outcome = LoadOutcome::default();
        // Deterministic scan order: sorted shard names.
        let mut shards: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "log"))
            .collect();
        shards.sort();
        for shard in shards {
            let Ok(bytes) = fs::read(&shard) else {
                outcome.skipped += 1;
                continue;
            };
            let scan = recordlog::scan(MAGIC, &bytes);
            let mut damaged = scan.damaged;
            let mut salvaged = Vec::with_capacity(scan.payloads.len());
            for payload in scan.payloads {
                match decode_payload(payload) {
                    Some(record) => {
                        outcome.records.push(record);
                        salvaged.push(payload);
                    }
                    None => damaged += 1, // valid CRC but foreign shape
                }
            }
            if damaged == 0 {
                continue;
            }
            outcome.skipped += damaged;
            // Keep the evidence, then heal: the shard is rewritten to
            // its salvage, which stays in memory either way.
            let healed = recordlog::quarantine_name(&shard).and_then(|target| {
                fs::copy(&shard, &target)?;
                recordlog::rewrite(&shard, MAGIC, salvaged)?;
                Ok(target)
            });
            match healed {
                Ok(target) => {
                    outcome.quarantined += 1;
                    eprintln!(
                        "warning: sim cache shard {} damaged ({damaged} record(s) lost); \
                         quarantined as {}",
                        shard.display(),
                        target.display()
                    );
                }
                Err(e) => eprintln!(
                    "warning: sim cache shard {} damaged but could not be quarantined ({e})",
                    shard.display()
                ),
            }
        }
        Ok((PersistentStore { dir: dir.to_path_buf() }, outcome))
    }

    /// Appends one record to the key's shard.
    pub(crate) fn append(&self, key: &Digest, value: &SimResult) -> io::Result<()> {
        let shard = self.dir.join(format!("{:02x}.log", key[0]));
        let record = recordlog::frame(&encode_payload(key, value))?;
        recordlog::append(&mut recordlog::open_append(&shard, MAGIC)?, &record, false)
    }
}

/// Serializes `key ++ report ++ latency count ++ latencies` with every
/// numeric field little-endian and floats as IEEE-754 bit patterns.
fn encode_payload(key: &Digest, value: &SimResult) -> Vec<u8> {
    let (report, latencies) = (&value.report, &value.latencies_ms);
    let mut out = Vec::with_capacity(FIXED_BYTES + 8 * latencies.len());
    out.extend_from_slice(key);
    let mut f = |v: f64| out.extend_from_slice(&v.to_bits().to_le_bytes());
    f(report.duration_s);
    f(report.on_time_s);
    let mut u = |v: u64| out.extend_from_slice(&v.to_le_bytes());
    u(report.committed);
    u(report.executed);
    u(report.lost);
    u(report.uncommitted_at_end);
    u(report.backups);
    u(report.restores);
    u(report.rollbacks);
    u(report.tasks_completed);
    u(report.backups_torn);
    u(report.backup_retries);
    u(report.restores_corrupt);
    u(report.safe_mode_entries);
    u(report.committed_lost);
    let e = &report.energy;
    for j in [
        e.harvested,
        e.converted,
        e.compute,
        e.backup,
        e.restore,
        e.sleep,
        e.regulator,
        e.stored_at_end,
        e.storage_wasted,
    ] {
        out.extend_from_slice(&j.get().to_bits().to_le_bytes());
    }
    out.extend_from_slice(&(latencies.len() as u64).to_le_bytes());
    for &ms in latencies {
        out.extend_from_slice(&ms.to_bits().to_le_bytes());
    }
    debug_assert_eq!(out.len(), FIXED_BYTES + 8 * latencies.len());
    out
}

/// Inverse of [`encode_payload`]; `None` unless the payload is exactly
/// as long as its latency count says (schema `nvpsimc2`).
fn decode_payload(payload: &[u8]) -> Option<(Digest, SimResult)> {
    let tail = payload.len().checked_sub(FIXED_BYTES)?;
    let count = &payload[FIXED_BYTES - 8..FIXED_BYTES];
    let count = u64::from_le_bytes(count.try_into().expect("8 bytes"));
    if tail % 8 != 0 || (tail / 8) as u64 != count {
        return None;
    }
    let mut key = [0u8; 32];
    key.copy_from_slice(&payload[..32]);
    let mut off = 32;
    let mut next = || {
        let v = u64::from_le_bytes(payload[off..off + 8].try_into().expect("8 bytes"));
        off += 8;
        v
    };
    let mut report = RunReport {
        duration_s: f64::from_bits(next()),
        on_time_s: f64::from_bits(next()),
        committed: next(),
        executed: next(),
        lost: next(),
        uncommitted_at_end: next(),
        backups: next(),
        restores: next(),
        rollbacks: next(),
        tasks_completed: next(),
        backups_torn: next(),
        backup_retries: next(),
        restores_corrupt: next(),
        safe_mode_entries: next(),
        committed_lost: next(),
        ..RunReport::default()
    };
    report.energy.harvested = Joules::new(f64::from_bits(next()));
    report.energy.converted = Joules::new(f64::from_bits(next()));
    report.energy.compute = Joules::new(f64::from_bits(next()));
    report.energy.backup = Joules::new(f64::from_bits(next()));
    report.energy.restore = Joules::new(f64::from_bits(next()));
    report.energy.sleep = Joules::new(f64::from_bits(next()));
    report.energy.regulator = Joules::new(f64::from_bits(next()));
    report.energy.stored_at_end = Joules::new(f64::from_bits(next()));
    report.energy.storage_wasted = Joules::new(f64::from_bits(next()));
    next(); // the latency count, checked above
    let latencies_ms = payload[FIXED_BYTES..]
        .chunks_exact(8)
        .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8 bytes"))))
        .collect();
    Some((key, SimResult { report, latencies_ms }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unique_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("{tag}_{}_{n}", std::process::id()))
    }

    fn sample(salt: u64) -> SimResult {
        let mut r = RunReport {
            duration_s: 2.0 + salt as f64 * 0.125,
            on_time_s: 1.0,
            committed: 1000 + salt,
            executed: 1200 + salt,
            lost: 7,
            backups: 42,
            tasks_completed: 3,
            ..RunReport::default()
        };
        r.energy.compute = Joules::new(1e-6 + salt as f64 * 1e-9);
        r.energy.harvested = Joules::new(2e-6);
        r.into()
    }

    fn key_of(b: u8) -> Digest {
        let mut k = [0u8; 32];
        k[0] = b;
        k[1] = b.wrapping_add(1);
        k
    }

    #[test]
    fn payload_round_trips_bit_exactly() {
        let mut value = sample(9);
        let key = key_of(0xAB);
        for latencies_ms in [vec![], vec![0.1 + 0.2, -0.0, f64::MAX, 3.25]] {
            value.latencies_ms = latencies_ms;
            let payload = encode_payload(&key, &value);
            assert_eq!(payload.len(), FIXED_BYTES + 8 * value.latencies_ms.len());
            let (k2, v2) = decode_payload(&payload).unwrap();
            assert_eq!(k2, key);
            assert_eq!(v2.report, value.report);
            let bits = |v: &SimResult| -> Vec<u64> {
                v.latencies_ms.iter().map(|ms| ms.to_bits()).collect()
            };
            assert_eq!(bits(&v2), bits(&value));
            assert_eq!(
                v2.report.energy.compute.get().to_bits(),
                value.report.energy.compute.get().to_bits()
            );
            // A payload whose length disagrees with its latency count is
            // rejected, never misread.
            assert!(decode_payload(&payload[..payload.len() - 8]).is_none());
            assert!(decode_payload(&[payload.as_slice(), &[0; 8]].concat()).is_none());
        }
    }

    #[test]
    fn append_then_reopen_recovers_all_records() {
        let dir = unique_dir("nvp_persist_roundtrip");
        let (store, loaded) = PersistentStore::open(&dir).unwrap();
        assert!(loaded.records.is_empty());
        for i in 0..20u8 {
            // Spread over a few shards (keys differing in byte 0).
            store.append(&key_of(i % 4), &sample(u64::from(i))).unwrap();
        }
        let (_, reloaded) = PersistentStore::open(&dir).unwrap();
        assert_eq!(reloaded.records.len(), 20);
        assert_eq!(reloaded.skipped, 0);
        assert!(reloaded.records.iter().any(|(k, r)| k[0] == 2 && r.report.committed == 1002));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_record_is_dropped_not_fatal() {
        let dir = unique_dir("nvp_persist_trunc");
        let (store, _) = PersistentStore::open(&dir).unwrap();
        let key = key_of(0x11);
        store.append(&key, &sample(1)).unwrap();
        store.append(&key, &sample(2)).unwrap();
        let shard = dir.join("11.log");
        let bytes = fs::read(&shard).unwrap();
        // Chop the second record in half, as a crash mid-append would.
        fs::write(&shard, &bytes[..bytes.len() - FIXED_BYTES / 2]).unwrap();
        let (_, loaded) = PersistentStore::open(&dir).unwrap();
        assert_eq!(loaded.records.len(), 1, "intact prefix record must survive");
        assert_eq!(loaded.records[0].1.report.committed, sample(1).report.committed);
        assert_eq!(loaded.skipped, 1);
        assert_eq!(loaded.quarantined, 1);
        assert!(dir.join("11.log.quarantine").exists(), "damaged shard renamed aside");
        // Healing: salvage was re-appended, so the next open is clean.
        let (_, healed) = PersistentStore::open(&dir).unwrap();
        assert_eq!(healed.records.len(), 1);
        assert_eq!(healed.skipped, 0);
        assert_eq!(healed.quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_crc_byte_skips_only_that_record() {
        let dir = unique_dir("nvp_persist_crc");
        let (store, _) = PersistentStore::open(&dir).unwrap();
        let key = key_of(0x22);
        store.append(&key, &sample(1)).unwrap();
        store.append(&key, &sample(2)).unwrap();
        store.append(&key, &sample(3)).unwrap();
        let shard = dir.join("22.log");
        let mut bytes = fs::read(&shard).unwrap();
        // Flip one payload byte inside the *middle* record.
        let middle_payload = MAGIC.len() + (8 + FIXED_BYTES) + 8 + 40;
        bytes[middle_payload] ^= 0xFF;
        fs::write(&shard, &bytes).unwrap();
        let (_, loaded) = PersistentStore::open(&dir).unwrap();
        assert_eq!(loaded.records.len(), 2, "records around the corrupt one must survive");
        assert_eq!(loaded.skipped, 1);
        assert_eq!(loaded.quarantined, 1);
        let committed: Vec<u64> = loaded.records.iter().map(|(_, r)| r.report.committed).collect();
        assert_eq!(committed, vec![sample(1).report.committed, sample(3).report.committed]);
        // Both survivors were healed into a fresh shard.
        let (_, healed) = PersistentStore::open(&dir).unwrap();
        assert_eq!(healed.records.len(), 2);
        assert_eq!(healed.quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_quarantines_get_numbered_suffixes() {
        let dir = unique_dir("nvp_persist_requarantine");
        let (store, _) = PersistentStore::open(&dir).unwrap();
        let key = key_of(0x44);
        for round in 1..=3u64 {
            store.append(&key, &sample(round)).unwrap();
            let shard = dir.join("44.log");
            let mut bytes = fs::read(&shard).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
            fs::write(&shard, &bytes).unwrap();
            let (_, loaded) = PersistentStore::open(&dir).unwrap();
            assert_eq!(loaded.quarantined, 1, "round {round}");
        }
        assert!(dir.join("44.log.quarantine").exists());
        assert!(dir.join("44.log.quarantine.2").exists());
        assert!(dir.join("44.log.quarantine.3").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_and_stale_schema_files_are_skipped_wholesale() {
        let dir = unique_dir("nvp_persist_foreign");
        let (store, _) = PersistentStore::open(&dir).unwrap();
        store.append(&key_of(0x33), &sample(1)).unwrap();
        fs::write(dir.join("zz.log"), b"nvpsimc0old-schema-bytes").unwrap();
        fs::write(dir.join("not-a-cache.log"), b"short").unwrap();
        let (_, loaded) = PersistentStore::open(&dir).unwrap();
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.skipped, 2);
        assert_eq!(loaded.quarantined, 2);
        assert!(dir.join("zz.log.quarantine").exists());
        assert!(dir.join("not-a-cache.log.quarantine").exists());
        assert!(dir.join("33.log").exists(), "healthy shard untouched");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_1_shards_are_quarantined_never_misdecoded() {
        let dir = unique_dir("nvp_persist_schema1");
        fs::create_dir_all(&dir).unwrap();
        // A well-formed shard of the previous schema: `nvpsimc1` magic
        // and CRC-valid `key ++ RunReport` records, 8 bytes short of
        // this schema's smallest payload.
        let mut old = b"nvpsimc1".to_vec();
        for i in 0..3u8 {
            let payload = encode_payload(&key_of(0x55), &sample(u64::from(i)));
            old.extend(recordlog::frame(&payload[..FIXED_BYTES - 8]).unwrap());
        }
        fs::write(dir.join("55.log"), &old).unwrap();
        let (store, loaded) = PersistentStore::open(&dir).unwrap();
        assert!(loaded.records.is_empty(), "no record of the old schema is served");
        assert_eq!(loaded.skipped, 1);
        assert_eq!(loaded.quarantined, 1);
        assert_eq!(fs::read(dir.join("55.log.quarantine")).unwrap(), old, "evidence kept");
        // Even under this schema's magic, the old payload shape decodes
        // to nothing.
        let mut forged = MAGIC.to_vec();
        forged.extend_from_slice(&old[MAGIC.len()..]);
        fs::write(dir.join("56.log"), &forged).unwrap();
        let (_, reloaded) = PersistentStore::open(&dir).unwrap();
        assert!(reloaded.records.is_empty());
        assert_eq!(reloaded.skipped, 3);
        // The healed shard takes new records as usual.
        store.append(&key_of(0x55), &sample(7)).unwrap();
        let (_, healed) = PersistentStore::open(&dir).unwrap();
        assert_eq!(healed.records.len(), 1);
        assert_eq!(healed.quarantined, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_two_handle_append_recovers_every_record() {
        let dir = unique_dir("nvp_persist_concurrent");
        // Two independent handles on the same directory — the
        // in-process equivalent of two `repro` processes sharing
        // `NVP_CACHE_DIR` — appending into the same shards from two
        // threads.
        let (a, _) = PersistentStore::open(&dir).unwrap();
        let (b, _) = PersistentStore::open(&dir).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..50u64 {
                    a.append(&key_of((i % 3) as u8), &sample(i)).unwrap();
                }
            });
            s.spawn(|| {
                for i in 50..100u64 {
                    b.append(&key_of((i % 3) as u8), &sample(i)).unwrap();
                }
            });
        });
        let (_, loaded) = PersistentStore::open(&dir).unwrap();
        assert_eq!(loaded.skipped, 0, "interleaved whole-record appends never corrupt");
        assert_eq!(loaded.quarantined, 0);
        assert_eq!(loaded.records.len(), 100);
        let mut committed: Vec<u64> =
            loaded.records.iter().map(|(_, r)| r.report.committed).collect();
        committed.sort_unstable();
        let expect: Vec<u64> = (0..100).map(|i| 1000 + i).collect();
        assert_eq!(committed, expect);
        let _ = fs::remove_dir_all(&dir);
    }
}

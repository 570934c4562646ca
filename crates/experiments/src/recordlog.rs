//! One CRC-framed record log, shared by every persistent and wire
//! format in the workspace: the persistent simulation cache's shard
//! logs, the `nvpd` job journal and the wire protocol's frames
//! ([`crate::wire`]). The journal's result store shares its quarantine
//! naming.
//!
//! ## Format
//!
//! ```text
//! record = [len: u32 le] [crc32: u32 le] [payload: len bytes]
//! log    = magic (8 bytes) ++ record*
//! ```
//!
//! `len` is between 1 and [`MAX_RECORD_BYTES`]. The CRC-32 is the
//! checkpoint subsystem's ([`nvp_sim::crc32_bytes`]), so wire, cache,
//! journal and checkpoint integrity share one checksum; it covers the
//! whole payload. Each caller owns its magic (schema tag plus version
//! digit) and its payload layout; this module never looks inside a
//! payload.
//!
//! ## Damage and healing
//!
//! [`scan`] never fails. It returns the CRC-valid payloads and a damage
//! count:
//!
//! * a foreign or stale-schema header abandons the whole file;
//! * a CRC mismatch skips that record, and framing resumes at the next
//!   length prefix;
//! * an implausible length prefix or a torn tail (a writer killed
//!   mid-append) ends the scan, keeping every record before it.
//!
//! An empty file is a log nobody has written yet, not damage, and a
//! repeated magic (two processes creating the same log at once) is
//! skipped. Callers keep a damaged file as evidence under its
//! [`quarantine_name`] (a copy, so a crash mid-heal still leaves the
//! original) and then heal it with [`rewrite`] of the salvage.

use std::fs;
use std::io::{self, Read, Write as _};
use std::path::{Path, PathBuf};

use nvp_sim::crc32_bytes;

/// Largest payload a record may carry. Large enough for any
/// full-evaluation result and for the journal record of any request
/// the wire admits; small enough that a corrupt or hostile length
/// prefix cannot make a reader allocate unbounded memory.
pub const MAX_RECORD_BYTES: u32 = 16 * 1024 * 1024;

/// The `[len][crc32]` prefix in front of every payload.
const HEADER_BYTES: usize = 8;

/// Frames `payload` as one record.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] for an empty payload or one over
/// [`MAX_RECORD_BYTES`]; nothing is framed, so nothing gets written.
pub fn frame(payload: &[u8]) -> io::Result<Vec<u8>> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|len| (1..=MAX_RECORD_BYTES).contains(len))
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("record payload of {} bytes outside 1..={MAX_RECORD_BYTES}", payload.len()),
            )
        })?;
    let mut record = Vec::with_capacity(HEADER_BYTES + payload.len());
    record.extend_from_slice(&len.to_le_bytes());
    record.extend_from_slice(&crc32_bytes(payload).to_le_bytes());
    record.extend_from_slice(payload);
    Ok(record)
}

/// Decodes a record header into `(payload length, CRC)`, or returns
/// the claimed length as the error when no writer could have produced
/// it.
fn header(bytes: &[u8; HEADER_BYTES]) -> Result<(usize, u32), u32> {
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(bytes[4..].try_into().expect("4 bytes"));
    if len == 0 || len > MAX_RECORD_BYTES {
        return Err(len);
    }
    Ok((len as usize, crc))
}

/// Reads one record from a stream, checking the length bound before
/// allocating and the CRC before returning the payload.
///
/// # Errors
///
/// Reader errors pass through, so a truncated record surfaces as
/// [`io::ErrorKind::UnexpectedEof`]; an implausible length or a CRC
/// mismatch is [`io::ErrorKind::InvalidData`].
pub fn read_record<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let mut prefix = [0u8; HEADER_BYTES];
    r.read_exact(&mut prefix)?;
    let (len, crc) = header(&prefix).map_err(|len| {
        io::Error::new(io::ErrorKind::InvalidData, format!("implausible record length {len}"))
    })?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    if crc32_bytes(&payload) != crc {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "record CRC mismatch"));
    }
    Ok(payload)
}

/// What [`scan`] recovered from one log file's bytes.
#[derive(Debug, Default)]
pub struct Scan<'a> {
    /// CRC-valid payloads, in file order.
    pub payloads: Vec<&'a [u8]>,
    /// Damage found: a foreign header, each CRC-failed record, and the
    /// implausible length or torn tail that ended the scan.
    pub damaged: u64,
}

/// Walks a log's bytes, collecting CRC-valid payloads and counting
/// damage (see the module docs for what counts).
#[must_use]
pub fn scan<'a>(magic: &[u8; 8], bytes: &'a [u8]) -> Scan<'a> {
    let mut out = Scan::default();
    if bytes.is_empty() {
        return out;
    }
    let Some(mut rest) = bytes.strip_prefix(magic.as_slice()) else {
        out.damaged = 1;
        return out;
    };
    while !rest.is_empty() {
        if let Some(after) = rest.strip_prefix(magic.as_slice()) {
            rest = after;
            continue;
        }
        // A torn prefix, an implausible length or a torn payload: the
        // framing cannot be followed past here.
        let Some((payload, crc)) = rest
            .first_chunk()
            .and_then(|prefix| header(prefix).ok())
            .and_then(|(len, crc)| Some((rest.get(HEADER_BYTES..HEADER_BYTES + len)?, crc)))
        else {
            out.damaged += 1;
            break;
        };
        rest = &rest[HEADER_BYTES + payload.len()..];
        if crc32_bytes(payload) == crc {
            out.payloads.push(payload);
        } else {
            out.damaged += 1;
        }
    }
    out
}

/// Opens the log at `path` for appending, creating it headed by
/// `magic` when it is missing or empty.
///
/// # Errors
///
/// File creation and header-write errors pass through.
pub fn open_append(path: &Path, magic: &[u8; 8]) -> io::Result<fs::File> {
    let mut file = fs::OpenOptions::new().create(true).append(true).open(path)?;
    if file.metadata()?.len() == 0 {
        // Two processes creating the same log can both write the
        // magic; `scan` skips the repeat.
        file.write_all(magic)?;
    }
    Ok(file)
}

/// Appends one framed record (see [`frame`]) with a single `O_APPEND`
/// write, so concurrent appenders interleave whole records. With
/// `sync` the record is on stable storage before this returns.
///
/// # Errors
///
/// Write and sync errors pass through.
pub fn append(file: &mut fs::File, record: &[u8], sync: bool) -> io::Result<()> {
    file.write_all(record)?;
    if sync {
        file.sync_all()?;
    }
    Ok(())
}

/// The first free `<name>.quarantine[.N]` sibling of `path`: where a
/// damaged file is kept as evidence.
///
/// # Errors
///
/// A path without a UTF-8 file name, or 1000 quarantines already taken.
pub fn quarantine_name(path: &Path) -> io::Result<PathBuf> {
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::other("path has no utf-8 file name"))?;
    (1..=1000u32)
        .map(|n| match n {
            1 => path.with_file_name(format!("{name}.quarantine")),
            n => path.with_file_name(format!("{name}.quarantine.{n}")),
        })
        .find(|candidate| !candidate.exists())
        .ok_or_else(|| io::Error::other("no free quarantine name after 1000 attempts"))
}

/// Atomically replaces the log at `path` with `magic` plus one record
/// per payload (process-private tmp file, `sync_all`, rename) and
/// returns an append handle on the new file. A crash at any point
/// leaves either the old log or the new one, whole.
///
/// # Errors
///
/// I/O errors pass through, as does [`frame`]'s refusal of a payload;
/// the old log is then left untouched.
pub fn rewrite<'p>(
    path: &Path,
    magic: &[u8; 8],
    payloads: impl IntoIterator<Item = &'p [u8]>,
) -> io::Result<fs::File> {
    let mut bytes = magic.to_vec();
    for payload in payloads {
        bytes.extend_from_slice(&frame(payload)?);
    }
    // Per-process name: two processes healing one shared cache shard
    // must not write through the same tmp file.
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    fs::OpenOptions::new().append(true).open(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const MAGIC: &[u8; 8] = b"nvptest1";

    fn log_of(payloads: &[&[u8]]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        for p in payloads {
            bytes.extend_from_slice(&frame(p).unwrap());
        }
        bytes
    }

    #[test]
    fn frame_refuses_empty_and_oversized_payloads() {
        assert_eq!(frame(&[]).unwrap_err().kind(), io::ErrorKind::InvalidInput);
        let over = vec![0u8; MAX_RECORD_BYTES as usize + 1];
        assert_eq!(frame(&over).unwrap_err().kind(), io::ErrorKind::InvalidInput);
        let at_cap = vec![7u8; MAX_RECORD_BYTES as usize];
        assert_eq!(read_record(&mut Cursor::new(frame(&at_cap).unwrap())).unwrap(), at_cap);
    }

    #[test]
    fn scan_tolerates_repeated_headers_and_counts_each_kind_of_damage() {
        let mut bytes = log_of(&[b"one"]);
        bytes.extend_from_slice(MAGIC); // a racing creator's header
        bytes.extend_from_slice(&frame(b"two").unwrap());
        let clean = scan(MAGIC, &bytes);
        assert_eq!(clean.payloads, [b"one".as_slice(), b"two"]);
        assert_eq!(clean.damaged, 0);

        let mut flipped = log_of(&[b"one", b"two", b"three"]);
        flipped[MAGIC.len() + HEADER_BYTES + 3 + HEADER_BYTES] ^= 0xFF; // "two"
        let s = scan(MAGIC, &flipped);
        assert_eq!(s.payloads, [b"one".as_slice(), b"three"]);
        assert_eq!(s.damaged, 1);

        let torn = log_of(&[b"one", b"two"]);
        let s = scan(MAGIC, &torn[..torn.len() - 1]);
        assert_eq!((s.payloads.len(), s.damaged), (1, 1));

        assert_eq!(scan(MAGIC, b"").damaged, 0, "an empty log is clean");
        assert_eq!(scan(MAGIC, b"nvptest0stale").damaged, 1);
    }

    #[test]
    fn rewrite_replaces_the_log_and_hands_back_an_append_handle() {
        let dir = std::env::temp_dir().join(format!("nvp_recordlog_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.log");
        let mut file = open_append(&path, MAGIC).unwrap();
        append(&mut file, &frame(b"old").unwrap(), false).unwrap();
        let mut file = rewrite(&path, MAGIC, [b"kept".as_slice()]).unwrap();
        append(&mut file, &frame(b"new").unwrap(), true).unwrap();
        let bytes = fs::read(&path).unwrap();
        assert_eq!(scan(MAGIC, &bytes).payloads, [b"kept".as_slice(), b"new"]);
        assert_eq!(quarantine_name(&path).unwrap(), dir.join("x.log.quarantine"));
        let _ = fs::remove_dir_all(&dir);
    }
}

//! The model fingerprint: one SHA-256 over every source file that can
//! change a simulation result, plus the compiler version.
//!
//! `build.rs` includes this module (and [`crate::sha256`]) by path,
//! digests the model's source trees with [`tree_digest`] and exports
//! the hex digest to the crate as `NVP_MODEL_FINGERPRINT`, which
//! [`crate::simcache`] mixes into every cache key and idempotency key.
//! A build whose model differs by one byte therefore never addresses a
//! record an older build wrote. The library itself compiles this
//! module only for its tests.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::sha256::{Digest, Sha256};

/// Collects every file below `dir`, recursively.
fn files_under(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            files_under(&path, out)?;
        } else {
            out.push(path);
        }
    }
    Ok(())
}

/// Digests every file below the `roots` (paths relative to `base`),
/// then `extra`. Each file contributes its `/`-separated path relative
/// to `base` and its contents, both length-prefixed, in sorted path
/// order: the digest depends on what the trees hold, not on the
/// directory-listing order or on where the checkout lives.
pub(crate) fn tree_digest(base: &Path, roots: &[&str], extra: &[u8]) -> io::Result<Digest> {
    let mut files = Vec::new();
    for root in roots {
        files_under(&base.join(root), &mut files)?;
    }
    let mut named: Vec<(String, PathBuf)> = files
        .into_iter()
        .map(|path| {
            let rel = path.strip_prefix(base).unwrap_or(&path);
            let name: Vec<String> =
                rel.components().map(|c| c.as_os_str().to_string_lossy().into_owned()).collect();
            (name.join("/"), path)
        })
        .collect();
    named.sort();
    let mut h = Sha256::new();
    let mut field = |bytes: &[u8]| {
        h.update(&(bytes.len() as u64).to_le_bytes());
        h.update(bytes);
    };
    field(b"nvp-model-fingerprint/1");
    for (name, path) in &named {
        field(name.as_bytes());
        field(&fs::read(path)?);
    }
    field(extra);
    Ok(h.finalize())
}

/// Lower-case hex rendering of a digest.
pub(crate) fn hex(d: &Digest) -> String {
    d.iter().fold(String::with_capacity(64), |mut s, b| {
        write!(s, "{b:02x}").expect("write to String");
        s
    })
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

    /// Writes `files` (relative path, contents) under a fresh directory,
    /// in the given order.
    fn tree(tag: &str, files: &[(&str, &str)]) -> PathBuf {
        let base = unique_dir(tag);
        for (rel, body) in files {
            let path = base.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, body).unwrap();
        }
        base
    }

    const FILES: [(&str, &str); 4] = [
        ("crates/energy/src/frontend.rs", "peak_efficiency: 0.82"),
        ("crates/energy/src/lib.rs", "pub mod frontend;"),
        ("crates/core/src/lib.rs", "pub mod system;"),
        ("compat/rand/src/lib.rs", "pub struct StdRng;"),
    ];
    const ROOTS: [&str; 3] = ["crates/energy/src", "crates/core/src", "compat/rand"];

    #[test]
    fn one_byte_edit_changes_the_fingerprint() {
        let a = tree("nvp_fp_edit_a", &FILES);
        let mut edited = FILES;
        edited[0].1 = "peak_efficiency: 0.83";
        let b = tree("nvp_fp_edit_b", &edited);
        let da = tree_digest(&a, &ROOTS, b"rustc 1").unwrap();
        assert_eq!(da, tree_digest(&a, &ROOTS, b"rustc 1").unwrap(), "digest is stable");
        assert_ne!(da, tree_digest(&b, &ROOTS, b"rustc 1").unwrap(), "source edit");
        assert_ne!(da, tree_digest(&a, &ROOTS, b"rustc 2").unwrap(), "compiler change");
        // A file moved between directories is a different tree.
        let moved = tree(
            "nvp_fp_moved",
            &[
                ("crates/energy/src/frontend.rs", "peak_efficiency: 0.82"),
                ("crates/core/src/frontend_lib.rs", "pub mod frontend;"),
                ("crates/core/src/lib.rs", "pub mod system;"),
                ("compat/rand/src/lib.rs", "pub struct StdRng;"),
            ],
        );
        assert_ne!(da, tree_digest(&moved, &ROOTS, b"rustc 1").unwrap(), "file renamed");
        for d in [a, b, moved] {
            let _ = fs::remove_dir_all(d);
        }
    }

    #[test]
    fn fingerprint_ignores_listing_order_and_checkout_location() {
        let forward = tree("nvp_fp_fwd", &FILES);
        let mut reversed = FILES;
        reversed.reverse();
        let backward = tree("nvp_fp_rev", &reversed);
        // Roots named in another order still digest in sorted order.
        let mut roots = ROOTS;
        roots.reverse();
        assert_eq!(
            hex(&tree_digest(&forward, &ROOTS, b"v").unwrap()),
            hex(&tree_digest(&backward, &roots, b"v").unwrap())
        );
        for d in [forward, backward] {
            let _ = fs::remove_dir_all(d);
        }
    }
}

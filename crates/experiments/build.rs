//! Derives the model fingerprint (see `src/fingerprint.rs`): a SHA-256
//! over every source tree that can change a simulation result, plus
//! `rustc -V`, exported to the crate as `NVP_MODEL_FINGERPRINT`.
//!
//! `experiments/src` is part of the model because the code that sets up
//! each simulation and F12's recovery-latency extraction live there;
//! `compat/rand` drives trace and fault sampling. Cargo reruns this
//! script whenever a file under any of these directories changes.

use std::env;
use std::path::Path;
use std::process::Command;

#[path = "src/sha256.rs"]
mod sha256;

#[path = "src/fingerprint.rs"]
mod fingerprint;

/// The model's source trees, relative to the workspace root.
const MODEL_SOURCES: [&str; 8] = [
    "crates/isa/src",
    "crates/sim/src",
    "crates/device/src",
    "crates/energy/src",
    "crates/core/src",
    "crates/workloads/src",
    "crates/experiments/src",
    "compat/rand",
];

fn main() {
    let manifest = env::var_os("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let workspace = Path::new(&manifest).ancestors().nth(2).expect("crate sits at crates/<name>");
    for dir in MODEL_SOURCES {
        println!("cargo:rerun-if-changed={}", workspace.join(dir).display());
    }
    println!("cargo:rerun-if-env-changed=RUSTC");
    let rustc = env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    let version = Command::new(rustc).arg("-V").output().expect("rustc -V runs").stdout;
    let digest = fingerprint::tree_digest(workspace, &MODEL_SOURCES, &version)
        .expect("model sources are readable");
    println!("cargo:rustc-env=NVP_MODEL_FINGERPRINT={}", fingerprint::hex(&digest));
}

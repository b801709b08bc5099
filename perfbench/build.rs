//! Records the compiler version and build profile in the binary, so every
//! result can name how the code that produced it was built.

use std::env;
use std::process::Command;

fn main() {
    let rustc = env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(&rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let profile = env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    let opt = env::var("OPT_LEVEL").unwrap_or_else(|_| "?".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile} (opt-level {opt})");
    println!("cargo:rerun-if-changed=build.rs");
}

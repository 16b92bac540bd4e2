//! Records the compiler version and the build flags in the binary, so
//! every result line can name the build that produced it.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let env = |k: &str| std::env::var(k).unwrap_or_default();
    let rustflags = env("CARGO_ENCODED_RUSTFLAGS").replace('\x1f', " ");
    let build = format!(
        "profile={} opt-level={} target={} rustflags=[{}]",
        env("PROFILE"),
        env("OPT_LEVEL"),
        env("TARGET"),
        rustflags
    );
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_BUILD={build}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-changed=build.rs");
}

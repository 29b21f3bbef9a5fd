//! Records which compiler builds `repro`: allocation counts depend on the
//! standard library's growth policy, so `--timings` names the toolchain.

fn main() {
    let rustc = std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    let out = std::process::Command::new(rustc).arg("--version").output();
    let version = out.ok().and_then(|out| String::from_utf8(out.stdout).ok());
    let version = version.unwrap_or_default();
    println!("cargo:rustc-env=BUILD_RUSTC_VERSION={}", version.trim());
    println!("cargo:rerun-if-env-changed=RUSTC");
}

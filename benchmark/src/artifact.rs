//! Where things live, and building the program under test.
//!
//! The benchmark measures the shipped artifact: the release `repro`
//! binary built from the checkout it sits in. A second build of the same
//! sources with the counting allocator (`--features count-allocs`) exists
//! only to count heap allocations; nothing is ever timed on it.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use epidemic_trace::json;

/// Directories of one checkout.
#[derive(Debug, Clone)]
pub struct Paths {
    /// The repository root (the parent of this package).
    pub root: PathBuf,
    /// Raw evidence of every run; ignored by git.
    pub results: PathBuf,
    /// This package's build directory; the counting build goes below it.
    target: PathBuf,
}

impl Paths {
    pub fn discover() -> Result<Paths, String> {
        let bench = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = bench
            .parent()
            .ok_or("the benchmark package has no parent directory")?
            .to_path_buf();
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            // Cargo resolves a relative value against the working
            // directory, which nested cargo invocations share.
            Some(dir) => PathBuf::from(dir),
            None => bench.join("target"),
        };
        Ok(Paths {
            root,
            results: bench.join("results"),
            target,
        })
    }

    /// A fresh, empty directory under `results/`.
    pub fn results_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.results.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// The two builds of `repro`.
#[derive(Debug, Clone)]
pub struct Binaries {
    /// The shipped artifact: every timing is taken on this one.
    pub plain: PathBuf,
    /// Same sources, counting allocator: allocation counts only.
    pub counting: PathBuf,
}

/// Builds both binaries (a no-op when fresh) and returns their paths as
/// cargo reports them. Build time is never part of any metric.
pub fn build(paths: &Paths) -> Result<Binaries, String> {
    let plain = cargo_build(paths, &[])?;
    let counting_dir = paths.target.join("count-allocs");
    let counting = cargo_build(
        paths,
        &[
            "--features".as_ref(),
            "count-allocs".as_ref(),
            "--target-dir".as_ref(),
            counting_dir.as_os_str(),
        ],
    )?;
    Ok(Binaries { plain, counting })
}

fn cargo_build(paths: &Paths, extra: &[&std::ffi::OsStr]) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let manifest = paths.root.join("Cargo.toml");
    let output = Command::new(&cargo)
        .args(["build", "--release", "--offline", "--manifest-path"])
        .arg(&manifest)
        .args(["-p", "epidemic-bench", "--bin", "repro"])
        .arg("--message-format=json-render-diagnostics")
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", Path::new(&cargo).display()))?;
    if !output.status.success() {
        return Err(format!(
            "cargo build of repro failed ({}) for {}",
            output.status,
            manifest.display()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    executable_from_messages(&stdout, "repro")
        .ok_or_else(|| "cargo build reported no executable named repro".to_string())
}

/// The `executable` of the last `compiler-artifact` message for the
/// binary target `name` in cargo's JSON message stream.
fn executable_from_messages(messages: &str, name: &str) -> Option<PathBuf> {
    messages
        .lines()
        .filter_map(|line| json::parse(line).ok())
        .filter(|m| m.get("reason").and_then(|r| r.as_str()) == Some("compiler-artifact"))
        .filter(|m| {
            m.get("target")
                .and_then(|t| t.get("name"))
                .and_then(|n| n.as_str())
                == Some(name)
        })
        .filter_map(|m| m.get("executable")?.as_str().map(PathBuf::from))
        .next_back()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executable_is_read_from_cargo_messages() {
        let messages = concat!(
            r#"{"reason":"compiler-artifact","target":{"name":"epidemic_bench","kind":["lib"]},"executable":null}"#,
            "\n",
            r#"{"reason":"compiler-artifact","target":{"name":"repro","kind":["bin"]},"executable":"/x/release/repro"}"#,
            "\n",
            r#"{"reason":"build-finished","success":true}"#,
            "\n",
        );
        assert_eq!(
            executable_from_messages(messages, "repro"),
            Some(PathBuf::from("/x/release/repro"))
        );
        assert_eq!(executable_from_messages(messages, "other"), None);
        assert_eq!(executable_from_messages("not json\n", "repro"), None);
    }
}

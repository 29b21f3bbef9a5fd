//! What the numbers were measured on: recorded beside every result so a
//! later reader can tell a code change from a machine change.

use std::path::Path;
use std::process::Command;

use epidemic_trace::json::{array_of, JsonObject};

#[derive(Debug, Clone)]
pub struct Machine {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_head: String,
    /// `(level, type, size)` of cpu0's caches, e.g. `(2, "Unified", "2048K")`.
    pub caches: Vec<(u32, String, String)>,
}

impl Machine {
    pub fn probe(root: &Path) -> Machine {
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".to_string()),
            rustc: command_line("rustc", &["-V"], root),
            // A checkout made from an archive has no repository to ask.
            git_head: command_line("git", &["rev-parse", "HEAD"], root),
            caches: caches(),
        }
    }

    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("nproc", self.nproc as u64)
            .field_str("cpu_model", &self.cpu_model)
            .field_str("rustc", &self.rustc)
            .field_str("git_head", &self.git_head)
            .field_raw(
                "caches",
                &array_of(self.caches.iter().map(|(level, kind, size)| {
                    let mut c = JsonObject::new();
                    c.field_u64("level", u64::from(*level))
                        .field_str("type", kind)
                        .field_str("size", size);
                    c.finish()
                })),
            );
        o.finish()
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn caches() -> Vec<(u32, String, String)> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |index: u32, file: &str| {
        std::fs::read_to_string(base.join(format!("index{index}")).join(file))
            .ok()
            .map(|s| s.trim().to_string())
    };
    (0..8)
        .filter_map(|i| {
            Some((
                read(i, "level")?.parse().ok()?,
                read(i, "type")?,
                read(i, "size")?,
            ))
        })
        .collect()
}

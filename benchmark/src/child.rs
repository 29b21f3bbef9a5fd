//! One `repro` child process, timed and metered from outside.
//!
//! Wall time is spawn → exit on the monotonic clock; CPU seconds and peak
//! resident set come from the kernel's own accounting of that one child
//! (`wait4`), not from anything the child reports about itself.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What a finished child cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub wall_s: f64,
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// `ru_maxrss`: kilobytes on Linux.
    pub peak_rss_kb: u64,
}

/// Everything needed to start one child.
#[derive(Debug, Clone)]
pub struct Invocation {
    pub program: PathBuf,
    pub argv: Vec<String>,
    /// The complete environment (the child inherits nothing else).
    pub env: Vec<(String, String)>,
    pub cwd: PathBuf,
    pub stdout: PathBuf,
    pub stderr: PathBuf,
    pub timeout: Duration,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs, of
/// which only `ru_maxrss` (the first) is read.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, signal: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// Runs the child to completion. A non-zero exit, a signal or a timeout
/// is an `Err` naming the stderr file: a failed operation, never a sample.
pub fn run(inv: &Invocation) -> Result<Sample, String> {
    let describe = || format!("{} {}", inv.program.display(), inv.argv.join(" "));
    let open = |path: &Path| {
        File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))
    };
    let mut command = Command::new(&inv.program);
    command
        .args(&inv.argv)
        .env_clear()
        .envs(inv.env.iter().map(|(k, v)| (k, v)))
        .current_dir(&inv.cwd)
        .stdin(Stdio::null())
        .stdout(open(&inv.stdout)?)
        .stderr(open(&inv.stderr)?);
    let start = Instant::now();
    let child = command
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", describe()))?;
    let pid = i32::try_from(child.id()).map_err(|_| "child pid does not fit pid_t".to_string())?;

    // The watchdog kills the child if `wait4` has not returned in time. The
    // channel is signalled right after the reap; for the kill to reach a
    // stranger, the timeout would have to fire in those microseconds and
    // the kernel's sequential pid allocator wrap around within them.
    let (reaped, watchdog_rx) = mpsc::channel::<()>();
    let timeout = inv.timeout;
    let watchdog = std::thread::spawn(move || {
        if watchdog_rx.recv_timeout(timeout) == Err(mpsc::RecvTimeoutError::Timeout) {
            // SAFETY: `kill` takes plain integers and touches no memory of
            // this process; a stale pid yields ESRCH, which is ignored.
            unsafe { kill(pid, SIGKILL) };
            return true;
        }
        false
    });
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `status` and `usage` are live, writable and of the layouts
    // `wait4` fills on 64-bit Linux (`int`, `struct rusage`); `pid` is this
    // process's own unreaped child, so the call blocks until it exits.
    let waited = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall_s = start.elapsed().as_secs_f64();
    let _ = reaped.send(());
    let timed_out = watchdog
        .join()
        .map_err(|_| "watchdog thread panicked".to_string())?;
    // `child` is dropped without `wait`: the process is already reaped.
    drop(child);
    if waited != pid {
        return Err(format!("wait4 failed for {}", describe()));
    }
    if timed_out {
        return Err(format!(
            "timed out after {:.0} s: {}",
            timeout.as_secs_f64(),
            describe()
        ));
    }
    // Exited normally iff the low seven bits are clear; the exit code is
    // the next byte.
    if status & 0x7f != 0 || (status >> 8) & 0xff != 0 {
        return Err(format!(
            "wait status {status:#x} (exit code {}, signal {}) from {}; see {}",
            (status >> 8) & 0xff,
            status & 0x7f,
            describe(),
            inv.stderr.display()
        ));
    }
    let seconds = |t: Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(Sample {
        wall_s,
        cpu_s: seconds(usage.utime) + seconds(usage.stime),
        peak_rss_kb: u64::try_from(usage.maxrss).unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn invocation(dir: &Path, script: &str, timeout: Duration) -> Invocation {
        Invocation {
            program: PathBuf::from("/bin/sh"),
            argv: vec!["-c".to_string(), script.to_string()],
            env: vec![("MARK".to_string(), "seen".to_string())],
            cwd: dir.to_path_buf(),
            stdout: dir.join("out.txt"),
            stderr: dir.join("err.txt"),
            timeout,
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("results/test-tmp")
            .join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn child_sees_only_the_given_environment_and_is_metered() {
        let dir = scratch("env");
        let sample = run(&invocation(
            &dir,
            "echo $MARK ${HOME:-unset}",
            Duration::from_secs(20),
        ))
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join("out.txt")).unwrap(),
            "seen unset\n"
        );
        assert!(sample.wall_s > 0.0 && sample.peak_rss_kb > 0);
    }

    #[test]
    fn failure_and_timeout_are_errors_not_samples() {
        let dir = scratch("fail");
        let err = run(&invocation(&dir, "exit 3", Duration::from_secs(20))).unwrap_err();
        assert!(err.contains("exit code 3"), "{err}");
        let err = run(&invocation(&dir, "sleep 30", Duration::from_millis(200))).unwrap_err();
        assert!(err.contains("timed out"), "{err}");
    }
}

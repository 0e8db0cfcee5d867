//! Child-process hygiene: every process the harness starts carries a
//! unique marker in its environment (inherited by `grape-worker`
//! grandchildren), is killed and waited on whenever its guard drops —
//! panics included — and a `/proc` scan for the marker afterwards counts
//! what survived.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The environment variable carrying a run's marker.
pub const MARKER_ENV: &str = "GRAPE_BENCH_RUN";

/// A marker no other run shares: harness pid plus a start timestamp.
pub fn fresh_marker() -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    format!("{}-{nanos}", std::process::id())
}

/// A child that cannot outlive its guard.
pub struct ChildGuard {
    child: Child,
}

impl ChildGuard {
    /// Spawns `command` with the marker set and the fault-injection and
    /// engine-mode variables cleared, so the child runs the configuration
    /// the workload names and nothing from the caller's shell.
    pub fn spawn(mut command: Command, marker: &str) -> std::io::Result<ChildGuard> {
        command
            .env(MARKER_ENV, marker)
            .env_remove("GRAPE_ENGINE_MODE")
            .env_remove("GRAPE_WORKER_CRASH_AFTER");
        Ok(ChildGuard {
            child: command.spawn()?,
        })
    }

    /// The child's pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The child's stdout, once.
    pub fn take_stdout(&mut self) -> Option<std::process::ChildStdout> {
        self.child.stdout.take()
    }

    /// Waits up to `limit` for the child to exit by itself; `false` when it
    /// is still running (the drop will kill it).
    pub fn wait_exit(&mut self, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return true,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => return false,
            }
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Pids of live processes whose environment carries `marker`.
pub fn marked_pids(marker: &str) -> Vec<u32> {
    let needle = format!("{MARKER_ENV}={marker}");
    let mut pids = Vec::new();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return pids;
    };
    for entry in entries.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        if pid == std::process::id() {
            continue;
        }
        let Ok(environ) = std::fs::read(entry.path().join("environ")) else {
            continue;
        };
        let carries = environ
            .split(|&b| b == 0)
            .any(|var| var == needle.as_bytes());
        // A zombie keeps its pid until reaped but has no environ left, so
        // only processes that still hold memory are counted.
        if carries {
            pids.push(pid);
        }
    }
    pids
}

/// Counts marked processes still alive `grace` after teardown began: the
/// workers of a killed `graped` notice their closed pipe and exit on their
/// own, which takes a moment.
pub fn count_orphans(marker: &str, grace: Duration) -> usize {
    let deadline = Instant::now() + grace;
    loop {
        let alive = marked_pids(marker).len();
        if alive == 0 || Instant::now() >= deadline {
            return alive;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Peak resident set (`VmHWM`) of `pid` in MiB; 0 when unreadable.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds `pid` has used, its waited-for children included (user +
/// system; fields 14–17 of `/proc/<pid>/stat`); 0 when unreadable.
pub fn cpu_seconds(pid: u32) -> f64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(4)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    // Linux reports these in USER_HZ, which is 100 on every supported
    // architecture.
    ticks / 100.0
}

/// A running `graped`: the guard, the address it bound, and its stdout
/// (kept open so a later print cannot hit a closed pipe).
pub struct Graped {
    /// Kills and reaps the daemon on drop.
    pub guard: ChildGuard,
    /// `host:port` as announced.
    pub addr: String,
    _stdout: BufReader<std::process::ChildStdout>,
}

/// Starts `graped` and waits for its "listening on" line.
pub fn spawn_graped(binary: &Path, args: &[String], marker: &str) -> Result<Graped, String> {
    let mut command = Command::new(binary);
    command
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut guard = ChildGuard::spawn(command, marker)
        .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
    let stdout = guard.take_stdout().expect("stdout was piped");
    let mut stdout = BufReader::new(stdout);
    let mut line = String::new();
    stdout
        .read_line(&mut line)
        .map_err(|e| format!("graped stdout: {e}"))?;
    let addr = line
        .trim()
        .strip_prefix("graped listening on ")
        .map(|rest| rest.split_whitespace().next().unwrap_or("").to_string())
        .filter(|a| !a.is_empty())
        .ok_or_else(|| format!("graped did not announce its address, printed {line:?}"))?;
    Ok(Graped {
        guard,
        addr,
        _stdout: stdout,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sleeper(marker: &str) -> ChildGuard {
        let mut command = Command::new("sleep");
        command.arg("30").stdout(Stdio::null());
        ChildGuard::spawn(command, marker).expect("spawn sleep")
    }

    #[test]
    fn a_dropped_guard_leaves_no_orphan() {
        let marker = fresh_marker();
        let guard = sleeper(&marker);
        assert_eq!(marked_pids(&marker), vec![guard.pid()]);
        assert!(peak_rss_mb(guard.pid()) > 0.0);
        drop(guard);
        assert_eq!(count_orphans(&marker, Duration::from_secs(2)), 0);
    }

    #[test]
    fn a_harness_panic_still_kills_the_child() {
        let marker = format!("{}-panic", fresh_marker());
        let inner = marker.clone();
        let result = std::panic::catch_unwind(move || {
            let _guard = sleeper(&inner);
            panic!("injected harness panic");
        });
        assert!(result.is_err());
        assert_eq!(count_orphans(&marker, Duration::from_secs(2)), 0);
    }

    #[test]
    fn a_live_marked_process_is_counted_as_an_orphan() {
        let marker = format!("{}-live", fresh_marker());
        let _guard = sleeper(&marker);
        assert_eq!(count_orphans(&marker, Duration::from_millis(20)), 1);
    }

    #[test]
    fn cpu_seconds_reads_this_process() {
        assert!(cpu_seconds(std::process::id()) >= 0.0);
        assert_eq!(cpu_seconds(u32::MAX), 0.0);
    }
}

//! What the ledger reads from the host: core count, CPU flags, filesystem
//! type of the scratch directory, commit, and this process's own memory and
//! write counters from `/proc`.

use std::path::{Path, PathBuf};

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The SIMD flags the program dispatches on, as `/proc/cpuinfo` lists them.
pub fn cpu_flags() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags = info
        .lines()
        .find(|l| l.starts_with("flags") || l.starts_with("Features"))
        .and_then(|l| l.split(':').nth(1))
        .unwrap_or("");
    let wanted = ["sse2", "sse4_2", "avx", "avx2", "avx512f", "neon", "asimd"];
    let present: Vec<&str> = flags
        .split_whitespace()
        .filter(|f| wanted.contains(f))
        .collect();
    if present.is_empty() {
        "unknown".to_string()
    } else {
        present.join(",")
    }
}

/// Filesystem type of the mount that holds `path` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    fs_type_from(&mounts, &path)
}

fn fs_type_from(mounts: &str, path: &Path) -> String {
    let mut best: Option<(usize, &str)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_dev), Some(point), Some(kind)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if path.starts_with(point) && best.is_none_or(|(len, _)| point.len() >= len) {
            best = Some((point.len(), kind));
        }
    }
    best.map_or("unknown", |(_, kind)| kind).to_string()
}

/// The commit of the checkout the ledger runs in, when it is a git
/// checkout; the driver's checkouts are not.
pub fn commit(root: &Path) -> String {
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => std::fs::read_to_string(root.join(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| head.clone()),
    }
}

fn status_kib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

/// Restarts `VmHWM` from the current resident set (`clear_refs`, value 5),
/// so that a peak can be taken per phase. Where the host refuses the write
/// the peak stays cumulative and `false` comes back.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Resident set of this process now (`VmRSS`), MiB.
pub fn rss_mib() -> f64 {
    status_kib("VmRSS:") / 1024.0
}

/// Bytes this process has passed to `write`-like calls (`wchar` of
/// `/proc/self/io`). On one thread with no timers the count repeats exactly.
pub fn written_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("wchar:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A per-process scratch root inside the current directory, removed on drop.
///
/// The name carries pid, seed and workload, so two ledger processes on one
/// host never share a directory.
pub struct Scratch {
    root: PathBuf,
}

/// Everything the ledger leaves behind lives under this directory of the
/// checkout it was started in.
pub const RUN_DIR: &str = ".ledger_run";

impl Scratch {
    pub fn new(seed: u64, workload: &str) -> std::io::Result<Self> {
        let root = PathBuf::from(RUN_DIR)
            .join(format!("scratch_{}_{seed}_{workload}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.root.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Nothing to report to: a leftover directory is named by pid.
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fs_type_takes_the_longest_mount_prefix() {
        let mounts =
            "overlay / overlay rw 0 0\ntmpfs /tmp tmpfs rw 0 0\n/dev/vdb /tmp/data ext4 rw 0 0\n";
        assert_eq!(fs_type_from(mounts, Path::new("/tmp/data/x")), "ext4");
        assert_eq!(fs_type_from(mounts, Path::new("/tmp/y")), "tmpfs");
        assert_eq!(fs_type_from(mounts, Path::new("/home")), "overlay");
        assert_eq!(fs_type_from("", Path::new("/home")), "unknown");
    }

    #[test]
    fn proc_counters_are_readable_here() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mib() > 0.0 && rss_mib() > 0.0);
        let before = written_bytes();
        let dir =
            std::env::temp_dir().join(format!("ndss_ledger_host_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("f"), vec![0u8; 4096]).unwrap();
        assert!(written_bytes() >= before + 4096);
        assert_eq!(dir_bytes(&dir), 4096);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

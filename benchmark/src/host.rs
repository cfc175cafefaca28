//! The host fingerprint every output carries, peak memory, and the
//! per-process scratch directory.

use provabs_server::Json;
use provabs_session::Kernel;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU features that decide which kernels and instructions run.
fn cpu_flags() -> Vec<String> {
    const WANTED: [&str; 8] = [
        "sse4_2", "avx", "avx2", "fma", "bmi2", "avx512f", "neon", "sve",
    ];
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let line = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags") || l.starts_with("Features"))
        .unwrap_or_default();
    line.split_whitespace()
        .filter(|flag| WANTED.contains(flag))
        .map(str::to_string)
        .collect()
}

/// The commit being measured, read from `.git` (a benchmark checkout
/// made without git reports `unknown`).
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head.to_string(),
    };
    match resolved.trim() {
        "" => "unknown".to_string(),
        hash => hash.to_string(),
    }
}

/// `nproc`, CPU flags, the evaluation kernel runtime dispatch resolves
/// to, the compiler, and the commit.
pub fn fingerprint() -> Json {
    Json::obj([
        ("nproc", Json::from(nproc())),
        (
            "cpu_flags",
            Json::Arr(cpu_flags().into_iter().map(Json::from).collect()),
        ),
        ("kernel", Json::from(Kernel::Auto.resolve().name())),
        ("rustc", Json::from(env!("PROVABS_BENCH_RUSTC"))),
        ("commit", Json::from(commit())),
    ])
}

/// The process's peak resident set (`VmHWM`) in MB; `None` where
/// `/proc` does not say.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Pins glibc's allocator to one arena that keeps what the program
/// frees (no `mmap` for large blocks, no trimming of the heap), so that
/// neither the time nor the peak memory of a run depends on what lies
/// outside the program: a VM whose hypervisor takes freed pages back
/// within seconds charges a host fault for every page the next round
/// allocates again, and the peak of a heap spread over per-thread arenas
/// depends on which server thread landed on which arena (README,
/// "Noise").
pub fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_MAX: i32 = -4;
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` is glibc's own switch for these three
        // parameters, takes no pointer, and is called from `main` before
        // any other thread exists.
        unsafe {
            mallopt(M_MMAP_MAX, 0);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            mallopt(M_ARENA_MAX, 1);
        }
    }
}

/// Where runs leave their trace files: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-process directory under the output directory for artifacts and
/// the server's `artifact_dir`, removed when dropped — also on a failed
/// check, because `main` returns instead of calling `exit` with it alive.
pub struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates `<out>/run-<pid>-<n>/`.
    pub fn create(out: &Path) -> std::io::Result<Self> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out.join(format!("run-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_names_the_five_facts() {
        let fp = fingerprint();
        for key in ["nproc", "cpu_flags", "kernel", "rustc", "commit"] {
            assert!(fp.get(key).is_some(), "{key}");
        }
        assert!(fp.get("nproc").and_then(Json::as_u64).expect("number") >= 1);
        assert_ne!(fp.get("kernel").and_then(Json::as_str), Some("auto"));
    }

    #[test]
    fn scratch_is_removed_on_drop() {
        let scratch = Scratch::create(&out_dir()).expect("creatable");
        let dir = scratch.path().to_path_buf();
        std::fs::write(dir.join("x.provabs"), b"x").expect("writable");
        drop(scratch);
        assert!(!dir.exists());
    }
}

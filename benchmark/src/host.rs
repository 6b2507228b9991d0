//! The host the numbers were measured on, its memory readings, and the
//! benchmark's scratch files.

use owlp_arith::microkernel::{MR, NR};
use owlp_format::{block_geometry, cache_info, CacheInfo};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Everything about the host and build configuration that can move a
/// measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    /// CPU model string, when the OS reports one.
    pub cpu_model: Option<String>,
    /// Kernel-relevant CPU features.
    pub features: Vec<String>,
    /// Cache sizes the blocking geometry is derived from.
    pub cache: CacheInfo,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The SIMD tier the kernels dispatch to.
    pub tier: String,
    /// Resolved `mc,kc,nc` blocking geometry for the i16 kernels.
    pub block_geometry: String,
    /// `owlp_par::thread_budget()` of the client thread.
    pub thread_budget: usize,
    /// Streaming-copy bandwidth, read plus write bytes per second / 1e9.
    pub copy_gb_s: f64,
}

impl Host {
    /// Fingerprints the host, timing a streaming copy of `copy_bytes`.
    pub fn fingerprint(copy_bytes: usize) -> Host {
        Host {
            cpu_model: owlp_format::blocking::cpu_model(),
            features: owlp_arith::microkernel::detected_features()
                .into_iter()
                .map(String::from)
                .collect(),
            cache: cache_info(),
            nproc: owlp_par::hardware_threads(),
            tier: owlp_format::simd::selected_tier().name().to_string(),
            block_geometry: block_geometry(2, MR, NR).to_string(),
            thread_budget: owlp_par::thread_budget(),
            copy_gb_s: copy_gb_s(copy_bytes),
        }
    }
}

/// Median of five timed `copy_from_slice` passes over `bytes`-sized
/// buffers, after one untimed pass that faults every page in. Counts the
/// bytes read plus the bytes written, as STREAM's copy kernel does.
pub fn copy_gb_s(bytes: usize) -> f64 {
    let src = vec![1u8; bytes];
    let mut dst = vec![0u8; bytes];
    dst.copy_from_slice(&src);
    let mut secs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            t.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(|a, b| a.total_cmp(b));
    2.0 * bytes as f64 / secs[2] / 1e9
}

/// Peak resident set size (`VmHWM`) in MB, when the OS reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Returns the heap's free pages to the OS, so that memory the
/// benchmark freed after its own set-up work stays out of the peak RSS.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only
        // releases pages of free heap chunks; it is thread-safe and may
        // be called at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets the peak resident set size to the current one, so later
/// readings cover only what follows. Returns whether the OS allowed it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Names of `OWLP_*` variables set in the environment. Any of them
/// changes which code runs, so a parent and a change measured under
/// different settings would not be comparable.
pub fn owlp_env() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("OWLP_"))
        .collect()
}

/// The directory the benchmark writes archives and reports into.
pub fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".work")
}

/// An archive path unique to this process and call, unlinked on drop.
///
/// Every archive the benchmark writes gets a fresh path, so no file is
/// ever rewritten while a mapping of it is alive (a rewritten mapped file
/// raises SIGBUS in its reader). Declare the guard before anything that
/// maps the file: locals drop in reverse order, so every mapping is gone
/// before the unlink, on success and on error alike.
#[derive(Debug)]
pub struct TempArchive {
    path: PathBuf,
}

impl TempArchive {
    /// A new unique path under [`work_dir`] for workload `tag`.
    pub fn new(tag: &str) -> std::io::Result<TempArchive> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = work_dir();
        std::fs::create_dir_all(&dir)?;
        let seq = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("{tag}-{}-{seq}.owl2", std::process::id()));
        Ok(TempArchive { path })
    }

    /// The archive path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempArchive {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Removes archives left under [`work_dir`] by benchmark processes that
/// no longer run (killed before their guards dropped).
pub fn sweep_stale_archives() {
    let Ok(entries) = std::fs::read_dir(work_dir()) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(stem) = name.strip_suffix(".owl2") else {
            continue;
        };
        let pid = stem.rsplit('-').nth(1).and_then(|p| p.parse::<u32>().ok());
        if pid.is_some_and(|p| !Path::new(&format!("/proc/{p}")).exists()) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_archives_are_unique_and_unlinked_on_drop() {
        let a = TempArchive::new("test").unwrap();
        let b = TempArchive::new("test").unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path(), b"x").unwrap();
        let path = a.path().to_path_buf();
        drop(a);
        assert!(!path.exists());
    }

    #[test]
    fn copy_bandwidth_is_positive() {
        assert!(copy_gb_s(1 << 20) > 0.0);
    }
}

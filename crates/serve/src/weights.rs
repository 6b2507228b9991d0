//! Weight loading for the serving pool: pack once offline, map at startup.
//!
//! A serving process restarts far more often than its weights change, so
//! the cold start is dominated by getting weights from disk into the form
//! the GEMM consumes. The archive-v2 path splits that work asymmetrically:
//! the *offline* `repro pack` step writes and digests every tensor's
//! encoded planes and panels, and the *startup* path here just maps the file
//! and adopts the planes — O(index) syscalls, zero decode, zero re-pack,
//! weight bytes shared with the page cache across worker processes.
//!
//! [`ServedWeights::load`] verifies every plane digest on the way in (the
//! storage-integrity gate); [`ServedWeights::load_unverified`] is the pure
//! zero-copy open for callers that scrub on a separate schedule.

use crate::error::ServeError;
use owlp_arith::gemm::{owlp_gemm_prepared, PreparedTensor};
use owlp_arith::ArithError;
use owlp_format::{Bf16, MappedArchive};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// A model's weight set served out of a mapped archive-v2 file: every
/// tensor is a [`PreparedTensor`] whose planes and microkernel panels are
/// borrowed views into the map, ready for `owlp_gemm_prepared` with no
/// per-request preparation work.
#[derive(Debug)]
pub struct ServedWeights {
    archive: MappedArchive,
    tensors: BTreeMap<String, PreparedTensor>,
    verified: bool,
}

impl ServedWeights {
    /// Maps the archive at `path` and adopts every tensor's planes,
    /// verifying each plane's CRC32C digest on the way in.
    ///
    /// # Errors
    ///
    /// [`ServeError::Weights`] for unreadable, torn, or corrupt archives.
    pub fn load(path: &Path) -> Result<Self, ServeError> {
        Self::open(path, true)
    }

    /// Maps the archive at `path` without digest verification — the pure
    /// zero-copy cold start (corruption still cannot *crash* the GEMM:
    /// plane shapes are validated by the index).
    ///
    /// # Errors
    ///
    /// As [`ServedWeights::load`], minus digest failures.
    pub fn load_unverified(path: &Path) -> Result<Self, ServeError> {
        Self::open(path, false)
    }

    fn open(path: &Path, verify: bool) -> Result<Self, ServeError> {
        let archive = MappedArchive::open(path).map_err(|e| ServeError::Weights(e.to_string()))?;
        let names: Vec<String> = archive.names().map(str::to_string).collect();
        let mut tensors = BTreeMap::new();
        for name in names {
            let mapped = if verify {
                archive.tensor(&name)
            } else {
                archive.tensor_unverified(&name)
            }
            .map_err(|e| ServeError::Weights(e.to_string()))?;
            tensors.insert(name, PreparedTensor::from_mapped(mapped));
        }
        Ok(ServedWeights {
            archive,
            tensors,
            verified: verify,
        })
    }

    /// The prepared tensor named `name`, if present.
    pub fn get(&self, name: &str) -> Option<&PreparedTensor> {
        self.tensors.get(name)
    }

    /// Tensor names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.tensors.keys().cloned().collect()
    }

    /// Number of tensors.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Whether the archive holds no tensors.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Archive file size in bytes.
    pub fn archive_bytes(&self) -> u64 {
        self.archive.file_len()
    }

    /// Whether the planes are true `mmap` views (`false` on the aligned
    /// heap-read fallback — same zero-decode layout, privately backed).
    pub fn was_mapped(&self) -> bool {
        self.archive.was_mapped()
    }

    /// Whether plane digests were verified at load.
    pub fn verified(&self) -> bool {
        self.verified
    }

    /// One full-precision GEMM against the served tensor `name` (shape
    /// `k×n` from the archive index): `a` is `m×k` row-major BF16. The
    /// smoke check `repro pack --verify` and the CI gate drive this to
    /// prove a mapped archive serves bit-identical results.
    ///
    /// # Errors
    ///
    /// [`ServeError::Weights`] for unknown names; [`ServeError::Gemm`]
    /// for shape/finiteness errors.
    pub fn gemm(&self, name: &str, a: &[Bf16], m: usize) -> Result<Vec<f32>, ServeError> {
        let (k, n) = self
            .archive
            .shape(name)
            .ok_or_else(|| ServeError::Weights(format!("no tensor named {name:?}")))?;
        let prep = self
            .tensors
            .get(name)
            .expect("index and tensor map stay in sync");
        Ok(owlp_gemm_prepared(a, prep, m, k, n)?.output)
    }
}

impl From<ArithError> for ServeError {
    fn from(e: ArithError) -> Self {
        ServeError::Gemm(e.to_string())
    }
}

/// Cold-start measurement: what startup paid to get weights GEMM-ready.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdStart {
    /// Tensors adopted from the archive.
    pub tensors: usize,
    /// Archive file size in bytes.
    pub archive_bytes: u64,
    /// Wall-clock seconds from open to every tensor prepared.
    pub load_s: f64,
    /// Whether plane digests were verified during the load.
    pub verified: bool,
    /// Whether the planes are true `mmap` views.
    pub mapped: bool,
}

impl ColdStart {
    /// Times [`ServedWeights::load_unverified`] — the production cold
    /// start — and returns the weights with the measurement.
    ///
    /// # Errors
    ///
    /// As [`ServedWeights::load_unverified`].
    pub fn measure(path: &Path) -> Result<(ServedWeights, ColdStart), ServeError> {
        let t0 = Instant::now();
        let weights = ServedWeights::load_unverified(path)?;
        let load_s = t0.elapsed().as_secs_f64();
        let cold = ColdStart {
            tensors: weights.len(),
            archive_bytes: weights.archive_bytes(),
            load_s,
            verified: weights.verified(),
            mapped: weights.was_mapped(),
        };
        Ok((weights, cold))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use owlp_arith::exact_gemm;
    use owlp_format::ArchiveWriter;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "owlp-serve-weights-{}-{name}.owl2",
            std::process::id()
        ));
        p
    }

    /// Narrow-band values with huge outliers and stored zeros mixed in.
    fn mixed(len: usize, salt: u64) -> Vec<Bf16> {
        (0..len)
            .map(|i| {
                let x = ((i as u64).wrapping_mul(2654435761).wrapping_add(salt) % 97) as f32;
                let v = 0.5 + x / 97.0;
                match i % 19 {
                    0 => Bf16::from_f32(v * 1e26),
                    1 => Bf16::ZERO,
                    _ => Bf16::from_f32(v),
                }
            })
            .collect()
    }

    #[test]
    fn served_weights_gemm_is_bit_identical_to_the_exact_reference() {
        let path = temp_path("gemm");
        let (k, n) = (37, 13);
        let b = mixed(k * n, 5);
        let mut w = ArchiveWriter::create(&path).unwrap();
        w.add_tensor_slice("blk/w", k, n, &b).unwrap();
        w.finish().unwrap();

        let weights = ServedWeights::load(&path).unwrap();
        assert!(weights.verified());
        assert_eq!(weights.names(), vec!["blk/w".to_string()]);
        let m = 9;
        let a = mixed(m * k, 6);
        let got = weights.gemm("blk/w", &a, m).unwrap();
        let golden = exact_gemm(&a, &b, m, k, n);
        for (x, y) in got.iter().zip(&golden) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert!(matches!(
            weights.gemm("missing", &a, m),
            Err(ServeError::Weights(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cold_start_measures_the_unverified_load() {
        let path = temp_path("cold");
        let mut w = ArchiveWriter::create(&path).unwrap();
        w.add_tensor_slice("a", 24, 16, &mixed(24 * 16, 7)).unwrap();
        w.add_tensor_slice("b", 16, 8, &mixed(16 * 8, 8)).unwrap();
        w.finish().unwrap();

        let (weights, cold) = ColdStart::measure(&path).unwrap();
        assert_eq!(cold.tensors, 2);
        assert_eq!(cold.archive_bytes, weights.archive_bytes());
        assert!(cold.load_s >= 0.0);
        assert!(!cold.verified);
        assert_eq!(weights.len(), 2);
        assert!(!weights.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_archive_is_a_typed_error() {
        let err = ServedWeights::load(Path::new("/nonexistent/owl2")).unwrap_err();
        assert!(matches!(err, ServeError::Weights(_)));
    }
}

//! Runtime SIMD-tier selection shared by every vectorized path in the
//! workspace, following the CRC32C engine in [`crate::crc`] (detect once,
//! branch at the entry point, keep the software path as the oracle).
//!
//! Historically this module lived in `owlp-arith::microkernel::dispatch`
//! and governed only the GEMM microkernels. The encode/decode plane
//! transforms of this crate vectorize behind the *same* dispatch — one
//! `OWLP_SIMD` knob, one forced-scalar oracle — and `owlp-format` sits
//! below `owlp-arith` in the dependency order, so the tier machinery
//! moved here; `owlp-arith::microkernel::dispatch` re-exports it
//! unchanged.
//!
//! The tier is chosen **once** per process from `is_x86_feature_detected!`
//! plus the [`ENV_SIMD`] (`OWLP_SIMD=scalar|sse2|avx2|neon|auto`) override,
//! and cached in a `OnceLock`. Tests and benches force a tier for a scope
//! with [`with_tier`] — a thread-local override mirroring
//! `owlp_par::with_threads`. Because the override is thread-local, the
//! GEMM drive loops and the codec's parallel chunk paths read the tier
//! **before** fanning work out to the `owlp-par` pool and pass it by value
//! into the worker closures — a forced tier therefore applies at every
//! thread count.
//!
//! Every requested tier is [`clamp`]ed to what the host actually supports,
//! so forcing an unavailable tier (e.g. `OWLP_SIMD=avx2` on an SSE2-only
//! machine, or on aarch64) degrades deterministically instead of hitting
//! undefined behaviour: the result is the best available tier no higher
//! than the request, with scalar as the floor.

use std::cell::Cell;
use std::sync::OnceLock;

/// Environment variable forcing a kernel tier (`scalar|sse2|avx2|neon`,
/// or `auto`/unset for best-available).
pub const ENV_SIMD: &str = "OWLP_SIMD";

/// One SIMD implementation level of the vectorized kernels. The derived
/// order is the preference order used by [`clamp`]; every variant exists
/// on every architecture (selection, not compilation, is what differs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelTier {
    /// The reference loops — always available.
    Scalar,
    /// x86-64 baseline 128-bit tier (`_mm_madd_epi16`); entry points
    /// without an SSE2-expressible inner loop stay scalar on this tier.
    Sse2,
    /// 256-bit tier (`_mm256_madd_epi16` / `_mm256_mul_epi32`).
    Avx2,
    /// aarch64 `smlal`-family tier (`vmull_s16`/`vmlal_s16`/`vmlal_s32`).
    Neon,
}

impl KernelTier {
    /// The lowercase name used by `OWLP_SIMD` and `repro features`.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Sse2 => "sse2",
            KernelTier::Avx2 => "avx2",
            KernelTier::Neon => "neon",
        }
    }

    /// Parses an `OWLP_SIMD` value (`None` for unrecognized names).
    pub fn from_name(name: &str) -> Option<KernelTier> {
        match name {
            "scalar" => Some(KernelTier::Scalar),
            "sse2" => Some(KernelTier::Sse2),
            "avx2" => Some(KernelTier::Avx2),
            "neon" => Some(KernelTier::Neon),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The tiers this host can actually run, in ascending preference order
/// (always starts with [`KernelTier::Scalar`]). Detection runs once.
pub fn available_tiers() -> &'static [KernelTier] {
    #[cfg(target_arch = "x86_64")]
    {
        static TIERS: OnceLock<Vec<KernelTier>> = OnceLock::new();
        TIERS.get_or_init(|| {
            // SSE2 is part of the x86-64 baseline ABI, so it needs no
            // runtime check; AVX2 does.
            let mut tiers = vec![KernelTier::Scalar, KernelTier::Sse2];
            if std::arch::is_x86_feature_detected!("avx2") {
                tiers.push(KernelTier::Avx2);
            }
            tiers
        })
    }
    #[cfg(target_arch = "aarch64")]
    {
        // NEON is mandatory in AArch64.
        &[KernelTier::Scalar, KernelTier::Neon]
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        &[KernelTier::Scalar]
    }
}

/// The best available tier no higher than `tier` (scalar as the floor) —
/// the guarantee that a forced tier can never select code the host
/// cannot execute.
pub fn clamp(tier: KernelTier) -> KernelTier {
    available_tiers()
        .iter()
        .copied()
        .rfind(|t| *t <= tier)
        .unwrap_or(KernelTier::Scalar)
}

/// The tier requested via [`ENV_SIMD`] before clamping — `None` means
/// auto (unset, empty, or `auto`). An unrecognized value warns once on
/// stderr and falls back to auto rather than silently changing kernels.
pub fn env_request() -> Option<KernelTier> {
    static REQUEST: OnceLock<Option<KernelTier>> = OnceLock::new();
    *REQUEST.get_or_init(|| match std::env::var(ENV_SIMD) {
        Ok(v) if !v.is_empty() && v != "auto" => {
            let parsed = KernelTier::from_name(&v);
            if parsed.is_none() {
                eprintln!("warning: {ENV_SIMD}={v} is not scalar|sse2|avx2|neon|auto; using auto");
            }
            parsed
        }
        _ => None,
    })
}

thread_local! {
    /// Scoped per-thread tier override (see [`with_tier`]).
    static TIER_OVERRIDE: Cell<Option<KernelTier>> = const { Cell::new(None) };
}

/// Runs `f` with the kernel tier forced to (the clamped) `tier` on the
/// **current thread** — the test/bench hook. Restores the previous
/// override on exit, including on unwind, so nested scopes compose.
///
/// The override does not follow work onto `owlp-par` pool threads by
/// itself; the drive loops make it effective at any thread count by
/// resolving [`selected_tier`] before the fan-out and passing the value
/// into the `*_with` kernels.
pub fn with_tier<R>(tier: KernelTier, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<KernelTier>);
    impl Drop for Restore {
        fn drop(&mut self) {
            TIER_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(TIER_OVERRIDE.with(|c| c.replace(Some(clamp(tier)))));
    f()
}

/// The tier the dispatching entry points use right now: the thread-local
/// [`with_tier`] override if one is active, else the process-wide choice
/// (clamped [`ENV_SIMD`] request, else the best available tier).
pub fn selected_tier() -> KernelTier {
    if let Some(t) = TIER_OVERRIDE.with(Cell::get) {
        return t;
    }
    static GLOBAL: OnceLock<KernelTier> = OnceLock::new();
    *GLOBAL.get_or_init(|| match env_request() {
        Some(t) => clamp(t),
        None => *available_tiers().last().unwrap_or(&KernelTier::Scalar),
    })
}

/// The CPU features relevant to kernel selection that this host reports,
/// for `repro features` and the benchmark's host fingerprint.
pub fn detected_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut feats = vec!["sse2"]; // baseline
        macro_rules! probe {
            ($($name:tt),*) => {
                $(if std::arch::is_x86_feature_detected!($name) {
                    feats.push($name);
                })*
            };
        }
        probe!("ssse3", "sse4.1", "sse4.2", "avx", "avx2", "avx512f", "fma");
        feats
    }
    #[cfg(target_arch = "aarch64")]
    {
        vec!["neon"]
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names_round_trip() {
        for t in [
            KernelTier::Scalar,
            KernelTier::Sse2,
            KernelTier::Avx2,
            KernelTier::Neon,
        ] {
            assert_eq!(KernelTier::from_name(t.name()), Some(t));
        }
        assert_eq!(KernelTier::from_name("avx512"), None);
        assert_eq!(KernelTier::from_name("auto"), None);
    }

    #[test]
    fn scalar_is_always_available_and_clamps_to_itself() {
        assert_eq!(available_tiers().first(), Some(&KernelTier::Scalar));
        assert_eq!(clamp(KernelTier::Scalar), KernelTier::Scalar);
        // Clamping any request yields an available tier.
        for t in [KernelTier::Sse2, KernelTier::Avx2, KernelTier::Neon] {
            assert!(available_tiers().contains(&clamp(t)));
            assert!(clamp(t) <= t);
        }
    }

    #[test]
    fn with_tier_scopes_nest_and_restore() {
        let outer = selected_tier();
        with_tier(KernelTier::Scalar, || {
            assert_eq!(selected_tier(), KernelTier::Scalar);
            with_tier(KernelTier::Sse2, || {
                // Clamped to something available, never above the request.
                assert!(selected_tier() <= KernelTier::Sse2);
            });
            assert_eq!(selected_tier(), KernelTier::Scalar);
        });
        assert_eq!(selected_tier(), outer);
    }

    #[test]
    fn with_tier_restores_on_unwind() {
        let before = selected_tier();
        let caught = std::panic::catch_unwind(|| {
            with_tier(KernelTier::Scalar, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(selected_tier(), before);
    }

    #[test]
    fn override_is_thread_local() {
        with_tier(KernelTier::Scalar, || {
            let other = std::thread::spawn(selected_tier).join().unwrap();
            // A fresh thread sees the process-wide choice, not our scope.
            assert!(available_tiers().contains(&other));
        });
    }
}

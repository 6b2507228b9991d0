//! Host cache and CPU identification.
//!
//! [`cache_info`] and [`cpu_model`] describe the machine a measurement
//! was taken on. The GEMM drive loops in `owlp-arith` do not use them:
//! each loop sweeps every weight panel over all activation rows in one
//! traversal, the weight-stationary order of the OwL-P array, with no
//! cache blocking on top. [`BlockGeometry`] and [`block_geometry`] remain
//! only so a host fingerprint can print that order (`0,0,0`).

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Detected (or defaulted) per-core data-cache capacities in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheInfo {
    /// L1 data cache, bytes.
    pub l1d: usize,
    /// L2 (unified) cache, bytes.
    pub l2: usize,
    /// Last-level cache, bytes (the L2 again on hosts without an L3).
    pub l3: usize,
    /// Whether the sizes came from the host (sysfs) rather than the
    /// built-in defaults.
    pub detected: bool,
}

/// Conservative defaults when the host exposes no cache topology
/// (non-Linux targets, stripped containers): a generic x86-64 shape.
const DEFAULT_CACHE: CacheInfo = CacheInfo {
    l1d: 32 << 10,
    l2: 256 << 10,
    l3: 8 << 20,
    detected: false,
};

/// Parses a sysfs cache size string (`"32K"`, `"1024K"`, `"8M"`, plain
/// bytes).
fn parse_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1usize << 10),
        b'M' | b'm' => (&s[..s.len() - 1], 1usize << 20),
        b'G' | b'g' => (&s[..s.len() - 1], 1usize << 30),
        _ => (s, 1usize),
    };
    digits.trim().parse::<usize>().ok().map(|v| v * mult)
}

/// Reads the cpu0 cache topology from sysfs. Returns `None` when the
/// tree is absent (non-Linux) or yields no usable levels.
fn sysfs_cache_info() -> Option<CacheInfo> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |idx: usize, leaf: &str| -> Option<String> {
        std::fs::read_to_string(base.join(format!("index{idx}/{leaf}")))
            .ok()
            .map(|s| s.trim().to_string())
    };
    let (mut l1d, mut l2, mut l3) = (None, None, None);
    for idx in 0..16 {
        let Some(level) = read(idx, "level").and_then(|s| s.parse::<u32>().ok()) else {
            break;
        };
        let ty = read(idx, "type").unwrap_or_default();
        if ty == "Instruction" {
            continue;
        }
        let Some(size) = read(idx, "size").and_then(|s| parse_size(&s)) else {
            continue;
        };
        match level {
            1 => l1d = Some(size),
            2 => l2 = Some(size),
            3 => l3 = Some(size),
            _ => {}
        }
    }
    let l1d = l1d?;
    let l2 = l2.unwrap_or(l1d * 8);
    let l3 = l3.unwrap_or(l2); // no L3: the L2 is the last level
    Some(CacheInfo {
        l1d,
        l2,
        l3,
        detected: true,
    })
}

/// The host's cache capacities, detected once per process (sysfs on
/// Linux; built-in defaults elsewhere).
pub fn cache_info() -> CacheInfo {
    static INFO: OnceLock<CacheInfo> = OnceLock::new();
    *INFO.get_or_init(|| sysfs_cache_info().unwrap_or(DEFAULT_CACHE))
}

/// The host CPU's marketing name (`model name` in `/proc/cpuinfo`), for
/// cross-machine comparison of bench reports.
pub fn cpu_model() -> Option<String> {
    static MODEL: OnceLock<Option<String>> = OnceLock::new();
    MODEL
        .get_or_init(|| {
            let text = std::fs::read_to_string("/proc/cpuinfo").ok()?;
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
        })
        .clone()
}

/// A three-level blocking geometry: `mc` rows × `kc` depth × `nc`
/// columns. `usize::MAX` in a field means the full matrix extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockGeometry {
    /// Rows of A per block.
    pub mc: usize,
    /// Depth of one panel stripe.
    pub kc: usize,
    /// Columns per block.
    pub nc: usize,
}

impl BlockGeometry {
    /// Every level covers the full extent: the order both drive loops
    /// use.
    pub const UNBLOCKED: BlockGeometry = BlockGeometry {
        mc: usize::MAX,
        kc: usize::MAX,
        nc: usize::MAX,
    };
}

/// Renders `mc,kc,nc`, with `0` for an unlimited field.
impl std::fmt::Display for BlockGeometry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let field = |v: usize| -> String {
            if v == usize::MAX {
                "0".to_string()
            } else {
                v.to_string()
            }
        };
        write!(
            f,
            "{},{},{}",
            field(self.mc),
            field(self.kc),
            field(self.nc)
        )
    }
}

/// The geometry the drive loops use for a GEMM of `elem_bytes`-wide
/// elements on an `mr × nr` register tile: always
/// [`BlockGeometry::UNBLOCKED`].
pub fn block_geometry(_elem_bytes: usize, _mr: usize, _nr: usize) -> BlockGeometry {
    BlockGeometry::UNBLOCKED
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_strings_parse() {
        assert_eq!(parse_size("32K"), Some(32 << 10));
        assert_eq!(parse_size(" 1024K "), Some(1 << 20));
        assert_eq!(parse_size("8M"), Some(8 << 20));
        assert_eq!(parse_size("1G"), Some(1 << 30));
        assert_eq!(parse_size("12345"), Some(12345));
        assert_eq!(parse_size("zebra"), None);
        assert_eq!(parse_size(""), None);
    }

    #[test]
    fn geometry_strings_round_trip() {
        // `mc,kc,nc` with 0 for an unlimited field, read back field by
        // field.
        let read = |s: &str| -> Vec<usize> {
            s.split(',')
                .map(|p| match p.parse::<usize>().unwrap() {
                    0 => usize::MAX,
                    v => v,
                })
                .collect()
        };
        let g = BlockGeometry {
            mc: 64,
            kc: 256,
            nc: 1024,
        };
        assert_eq!(g.to_string(), "64,256,1024");
        assert_eq!(read(&g.to_string()), [g.mc, g.kc, g.nc]);
        let unblocked = block_geometry(2, 8, 4);
        assert_eq!(unblocked, BlockGeometry::UNBLOCKED);
        assert_eq!(unblocked.to_string(), "0,0,0");
        assert_eq!(read(&unblocked.to_string()), [usize::MAX; 3]);
    }

    #[test]
    fn cache_info_is_positive_and_cached() {
        let c = cache_info();
        assert!(c.l1d > 0 && c.l2 >= c.l1d && c.l3 >= c.l2);
        assert_eq!(cache_info(), c);
    }
}

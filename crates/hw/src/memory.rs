//! On-chip SRAM and off-chip HBM2 model (paper §VI-A: 12 MB buffers,
//! 256 GB/s HBM2).

use crate::tech::TechLibrary;
use serde::{DeError, Deserialize, Serialize, Value};

/// The accelerator memory system.
///
/// Besides the flat capacity/bandwidth pair used by the closed-form model,
/// the struct now carries the channel-level parameters the `owlp-mem`
/// co-simulator needs: channel count, burst size, and the depth of the
/// on-chip tile double buffer. All of them deserialize with [`paper`]
/// defaults when absent, so configuration JSON written before this field
/// set existed keeps loading unchanged (the vendored serde shim has no
/// `#[serde(default)]`, hence the hand-written [`Deserialize`] below).
///
/// [`paper`]: MemorySystem::paper
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MemorySystem {
    /// Unified on-chip buffer capacity, bytes (12 MB in the paper).
    pub sram_bytes: u64,
    /// Off-chip bandwidth, bytes per second (256 GB/s HBM2).
    pub offchip_bytes_per_s: f64,
    /// Independent HBM channels; tile requests interleave across them
    /// burst by burst (HBM2 exposes 8 channels per stack).
    pub channels: usize,
    /// Bytes one burst moves on one channel (the transfer quantum).
    pub burst_bytes: u64,
    /// On-chip tile-buffer slots: 2 is classic double buffering (fetch
    /// tile `i+1` while tile `i` computes); 1 disables overlap.
    pub double_buffer: usize,
    /// The on-chip outlier-exponent buffer whose overflow spills off chip
    /// (paper §IV-D fallback path).
    pub outlier_buffer: OutlierBuffer,
    /// Component energies.
    pub lib: TechLibrary,
}

impl MemorySystem {
    /// The paper's memory configuration.
    pub fn paper() -> Self {
        MemorySystem {
            sram_bytes: 12 * 1024 * 1024,
            offchip_bytes_per_s: 256.0e9,
            channels: 8,
            burst_bytes: 64,
            double_buffer: 2,
            outlier_buffer: OutlierBuffer::paper_sized(),
            lib: TechLibrary::CMOS28,
        }
    }

    /// Seconds to move `bytes` across the off-chip link.
    ///
    /// This is the closed-form lower bound: perfect channel utilisation and
    /// fully hidden latency. It remains the documented fallback when the
    /// event-driven co-simulation (`owlp-mem`) is not in play; the co-sim
    /// can only match or exceed it (padding, outlier spills, and the
    /// max-over-channels finish time all push upward), a property the
    /// integration tests assert.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        bytes as f64 / self.offchip_bytes_per_s
    }

    /// Aggregate off-chip bytes deliverable per accelerator clock cycle.
    pub fn bytes_per_cycle(&self, clock_hz: f64) -> f64 {
        self.offchip_bytes_per_s / clock_hz
    }

    /// Bytes one channel delivers per accelerator clock cycle.
    pub fn channel_bytes_per_cycle(&self, clock_hz: f64) -> f64 {
        self.bytes_per_cycle(clock_hz) / self.channels as f64
    }

    /// Cycles one burst occupies its channel (exact at paper defaults:
    /// a 64 B burst on 1/8 of 512 B/cycle is one cycle).
    pub fn burst_cycles(&self, clock_hz: f64) -> f64 {
        self.burst_bytes as f64 / self.channel_bytes_per_cycle(clock_hz)
    }

    /// Off-chip access energy for `bytes`, joules.
    pub fn dram_energy_j(&self, bytes: u64) -> f64 {
        bytes as f64 * 8.0 * self.lib.dram_pj_per_bit * 1e-12
    }

    /// SRAM read energy for `bytes`, joules.
    pub fn sram_read_energy_j(&self, bytes: u64) -> f64 {
        bytes as f64 * self.lib.sram_read_pj_per_byte * 1e-12
    }
}

impl Default for MemorySystem {
    fn default() -> Self {
        Self::paper()
    }
}

/// Missing-key-tolerant deserialization: every absent field falls back to
/// its [`MemorySystem::paper`] value, so sweep JSON may specify only the
/// knobs it varies (and pre-existing configs without the channel-level
/// fields keep parsing).
impl<'de> Deserialize<'de> for MemorySystem {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        if !matches!(v, Value::Object(_)) {
            return Err(DeError::unexpected("MemorySystem object", v));
        }
        let d = MemorySystem::paper();
        fn field<'de, T: Deserialize<'de>>(v: &Value, key: &str, default: T) -> Result<T, DeError> {
            match v.get(key) {
                Some(found) => T::from_value(found),
                None => Ok(default),
            }
        }
        Ok(MemorySystem {
            sram_bytes: field(v, "sram_bytes", d.sram_bytes)?,
            offchip_bytes_per_s: field(v, "offchip_bytes_per_s", d.offchip_bytes_per_s)?,
            channels: field(v, "channels", d.channels)?,
            burst_bytes: field(v, "burst_bytes", d.burst_bytes)?,
            double_buffer: field(v, "double_buffer", d.double_buffer)?,
            outlier_buffer: field(v, "outlier_buffer", d.outlier_buffer)?,
            lib: field(v, "lib", d.lib)?,
        })
    }
}

/// The on-chip outlier-exponent buffer (paper §IV-D): outlier exponents of
/// the active tiles are staged on chip; "in case the number of outliers is
/// too large …, the outliers can be fetched from the external memory using
/// a combination of the 11-bit address pointer values and meta-data."
///
/// This model quantifies that fallback: overflowing entries are fetched
/// on demand, each costing one DRAM burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutlierBuffer {
    /// Exponent entries the buffer holds.
    pub entries: usize,
    /// Bytes fetched per on-demand pointer access (one DRAM burst).
    pub burst_bytes: u64,
}

impl OutlierBuffer {
    /// A plausible sizing: 64 KiB of exponent storage.
    pub fn paper_sized() -> Self {
        OutlierBuffer {
            entries: 64 * 1024,
            burst_bytes: 32,
        }
    }

    /// Outlier entries of one resident tile set that do not fit on chip.
    pub fn overflow_entries(&self, tile_outliers: usize) -> usize {
        tile_outliers.saturating_sub(self.entries)
    }

    /// Extra off-chip bytes caused by the overflow of one tile set.
    pub fn overflow_bytes(&self, tile_outliers: usize) -> u64 {
        self.overflow_entries(tile_outliers) as u64 * self.burst_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configuration() {
        let m = MemorySystem::paper();
        assert_eq!(m.sram_bytes, 12 * 1024 * 1024);
        assert_eq!(m.offchip_bytes_per_s, 256.0e9);
    }

    #[test]
    fn transfer_time_is_bandwidth_bound() {
        let m = MemorySystem::paper();
        // 256 GB at 256 GB/s takes one second.
        assert!((m.transfer_seconds(256_000_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dram_energy_dominates_sram() {
        let m = MemorySystem::paper();
        assert!(m.dram_energy_j(1024) > 3.0 * m.sram_read_energy_j(1024));
    }

    #[test]
    fn outlier_buffer_rarely_overflows_at_paper_rates() {
        // A Llama2-7B weight-stationary tile set: one layer's largest
        // matrix tile resident per array, ~1.5 % outliers. The 64 KiB
        // buffer holds them with an order of magnitude to spare.
        let buf = OutlierBuffer::paper_sized();
        let tile_elements = 48 * 32 * 32 * 8; // all arrays' stationary tiles
        let outliers = (tile_elements as f64 * 0.015) as usize;
        assert_eq!(buf.overflow_entries(outliers), 0);
    }

    #[test]
    fn outlier_buffer_overflow_accounting() {
        let buf = OutlierBuffer {
            entries: 100,
            burst_bytes: 32,
        };
        assert_eq!(buf.overflow_entries(99), 0);
        assert_eq!(buf.overflow_entries(100), 0);
        assert_eq!(buf.overflow_entries(150), 50);
        assert_eq!(buf.overflow_bytes(150), 50 * 32);
    }

    #[test]
    fn channel_geometry_is_exact_at_paper_defaults() {
        let m = MemorySystem::paper();
        assert_eq!(m.channels, 8);
        assert_eq!(m.burst_bytes, 64);
        assert_eq!(m.double_buffer, 2);
        // 256 GB/s at 500 MHz: 512 B/cycle total, 64 B/cycle per channel,
        // so one 64 B burst occupies its channel for exactly one cycle.
        let clock = 500.0e6;
        assert_eq!(m.bytes_per_cycle(clock), 512.0);
        assert_eq!(m.channel_bytes_per_cycle(clock), 64.0);
        assert_eq!(m.burst_cycles(clock), 1.0);
    }

    #[test]
    fn serde_round_trip_preserves_channel_config() {
        let mut m = MemorySystem::paper();
        m.channels = 4;
        m.burst_bytes = 128;
        m.double_buffer = 3;
        let v = m.to_value();
        let back = MemorySystem::from_value(&v).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn deserialize_fills_missing_keys_with_paper_defaults() {
        // A pre-PR6 config carrying only the flat capacity/bandwidth pair.
        let v = Value::parse(r#"{"sram_bytes": 1048576, "offchip_bytes_per_s": 1.0e11}"#).unwrap();
        let m = MemorySystem::from_value(&v).unwrap();
        assert_eq!(m.sram_bytes, 1024 * 1024);
        assert_eq!(m.offchip_bytes_per_s, 1.0e11);
        let d = MemorySystem::paper();
        assert_eq!(m.channels, d.channels);
        assert_eq!(m.burst_bytes, d.burst_bytes);
        assert_eq!(m.double_buffer, d.double_buffer);
        assert_eq!(m.outlier_buffer, d.outlier_buffer);
        assert_eq!(m.lib, d.lib);
    }

    #[test]
    fn deserialize_rejects_non_objects() {
        assert!(MemorySystem::from_value(&Value::Int(3)).is_err());
    }
}

//! Per-channel off-chip request timing.
//!
//! HBM2 exposes independent channels; the tile streamer interleaves each
//! request's bursts across all of them, starting every request at channel 0
//! (tiles are allocated at channel-aligned addresses, so the interleave
//! phase resets per tile). Under the paper's bank-conflict-free streaming
//! assumption a channel is simply busy for `bursts × burst_cycles`; the
//! simulator therefore keeps one `busy-until` horizon per channel instead
//! of an event queue, which makes a request O(channels) while remaining
//! cycle-exact for this access pattern.

use owlp_hw::MemorySystem;

/// Deterministic per-channel burst-level timing model.
///
/// All times are in accelerator clock cycles (f64; exact at paper defaults,
/// where one 64 B burst is exactly one channel-cycle).
#[derive(Debug, Clone)]
pub struct ChannelSim {
    burst_bytes: u64,
    burst_cycles: f64,
    /// Per-channel time at which the channel next becomes free.
    busy_until: Vec<f64>,
    /// Per-channel payload bytes delivered so far.
    channel_bytes: Vec<u64>,
}

impl ChannelSim {
    /// A simulator for `mem`'s channel geometry at `clock_hz`.
    pub fn new(mem: &MemorySystem, clock_hz: f64) -> Self {
        let channels = mem.channels.max(1);
        ChannelSim {
            burst_bytes: mem.burst_bytes.max(1),
            burst_cycles: mem.burst_cycles(clock_hz),
            busy_until: vec![0.0; channels],
            channel_bytes: vec![0; channels],
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.busy_until.len()
    }

    /// Cycles one burst occupies its channel.
    pub fn burst_cycles(&self) -> f64 {
        self.burst_cycles
    }

    /// Issues a request for `bytes` at time `t_issue` and returns its
    /// completion time (when the last burst lands).
    ///
    /// The request is split into `⌈bytes/burst⌉` bursts dealt round-robin
    /// from channel 0; every burst occupies its channel for a full
    /// [`burst_cycles`](Self::burst_cycles), but the byte accounting
    /// credits only the payload — the final burst carries the partial
    /// remainder, so `Σ channel_bytes == Σ requested bytes` exactly.
    pub fn request(&mut self, t_issue: f64, bytes: u64) -> f64 {
        if bytes == 0 {
            return t_issue;
        }
        let channels = self.channels() as u64;
        let bursts = bytes.div_ceil(self.burst_bytes);
        let pad = bursts * self.burst_bytes - bytes;
        let last_channel = ((bursts - 1) % channels) as usize;
        let mut done = t_issue;
        for c in 0..self.channels() {
            let q = bursts / channels + u64::from((c as u64) < bursts % channels);
            if q == 0 {
                continue;
            }
            let start = if self.busy_until[c] > t_issue {
                self.busy_until[c]
            } else {
                t_issue
            };
            let end = start + q as f64 * self.burst_cycles;
            self.busy_until[c] = end;
            self.channel_bytes[c] += q * self.burst_bytes;
            if end > done {
                done = end;
            }
        }
        self.channel_bytes[last_channel] -= pad;
        done
    }

    /// Per-channel payload bytes delivered so far.
    pub fn channel_bytes(&self) -> &[u64] {
        &self.channel_bytes
    }

    /// Total payload bytes delivered so far.
    pub fn total_bytes(&self) -> u64 {
        self.channel_bytes.iter().sum()
    }
}

/// Per-request channel-byte footprint: how many payload bytes of one
/// `bytes`-sized request land on each of `channels` channels. Used by the
/// steady-state extrapolation to scale traffic exactly (every request of a
/// uniform group stream has this same footprint).
pub fn request_footprint(channels: usize, burst_bytes: u64, bytes: u64) -> Vec<u64> {
    let channels = channels.max(1);
    let burst_bytes = burst_bytes.max(1);
    let mut out = vec![0u64; channels];
    if bytes == 0 {
        return out;
    }
    let bursts = bytes.div_ceil(burst_bytes);
    let pad = bursts * burst_bytes - bytes;
    for (c, slot) in out.iter_mut().enumerate() {
        *slot = (bursts / channels as u64 + u64::from((c as u64) < bursts % channels as u64))
            * burst_bytes;
    }
    out[((bursts - 1) % channels as u64) as usize] -= pad;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_sim() -> ChannelSim {
        ChannelSim::new(&MemorySystem::paper(), 500.0e6)
    }

    #[test]
    fn one_burst_takes_one_cycle_at_paper_defaults() {
        let mut sim = paper_sim();
        assert_eq!(sim.request(0.0, 64), 1.0);
        assert_eq!(sim.total_bytes(), 64);
        assert_eq!(sim.channel_bytes()[0], 64);
    }

    #[test]
    fn full_interleave_finishes_in_parallel() {
        let mut sim = paper_sim();
        // 8 channels × 64 B: all bursts land in the same cycle.
        assert_eq!(sim.request(0.0, 512), 1.0);
        // Twice the bytes: two bursts deep on every channel.
        assert_eq!(sim.request(1.0, 1024), 3.0);
        assert_eq!(sim.total_bytes(), 1536);
    }

    #[test]
    fn partial_last_burst_conserves_bytes() {
        let mut sim = paper_sim();
        sim.request(0.0, 100); // 2 bursts, 28 B padding on channel 1
        assert_eq!(sim.total_bytes(), 100);
        assert_eq!(sim.channel_bytes()[0], 64);
        assert_eq!(sim.channel_bytes()[1], 36);
    }

    #[test]
    fn back_to_back_requests_queue_per_channel() {
        let mut sim = paper_sim();
        let t1 = sim.request(0.0, 576); // 9 bursts: channel 0 gets 2
        assert_eq!(t1, 2.0);
        // Issued before channel 0 frees: queues behind it.
        let t2 = sim.request(0.5, 64);
        assert_eq!(t2, 3.0);
        // Idle gap: issue time dominates.
        let t3 = sim.request(10.0, 64);
        assert_eq!(t3, 11.0);
    }

    #[test]
    fn zero_byte_request_is_free() {
        let mut sim = paper_sim();
        assert_eq!(sim.request(5.0, 0), 5.0);
        assert_eq!(sim.total_bytes(), 0);
    }

    #[test]
    fn footprint_matches_simulated_distribution() {
        for bytes in [1u64, 63, 64, 100, 512, 513, 4096, 70_001] {
            let mut sim = paper_sim();
            sim.request(0.0, bytes);
            let foot = request_footprint(8, 64, bytes);
            assert_eq!(sim.channel_bytes(), &foot[..], "{bytes} bytes");
            assert_eq!(foot.iter().sum::<u64>(), bytes);
        }
    }
}

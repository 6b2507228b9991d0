//! Request generation: arrival processes and length distributions.
//!
//! A serving trace is a stream of [`Request`]s with arrival timestamps and
//! per-request prompt/generation lengths. Traces are generated from a
//! [`TraceSpec`] — an arrival process (open-loop Poisson or bursty) crossed
//! with length distributions. Generation is fully deterministic from the
//! spec's seed: the same spec always yields byte-identical traces, which is
//! what makes multi-worker runs seed-reproducible.

use serde::Serialize;

/// One inference request of a serving trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Request {
    /// Stable id (also the trace order tiebreaker).
    pub id: u64,
    /// Arrival time, seconds from trace start.
    pub arrival_s: f64,
    /// Prompt tokens.
    pub prompt_len: usize,
    /// Output tokens to generate.
    pub gen_len: usize,
}

/// How request arrivals are spaced.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum ArrivalProcess {
    /// Open-loop Poisson arrivals at `rate_rps` requests/second
    /// (exponential inter-arrival gaps).
    Poisson {
        /// Mean offered load, requests per second.
        rate_rps: f64,
    },
    /// Bursts of `burst` simultaneous requests; bursts themselves arrive
    /// as a Poisson process at `rate_rps / burst`, so the long-run offered
    /// load matches the Poisson case while stressing the admission queue.
    Bursty {
        /// Mean offered load, requests per second.
        rate_rps: f64,
        /// Requests per burst.
        burst: usize,
    },
}

impl ArrivalProcess {
    /// Long-run offered load in requests per second.
    pub fn rate_rps(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_rps } | ArrivalProcess::Bursty { rate_rps, .. } => {
                rate_rps
            }
        }
    }
}

/// Per-request token-length distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum LengthDistribution {
    /// Every request gets the same length.
    Fixed(usize),
    /// Uniform over `[lo, hi]` inclusive.
    Uniform {
        /// Smallest length.
        lo: usize,
        /// Largest length.
        hi: usize,
    },
    /// Mostly `short` with a `long_permille`/1000 chance of `long` — the
    /// chat-plus-document mix that produces heavy latency tails.
    Bimodal {
        /// Common length.
        short: usize,
        /// Rare length.
        long: usize,
        /// Probability of `long`, in permille (0–1000).
        long_permille: u32,
    },
}

impl LengthDistribution {
    fn sample(&self, rng: &mut SplitMix64) -> usize {
        match *self {
            LengthDistribution::Fixed(n) => n,
            LengthDistribution::Uniform { lo, hi } => {
                let (lo, hi) = (lo.min(hi), lo.max(hi));
                lo + rng.below((hi - lo + 1) as u64) as usize
            }
            LengthDistribution::Bimodal {
                short,
                long,
                long_permille,
            } => {
                if rng.below(1000) < u64::from(long_permille.min(1000)) {
                    long
                } else {
                    short
                }
            }
        }
    }

    /// Largest length the distribution can produce.
    pub fn max(&self) -> usize {
        match *self {
            LengthDistribution::Fixed(n) => n,
            LengthDistribution::Uniform { lo, hi } => lo.max(hi),
            LengthDistribution::Bimodal { short, long, .. } => short.max(long),
        }
    }
}

/// A full trace recipe: arrivals × lengths × count, seeded.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TraceSpec {
    /// Arrival process.
    pub arrivals: ArrivalProcess,
    /// Prompt-length distribution.
    pub prompt: LengthDistribution,
    /// Generation-length distribution (lengths below 1 are clamped to 1).
    pub gen: LengthDistribution,
    /// Number of requests.
    pub requests: usize,
    /// Generator seed; same seed ⇒ identical trace.
    pub seed: u64,
}

impl TraceSpec {
    /// Materialises the trace, sorted by arrival time (ties by id).
    pub fn generate(&self) -> Vec<Request> {
        let mut rng = SplitMix64::new(self.seed);
        let mut out = Vec::with_capacity(self.requests);
        let mut clock = 0.0f64;
        let mut id = 0u64;
        while out.len() < self.requests {
            let batch = match self.arrivals {
                ArrivalProcess::Poisson { rate_rps } => {
                    clock += exponential(&mut rng, rate_rps);
                    1
                }
                ArrivalProcess::Bursty { rate_rps, burst } => {
                    let burst = burst.max(1);
                    clock += exponential(&mut rng, rate_rps / burst as f64);
                    burst
                }
            };
            for _ in 0..batch.min(self.requests - out.len()) {
                out.push(Request {
                    id,
                    arrival_s: clock,
                    prompt_len: self.prompt.sample(&mut rng),
                    gen_len: self.gen.sample(&mut rng).max(1),
                });
                id += 1;
            }
        }
        out
    }
}

/// Exponential inter-arrival gap with the given rate (mean `1/rate`).
fn exponential(rng: &mut SplitMix64, rate: f64) -> f64 {
    let rate = rate.max(f64::MIN_POSITIVE);
    // Uniform in (0, 1]: shift so ln never sees zero.
    let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
    -u.ln() / rate
}

/// SplitMix64 — the repo's deterministic generator of choice.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, bound)` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(arrivals: ArrivalProcess) -> TraceSpec {
        TraceSpec {
            arrivals,
            prompt: LengthDistribution::Uniform { lo: 16, hi: 128 },
            gen: LengthDistribution::Uniform { lo: 8, hi: 64 },
            requests: 500,
            seed: 7,
        }
    }

    #[test]
    fn traces_are_seed_reproducible() {
        let s = spec(ArrivalProcess::Poisson { rate_rps: 10.0 });
        assert_eq!(s.generate(), s.generate());
        let mut other = s;
        other.seed = 8;
        assert_ne!(s.generate(), other.generate());
    }

    #[test]
    fn poisson_rate_is_roughly_honoured() {
        let s = spec(ArrivalProcess::Poisson { rate_rps: 20.0 });
        let trace = s.generate();
        let span = trace.last().unwrap().arrival_s;
        let rate = trace.len() as f64 / span;
        assert!((14.0..28.0).contains(&rate), "{rate}");
    }

    #[test]
    fn arrivals_are_sorted_and_lengths_bounded() {
        let s = spec(ArrivalProcess::Bursty {
            rate_rps: 20.0,
            burst: 8,
        });
        let trace = s.generate();
        assert_eq!(trace.len(), 500);
        for w in trace.windows(2) {
            assert!(w[0].arrival_s <= w[1].arrival_s);
            assert!(w[0].id < w[1].id);
        }
        for r in &trace {
            assert!((16..=128).contains(&r.prompt_len));
            assert!((8..=64).contains(&r.gen_len));
        }
    }

    #[test]
    fn bursts_share_an_arrival_instant() {
        let s = spec(ArrivalProcess::Bursty {
            rate_rps: 20.0,
            burst: 4,
        });
        let trace = s.generate();
        let same = trace
            .windows(2)
            .filter(|w| w[0].arrival_s == w[1].arrival_s)
            .count();
        // 3 of every 4 consecutive pairs sit inside a burst.
        assert!(same > trace.len() / 2, "{same}");
    }

    #[test]
    fn bimodal_hits_both_modes() {
        let s = TraceSpec {
            arrivals: ArrivalProcess::Poisson { rate_rps: 10.0 },
            prompt: LengthDistribution::Bimodal {
                short: 32,
                long: 1024,
                long_permille: 100,
            },
            gen: LengthDistribution::Fixed(16),
            requests: 400,
            seed: 3,
        };
        let trace = s.generate();
        let long = trace.iter().filter(|r| r.prompt_len == 1024).count();
        assert!((10..120).contains(&long), "{long}");
        assert!(trace.iter().all(|r| r.gen_len == 16));
    }
}

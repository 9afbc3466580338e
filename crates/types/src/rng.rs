//! Deterministic counter-derived random streams.
//!
//! Fault plans, proposal-channel fates, and predictor outages must be
//! pure functions of their seeds so every run replays bit-identically.
//! [`SplitMix64`] is a small, fast, well-mixed generator used instead
//! of `rand`'s `StdRng` for that purpose: its stream is defined by
//! this crate alone, independent of any external crate's stream
//! definition or version.

/// A small, fast, well-mixed deterministic generator (SplitMix64).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    #[inline]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Derives an independent stream for `(seed, lane, channel)`.
    ///
    /// One warm-up scramble decorrelates nearby `(lane, channel)`
    /// pairs, so changing one channel's parameters never perturbs
    /// another channel's events.
    pub fn stream(seed: u64, lane: u64, channel: u64) -> SplitMix64 {
        let mut mixer = SplitMix64::new(
            seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F)
                ^ channel.wrapping_mul(0xE703_7ED1_A0B4_28DB),
        );
        let s = mixer.next_u64();
        SplitMix64::new(s)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponential draw with the given mean (inverse CDF). Returns
    /// infinity when the mean is infinite (a disabled channel).
    pub fn exp(&mut self, mean: f64) -> f64 {
        if !mean.is_finite() {
            return f64::INFINITY;
        }
        -mean * (1.0 - self.next_f64()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_and_in_range() {
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = SplitMix64::new(3);
        for _ in 0..2000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn streams_decorrelate() {
        let mut a = SplitMix64::stream(7, 0, 1);
        let mut b = SplitMix64::stream(7, 1, 1);
        let mut c = SplitMix64::stream(7, 0, 2);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_ne!(x, y);
        assert_ne!(x, z);
        assert_ne!(y, z);
    }
}

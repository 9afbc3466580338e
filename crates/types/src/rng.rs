//! The workspace's random streams, defined here and nowhere else.
//!
//! Every run must replay bit-identically from its seed, on every build.
//! [`SplitMix64`] drives the counter-derived streams (fault plans,
//! proposal-channel fates, predictor outages, physics noise);
//! [`StdRng`] drives the sequential ones (the synthetic trace, the
//! forests' bootstraps, Optum's PPO sample). Both streams are stated by
//! this crate alone, so no dependency or build setting can move them.

use std::ops::Range;

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

/// xoshiro256++ seeded through [`SplitMix64`]: the sequential stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Creates a generator whose state is the first four
    /// [`SplitMix64`] outputs of `seed`.
    pub fn seed_from_u64(seed: u64) -> StdRng {
        let mut sm = SplitMix64::new(seed);
        StdRng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw from the half-open `range`.
    ///
    /// # Panics
    ///
    /// When the range is empty.
    #[inline]
    pub fn gen_range<T: UniformRange>(&mut self, range: Range<T>) -> T {
        assert!(range.start < range.end, "empty range in gen_range");
        T::sample(range.start, range.end, self)
    }

    /// Fisher–Yates shuffle of the whole slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..i + 1);
            slice.swap(i, j);
        }
    }

    /// Shuffles `amount` uniformly chosen elements (all of them when the
    /// slice is shorter) into the front of `slice` and returns that
    /// prefix.
    pub fn partial_shuffle<'a, T>(&mut self, slice: &'a mut [T], amount: usize) -> &'a mut [T] {
        let k = amount.min(slice.len());
        for i in 0..k {
            let j = self.gen_range(i..slice.len());
            slice.swap(i, j);
        }
        &mut slice[..k]
    }
}

/// Element types [`StdRng::gen_range`] draws uniformly.
pub trait UniformRange: PartialOrd + Copy {
    /// Uniform draw from `[lo, hi)`, `lo < hi`.
    fn sample(lo: Self, hi: Self, rng: &mut StdRng) -> Self;
}

impl UniformRange for f64 {
    #[inline]
    fn sample(lo: f64, hi: f64, rng: &mut StdRng) -> f64 {
        lo + (hi - lo) * rng.next_f64()
    }
}

macro_rules! int_uniform {
    ($($t:ty),*) => {$(
        impl UniformRange for $t {
            #[inline]
            fn sample(lo: $t, hi: $t, rng: &mut StdRng) -> $t {
                lo + (rng.next_u64() % (hi - lo) as u64) as $t
            }
        }
    )*};
}
int_uniform!(u32, u64, usize);

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

    /// The stream is the project's: these literals were drawn from the
    /// xoshiro256++ generator the goldens were recorded with, and any
    /// change to seeding, float or integer ranges or the shuffles moves
    /// one of them.
    #[test]
    fn std_rng_stream_is_pinned() {
        let mut a = StdRng::seed_from_u64(0);
        let first: Vec<u64> = (0..3).map(|_| a.next_u64()).collect();
        assert_eq!(
            first,
            [0x53175d61490b23df, 0x61da6f3dc380d507, 0x5c0fdf91ec9a7bfc]
        );
        let mut b = StdRng::seed_from_u64(42);
        let first: Vec<u64> = (0..3).map(|_| b.next_u64()).collect();
        assert_eq!(
            first,
            [0xd0764d4f4476689f, 0x519e4174576f3791, 0xfbe07cfb0c24ed8c]
        );

        let mut r = StdRng::seed_from_u64(7);
        assert_eq!(r.gen_range(0.7..1.3).to_bits(), 0x3fe77681f33666b1);
        assert_eq!(r.gen_range(3usize..1000), 202);
        let mut v: Vec<u32> = (0..10).collect();
        r.shuffle(&mut v);
        assert_eq!(v, [4, 9, 5, 1, 2, 7, 0, 6, 3, 8]);
        let mut w: Vec<u32> = (0..10).collect();
        assert_eq!(r.partial_shuffle(&mut w, 4), [0, 3, 9, 7]);
        assert_eq!(w, [0, 3, 9, 7, 4, 5, 6, 1, 8, 2]);
    }

    #[test]
    fn std_rng_ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!((-2.0..3.0).contains(&rng.gen_range(-2.0..3.0)));
            assert!(rng.gen_range(5u32..17) >= 5);
            assert!(rng.gen_range(0u64..17) < 17);
        }
        let mut short = [1, 2];
        assert_eq!(rng.partial_shuffle(&mut short, 5).len(), 2);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn std_rng_rejects_an_empty_range() {
        StdRng::seed_from_u64(0).gen_range(3usize..3);
    }
}

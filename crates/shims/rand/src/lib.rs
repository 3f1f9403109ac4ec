//! Offline shim for the `rand` crate.
//!
//! The build container cannot reach crates.io, so the workspace vendors
//! the slice of `rand` 0.10 it uses: [`rngs::StdRng`] seeded via
//! [`SeedableRng::seed_from_u64`], raw output via [`Rng::next_u64`], and
//! uniform range sampling via [`RngExt::random_range`] over integer and
//! float ranges.
//!
//! The generator is xoshiro256** seeded through SplitMix64 — a different
//! stream than upstream `StdRng` (ChaCha12), which is fine: every consumer
//! in this workspace treats the RNG as an arbitrary deterministic source,
//! and determinism per seed is preserved across runs and platforms.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Core RNG interface (the `RngCore` subset the workspace calls).
pub trait Rng {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Seeding interface.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Range types [`RngExt::random_range`] accepts.
pub trait SampleRange<T> {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// Convenience sampling methods, blanket-implemented for every [`Rng`].
pub trait RngExt: Rng {
    /// Uniform sample from an integer or float range.
    ///
    /// Panics on an empty range, like upstream.
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// Bernoulli sample with probability `p` of `true`.
    fn random_bool(&mut self, p: f64) -> bool {
        unit_f64(self.next_u64()) < p
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// `u64 → [0, 1)` with 53 bits of precision.
#[inline]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

macro_rules! impl_int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let offset = (rng.next_u64() as u128 % span) as i128;
                (self.start as i128 + offset) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let offset = (rng.next_u64() as u128 % span) as i128;
                (start as i128 + offset) as $t
            }
        }
    )*};
}

impl_int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + unit_f64(rng.next_u64()) * (self.end - self.start)
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (unit_f64(rng.next_u64()) as f32) * (self.end - self.start)
    }
}

pub mod rngs {
    use super::{Rng, SeedableRng};

    /// Deterministic xoshiro256** generator (this shim's `StdRng`).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, the canonical xoshiro seeding routine.
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng { s: [next(), next(), next(), next()] }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.random_range(2..=4usize);
            assert!((2..=4).contains(&v));
            let f = rng.random_range(-0.02..0.02);
            assert!((-0.02..0.02).contains(&f));
            let i = rng.random_range(-5i32..5);
            assert!((-5..5).contains(&i));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.random_range(0..4usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fill_bytes_fills() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}

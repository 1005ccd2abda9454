//! Offline stand-in for the `rand` crate (the subset this workspace
//! uses): `Rng::gen` / `Rng::gen_range`, `SeedableRng::seed_from_u64`,
//! and `rngs::SmallRng`.
//!
//! `SmallRng` is xoshiro256++ with SplitMix64 state expansion — the same
//! construction family real `rand` uses for its small RNG, so the
//! statistical quality is comparable; the exact streams differ, which is
//! fine because nothing in the workspace depends on a particular stream,
//! only on determinism under a seed.

use core::ops::{Range, RangeInclusive};

/// Low-level uniform word source.
pub trait RngCore {
    /// The next 64 uniform random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniform random bits (top half of [`Self::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seeding interface: expand a `u64` into full generator state.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is a deterministic function of
    /// `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types samplable uniformly from their "standard" distribution
/// (`rand`'s `Standard`): the unit interval for floats, the full domain
/// for integers and `bool`.
pub trait StandardSample {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl StandardSample for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl StandardSample for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl StandardSample for usize {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> usize {
        rng.next_u64() as usize
    }
}

impl StandardSample for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges samplable by [`Rng::gen_range`].
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),* $(,)?) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = ((hi - lo) as u64).wrapping_add(1);
                if span == 0 {
                    // Full-domain range of a 64-bit type.
                    return lo.wrapping_add(rng.next_u64() as $t);
                }
                lo + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize);

/// The ergonomic sampling interface (`rand`'s `Rng`), blanket-implemented
/// for every [`RngCore`].
pub trait Rng: RngCore {
    /// Sample from the standard distribution of `T`.
    fn gen<T: StandardSample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample_standard(self)
    }

    /// Sample uniformly from a (half-open or inclusive) range.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }
}

impl<R: RngCore> Rng for R {}

pub mod rngs {
    //! Concrete generators.

    /// A small, fast, good-quality non-cryptographic PRNG
    /// (xoshiro256++).
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl crate::SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 state expansion, as recommended by the xoshiro
            // authors (and used by real rand for the same purpose).
            let mut x = seed;
            let mut next = move || {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            SmallRng { s: [next(), next(), next(), next()] }
        }
    }

    impl crate::RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
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
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_under_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = SmallRng::seed_from_u64(8);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn unit_interval_floats() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.gen_range(3u32..13);
            assert!((3..13).contains(&v));
            seen[(v - 3) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "not all values of a small range hit");
        for _ in 0..100 {
            let v = rng.gen_range(5usize..=5);
            assert_eq!(v, 5);
        }
    }
}

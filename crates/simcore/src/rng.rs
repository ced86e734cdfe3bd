//! Deterministic, splittable random-number streams.
//!
//! Every stochastic component of the simulation (Poisson traffic per node,
//! shadowing per link, microscopic fading per link, LEACH cluster-head
//! election, MAC backoff, packet error draws, ...) gets its own stream derived
//! from a single master seed.  This gives two properties the paper's
//! evaluation methodology implicitly relies on:
//!
//! 1. **Reproducibility** — the same scenario seed always produces the same
//!    channel realization and traffic trace, so protocol comparisons are
//!    paired (common random numbers) and figures are regenerable bit-for-bit.
//! 2. **Independence across components** — changing how often one component
//!    draws (e.g. a different MAC backoff policy) does not perturb the random
//!    sequence seen by another (e.g. the fading process), which would
//!    otherwise confound comparisons between CAEM schemes.
//!
//! The generator is a small, self-contained xoshiro256**-style PRNG seeded
//! through SplitMix64, exposed through `rand::RngCore` so the `rand_distr`
//! samplers can be used on top.

use rand::{Error, RngCore, SeedableRng};

/// Identifies an independent random stream: a component label plus an index
/// (node id, link id, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId {
    /// Component label; use distinct constants per subsystem.
    pub component: u64,
    /// Entity index within the component (node id, link id, replication id).
    pub index: u64,
}

impl StreamId {
    /// Create a stream identifier.
    pub const fn new(component: u64, index: u64) -> Self {
        StreamId { component, index }
    }
}

/// Well-known component labels used across the suite.
pub mod components {
    /// Traffic generation (Poisson arrivals).
    pub const TRAFFIC: u64 = 0x01;
    /// Log-normal shadowing processes.
    pub const SHADOWING: u64 = 0x02;
    /// Microscopic (Rayleigh) fading processes.
    pub const FADING: u64 = 0x03;
    /// LEACH cluster-head election.
    pub const ELECTION: u64 = 0x04;
    /// MAC contention backoff.
    pub const BACKOFF: u64 = 0x05;
    /// Packet error / corruption draws.
    pub const PACKET_ERROR: u64 = 0x06;
    /// Node placement in the field.
    pub const PLACEMENT: u64 = 0x07;
    /// Per-node heterogeneity draws (initial-energy spread).
    pub const HETEROGENEITY: u64 = 0x08;
    /// Node-failure / churn injection times.
    pub const CHURN: u64 = 0x09;
    /// Anything else / scratch.
    pub const MISC: u64 = 0xFF;
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A xoshiro256**-style PRNG with SplitMix64 seeding.
///
/// Small (32 bytes of state plus one cached normal), fast, and of more than
/// adequate statistical quality for protocol simulation.  Not
/// cryptographically secure.
#[derive(Debug, Clone)]
pub struct StreamRng {
    s: [u64; 4],
    /// Second output of the last Marsaglia polar iteration, kept for the next
    /// [`StreamRng::standard_normal`] call.  The polar transform produces two
    /// independent standard normals per accepted `(u, v)` pair; the shadowing
    /// and fading processes draw normals in bulk, so discarding the partner
    /// sample (as the original implementation did) doubled the number of
    /// rejection loops, `ln` and `sqrt` calls on the simulator's hottest path.
    /// NaN when no sample is cached: a polar output is always finite, and
    /// the sentinel keeps a stream at 40 bytes rather than the 48 of an
    /// `Option<f64>` — every simulated node holds four streams.
    spare_normal: f64,
}

impl StreamRng {
    /// Seed directly from a 64-bit value.
    pub fn from_seed_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // Avoid the all-zero state (probability ~2^-256, but be explicit).
        if s.iter().all(|&x| x == 0) {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        StreamRng {
            s,
            spare_normal: f64::NAN,
        }
    }

    #[inline]
    fn rotl(x: u64, k: u32) -> u64 {
        x.rotate_left(k)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_raw(&mut self) -> u64 {
        let result = Self::rotl(self.s[1].wrapping_mul(5), 7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = Self::rotl(self.s[3], 45);
        result
    }

    /// Uniform sample in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> [0,1) with full double precision.
        (self.next_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo);
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)` using Lemire's multiply-shift rejection.
    pub fn uniform_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "uniform_u64 requires n > 0");
        // Simple modulo with rejection of the biased tail.
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_raw();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Bernoulli trial with success probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed sample with the given rate (events/second).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        self.exponential_mean(1.0 / rate)
    }

    /// Exponentially distributed sample expressed via its mean (`1/rate`).
    ///
    /// Sources that draw at a fixed rate (every Poisson arrival) precompute
    /// the mean once, turning the per-draw division into a multiplication.
    pub fn exponential_mean(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0, "exponential mean must be positive");
        // Inverse CDF; guard against ln(0).
        let u = 1.0 - self.next_f64();
        -u.ln() * mean
    }

    /// Standard normal sample (Marsaglia polar method, both outputs used).
    pub fn standard_normal(&mut self) -> f64 {
        let spare = self.spare_normal;
        if !spare.is_nan() {
            self.spare_normal = f64::NAN;
            return spare;
        }
        // Marsaglia polar method avoids trig calls and yields an independent
        // pair per accepted iteration; the partner is cached for the next call.
        loop {
            let u = 2.0 * self.next_f64() - 1.0;
            let v = 2.0 * self.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                self.spare_normal = v * factor;
                return u * factor;
            }
        }
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        mean + std_dev * self.standard_normal()
    }
}

impl RngCore for StreamRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_raw() >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_raw().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for StreamRng {
    type Seed = [u8; 8];
    fn from_seed(seed: Self::Seed) -> Self {
        StreamRng::from_seed_u64(u64::from_le_bytes(seed))
    }
    fn seed_from_u64(state: u64) -> Self {
        StreamRng::from_seed_u64(state)
    }
}

/// Factory for independent per-component random streams derived from a master
/// seed.
#[derive(Debug, Clone, Copy)]
pub struct RngStream {
    master_seed: u64,
}

impl RngStream {
    /// Create a stream factory from the scenario master seed.
    pub const fn new(master_seed: u64) -> Self {
        RngStream { master_seed }
    }

    /// The master seed this factory was built from.
    pub const fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Derive the generator for `stream`.
    ///
    /// Derivation hashes `(master_seed, component, index)` through SplitMix64
    /// so neighbouring indices produce decorrelated states.
    pub fn stream(&self, stream: StreamId) -> StreamRng {
        let mut state = self
            .master_seed
            .wrapping_mul(0xA24B_AED4_963E_E407)
            .wrapping_add(stream.component.wrapping_mul(0x9FB2_1C65_1E98_DF25))
            .wrapping_add(stream.index.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        // Mix a few rounds so low-entropy inputs (small ints) spread out.
        let a = splitmix64(&mut state);
        let b = splitmix64(&mut state);
        StreamRng::from_seed_u64(a ^ b.rotate_left(31))
    }

    /// Shorthand: derive the stream for `(component, index)`.
    pub fn derive(&self, component: u64, index: u64) -> StreamRng {
        self.stream(StreamId::new(component, index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_same_seed() {
        let mut a = StreamRng::from_seed_u64(42);
        let mut b = StreamRng::from_seed_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StreamRng::from_seed_u64(1);
        let mut b = StreamRng::from_seed_u64(2);
        let same = (0..100).filter(|_| a.next_raw() == b.next_raw()).count();
        assert!(same < 3, "streams with different seeds should not collide");
    }

    #[test]
    fn streams_are_independent_of_component() {
        let factory = RngStream::new(7);
        let mut traffic = factory.derive(components::TRAFFIC, 3);
        let mut fading = factory.derive(components::FADING, 3);
        let same = (0..100)
            .filter(|_| traffic.next_raw() == fading.next_raw())
            .count();
        assert!(same < 3);
    }

    #[test]
    fn adjacent_indices_are_decorrelated() {
        let factory = RngStream::new(1234);
        let mut x: Vec<f64> = Vec::new();
        let mut y: Vec<f64> = Vec::new();
        let mut a = factory.derive(components::TRAFFIC, 10);
        let mut b = factory.derive(components::TRAFFIC, 11);
        for _ in 0..2000 {
            x.push(a.next_f64());
            y.push(b.next_f64());
        }
        let mx = x.iter().sum::<f64>() / x.len() as f64;
        let my = y.iter().sum::<f64>() / y.len() as f64;
        let cov: f64 = x
            .iter()
            .zip(&y)
            .map(|(a, b)| (a - mx) * (b - my))
            .sum::<f64>()
            / x.len() as f64;
        let vx = x.iter().map(|a| (a - mx).powi(2)).sum::<f64>() / x.len() as f64;
        let vy = y.iter().map(|b| (b - my).powi(2)).sum::<f64>() / y.len() as f64;
        let corr = cov / (vx * vy).sqrt();
        assert!(corr.abs() < 0.1, "correlation too high: {corr}");
    }

    #[test]
    fn uniform_f64_is_in_range_and_roughly_uniform() {
        let mut rng = StreamRng::from_seed_u64(5);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    #[test]
    fn uniform_u64_covers_all_values() {
        let mut rng = StreamRng::from_seed_u64(9);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.uniform_u64(10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic]
    fn uniform_u64_zero_panics() {
        let mut rng = StreamRng::from_seed_u64(9);
        rng.uniform_u64(0);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = StreamRng::from_seed_u64(11);
        let rate = 5.0; // packets per second, as in Fig. 8/9
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = StreamRng::from_seed_u64(13);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1);
        assert!((var - 9.0).abs() < 0.5);
    }

    #[test]
    fn bernoulli_probability() {
        let mut rng = StreamRng::from_seed_u64(17);
        let n = 20_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.05)).count();
        let p = hits as f64 / n as f64;
        assert!((p - 0.05).abs() < 0.01, "p = {p}");
    }

    #[test]
    fn rngcore_fill_bytes_works() {
        let mut rng = StreamRng::from_seed_u64(3);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        assert_eq!(rng.next_u32() as u64 >> 32, 0);
    }

    #[test]
    fn seedable_rng_trait() {
        let a = StreamRng::seed_from_u64(99);
        let b = StreamRng::from_seed(99u64.to_le_bytes());
        let mut a = a;
        let mut b = b;
        assert_eq!(a.next_raw(), b.next_raw());
    }
}

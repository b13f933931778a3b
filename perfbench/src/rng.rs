//! A small deterministic generator (SplitMix64): every workload input is
//! derived from the `--seed` argument through it, so one seed always
//! yields the same key and amount sequence.

/// SplitMix64 state.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of `seed` (one stream per client).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Two distinct values uniform in `0..n` (`n >= 2`).
    pub fn pair(&mut self, n: u64) -> (u64, u64) {
        let a = self.below(n);
        let b = (a + 1 + self.below(n - 1)) % n;
        (a, b)
    }

    /// True with probability `pct`%.
    pub fn percent(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

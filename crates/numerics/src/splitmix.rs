//! SplitMix64: the workspace's one dependency-free seeded generator.
//!
//! Fault plans, reliability substreams and the serving daemon's sample
//! draws all derive their randomness here, so identical seeds give
//! identical streams on every platform and thread count.

/// The SplitMix64 stream increment (the 64-bit golden ratio).
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 output finalizer: a bijective avalanche mix of `z`.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A SplitMix64 stream: the state advances by [`GOLDEN_GAMMA`] and each
/// output is the [`mix64`] of the new state.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream starting from state `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }

    /// The next draw in `[0, 1)`, from the top 53 bits of
    /// [`SplitMix64::next_u64`].
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_stream() {
        // Reference outputs of SplitMix64 seeded with 0.
        let mut s = SplitMix64::new(0);
        assert_eq!(s.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(s.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(s.next_u64(), 0x06c4_5d18_8009_454f);
        assert_eq!(mix64(0), 0);
    }

    #[test]
    fn unit_draws_lie_in_the_half_open_interval() {
        let mut s = SplitMix64::new(42);
        for _ in 0..1000 {
            let u = s.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }
}

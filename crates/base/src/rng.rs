//! A tiny deterministic PRNG used where reproducibility matters more than
//! statistical strength (tie-breaking in heuristics, synthetic benchmark
//! generation). Heavier randomized machinery (annealing schedules, random
//! simulation vectors) uses the `rand` crate, seeded explicitly.
//!
//! This is Sebastiano Vigna's SplitMix64: a 64-bit state, passes BigCrush on
//! its intended use, and is trivially portable so the experiment tables are
//! bit-identical across platforms.

/// SplitMix64 pseudo-random generator.
///
/// ```
/// use smt_base::SplitMix64;
/// let mut a = SplitMix64::new(42);
/// let mut b = SplitMix64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // fully deterministic
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Every seed gives an independent,
    /// full-period sequence.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Advances the generator past `k` outputs in O(1): the state is a
    /// Weyl counter, so this equals `k` calls of [`SplitMix64::next_u64`].
    pub fn skip(&mut self, k: u64) {
        self.state = self
            .state
            .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }

    /// Uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "next_below: bound must be positive");
        // Rejection-free multiply-shift; bias is negligible for bounds far
        // below 2^64, which is always the case here (netlist sizes).
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i + 1);
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.next_below(items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn skip_equals_that_many_draws() {
        // The last seed sits just below `u64::MAX`, so the first state
        // addition wraps.
        for seed in [0, 42, u64::MAX - 5] {
            for k in [0u64, 1, 2, 64, 1_000_000] {
                let mut skipped = SplitMix64::new(seed);
                skipped.skip(k);
                let mut stepped = SplitMix64::new(seed);
                for _ in 0..k {
                    stepped.next_u64();
                }
                assert_eq!(skipped, stepped, "seed {seed} k {k}");
                assert_eq!(skipped.next_u64(), stepped.next_u64(), "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(99);
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(3);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = r.next_below(10);
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SplitMix64::new(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(11);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn choose_returns_member() {
        let mut r = SplitMix64::new(13);
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(r.choose(&items)));
        }
    }
}

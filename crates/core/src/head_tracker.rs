//! Streaming head-key detection: a Space-Saving top-key frequency estimator.
//!
//! The D-Choices/W-Choices schemes of the journal follow-up ("When Two
//! Choices Are not Enough", Nasir et al., ICDE 2016) must tell the few
//! *head* keys — too frequent for two workers to absorb — from the long
//! tail, online, per source, in constant memory. This module is the
//! estimator they assume: a [Space-Saving] summary of `capacity` counters
//! over 64-bit key ids. It is independent of `pkg-agg`'s `SpaceSaving`
//! sketch (error bounds, merging, a codec) so that `pkg-core` stays
//! dependency-free. Routing needs only the overestimated count, whose
//! guarantee makes head classification *provably* conservative:
//!
//! * `count(k) ≥ occ(k)` — a genuinely hot key is never missed;
//! * `count(k) ≤ occ(k) + total/capacity` — a key is overestimated by at
//!   most the summary's minimum, so with `capacity ≥ 8/θ` and the warm-up
//!   rule below, a key whose true frequency stays under `3θ/4` can never be
//!   classified head. That determinism is what lets D-Choices degenerate to
//!   *byte-identical* PKG routing on uniform streams (pinned by
//!   `tests/property_tests.rs`).
//!
//! **Warm-up:** nothing is head until `total · θ ≥ WARMUP_MASS`. With a
//! tiny sample every first occurrence would trivially clear any relative
//! threshold, and misclassifying cold keys as hot costs replication.
//!
//! **Layout:** up to `capacity` slots `(count, cell)` in non-increasing
//! count order, so the last slot is a minimum. A cell owns one key and
//! knows its slot's position; a `key → cell` map finds the cell. An
//! increment swaps the key's slot with the first slot of its equal-count
//! run (binary search) and adds one there. An eviction overwrites the last
//! slot's key. Once full, the tracker allocates nothing, and an increment
//! costs one hash lookup.
//!
//! [Space-Saving]: Metwally, Agrawal, El Abbadi — "Efficient computation of
//! frequent and top-k elements in data streams", ICDT 2005.

use pkg_hash::FxHashMap;

/// Observations of estimated-frequency mass a key must be able to amass
/// before head classification switches on (`total ≥ WARMUP_MASS / θ`).
const WARMUP_MASS: f64 = 8.0;

/// A Space-Saving summary estimating the stream's top key frequencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeadTracker {
    /// `(count, cell)` in non-increasing count order.
    slots: Vec<(u64, u32)>,
    /// `key → cell` for every tracked key.
    index: FxHashMap<u64, u32>,
    /// Per cell: `(key, position of its slot)`.
    cells: Vec<(u64, u32)>,
    capacity: usize,
    total: u64,
}

impl HeadTracker {
    /// A tracker with the given counter budget (≥ 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "tracker needs at least one counter");
        Self {
            slots: Vec::new(),
            index: FxHashMap::default(),
            cells: Vec::new(),
            capacity,
            total: 0,
        }
    }

    /// A tracker sized for head threshold `θ`: `capacity = ⌈8/θ⌉` counters
    /// (at least 64), so overestimation stays below `θ/8` of the stream.
    pub fn for_threshold(theta: f64) -> Self {
        assert!(theta > 0.0 && theta <= 1.0, "threshold must be in (0,1]");
        Self::new(64.max((WARMUP_MASS / theta).ceil() as usize))
    }

    /// Count one occurrence of `key`; returns its updated count estimate.
    pub fn observe(&mut self, key: u64) -> u64 {
        self.total += 1;
        let cell = match self.index.get(&key) {
            Some(&cell) => cell,
            None if self.slots.len() < self.capacity => {
                let cell = self.slots.len() as u32;
                self.slots.push((0, cell));
                self.cells.push((key, cell));
                self.index.insert(key, cell);
                cell
            }
            None => {
                // Summary full: the key takes over the last (minimum-count) slot
                // and inherits its count plus one (the Space-Saving rule).
                let cell = self.slots[self.capacity - 1].1;
                let owner = &mut self.cells[cell as usize].0;
                self.index.remove(owner);
                *owner = key;
                self.index.insert(key, cell);
                cell
            }
        };
        let at = self.cells[cell as usize].1 as usize;
        let count = self.slots[at].0;
        let front = self.slots[..at].partition_point(|&(c, _)| c > count);
        self.slots.swap(front, at);
        self.cells[self.slots[at].1 as usize].1 = at as u32;
        self.cells[cell as usize].1 = front as u32;
        self.slots[front].0 += 1;
        count + 1
    }

    /// Estimated count of `key` (its Space-Saving overestimate; 0 if
    /// untracked — the key's true count is then below the summary minimum
    /// plus one, i.e. certifiably tail).
    #[inline]
    pub fn count(&self, key: u64) -> u64 {
        self.index.get(&key).map_or(0, |&cell| self.slots[self.cells[cell as usize].1 as usize].0)
    }

    /// Estimated frequency of `key` in the observed stream (0 before any
    /// observation).
    #[inline]
    pub fn frequency(&self, key: u64) -> f64 {
        self.count(key) as f64 / self.total.max(1) as f64
    }

    /// Whether enough mass has been observed for threshold `theta` to be
    /// meaningful (see module docs).
    #[inline]
    pub fn warmed_up(&self, theta: f64) -> bool {
        self.total as f64 * theta >= WARMUP_MASS
    }

    /// Estimated frequency `key` would have *after one more occurrence* —
    /// what [`observe`](Self::observe)-then-classify will see. Routing uses
    /// this so a key's reported candidate set is always a superset of where
    /// its next message can go.
    #[inline]
    pub fn next_frequency(&self, key: u64) -> f64 {
        // Tracked counts are ≥ 1: a 0 is an untracked key, which inherits
        // the minimum once the summary is full.
        let count = match self.count(key) {
            0 if self.slots.len() == self.capacity => self.slots[self.capacity - 1].0,
            count => count,
        };
        (count + 1) as f64 / (self.total + 1) as f64
    }

    /// Whether the *next* occurrence of `key` will classify as head at
    /// threshold `theta`.
    #[inline]
    pub fn next_is_head(&self, key: u64, theta: f64) -> bool {
        (self.total + 1) as f64 * theta >= WARMUP_MASS && self.next_frequency(key) >= theta
    }

    /// Total observations so far.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of keys currently tracked (≤ capacity).
    pub fn tracked(&self) -> usize {
        self.slots.len()
    }

    /// Counter budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_exactly_below_capacity() {
        let mut t = HeadTracker::new(16);
        for i in 0..10u64 {
            for _ in 0..=i {
                t.observe(i);
            }
        }
        for i in 0..10u64 {
            assert_eq!(t.count(i), i + 1);
        }
        assert_eq!(t.total(), 55);
        assert_eq!(t.tracked(), 10);
    }

    #[test]
    fn overestimates_but_never_underestimates() {
        // 4 counters, 20 distinct keys, one genuinely hot.
        let mut t = HeadTracker::new(4);
        let mut occ = std::collections::HashMap::new();
        for i in 0..2_000u64 {
            let key = if i % 3 == 0 { 0 } else { 1 + (i % 19) };
            t.observe(key);
            *occ.entry(key).or_insert(0u64) += 1;
        }
        assert!(t.tracked() <= 4);
        // The Space-Saving guarantees on every tracked key.
        let min = t.slots.last().map_or(0, |s| s.0);
        assert!(min <= t.total() / 4, "min {} > total/capacity", min);
        assert!(t.count(0) >= occ[&0], "hot key underestimated");
        for (&k, &o) in &occ {
            if t.count(k) > 0 {
                assert!(t.count(k) <= o + min, "key {k} overestimated past occ+min");
            }
        }
    }

    #[test]
    fn hot_key_frequency_converges() {
        let mut t = HeadTracker::for_threshold(0.05);
        for i in 0..50_000u64 {
            let key = if i % 5 == 0 { 42 } else { i };
            t.observe(key);
        }
        let f = t.frequency(42);
        assert!((f - 0.2).abs() < 0.02, "estimated hot frequency {f}");
        assert!(t.warmed_up(0.05));
    }

    #[test]
    fn uniform_keys_never_classify_head_after_warmup() {
        // The determinism the PKG-degeneration property rests on: cycling
        // uniform keys stay below θ at every single step.
        let theta = 0.05;
        let mut t = HeadTracker::for_threshold(theta);
        for i in 0..100_000u64 {
            let key = i % 500;
            assert!(!t.next_is_head(key, theta), "uniform key {key} classified head at t={i}");
            t.observe(key);
        }
    }

    #[test]
    fn next_frequency_predicts_observe() {
        let mut t = HeadTracker::new(8);
        for i in 0..5_000u64 {
            let key = i % 21;
            let predicted = t.next_frequency(key);
            let c = t.observe(key);
            let actual = c as f64 / t.total() as f64;
            assert!((predicted - actual).abs() < 1e-12, "prediction drifted at {i}");
        }
    }

    #[test]
    fn capacity_is_respected_under_all_distinct_keys() {
        let mut t = HeadTracker::new(32);
        for i in 0..10_000u64 {
            t.observe(i);
        }
        assert_eq!(t.tracked(), 32);
        assert_eq!(t.total(), 10_000);
    }

    /// SplitMix64: a dependency-free stream of pseudo-random words.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A random stream over `0..space`: uniform, or skewed toward small
    /// keys by squaring a uniform draw.
    fn stream(space: u64, skewed: bool, len: usize, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                let u = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                let x = if skewed { u * u } else { u };
                ((x * space as f64) as u64).min(space - 1)
            })
            .collect()
    }

    /// Checks the summary against exact occurrence counts.
    fn check_against_oracle(t: &HeadTracker, occ: &std::collections::HashMap<u64, u64>) {
        assert!(t.tracked() <= t.capacity());
        assert_eq!(t.slots.iter().map(|s| s.0).sum::<u64>(), t.total());
        assert!(t.slots.windows(2).all(|w| w[0].0 >= w[1].0), "slots out of order");
        for (at, &(_, cell)) in t.slots.iter().enumerate() {
            let (key, pos) = t.cells[cell as usize];
            assert_eq!(pos as usize, at, "cell {cell} lost its slot");
            assert_eq!(t.index[&key], cell);
        }
        let min = t.slots.last().map_or(0, |s| s.0);
        for (&k, &o) in occ {
            let c = t.count(k);
            if c == 0 {
                assert!(o <= min, "untracked key {k} occurred {o} > min {min}");
            } else {
                assert!(o <= c && c <= o + min, "key {k}: occ {o}, count {c}, min {min}");
            }
        }
    }

    #[test]
    fn matches_a_brute_force_oracle_on_random_streams() {
        for capacity in [1usize, 4, 64, 182] {
            for space in [2u64, 7, 100, 1_000, 10_000] {
                for skewed in [false, true] {
                    let seed = capacity as u64 * 1_000_003 + space * 2 + skewed as u64;
                    let keys = stream(space, skewed, 20_000, seed);
                    let mut t = HeadTracker::new(capacity);
                    let mut occ = std::collections::HashMap::new();
                    for (i, &key) in keys.iter().enumerate() {
                        let predicted = t.next_frequency(key);
                        let c = t.observe(key);
                        assert_eq!(predicted, c as f64 / t.total() as f64, "step {i}");
                        assert_eq!(t.count(key), c);
                        *occ.entry(key).or_insert(0u64) += 1;
                        if i % 997 == 0 {
                            check_against_oracle(&t, &occ);
                        }
                    }
                    check_against_oracle(&t, &occ);
                    let mut again = HeadTracker::new(capacity);
                    keys.iter().for_each(|&k| {
                        again.observe(k);
                    });
                    assert_eq!(t, again, "capacity {capacity}, space {space}: runs diverged");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one counter")]
    fn zero_capacity_panics() {
        let _ = HeadTracker::new(0);
    }
}

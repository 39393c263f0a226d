//! Workload builders for the sorting experiments.
//!
//! Figure 10's input: "The first half of the input data is drawn from a
//! uniform distribution, while the second is from an exponential
//! distribution." Because each ASU streams its resident share
//! sequentially, the skewed records must form the second half of *every
//! ASU's* local data for the skew to arrive in the second half of the run
//! — [`fig10_data_per_asu`] builds exactly that layout.

use lmas_core::{generate_rec128, KeyDist, Rec128, Record};

/// Default exponential rate: concentrates ~63% of keys in the lowest
/// eighth of the key space.
pub const FIG10_EXP_RATE: f64 = 8.0;

/// Figure 10's workload laid out per ASU: each ASU holds `n / d` records
/// whose first half is uniform and second half exponential, so the skew
/// hits all ASUs simultaneously midway through the run. Tags remain a
/// global permutation of `0..n'` (where `n' = (n/d/2)*2*d` after
/// rounding each half down to equal sizes).
pub fn fig10_data_per_asu(n: u64, d: usize, seed: u64) -> Vec<Vec<Rec128>> {
    assert!(d > 0, "need at least one ASU");
    let per_asu = n / d as u64;
    let half = per_asu / 2;
    let mut out = Vec::with_capacity(d);
    let mut next_tag = 0u64;
    for asu in 0..d {
        let mut chunk = Vec::with_capacity((2 * half) as usize);
        let mut uni = generate_rec128(half, KeyDist::Uniform, seed ^ (asu as u64) << 1);
        let mut exp = generate_rec128(
            half,
            KeyDist::Exponential { rate: FIG10_EXP_RATE },
            seed ^ ((asu as u64) << 1 | 1),
        );
        // Re-tag to keep the global permutation property.
        for r in uni.iter_mut().chain(exp.iter_mut()) {
            *r = Rec128::new(r.key(), next_tag);
            next_tag += 1;
        }
        chunk.append(&mut uni);
        chunk.append(&mut exp);
        out.push(chunk);
    }
    out
}

/// Equally spaced splitters assuming a uniform key distribution — the
/// calibration a system would have *before* seeing the skewed half,
/// which is what makes Figure 10's static assignment unbalanced.
pub fn uniform_assuming_splitters(alpha: usize) -> Vec<u32> {
    assert!(alpha >= 1, "α must be positive");
    (1..alpha)
        .map(|i| ((i as u64 * (u32::MAX as u64 + 1)) / alpha as u64) as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmas_core::kernels::bucket_of;

    #[test]
    fn fig10_layout_puts_skew_in_second_half_of_each_asu() {
        let data = fig10_data_per_asu(8_000, 4, 7);
        assert_eq!(data.len(), 4);
        for chunk in &data {
            assert_eq!(chunk.len(), 2_000);
            let low = |r: &Rec128| (r.key() as f64) < u32::MAX as f64 / 8.0;
            let first_low = chunk[..1_000].iter().filter(|r| low(r)).count();
            let second_low = chunk[1_000..].iter().filter(|r| low(r)).count();
            assert!(first_low < 250, "uniform half: {first_low}");
            assert!(second_low > 500, "skewed half: {second_low}");
        }
    }

    #[test]
    fn fig10_tags_are_a_global_permutation() {
        let data = fig10_data_per_asu(4_000, 4, 3);
        let mut tags: Vec<u64> = data.iter().flatten().map(|r| r.tag()).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..4_000).collect::<Vec<u64>>());
    }

    #[test]
    fn uniform_splitters_balance_uniform_data() {
        let sp = uniform_assuming_splitters(4);
        assert_eq!(sp.len(), 3);
        let data = generate_rec128(8_000, KeyDist::Uniform, 5);
        let mut counts = [0usize; 4];
        for r in &data {
            counts[bucket_of(r.key(), &sp)] += 1;
        }
        for c in counts {
            assert!((1_700..2_300).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn uniform_splitters_unbalance_exponential_data() {
        let sp = uniform_assuming_splitters(4);
        let data = generate_rec128(8_000, KeyDist::Exponential { rate: FIG10_EXP_RATE }, 5);
        let mut counts = [0usize; 4];
        for r in &data {
            counts[bucket_of(r.key(), &sp)] += 1;
        }
        assert!(
            counts[0] > 5_000,
            "exponential keys should pile into bucket 0: {counts:?}"
        );
    }

    #[test]
    fn degenerate_alpha_one() {
        assert!(uniform_assuming_splitters(1).is_empty());
    }
}

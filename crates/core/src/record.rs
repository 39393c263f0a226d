//! Fixed-size records, the atoms of the streaming model.
//!
//! The paper's model (and all of TPIE) processes *fixed-size records*;
//! the experiments in Section 6 use 128-byte records with 4-byte keys,
//! provided here as [`Rec128`]. Key distributions used by the workloads —
//! uniform and exponential, plus the half/half mix of Figure 10 — live in
//! [`KeyDist`].

use lmas_sim::DetRng;

/// A fixed-size record with an ordered key.
///
/// `SIZE` is the on-storage footprint; `to_bytes`/`from_bytes` must
/// round-trip exactly `SIZE` bytes.
///
/// `Sync` is required because packets share one record buffer across
/// clones (`Packet` is `Arc`-backed), and emulation sweeps fan whole runs
/// out across threads.
pub trait Record: Clone + Send + Sync + 'static {
    /// On-storage size in bytes.
    const SIZE: usize;
    /// The sort/partition key.
    type Key: Ord + Copy + Send + Sync + std::fmt::Debug;

    /// This record's key.
    fn key(&self) -> Self::Key;
    /// Serialize into exactly `SIZE` bytes.
    fn to_bytes(&self, out: &mut [u8]);
    /// Deserialize from exactly `SIZE` bytes.
    fn from_bytes(bytes: &[u8]) -> Self;

    /// When true, [`radix_key`](Record::radix_key) is a faithful `u32`
    /// image of [`key`](Record::key) — `a.key() <= b.key()` iff
    /// `a.radix_key() <= b.radix_key()` — and `block_sort` may dispatch
    /// to a stable LSB radix sort instead of a comparison sort. The
    /// default keeps comparison sorting.
    const RADIX32: bool = false;

    /// The `u32` radix image of the key; meaningful only when
    /// [`RADIX32`](Record::RADIX32) is true.
    #[inline]
    fn radix_key(&self) -> u32 {
        0
    }

    /// A stable per-record identity tag, when the record type carries
    /// one. Fault recovery uses tags to compute exactly which records
    /// were lost with a crashed node (set difference against surviving
    /// partial output) so a repair pass can re-dispatch them. Returns
    /// `u64::MAX` ("no identity") by default; record types with
    /// provenance tags override.
    #[inline]
    fn tag64(&self) -> u64 {
        u64::MAX
    }
}

/// The paper's experimental record: 128 bytes, 4-byte key.
#[derive(Clone, PartialEq, Eq)]
pub struct Rec128 {
    key: u32,
    payload: [u8; 124],
}

impl std::fmt::Debug for Rec128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Rec128(key={}, payload[0..4]={:?})", self.key, &self.payload[..4])
    }
}

impl Rec128 {
    /// A record with the given key; the payload encodes a provenance tag
    /// so that permutation checks can detect corrupted payloads.
    pub fn new(key: u32, tag: u64) -> Rec128 {
        let mut payload = [0u8; 124];
        payload[..8].copy_from_slice(&tag.to_le_bytes());
        Rec128 { key, payload }
    }

    /// The provenance tag stored in the payload.
    pub fn tag(&self) -> u64 {
        u64::from_le_bytes(self.payload[..8].try_into().expect("8 bytes"))
    }
}

impl Record for Rec128 {
    const SIZE: usize = 128;
    type Key = u32;
    const RADIX32: bool = true;

    #[inline]
    fn key(&self) -> u32 {
        self.key
    }

    #[inline]
    fn radix_key(&self) -> u32 {
        self.key
    }

    #[inline]
    fn tag64(&self) -> u64 {
        self.tag()
    }

    fn to_bytes(&self, out: &mut [u8]) {
        assert!(out.len() >= 128, "need 128 bytes");
        out[..4].copy_from_slice(&self.key.to_le_bytes());
        out[4..128].copy_from_slice(&self.payload);
    }

    fn from_bytes(bytes: &[u8]) -> Self {
        assert!(bytes.len() >= 128, "need 128 bytes");
        let key = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"));
        let mut payload = [0u8; 124];
        payload.copy_from_slice(&bytes[4..128]);
        Rec128 { key, payload }
    }
}

/// A tiny record for tests where payload is irrelevant: 8 bytes, u32 key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rec8 {
    /// The key.
    pub key: u32,
    /// A provenance tag.
    pub tag: u32,
}

impl Record for Rec8 {
    const SIZE: usize = 8;
    type Key = u32;
    const RADIX32: bool = true;

    #[inline]
    fn key(&self) -> u32 {
        self.key
    }

    #[inline]
    fn radix_key(&self) -> u32 {
        self.key
    }

    #[inline]
    fn tag64(&self) -> u64 {
        self.tag as u64
    }

    fn to_bytes(&self, out: &mut [u8]) {
        out[..4].copy_from_slice(&self.key.to_le_bytes());
        out[4..8].copy_from_slice(&self.tag.to_le_bytes());
    }

    fn from_bytes(bytes: &[u8]) -> Self {
        Rec8 {
            key: u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")),
            tag: u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")),
        }
    }
}

/// Key distributions for workload generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Uniform over the full `u32` range.
    Uniform,
    /// Exponential with the given rate, scaled into `u32` range (heavily
    /// skewed toward small keys).
    Exponential {
        /// Rate parameter; larger = more skew toward zero.
        rate: f64,
    },
    /// Figure 10's workload: the first half of the data is uniform, the
    /// second half exponential.
    HalfUniformHalfExp {
        /// Rate of the exponential second half.
        rate: f64,
    },
}

impl KeyDist {
    /// Draw the key of record `i` of `n` from this distribution.
    pub fn draw(&self, i: u64, n: u64, rng: &mut DetRng) -> u32 {
        match *self {
            KeyDist::Uniform => rng.next_u32(),
            KeyDist::Exponential { rate } => exp_key(rate, rng),
            KeyDist::HalfUniformHalfExp { rate } => {
                if i < n / 2 {
                    rng.next_u32()
                } else {
                    exp_key(rate, rng)
                }
            }
        }
    }
}

fn exp_key(rate: f64, rng: &mut DetRng) -> u32 {
    // Exponential sample with mean 1/rate, clamped into [0,1) of the key
    // space; rate >= ~8 keeps clamping negligible.
    let x = rng.gen_exp(rate).min(0.999_999_9);
    (x * u32::MAX as f64) as u32
}

/// Generate `n` records with keys drawn from `dist`; tags run 0..n so a
/// permutation check can verify no record was lost or duplicated.
pub fn generate_rec128(n: u64, dist: KeyDist, seed: u64) -> Vec<Rec128> {
    let mut rng = DetRng::stream(seed, 0xDA7A);
    (0..n)
        .map(|i| Rec128::new(dist.draw(i, n, &mut rng), i))
        .collect()
}

/// Generate `n` small test records.
pub fn generate_rec8(n: u64, dist: KeyDist, seed: u64) -> Vec<Rec8> {
    let mut rng = DetRng::stream(seed, 0xDA7A);
    (0..n)
        .map(|i| Rec8 {
            key: dist.draw(i, n, &mut rng),
            tag: i as u32,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rec128_roundtrip() {
        let r = Rec128::new(0xDEADBEEF, 42);
        let mut buf = [0u8; 128];
        r.to_bytes(&mut buf);
        let back = Rec128::from_bytes(&buf);
        assert_eq!(back, r);
        assert_eq!(back.key(), 0xDEADBEEF);
        assert_eq!(back.tag(), 42);
    }

    #[test]
    fn rec8_roundtrip() {
        let r = Rec8 { key: 7, tag: 9 };
        let mut buf = [0u8; 8];
        r.to_bytes(&mut buf);
        assert_eq!(Rec8::from_bytes(&buf), r);
    }

    #[test]
    fn uniform_keys_cover_the_range() {
        let recs = generate_rec128(10_000, KeyDist::Uniform, 1);
        let lo = recs.iter().filter(|r| r.key() < u32::MAX / 2).count();
        // Roughly half below the midpoint.
        assert!((4_000..6_000).contains(&lo), "lo={lo}");
    }

    #[test]
    fn exponential_keys_skew_low() {
        let recs = generate_rec128(10_000, KeyDist::Exponential { rate: 8.0 }, 1);
        let lo = recs
            .iter()
            .filter(|r| (r.key() as f64) < u32::MAX as f64 / 8.0)
            .count();
        // P(X < 1/8) with rate 8 = 1 - e^-1 ≈ 0.63.
        assert!(lo > 5_500, "lo={lo}: exponential should pile up low");
    }

    #[test]
    fn half_half_switches_distribution_midway() {
        let recs = generate_rec128(10_000, KeyDist::HalfUniformHalfExp { rate: 8.0 }, 1);
        let first_lo = recs[..5_000]
            .iter()
            .filter(|r| (r.key() as f64) < u32::MAX as f64 / 8.0)
            .count();
        let second_lo = recs[5_000..]
            .iter()
            .filter(|r| (r.key() as f64) < u32::MAX as f64 / 8.0)
            .count();
        assert!(first_lo < 1_000, "first half should be uniform: {first_lo}");
        assert!(second_lo > 2_750, "second half should be skewed: {second_lo}");
    }

    #[test]
    fn tags_are_a_permutation_of_indices() {
        let recs = generate_rec128(1_000, KeyDist::Uniform, 5);
        let mut tags: Vec<u64> = recs.iter().map(|r| r.tag()).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..1_000).collect::<Vec<u64>>());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate_rec8(100, KeyDist::Uniform, 3);
        let b = generate_rec8(100, KeyDist::Uniform, 3);
        let c = generate_rec8(100, KeyDist::Uniform, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}

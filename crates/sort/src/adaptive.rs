//! Adaptive configuration: "DSM-Sort can adaptively reconfigure to match
//! varying parameters of the active storage systems" (Section 4.3).
//!
//! The adaptive series of Figure 9 is produced by letting the planner's
//! cluster model ([`planner_shape`]) pick α at each cluster size with
//! its closed-form pipeline rates
//! ([`ClusterShape::pick_alpha`](lmas_plan::ClusterShape::pick_alpha));
//! the merge split (γ₁, γ₂) follows from the ASU buffer bound
//! ([`ClusterShape::pick_gamma_split_bounded`](lmas_plan::ClusterShape::pick_gamma_split_bounded)).

use crate::config::DsmConfig;
use crate::planner::planner_shape;
use lmas_core::Record;
use lmas_emulator::ClusterConfig;

/// The α values the paper sweeps in Figure 9.
pub const ALPHA_CANDIDATES: [u64; 5] = [1, 4, 16, 64, 256];

/// Pick a full configuration for sorting `n` records of type `R` on
/// `cluster`, given the host-memory-bound run length β and the ASU
/// buffer bound on γ₁.
pub fn adaptive_config<R: Record>(
    cluster: &ClusterConfig,
    n: u64,
    beta: usize,
    max_gamma1: u64,
) -> DsmConfig {
    let shape = planner_shape(cluster);
    let alpha = shape.pick_alpha(&ALPHA_CANDIDATES, beta as u64, R::SIZE) as usize;
    let gamma = n.div_ceil(alpha as u64 * beta as u64).max(1);
    let (g1, g2) = shape.pick_gamma_split_bounded(gamma, max_gamma1, R::SIZE);
    // The host merge sees at most ceil(runs_b / γ₁) runs per subset, but
    // striping across D ASUs adds per-ASU ceiling slack; pad γ₂ by D.
    let g2 = g2 + cluster.asus as u64;
    DsmConfig::new(alpha, beta, g1 as usize, g2 as usize)
}

/// The α the adaptive series picks at each cluster size (for Figure 9's
/// "adaptive" line).
pub fn adaptive_alpha<R: Record>(cluster: &ClusterConfig, beta: usize) -> u64 {
    planner_shape(cluster).pick_alpha(&ALPHA_CANDIDATES, beta as u64, R::SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmas_core::Rec128;

    #[test]
    fn adaptive_alpha_grows_with_asus() {
        let beta = 1 << 13;
        let small = adaptive_alpha::<Rec128>(&ClusterConfig::era_2002(1, 2, 8.0), beta);
        let large = adaptive_alpha::<Rec128>(&ClusterConfig::era_2002(1, 64, 8.0), beta);
        assert!(large >= small, "α should not shrink with more ASUs");
        assert_eq!(large, 256, "plentiful ASUs absorb the biggest α");
    }

    #[test]
    fn adaptive_config_is_valid_for_n() {
        let cluster = ClusterConfig::era_2002(1, 16, 8.0);
        let n = 1u64 << 20;
        let cfg = adaptive_config::<Rec128>(&cluster, n, 1 << 13, 16);
        cfg.validate_for(n).expect("adaptive config must be valid");
        assert!(cfg.gamma1 <= 16, "ASU buffer bound respected");
    }

    #[test]
    fn adaptive_config_covers_tiny_inputs() {
        let cluster = ClusterConfig::era_2002(1, 2, 4.0);
        let cfg = adaptive_config::<Rec128>(&cluster, 100, 1 << 13, 8);
        cfg.validate_for(100).expect("tiny inputs are fine");
    }
}

//! Statistic extraction and the paper's KL-divergence error metric.

use crate::workload::{decode_state, NUM_LANGS};

/// Per-language view-share distribution from reducer states.
pub fn lang_distribution(states: &[&[u8]]) -> [f64; NUM_LANGS] {
    let mut views = [0u64; NUM_LANGS];
    for s in states {
        for ((lang, _page), v) in decode_state(s) {
            views[lang as usize] += v;
        }
    }
    let total: u64 = views.iter().sum();
    let mut dist = [0f64; NUM_LANGS];
    if total > 0 {
        for (d, v) in dist.iter_mut().zip(views) {
            *d = v as f64 / total as f64;
        }
    }
    dist
}

/// `D_KL(p ‖ p̂) = Σ p log(p / p̂)` — the paper's partial-result error
/// (footnote 4). Zero-probability estimate cells are smoothed so early
/// rounds with missing languages produce finite error.
pub fn kl_divergence(p: &[f64], p_hat: &[f64]) -> f64 {
    assert_eq!(p.len(), p_hat.len());
    const EPS: f64 = 1e-9;
    p.iter()
        .zip(p_hat)
        .filter(|(&pi, _)| pi > 0.0)
        .map(|(&pi, &qi)| pi * (pi / qi.max(EPS)).ln())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kl_of_identical_distributions_is_zero() {
        let p = [0.5, 0.25, 0.25];
        assert!(kl_divergence(&p, &p).abs() < 1e-12);
    }

    #[test]
    fn kl_grows_with_divergence() {
        let p = [0.5, 0.5];
        let near = [0.45, 0.55];
        let far = [0.1, 0.9];
        assert!(kl_divergence(&p, &near) < kl_divergence(&p, &far));
    }

    #[test]
    fn kl_handles_zero_estimates() {
        let p = [0.5, 0.5];
        let q = [1.0, 0.0];
        let d = kl_divergence(&p, &q);
        assert!(d.is_finite() && d > 1.0);
    }

    #[test]
    fn lang_distribution_normalises() {
        // One state: lang 0 page 1 -> 30 views, lang 1 page 2 -> 10.
        let mut s = Vec::new();
        s.push(0u8);
        s.extend_from_slice(&1u32.to_le_bytes());
        s.extend_from_slice(&30u64.to_le_bytes());
        s.push(1u8);
        s.extend_from_slice(&2u32.to_le_bytes());
        s.extend_from_slice(&10u64.to_le_bytes());
        let d = lang_distribution(&[&s]);
        assert!((d[0] - 0.75).abs() < 1e-12);
        assert!((d[1] - 0.25).abs() < 1e-12);
    }
}

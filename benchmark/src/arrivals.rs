//! The multitenant workload's open-loop arrival plan, derived from the
//! benchmark seed alone: exponential inter-arrival gaps and
//! bounded-Pareto job sizes, with kinds rotating sort/agg/ml, tenants on
//! a coprime stride and every 7th job in the priority lane.
//!
//! Gaps and sizes are stratified: each job draws from its own equal-mass
//! slice of the distribution (sizes per kind), and the seed permutes
//! which job gets which slice and where inside the slice it lands. Every
//! seed thus sees the same spread of sizes and gaps, and the per-job JCT
//! quantiles the benchmark reports depend on the seed far less than with
//! independent draws, while a different seed still gives a different
//! plan. The 2 s mean gap keeps the cluster short of saturation: near it,
//! queueing makes JCT quantiles swing with the seed.

use exo_sim::SplitMix64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Sort,
    Agg,
    Ml,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Sort => "sort",
            Kind::Agg => "agg",
            Kind::Ml => "ml",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Position in the stream; also the id the benchmark's spans carry.
    pub index: u64,
    pub kind: Kind,
    pub tenant: u32,
    pub priority: bool,
    /// Virtual time at which the job is due to be submitted, µs.
    pub due_us: u64,
    /// Logical dataset bytes.
    pub data_bytes: u64,
    /// Seed of the job's own input data.
    pub seed: u64,
}

pub const JOBS: usize = 96;
const MEAN_GAP_US: f64 = 2_000_000.0;
const MIN_BYTES: f64 = 1e9;
const MAX_BYTES: f64 = 6e9;
const ALPHA: f64 = 1.3;

/// Inverse CDF of the bounded Pareto distribution on `[MIN_BYTES, MAX_BYTES]`.
fn bounded_pareto(u: f64) -> f64 {
    let tail = (MIN_BYTES / MAX_BYTES).powf(ALPHA);
    MIN_BYTES / (1.0 - u * (1.0 - tail)).powf(1.0 / ALPHA)
}

/// `n` stratified uniforms: one inside each slice `[k/n, (k+1)/n)`, in a
/// seed-dependent order.
fn stratified(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
    let mut u: Vec<f64> = (0..n)
        .map(|k| (k as f64 + rng.next_f64()) / n as f64)
        .collect();
    rng.shuffle(&mut u);
    u
}

pub fn plan(seed: u64) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed);
    let gaps = stratified(&mut rng, JOBS - 2);
    // Sizes are stratified per kind, so each kind sees the same spread.
    let sizes: Vec<Vec<f64>> = (0..3).map(|_| stratified(&mut rng, JOBS / 3)).collect();
    let mut due_us = 0u64;
    (0..JOBS)
        .map(|k| {
            // Jobs 0 and 1 are both due at t = 0. The runtime keeps a lone
            // job on its single-job path, which does not enforce tenant
            // quotas, until a second job overlaps it: a stream whose first
            // job finished before the second arrived would run the second
            // unconstrained and fail on an isolation violation.
            if k >= 2 {
                // `u` is in [0,1), so `1 - u` is in (0,1] and the log is finite.
                due_us += (-(1.0 - gaps[k - 2]).ln() * MEAN_GAP_US) as u64;
            }
            Arrival {
                index: k as u64,
                kind: [Kind::Sort, Kind::Agg, Kind::Ml][k % 3],
                tenant: ((k * 2) % 3) as u32,
                priority: k % 7 == 6,
                due_us,
                data_bytes: bounded_pareto(sizes[k % 3][k / 3]) as u64,
                seed: rng.next_u64(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_different_seed_different_plan() {
        assert_eq!(plan(2026), plan(2026));
        let (a, b) = (plan(2026), plan(7));
        assert_ne!(a, b);
        assert!(a.iter().zip(&b).any(|(x, y)| x.due_us != y.due_us));
        assert!(a.iter().zip(&b).any(|(x, y)| x.data_bytes != y.data_bytes));
    }

    #[test]
    fn plan_follows_its_distributions() {
        let p = plan(2026);
        assert_eq!(p.len(), JOBS);
        assert!(p.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        assert_eq!((p[0].due_us, p[1].due_us), (0, 0));
        let mean_gap = p[JOBS - 1].due_us as f64 / (JOBS - 2) as f64;
        assert!((0.8..1.2).contains(&(mean_gap / MEAN_GAP_US)), "{mean_gap}");
        for a in &p {
            assert!((MIN_BYTES as u64..=MAX_BYTES as u64).contains(&a.data_bytes));
        }
        for t in 0..3 {
            assert_eq!(p.iter().filter(|a| a.tenant == t).count(), JOBS / 3);
        }
        assert_eq!(p.iter().filter(|a| a.kind == Kind::Sort).count(), JOBS / 3);
        assert_eq!(p.iter().filter(|a| a.priority).count(), JOBS / 7);
    }

    #[test]
    fn bounded_pareto_spans_its_support() {
        assert_eq!(bounded_pareto(0.0), MIN_BYTES);
        assert!((bounded_pareto(1.0) - MAX_BYTES).abs() < 1.0);
        assert!(bounded_pareto(0.5) < (MIN_BYTES + MAX_BYTES) / 2.0);
    }
}

//! CloudSort-style cost accounting (§5.1.1 cites the Sort Benchmark's
//! CloudSort/TCO variant; the Exoshuffle line of work set the 2022
//! CloudSort record with this architecture).
//!
//! Cost = nodes × on-demand hourly price × job time. Prices are 2022-era
//! us-west-2 on-demand figures for the instance types the paper uses,
//! documented here rather than fetched, since the reproduction only needs
//! relative comparisons.

use exo_sim::SimDuration;

/// On-demand hourly price (USD) for the paper's instance types.
#[derive(Clone, Copy, Debug)]
pub struct InstancePrice {
    /// AWS instance type name.
    pub name: &'static str,
    /// USD per instance-hour (on demand, us-west-2, 2022-era).
    pub usd_per_hour: f64,
}

/// `d3.2xlarge` (HDD-dense storage node).
pub const D3_2XLARGE: InstancePrice = InstancePrice {
    name: "d3.2xlarge",
    usd_per_hour: 0.999,
};

/// Total cluster cost of a run.
pub fn run_cost_usd(price: InstancePrice, nodes: usize, jct: SimDuration) -> f64 {
    price.usd_per_hour * nodes as f64 * jct.as_secs_f64() / 3600.0
}

/// CloudSort's headline metric: dollars per terabyte sorted.
pub fn usd_per_tb(price: InstancePrice, nodes: usize, jct: SimDuration, data_bytes: u64) -> f64 {
    run_cost_usd(price, nodes, jct) / (data_bytes as f64 / 1e12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_scales_linearly_in_nodes_and_time() {
        let t = SimDuration::from_secs(3600);
        let one = run_cost_usd(D3_2XLARGE, 1, t);
        assert!((one - 0.999).abs() < 1e-9);
        assert!((run_cost_usd(D3_2XLARGE, 100, t) - 99.9).abs() < 1e-6);
        assert!((run_cost_usd(D3_2XLARGE, 1, SimDuration::from_secs(7200)) - 1.998).abs() < 1e-9);
    }

    #[test]
    fn usd_per_tb_normalises_by_data() {
        let t = SimDuration::from_secs(3600);
        // 100 nodes, 1 h, 100 TB => $99.9 / 100 TB.
        let v = usd_per_tb(D3_2XLARGE, 100, t, 100_000_000_000_000);
        assert!((v - 0.999).abs() < 1e-6);
    }

    #[test]
    fn a_faster_sort_is_cheaper() {
        let d = 100_000_000_000_000u64;
        let slow = usd_per_tb(D3_2XLARGE, 100, SimDuration::from_secs(10_000), d);
        let fast = usd_per_tb(D3_2XLARGE, 100, SimDuration::from_secs(5_000), d);
        assert!((slow / fast - 2.0).abs() < 1e-9);
    }
}

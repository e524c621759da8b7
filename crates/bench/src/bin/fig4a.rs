//! Figure 4a: 1 TB sort on 10 HDD nodes — job completion time vs number
//! of partitions, Exoshuffle variants vs the Spark baseline and the
//! theoretical bound `T = 4D/B`.
//!
//! Expected shape (paper): ES-simple matches Spark at few partitions and
//! degrades as partitions grow (quadratic block count × HDD random IOPS);
//! ES-merge pays extra writes at few partitions and catches up later;
//! ES-push/push* stay near the theoretical bound throughout.

use exo_bench::figure::{partition_sweep, run};
use exo_sim::NodeSpec;

fn main() {
    run("fig4a", |scale| {
        let node = NodeSpec::d3_2xlarge();
        partition_sweep(scale, "Figure 4a", node, "d3_2xlarge", "d3.2xlarge (HDD)")
    });
}

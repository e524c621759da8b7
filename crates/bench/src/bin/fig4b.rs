//! Figure 4b: 1 TB sort on 10 SSD (i3.2xlarge) nodes — JCT vs number of
//! partitions.
//!
//! Expected shape (paper): all Exoshuffle variants beat Spark; because
//! NVMe random IOPS are plentiful, the I/O-efficiency gap between simple
//! and push-based variants is much smaller than on HDDs, and the optimised
//! variants run close to the theoretical baseline.

use exo_bench::figure::{partition_sweep, run};
use exo_sim::NodeSpec;

fn main() {
    run("fig4b", |scale| {
        let node = NodeSpec::i3_2xlarge();
        partition_sweep(
            scale,
            "Figure 4b",
            node,
            "i3_2xlarge",
            "i3.2xlarge (NVMe SSD)",
        )
    });
}

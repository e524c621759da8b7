//! A Spark-like BSP sort engine (the §5.1 baseline).
//!
//! Native Spark sort-shuffle: a map stage that writes sorted, partitioned
//! shuffle files to local disk (served later by the external shuffle
//! service), a barrier, then a reduce stage in which every reducer issues
//! one *random* block read per map task plus a network transfer — the
//! `M × R` small-I/O pattern whose collapse on HDDs motivates all the
//! merge-based designs.
//!
//! `Spark-push` (Magnet, §5.1.4) adds a push-merge phase: map outputs are
//! additionally read back, pushed to the reducer's node, and written into
//! per-partition merged files, which the reducers then read sequentially.
//! Note the write amplification: the *un-merged* map outputs are still
//! written (and that is exactly what ES-push* avoids by dropping refs).

use exo_sim::{ClusterSpec, IoKind, SimDuration, SimTime};

use crate::stage::{Op, StageSim};

/// Compression model: Spark runs the 100 TB benchmark with compression on
/// (it is unstable without it, §5.1.4).
#[derive(Clone, Copy, Debug)]
pub struct Compression {
    /// Compressed size / raw size (the paper reports ~40% reduction: 0.6).
    pub ratio: f64,
    /// Compression + decompression CPU cost, ns per raw byte.
    pub cpu_ns_per_byte: f64,
}

/// Spark engine configuration.
#[derive(Clone, Debug)]
pub struct SparkConfig {
    /// Cluster hardware (same models as the Exoshuffle runs).
    pub cluster: ClusterSpec,
    /// Enable the Magnet-style push-based shuffle service.
    pub push_based: bool,
    /// Optional shuffle-file compression.
    pub compression: Option<Compression>,
    /// Sort/merge CPU throughput per core, bytes/sec (match the
    /// Exoshuffle workload's cost model for fairness).
    pub sort_throughput: f64,
}

impl SparkConfig {
    /// Native Spark shuffle on a cluster, no compression.
    pub fn native(cluster: ClusterSpec) -> SparkConfig {
        SparkConfig {
            cluster,
            push_based: false,
            compression: None,
            sort_throughput: 300.0 * 1e6,
        }
    }

    /// Spark with the push-based shuffle service.
    pub fn push(cluster: ClusterSpec) -> SparkConfig {
        SparkConfig {
            push_based: true,
            ..SparkConfig::native(cluster)
        }
    }

    /// Enable compression (the 100 TB setting).
    pub fn with_compression(mut self) -> SparkConfig {
        self.compression = Some(Compression {
            ratio: 0.6,
            cpu_ns_per_byte: 1.2,
        });
        self
    }
}

/// Result of a Spark sort run.
#[derive(Clone, Copy, Debug)]
pub struct SparkReport {
    /// Job completion time.
    pub jct: SimDuration,
    /// Total disk bytes read.
    pub disk_read: u64,
    /// Total disk bytes written.
    pub disk_write: u64,
    /// Total network bytes.
    pub net_bytes: u64,
}

/// Run the Spark sort model: `data_bytes` over `num_maps × num_reduces`.
pub fn spark_sort(
    cfg: &SparkConfig,
    data_bytes: u64,
    num_maps: usize,
    num_reduces: usize,
) -> SparkReport {
    let mut sim = StageSim::new(&cfg.cluster);
    let nodes = cfg.cluster.num_nodes();
    let part = data_bytes / num_maps as u64;
    let (ratio, comp_cpu) = match cfg.compression {
        Some(c) => (c.ratio, c.cpu_ns_per_byte),
        None => (1.0, 0.0),
    };
    let part_c = (part as f64 * ratio) as u64;
    let out_part = data_bytes / num_reduces as u64;
    // Shuffle block: one (map, reduce) cell, compressed.
    let block_c = (part_c as f64 / num_reduces as f64) as u64;

    let cpu_sort = |bytes: u64| SimDuration::from_secs_f64(bytes as f64 / cfg.sort_throughput);
    let cpu_comp = |bytes: u64| SimDuration::from_secs_f64(bytes as f64 * comp_cpu / 1e9);

    // ---- Map stage: read input, sort, compress, write shuffle file.
    let map_tasks: Vec<(Vec<Op>, Vec<bool>)> = (0..num_maps)
        .map(|_| {
            (
                vec![
                    Op::Disk {
                        node: None,
                        bytes: part,
                        kind: IoKind::Sequential,
                    },
                    Op::Cpu(cpu_sort(part) + cpu_comp(part)),
                    Op::Disk {
                        node: None,
                        bytes: part_c,
                        kind: IoKind::Sequential,
                    },
                ],
                vec![true, false],
            )
        })
        .collect();
    let t_map = sim.run_stage(SimTime::ZERO, &map_tasks);

    // ---- Optional push-merge phase (Magnet): read back map outputs,
    // push across the network, write merged per-partition files at each
    // partition's home node.
    let t_shuffle_ready = if cfg.push_based {
        // Model as one push task per map: read its shuffle file
        // sequentially, send each partition's slice to the partition home,
        // which appends into the merged file (sequential write there).
        let push_tasks: Vec<(Vec<Op>, Vec<bool>)> = (0..num_maps)
            .map(|m| {
                let src = m % nodes;
                let mut chain = vec![Op::Disk {
                    node: Some(src),
                    bytes: part_c,
                    kind: IoKind::Sequential,
                }];
                let mut reads = vec![true];
                // Aggregate pushes per destination node.
                let per_dest = part_c / nodes as u64;
                for dest in 0..nodes {
                    if dest != src {
                        chain.push(Op::NetFrom {
                            src,
                            bytes: per_dest,
                        });
                    }
                    chain.push(Op::Disk {
                        node: Some(dest),
                        bytes: per_dest,
                        kind: IoKind::Sequential,
                    });
                    reads.push(false);
                }
                (chain, reads)
            })
            .collect();
        // Push overlaps the tail of the map stage in Magnet; approximate
        // by starting it at 80% of the map stage.
        let overlap_start = SimTime((t_map.as_micros() as f64 * 0.8) as u64);
        sim.run_stage(overlap_start, &push_tasks)
    } else {
        t_map
    };

    // ---- Reduce stage.
    let reduce_tasks: Vec<(Vec<Op>, Vec<bool>)> = (0..num_reduces)
        .map(|r| {
            let mut chain = Vec::new();
            let mut reads = Vec::new();
            if cfg.push_based {
                // One sequential read of the merged file, local to the
                // partition's home node (task r runs on node r % nodes,
                // which is where its merged file was written).
                chain.push(Op::Disk {
                    node: None,
                    bytes: part_c * num_maps as u64 / num_reduces as u64,
                    kind: IoKind::Sequential,
                });
                reads.push(true);
            } else {
                // Native: M random block reads from the map nodes + network.
                for m in 0..num_maps {
                    let src = m % nodes;
                    chain.push(Op::Disk {
                        node: Some(src),
                        bytes: block_c,
                        kind: IoKind::Random,
                    });
                    reads.push(true);
                    chain.push(Op::NetFrom {
                        src,
                        bytes: block_c,
                    });
                }
            }
            let _ = r;
            chain.push(Op::Cpu(cpu_sort(out_part) + cpu_comp(out_part)));
            chain.push(Op::Disk {
                node: None,
                bytes: out_part,
                kind: IoKind::Sequential,
            });
            reads.push(false);
            (chain, reads)
        })
        .collect();
    let t_end = sim.run_stage(t_shuffle_ready, &reduce_tasks);

    SparkReport {
        jct: t_end - SimTime::ZERO,
        disk_read: sim.disk_read,
        disk_write: sim.disk_write,
        net_bytes: sim.net_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_sim::NodeSpec;

    fn hdd10() -> ClusterSpec {
        ClusterSpec::homogeneous(NodeSpec::d3_2xlarge(), 10)
    }

    #[test]
    fn more_partitions_hurt_native_spark_on_hdd() {
        // 150 GB on 10 HDD nodes: going from 300×300 (1.7 MB blocks,
        // nearly sequential) to 1200×1200 (104 KB blocks, seek-bound)
        // explodes random reads and should slow the job substantially.
        let d = 150_000_000_000;
        let coarse = spark_sort(&SparkConfig::native(hdd10()), d, 300, 300);
        let fine = spark_sort(&SparkConfig::native(hdd10()), d, 1200, 1200);
        assert!(
            fine.jct.as_secs_f64() > 1.4 * coarse.jct.as_secs_f64(),
            "coarse {} vs fine {}",
            coarse.jct,
            fine.jct
        );
    }

    #[test]
    fn push_based_beats_native_at_high_partition_counts() {
        let d = 150_000_000_000;
        let native = spark_sort(&SparkConfig::native(hdd10()), d, 1200, 1200);
        let push = spark_sort(&SparkConfig::push(hdd10()), d, 1200, 1200);
        assert!(
            push.jct < native.jct,
            "push {} should beat native {}",
            push.jct,
            native.jct
        );
    }

    #[test]
    fn compression_reduces_bytes_but_costs_cpu() {
        let d = 100_000_000_000;
        let plain = spark_sort(&SparkConfig::native(hdd10()), d, 500, 500);
        let compressed = spark_sort(
            &SparkConfig::native(hdd10()).with_compression(),
            d,
            500,
            500,
        );
        assert!(compressed.disk_write < plain.disk_write);
        assert!(compressed.net_bytes < plain.net_bytes);
    }

    #[test]
    fn push_writes_more_than_native_map_stage_alone() {
        // Magnet's merged files are written on top of the un-merged map
        // outputs: write amplification.
        let d = 100_000_000_000;
        let native = spark_sort(&SparkConfig::native(hdd10()), d, 500, 500);
        let push = spark_sort(&SparkConfig::push(hdd10()), d, 500, 500);
        assert!(push.disk_write > native.disk_write);
    }

    #[test]
    fn jct_is_at_least_the_theoretical_bound_scale() {
        let d = 150_000_000_000u64;
        let theory = hdd10().theoretical_sort_time(d);
        let native = spark_sort(&SparkConfig::native(hdd10()), d, 500, 500);
        assert!(
            native.jct.as_secs_f64() > theory.as_secs_f64() * 0.8,
            "spark {} cannot beat theory {}",
            native.jct,
            theory
        );
    }
}

//! Device and node models, with presets for the instance types the paper
//! evaluates on (§5.1.1, §5.2, §5.3).
//!
//! All figures are taken from the paper's own setup description where given,
//! and from public AWS documentation otherwise. They parameterise the
//! [`crate::Resource`] queueing models; the reproduction cares about the
//! *relative* shapes these produce, not absolute seconds.

use crate::resource::Resource;
use crate::time::SimDuration;

/// Disk subsystem of a node: an array of identical devices.
#[derive(Clone, Copy, Debug)]
pub struct DiskSpec {
    /// Number of devices (HDD spindles or NVMe channels) served in parallel.
    pub devices: usize,
    /// Aggregate sequential bandwidth across devices, bytes/second.
    pub seq_bw: f64,
    /// Average random access (seek) latency per device.
    pub seek: SimDuration,
    /// Fixed per-operation overhead (request setup, FS dispatch).
    pub per_op: SimDuration,
}

impl DiskSpec {
    /// Effective random IOPS limit implied by the seek model.
    pub fn random_iops(&self) -> f64 {
        if self.seek == SimDuration::ZERO {
            f64::INFINITY
        } else {
            self.devices as f64 / self.seek.as_secs_f64()
        }
    }

    /// Instantiate the queueing resource for one node's disk array.
    pub fn build(&self, label: impl Into<String>) -> Resource {
        Resource::new(label, self.devices, self.seq_bw, self.seek, self.per_op)
    }
}

/// Network interface of a node. Modelled as two independent directions
/// (full duplex), each a single FIFO server at `bw` bytes/second.
#[derive(Clone, Copy, Debug)]
pub struct NicSpec {
    /// Per-direction bandwidth, bytes/second.
    pub bw: f64,
    /// One-way propagation + stack latency per transfer.
    pub latency: SimDuration,
}

impl NicSpec {
    /// Instantiate one direction of the NIC as a queueing resource.
    pub fn build(&self, label: impl Into<String>) -> Resource {
        Resource::new(label, 1, self.bw, SimDuration::ZERO, self.latency)
    }
}

/// Full description of a worker node.
#[derive(Clone, Copy, Debug)]
pub struct NodeSpec {
    /// CPU cores (= concurrent task slots in the default store mode).
    pub cpus: usize,
    /// Object-store capacity in bytes. Ray defaults to ~30% of node RAM; we
    /// expose it directly so experiments can shrink it (Fig 7 uses 1 GB).
    pub object_store_bytes: u64,
    /// Executor heap memory in bytes (used for OOM modelling in
    /// executor-heap store modes).
    pub heap_bytes: u64,
    /// Disk array.
    pub disk: DiskSpec,
    /// NIC.
    pub nic: NicSpec,
}

const MIB: f64 = 1024.0 * 1024.0;
const GIB: u64 = 1024 * 1024 * 1024;

impl NodeSpec {
    /// `d3.2xlarge` — the paper's HDD node: 8 cores, 64 GiB RAM, 6×HDD with
    /// 1100 MiB/s aggregate sequential throughput, ~6 Gbps network.
    pub fn d3_2xlarge() -> NodeSpec {
        NodeSpec {
            cpus: 8,
            object_store_bytes: 20 * GIB,
            heap_bytes: 40 * GIB,
            disk: DiskSpec {
                devices: 6,
                seq_bw: 1100.0 * MIB,
                // ~4 ms average seek per spindle => ~1.5 K random IOPS/node.
                seek: SimDuration::from_micros(4000),
                per_op: SimDuration::from_micros(100),
            },
            nic: NicSpec {
                bw: 6.0e9 / 8.0, // 6 Gbps sustained
                latency: SimDuration::from_micros(200),
            },
        }
    }

    /// `i3.2xlarge` — the paper's SSD node: 8 cores, 61 GiB RAM, NVMe with
    /// 720 MB/s throughput and 180 K write IOPS, 2.5 Gbps network.
    pub fn i3_2xlarge() -> NodeSpec {
        NodeSpec {
            cpus: 8,
            object_store_bytes: 18 * GIB,
            heap_bytes: 38 * GIB,
            disk: DiskSpec {
                devices: 8, // NVMe queue parallelism
                seq_bw: 720.0 * 1e6,
                // 180 K IOPS across 8 channels => ~44 µs access time.
                seek: SimDuration::from_micros(44),
                per_op: SimDuration::from_micros(20),
            },
            nic: NicSpec {
                bw: 2.5e9 / 8.0, // 2.5 Gbps sustained
                latency: SimDuration::from_micros(200),
            },
        }
    }

    /// `r6i.2xlarge` — memory-optimised node used for the online
    /// aggregation experiment (§5.2.1): 8 cores, 64 GiB RAM, EBS-backed.
    pub fn r6i_2xlarge() -> NodeSpec {
        NodeSpec {
            cpus: 8,
            object_store_bytes: 20 * GIB,
            heap_bytes: 40 * GIB,
            disk: DiskSpec {
                devices: 1,
                seq_bw: 500.0 * MIB,
                seek: SimDuration::from_micros(500),
                per_op: SimDuration::from_micros(50),
            },
            nic: NicSpec {
                bw: 12.5e9 / 8.0,
                latency: SimDuration::from_micros(150),
            },
        }
    }

    /// `g4dn.4xlarge` — single-GPU trainer node for the single-node ML
    /// experiment (§5.2.2): 16 vCPUs, 64 GiB RAM, local NVMe.
    pub fn g4dn_4xlarge() -> NodeSpec {
        NodeSpec {
            cpus: 16,
            object_store_bytes: 20 * GIB,
            heap_bytes: 40 * GIB,
            disk: DiskSpec {
                devices: 4,
                seq_bw: 450.0 * 1e6,
                seek: SimDuration::from_micros(60),
                per_op: SimDuration::from_micros(20),
            },
            nic: NicSpec {
                bw: 20.0e9 / 8.0,
                latency: SimDuration::from_micros(150),
            },
        }
    }

    /// `g4dn.xlarge` — the smaller 4-node distributed-training node
    /// (§5.2.2): 4 vCPUs, 16 GiB RAM.
    pub fn g4dn_xlarge() -> NodeSpec {
        NodeSpec {
            cpus: 4,
            object_store_bytes: 5 * GIB,
            heap_bytes: 10 * GIB,
            disk: DiskSpec {
                devices: 2,
                seq_bw: 225.0 * 1e6,
                seek: SimDuration::from_micros(60),
                per_op: SimDuration::from_micros(20),
            },
            nic: NicSpec {
                bw: 5.0e9 / 8.0,
                latency: SimDuration::from_micros(150),
            },
        }
    }

    /// A single-node, 32-vCPU, 244 GB machine matching the Dask-vs-Ray
    /// comparison setup (§5.3.1).
    pub fn dask_comparison_node() -> NodeSpec {
        NodeSpec {
            cpus: 32,
            object_store_bytes: 73 * GIB, // ~30% of 244 GB
            heap_bytes: 171 * GIB,
            disk: DiskSpec {
                devices: 2,
                seq_bw: 400.0 * MIB,
                seek: SimDuration::from_micros(100),
                per_op: SimDuration::from_micros(30),
            },
            nic: NicSpec {
                bw: 10.0e9 / 8.0,
                latency: SimDuration::from_micros(150),
            },
        }
    }

    /// An `sc1`-style cold HDD volume on a small node — the slow disk used
    /// by the spilling microbenchmark (§5.3.2, Fig 7).
    pub fn sc1_microbench_node() -> NodeSpec {
        NodeSpec {
            cpus: 8,
            object_store_bytes: GIB, // the experiment's 1 GB store
            heap_bytes: 16 * GIB,
            disk: DiskSpec {
                devices: 1,
                seq_bw: 90.0 * MIB, // sc1 baseline throughput
                seek: SimDuration::from_millis(12),
                per_op: SimDuration::from_micros(100),
            },
            nic: NicSpec {
                bw: 10.0e9 / 8.0,
                latency: SimDuration::from_micros(150),
            },
        }
    }
}

/// A cluster: an ordered list of per-node hardware descriptions. Node `i`
/// in the runtime maps to `spec.node(i)`. Most experiments build the
/// homogeneous case via [`ClusterSpec::homogeneous`]; the mixed-hardware
/// experiments (HDD+SSD sort, GPU-trainer + CPU-feeder loading) use
/// [`ClusterSpec::heterogeneous`] or the presets below.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    nodes: Vec<NodeSpec>,
}

impl ClusterSpec {
    /// Build a cluster of `nodes` copies of `node`.
    pub fn homogeneous(node: NodeSpec, nodes: usize) -> Self {
        assert!(nodes >= 1, "cluster needs at least one node");
        ClusterSpec {
            nodes: vec![node; nodes],
        }
    }

    /// Build a cluster from an explicit per-node list.
    // audit:allow(U01): the heterogeneous-scheduler and placement-policy
    // property tests draw arbitrary per-node clusters through it.
    pub fn heterogeneous(nodes: Vec<NodeSpec>) -> Self {
        assert!(!nodes.is_empty(), "cluster needs at least one node");
        ClusterSpec { nodes }
    }

    /// Mixed sort cluster: `d3` HDD nodes (`d3.2xlarge`) followed by `i3`
    /// NVMe nodes (`i3.2xlarge`) — the two disk tiers the paper's sort
    /// evaluation covers, combined into one cluster.
    pub fn mixed_hdd_ssd(d3: usize, i3: usize) -> Self {
        assert!(d3 + i3 >= 1, "cluster needs at least one node");
        let mut nodes = vec![NodeSpec::d3_2xlarge(); d3];
        nodes.extend(vec![NodeSpec::i3_2xlarge(); i3]);
        ClusterSpec { nodes }
    }

    /// ML data-loader cluster (§5.3, Fig 8 shape): one `g4dn.4xlarge` GPU
    /// trainer plus `feeders` memory-optimised `r6i.2xlarge` CPU nodes
    /// that shuffle and feed batches over the network.
    pub fn ml_loader(feeders: usize) -> Self {
        let mut nodes = vec![NodeSpec::g4dn_4xlarge()];
        nodes.extend(vec![NodeSpec::r6i_2xlarge(); feeders]);
        ClusterSpec { nodes }
    }

    /// Number of worker nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Hardware description of node `i`.
    pub fn node(&self, i: usize) -> &NodeSpec {
        &self.nodes[i]
    }

    /// Aggregate sequential disk bandwidth of the cluster, bytes/second.
    pub fn aggregate_disk_bw(&self) -> f64 {
        self.nodes.iter().map(|n| n.disk.seq_bw).sum()
    }

    /// The paper's theoretical external-sort lower bound `T = 4D / B`
    /// (§5.1.1): every byte is read twice and written twice against the
    /// aggregate disk bandwidth `B`.
    pub fn theoretical_sort_time(&self, data_bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(4.0 * data_bytes as f64 / self.aggregate_disk_bw())
    }
}

/// One node's device capacities in plain units, decoupled from the
/// queueing models — the capacity context an offline analyzer (exo-prof)
/// needs to turn raw resource samples and I/O events into "fraction of
/// what the hardware could do" without depending on the simulator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeCaps {
    /// Concurrent task slots on the node.
    pub cpu_slots: usize,
    /// Aggregate sequential disk bandwidth, bytes/second.
    pub disk_seq_bw: f64,
    /// Random-IOPS ceiling implied by the seek model.
    pub disk_random_iops: f64,
    /// Disk devices (spindles / NVMe channels).
    pub disk_devices: usize,
    /// Per-direction NIC bandwidth, bytes/second.
    pub nic_bw: f64,
    /// Object-store capacity, bytes.
    pub store_bytes: u64,
}

impl NodeSpec {
    /// Capacity card for this node, consumed by offline analysis.
    pub fn caps(&self) -> NodeCaps {
        NodeCaps {
            cpu_slots: self.cpus,
            disk_seq_bw: self.disk.seq_bw,
            disk_random_iops: self.disk.random_iops(),
            disk_devices: self.disk.devices,
            nic_bw: self.nic.bw,
            store_bytes: self.object_store_bytes,
        }
    }
}

/// Per-node capacity cards for a whole cluster, in node-id order.
/// Offline analysis classifies each node's samples against its own entry
/// and sums over `per_node` for cluster-wide views.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceCaps {
    /// One capacity card per node, indexed by node id.
    pub per_node: Vec<NodeCaps>,
}

impl DeviceCaps {
    /// Worker node count.
    pub fn nodes(&self) -> usize {
        self.per_node.len()
    }

    /// Capacity card of node `i`.
    pub fn node(&self, i: usize) -> &NodeCaps {
        &self.per_node[i]
    }
}

impl ClusterSpec {
    /// Capacity card for this cluster, consumed by offline analysis.
    pub fn device_caps(&self) -> DeviceCaps {
        DeviceCaps {
            per_node: self.nodes.iter().map(|n| n.caps()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hdd_preset_matches_paper_figures() {
        let n = NodeSpec::d3_2xlarge();
        assert_eq!(n.cpus, 8);
        // 1100 MiB/s aggregate sequential.
        assert!((n.disk.seq_bw - 1100.0 * MIB).abs() < 1.0);
        // Random IOPS should be seek-bound (~1.5K), far below what the
        // sequential bandwidth could serve for small blocks.
        assert!(n.disk.random_iops() < 2000.0);
    }

    #[test]
    fn ssd_has_vastly_more_iops_than_hdd() {
        let hdd = NodeSpec::d3_2xlarge();
        let ssd = NodeSpec::i3_2xlarge();
        assert!(ssd.disk.random_iops() > 50.0 * hdd.disk.random_iops());
    }

    #[test]
    fn theoretical_sort_time_is_4d_over_b() {
        let c = ClusterSpec::homogeneous(NodeSpec::d3_2xlarge(), 10);
        let d = 1_000_000_000_000u64; // 1 TB
        let t = c.theoretical_sort_time(d);
        let expect = 4.0 * d as f64 / (10.0 * 1100.0 * MIB);
        assert!((t.as_secs_f64() - expect).abs() < 0.01);
    }

    #[test]
    fn disk_spec_builds_resource_with_device_count() {
        let n = NodeSpec::i3_2xlarge();
        let r = n.disk.build("disk");
        assert_eq!(r.servers(), n.disk.devices);
    }

    #[test]
    fn device_caps_mirror_cluster_spec() {
        let c = ClusterSpec::homogeneous(NodeSpec::d3_2xlarge(), 4);
        let caps = c.device_caps();
        assert_eq!(caps.nodes(), 4);
        let node = c.node(0);
        for nc in &caps.per_node {
            assert_eq!(nc.cpu_slots, 8);
            assert_eq!(nc.disk_devices, 6);
            assert!((nc.disk_seq_bw - node.disk.seq_bw).abs() < 1.0);
            assert!((nc.nic_bw - node.nic.bw).abs() < 1.0);
            assert_eq!(nc.store_bytes, node.object_store_bytes);
            assert!((nc.disk_random_iops - node.disk.random_iops()).abs() < 1e-6);
        }
        let disk_bw: f64 = caps.per_node.iter().map(|n| n.disk_seq_bw).sum();
        assert!((disk_bw - c.aggregate_disk_bw()).abs() < 1.0);
    }

    #[test]
    fn heterogeneous_cluster_keeps_node_order_and_sums_bandwidth() {
        let c = ClusterSpec::mixed_hdd_ssd(2, 3);
        assert_eq!(c.num_nodes(), 5);
        // HDD nodes first, then SSD nodes.
        assert_eq!(c.node(0).disk.devices, 6);
        assert_eq!(c.node(1).disk.devices, 6);
        assert_eq!(c.node(2).disk.devices, 8);
        assert_eq!(c.node(4).disk.devices, 8);
        let expect =
            2.0 * NodeSpec::d3_2xlarge().disk.seq_bw + 3.0 * NodeSpec::i3_2xlarge().disk.seq_bw;
        assert!((c.aggregate_disk_bw() - expect).abs() < 1.0);
        let caps = c.device_caps();
        assert_eq!(caps.nodes(), 5);
        assert!(caps.node(0).disk_random_iops < caps.node(4).disk_random_iops);
    }

    #[test]
    fn ml_loader_cluster_puts_trainer_on_node_zero() {
        let c = ClusterSpec::ml_loader(3);
        assert_eq!(c.num_nodes(), 4);
        assert_eq!(c.node(0).cpus, 16); // g4dn.4xlarge trainer
        for i in 1..4 {
            assert_eq!(c.node(i).cpus, 8); // r6i.2xlarge feeders
        }
    }
}

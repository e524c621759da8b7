//! Pluggable task placement policies (§4.3.2).
//!
//! Ray provides "a two-level distributed scheduler that tries to balance
//! between bin-packing vs. load-balancing", plus data-locality scheduling
//! and the node-affinity API the paper adds for push-based shuffle. We
//! implement placement as a pure decision over a load/locality/capacity
//! snapshot so policies are unit-testable without the full runtime — and,
//! in the spirit of the paper's extensibility argument, the decision
//! itself is an application-pluggable [`PlacementPolicy`] rather than a
//! hard-coded function:
//!
//! - [`LoadBalance`] — locality first, then least load per CPU slot.
//!   Bit-identical to the historical scheduler on homogeneous clusters.
//! - [`BoundAware`] — scores candidates by matching the task's declared
//!   [`TaskShape`] against each node's [`NodeCaps`] *and* current device
//!   backlogs (estimated completion cost, charging argument fetches to
//!   the transmit NIC of each peer that holds them, as the runtime
//!   does), falling back to relative load on ties. Degenerates to
//!   [`LoadBalance`] when every alive node has identical capacities or
//!   the task declared no shape.
//! - [`Hybrid`] — bound-aware only when the nodes' dominant capabilities
//!   actually differ; fed by exo-prof's per-node bound profiles when a
//!   prior run is available.
//!
//! The `Spread` and `NodeAffinity` strategies are explicit application
//! requests and stay policy-independent; policies govern the `Default`
//! (locality/load) strategy only.
//!
//! Each decision also reports *why* the node was chosen
//! ([`PlaceReason`]), which policy chose it, and the winning score, so
//! task traces can explain locality hits vs. bound matches vs. spread
//! placements.

use std::sync::Arc;

use exo_live::Bound;
use exo_sim::NodeCaps;
use exo_trace::PlaceReason;

use crate::ids::NodeId;
use crate::task::{SchedulingStrategy, TaskShape};

/// Per-node snapshot used for placement decisions.
#[derive(Clone, Copy, Debug)]
pub struct NodeSnapshot {
    /// Node id.
    pub id: NodeId,
    /// Whether the node is alive.
    pub alive: bool,
    /// Tasks queued + running on the node.
    pub load: usize,
    /// CPU slot capacity of the node (task slots). Heterogeneous clusters
    /// have differing values; load comparisons are made *relative* to it.
    pub cpus: usize,
    /// CPU slots currently free on the node.
    pub slots_free: usize,
    /// Bytes of this task's arguments already resident on the node.
    pub local_arg_bytes: u64,
    /// Hardware capacities, for bound-aware shape matching.
    pub caps: NodeCaps,
    /// Queueing delay on the node's disk at decision time (µs): how far
    /// into the future its earliest-free spindle is booked.
    pub disk_backlog_us: u64,
    /// Queueing delay on the node's transmit NIC at decision time (µs).
    /// Transfers are charged at the *source* NIC, so a peer's transmit
    /// backlog delays every fetch of argument bytes it holds.
    pub nic_tx_backlog_us: u64,
}

impl NodeSnapshot {
    /// Compare two nodes' load per CPU slot without floating point:
    /// `a.load / a.cpus  <=>  b.load / b.cpus` via cross-multiplication.
    /// On equal-capacity nodes this reduces to comparing raw load, so
    /// homogeneous clusters keep the old placement order exactly.
    fn relative_load_cmp(&self, other: &NodeSnapshot) -> std::cmp::Ordering {
        let lhs = self.load as u128 * other.cpus.max(1) as u128;
        let rhs = other.load as u128 * self.cpus.max(1) as u128;
        lhs.cmp(&rhs)
    }
}

/// Outcome of a placement decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Placed {
    /// Chosen node.
    pub node: NodeId,
    /// Why it won.
    pub reason: PlaceReason,
    /// Policy-defined score of the winner (see [`exo_trace::Placement`]).
    pub score: f64,
}

/// A pluggable placement policy: decides the `Default`-strategy branch of
/// the scheduler's `place`. Implementations must be deterministic
/// functions of their inputs — the runtime replays byte-for-byte across
/// runs.
pub trait PlacementPolicy: std::fmt::Debug + Send + Sync {
    /// Short stable name recorded in placement trace events.
    fn name(&self) -> &'static str;

    /// Choose among `nodes` for a task with the given declared shape.
    /// `total_arg_bytes` is the byte sum of the task's object arguments
    /// (each node's non-local share is `total_arg_bytes -
    /// local_arg_bytes`). Returns `None` only if no node is alive.
    fn place_default(
        &self,
        shape: TaskShape,
        total_arg_bytes: u64,
        nodes: &[NodeSnapshot],
    ) -> Option<Placed>;
}

/// The historical policy: locality first (most local argument bytes),
/// ties and the no-args case to the node with the least load *per CPU
/// slot* (stable by id), so a 16-core node legitimately takes twice the
/// queue of an 8-core one before losing a tie.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadBalance;

impl PlacementPolicy for LoadBalance {
    fn name(&self) -> &'static str {
        "load_balance"
    }

    fn place_default(
        &self,
        _shape: TaskShape,
        _total_arg_bytes: u64,
        nodes: &[NodeSnapshot],
    ) -> Option<Placed> {
        let best = nodes.iter().filter(|n| n.alive).max_by(|a, b| {
            a.local_arg_bytes
                .cmp(&b.local_arg_bytes)
                .then(b.relative_load_cmp(a))
                .then(b.id.cmp(&a.id))
        })?;
        let reason = if best.local_arg_bytes > 0 {
            PlaceReason::LocalityHit
        } else {
            PlaceReason::LeastLoaded
        };
        Some(Placed {
            node: best.id,
            reason,
            score: best.load as f64 / best.cpus.max(1) as f64,
        })
    }
}

/// Estimated completion cost of running `shape` on `node`, in
/// microseconds. Three terms, each mirroring how the runtime actually
/// charges devices:
///
/// - **CPU + local disk.** The declared shape over this node's
///   capacities, behind its current disk backlog, with the shape-served
///   part inflated by relative load (queued tasks share the slots).
/// - **Argument fetches.** The runtime charges transfers at the *source*
///   NIC, so each peer holding a share of the arguments contributes its
///   transmit backlog plus its share over its own NIC bandwidth. Placing
///   the task *on* a holder removes that holder's term entirely — which
///   steers work toward a weak-NIC node exactly when its transmitter is
///   the stage bottleneck, relieving it instead of piling on more
///   fetches it must serve.
/// - **Declared network output** beyond the argument bytes (producer-
///   style tasks) over this node's own NIC.
fn bound_cost_us(
    shape: TaskShape,
    total_arg_bytes: u64,
    node: &NodeSnapshot,
    nodes: &[NodeSnapshot],
) -> f64 {
    let bytes_us = |bytes: u64, bw: f64| bytes as f64 * 1e6 / bw.max(1.0);
    // Same-stage tasks arrive in bursts, so project each device's
    // completion assuming the node's queued tasks carry a similar shape:
    // `load` queued peers each compute and write too.
    let waves = 1.0 + node.load as f64 / node.cpus.max(1) as f64;
    let cpu_proj = waves * shape.cpu as f64;
    let disk_proj = node.disk_backlog_us as f64
        + (node.load as f64 + 1.0) * bytes_us(shape.disk_bytes, node.caps.disk_seq_bw);
    let fetch_proj: f64 = nodes
        .iter()
        .filter(|p| p.alive && p.id != node.id && p.local_arg_bytes > 0)
        .map(|p| p.nic_tx_backlog_us as f64 + bytes_us(p.local_arg_bytes, p.caps.nic_bw))
        .sum();
    let own_tx = bytes_us(
        shape.net_bytes.saturating_sub(total_arg_bytes),
        node.caps.nic_bw,
    );
    cpu_proj + disk_proj + fetch_proj + own_tx
}

fn alive_caps_identical(nodes: &[NodeSnapshot]) -> bool {
    let mut alive = nodes.iter().filter(|n| n.alive);
    let Some(first) = alive.next() else {
        return true;
    };
    alive.all(|n| n.caps == first.caps)
}

/// Picks the node with the lowest estimated completion cost for the
/// task's declared resource shape (`bound_cost_us`): device capacities
/// *and* current device backlogs, including the transmit-NIC queues of
/// the peers that must serve the task's argument bytes. Ties fall back
/// to relative load, then id. On clusters where every alive node has
/// identical [`NodeCaps`] — or for tasks that declared no shape — it
/// degenerates to [`LoadBalance`] ordering, so homogeneous runs stay
/// bit-identical.
#[derive(Clone, Copy, Debug, Default)]
pub struct BoundAware;

impl PlacementPolicy for BoundAware {
    fn name(&self) -> &'static str {
        "bound_aware"
    }

    fn place_default(
        &self,
        shape: TaskShape,
        total_arg_bytes: u64,
        nodes: &[NodeSnapshot],
    ) -> Option<Placed> {
        if shape.is_empty() || alive_caps_identical(nodes) {
            return LoadBalance.place_default(shape, total_arg_bytes, nodes);
        }
        let best = nodes
            .iter()
            .filter(|n| n.alive)
            .map(|n| (n, bound_cost_us(shape, total_arg_bytes, n, nodes)))
            .min_by(|(a, ca), (b, cb)| {
                ca.partial_cmp(cb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.relative_load_cmp(b))
                    .then(a.id.cmp(&b.id))
            })?;
        Some(Placed {
            node: best.0.id,
            reason: PlaceReason::BoundMatch,
            score: best.1,
        })
    }
}

/// Bound-aware only when the nodes' dominant capabilities differ;
/// otherwise plain load balancing. The divergence signal is either a
/// per-node dominant-bound list from a prior exo-prof run
/// ([`Hybrid::from_bounds`]), or — when no profile is available — the
/// nodes' capacity cards themselves.
#[derive(Clone, Debug, Default)]
pub struct Hybrid {
    /// Per-node dominant bounds (index = node id) from exo-prof's
    /// `per_node_bounds`, e.g. `[Disk, Disk, Cpu, Cpu]`. Empty means
    /// "no profile": fall back to comparing hardware capacities.
    pub node_bounds: Vec<Bound>,
}

impl Hybrid {
    /// A hybrid policy seeded with exo-prof per-node dominant bounds.
    pub fn from_bounds(node_bounds: Vec<Bound>) -> Hybrid {
        Hybrid { node_bounds }
    }

    fn dominants_differ(&self, nodes: &[NodeSnapshot]) -> bool {
        if self.node_bounds.is_empty() {
            return !alive_caps_identical(nodes);
        }
        let mut alive_bounds = nodes
            .iter()
            .filter(|n| n.alive)
            .filter_map(|n| self.node_bounds.get(n.id.0));
        let Some(first) = alive_bounds.next() else {
            return false;
        };
        alive_bounds.any(|b| b != first)
    }
}

impl PlacementPolicy for Hybrid {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn place_default(
        &self,
        shape: TaskShape,
        total_arg_bytes: u64,
        nodes: &[NodeSnapshot],
    ) -> Option<Placed> {
        if self.dominants_differ(nodes) {
            BoundAware.place_default(shape, total_arg_bytes, nodes)
        } else {
            LoadBalance.place_default(shape, total_arg_bytes, nodes)
        }
    }
}

/// Look up a policy by its stable name (the `--policy` flag values).
pub fn policy_from_name(name: &str) -> Option<Arc<dyn PlacementPolicy>> {
    match name {
        "load_balance" => Some(Arc::new(LoadBalance)),
        "bound_aware" => Some(Arc::new(BoundAware)),
        "hybrid" => Some(Arc::new(Hybrid::default())),
        _ => None,
    }
}

/// Pick a node for a task and report why it was chosen. `rr` is a
/// round-robin cursor advanced on spread placements; the `Default`
/// strategy is delegated to `policy`. Returns `None` only if no node is
/// alive.
pub fn place(
    policy: &dyn PlacementPolicy,
    strategy: SchedulingStrategy,
    shape: TaskShape,
    total_arg_bytes: u64,
    nodes: &[NodeSnapshot],
    rr: &mut usize,
) -> Option<Placed> {
    let alive = || nodes.iter().filter(|n| n.alive);
    alive().next()?;
    match strategy {
        SchedulingStrategy::NodeAffinity(node) => {
            // Soft affinity: fall through to default if the node is dead.
            if nodes.iter().any(|n| n.id == node && n.alive) {
                Some(Placed {
                    node,
                    reason: PlaceReason::Affinity,
                    score: 0.0,
                })
            } else {
                policy
                    .place_default(shape, total_arg_bytes, nodes)
                    .map(|p| Placed {
                        reason: PlaceReason::AffinityFallback,
                        ..p
                    })
            }
        }
        SchedulingStrategy::Spread => {
            let alive_nodes: Vec<&NodeSnapshot> = alive().collect();
            let pick = alive_nodes[*rr % alive_nodes.len()];
            *rr += 1;
            Some(Placed {
                node: pick.id,
                reason: PlaceReason::Spread,
                score: 0.0,
            })
        }
        SchedulingStrategy::Default => policy.place_default(shape, total_arg_bytes, nodes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps(cpus: usize) -> NodeCaps {
        NodeCaps {
            cpu_slots: cpus,
            disk_seq_bw: 500e6,
            disk_random_iops: 10_000.0,
            disk_devices: 1,
            nic_bw: 1e9,
            store_bytes: 1 << 30,
        }
    }

    fn snap(id: usize, alive: bool, load: usize, local: u64) -> NodeSnapshot {
        NodeSnapshot {
            id: NodeId(id),
            alive,
            load,
            cpus: 8,
            slots_free: 8usize.saturating_sub(load),
            local_arg_bytes: local,
            caps: caps(8),
            disk_backlog_us: 0,
            nic_tx_backlog_us: 0,
        }
    }

    fn snap_cpus(id: usize, load: usize, cpus: usize) -> NodeSnapshot {
        NodeSnapshot {
            id: NodeId(id),
            alive: true,
            load,
            cpus,
            slots_free: cpus.saturating_sub(load),
            local_arg_bytes: 0,
            caps: caps(cpus),
            disk_backlog_us: 0,
            nic_tx_backlog_us: 0,
        }
    }

    fn lb_place(nodes: &[NodeSnapshot], rr: &mut usize) -> Option<(NodeId, PlaceReason)> {
        place(
            &LoadBalance,
            SchedulingStrategy::Default,
            TaskShape::default(),
            0,
            nodes,
            rr,
        )
        .map(|p| (p.node, p.reason))
    }

    #[test]
    fn default_prefers_locality() {
        let nodes = [
            snap(0, true, 0, 10),
            snap(1, true, 5, 500),
            snap(2, true, 0, 100),
        ];
        let mut rr = 0;
        assert_eq!(
            lb_place(&nodes, &mut rr),
            Some((NodeId(1), PlaceReason::LocalityHit))
        );
    }

    #[test]
    fn default_breaks_locality_ties_by_load() {
        let nodes = [
            snap(0, true, 9, 0),
            snap(1, true, 2, 0),
            snap(2, true, 5, 0),
        ];
        let mut rr = 0;
        assert_eq!(
            lb_place(&nodes, &mut rr),
            Some((NodeId(1), PlaceReason::LeastLoaded))
        );
    }

    #[test]
    fn default_balances_load_relative_to_capacity() {
        // 6/16 = 0.375 load per slot beats 4/8 = 0.5, even though the big
        // node has more raw tasks.
        let nodes = [snap_cpus(0, 4, 8), snap_cpus(1, 6, 16)];
        let mut rr = 0;
        assert_eq!(
            lb_place(&nodes, &mut rr),
            Some((NodeId(1), PlaceReason::LeastLoaded))
        );
        // At equal relative load (4/8 vs 8/16), ties break by lower id.
        let nodes = [snap_cpus(0, 4, 8), snap_cpus(1, 8, 16)];
        assert_eq!(
            lb_place(&nodes, &mut rr),
            Some((NodeId(0), PlaceReason::LeastLoaded))
        );
    }

    #[test]
    fn spread_round_robins_over_alive_nodes() {
        let nodes = [
            snap(0, true, 0, 0),
            snap(1, false, 0, 0),
            snap(2, true, 0, 0),
        ];
        let mut rr = 0;
        let picks: Vec<_> = (0..4)
            .map(|_| {
                place(
                    &LoadBalance,
                    SchedulingStrategy::Spread,
                    TaskShape::default(),
                    0,
                    &nodes,
                    &mut rr,
                )
                .unwrap()
                .node
            })
            .collect();
        assert_eq!(picks, [NodeId(0), NodeId(2), NodeId(0), NodeId(2)]);
    }

    #[test]
    fn affinity_is_soft() {
        let nodes = [snap(0, true, 3, 0), snap(1, false, 0, 0)];
        let mut rr = 0;
        let p = place(
            &LoadBalance,
            SchedulingStrategy::NodeAffinity(NodeId(1)),
            TaskShape::default(),
            0,
            &nodes,
            &mut rr,
        )
        .unwrap();
        assert_eq!(
            (p.node, p.reason),
            (NodeId(0), PlaceReason::AffinityFallback),
            "dead affinity target falls back"
        );
        let p = place(
            &LoadBalance,
            SchedulingStrategy::NodeAffinity(NodeId(0)),
            TaskShape::default(),
            0,
            &nodes,
            &mut rr,
        )
        .unwrap();
        assert_eq!((p.node, p.reason), (NodeId(0), PlaceReason::Affinity));
    }

    #[test]
    fn all_dead_returns_none() {
        let nodes = [snap(0, false, 0, 0)];
        let mut rr = 0;
        assert_eq!(lb_place(&nodes, &mut rr), None);
    }

    // ---- bound-aware -------------------------------------------------

    /// A disk-heavy node (HDD-ish: high seq bw) and a net-heavy node.
    fn mixed_nodes() -> [NodeSnapshot; 2] {
        let mut hdd = snap(0, true, 0, 0);
        hdd.caps.disk_seq_bw = 1.2e9;
        hdd.caps.nic_bw = 750e6;
        let mut ssd = snap(1, true, 0, 0);
        ssd.caps.disk_seq_bw = 400e6;
        ssd.caps.nic_bw = 3e9;
        [hdd, ssd]
    }

    #[test]
    fn bound_aware_routes_by_dominant_resource() {
        let nodes = mixed_nodes();
        // Disk-heavy task → the high-seq-bw node.
        let disk_task = TaskShape::new(0, 1_000_000_000, 0);
        let p = BoundAware.place_default(disk_task, 0, &nodes).unwrap();
        assert_eq!((p.node, p.reason), (NodeId(0), PlaceReason::BoundMatch));
        // Net-heavy task → the fat-NIC node.
        let net_task = TaskShape::new(0, 0, 1_000_000_000);
        let p = BoundAware.place_default(net_task, 0, &nodes).unwrap();
        assert_eq!(p.node, NodeId(1));
        // The score is the estimated cost on the winner: 1 GB over a
        // 3 GB/s NIC ≈ 0.333 s.
        assert!((p.score - 1e9 / 3e9 * 1e6).abs() < 1.0, "{}", p.score);
    }

    #[test]
    fn bound_aware_load_inflation_spills_over_to_the_other_node() {
        let mut nodes = mixed_nodes();
        // Pile load on the disk node until its congestion factor makes
        // the slower-disk node cheaper: cost ratio 3:1 needs load/cpus
        // crossing 2.0.
        let disk_task = TaskShape::new(0, 1_000_000_000, 0);
        nodes[0].load = 17; // 1 + 17/8 = 3.125 > 3×
        let p = BoundAware.place_default(disk_task, 0, &nodes).unwrap();
        assert_eq!(p.node, NodeId(1));
    }

    #[test]
    fn bound_aware_counts_remote_argument_bytes() {
        let mut nodes = mixed_nodes();
        // All argument bytes live on the slow-disk node; a small disk
        // shape should not justify dragging 1 GB across a 750 MB/s NIC.
        nodes[1].local_arg_bytes = 1_000_000_000;
        let p = BoundAware
            .place_default(TaskShape::new(0, 50_000_000, 0), 1_000_000_000, &nodes)
            .unwrap();
        assert_eq!(p.node, NodeId(1));
    }

    #[test]
    fn bound_aware_relieves_a_congested_transmitter() {
        let mut nodes = mixed_nodes();
        // Both nodes hold half the arguments, but the slow-NIC node's
        // transmitter is deeply backlogged. Running the task *on* it
        // removes its fetch term (its share is local), so it wins even
        // though its other devices are no better.
        nodes[0].local_arg_bytes = 500_000_000;
        nodes[1].local_arg_bytes = 500_000_000;
        nodes[0].nic_tx_backlog_us = 2_000_000;
        let p = BoundAware
            .place_default(TaskShape::new(1000, 0, 0), 1_000_000_000, &nodes)
            .unwrap();
        assert_eq!((p.node, p.reason), (NodeId(0), PlaceReason::BoundMatch));
        // Same answer with the backlog drained, but now for the peer-
        // bandwidth reason: node 0 pulls its remote share from the fat
        // 3 GB/s NIC, node 1 would pull from the weak 750 MB/s one.
        nodes[0].nic_tx_backlog_us = 0;
        let p = BoundAware
            .place_default(TaskShape::new(1000, 0, 0), 1_000_000_000, &nodes)
            .unwrap();
        assert_eq!(p.node, NodeId(0), "node 0 still pays less for fetches");
    }

    #[test]
    fn bound_aware_degenerates_to_load_balance_on_identical_caps() {
        let nodes = [
            snap(0, true, 9, 0),
            snap(1, true, 2, 0),
            snap(2, true, 5, 300),
        ];
        let shape = TaskShape::new(1000, 1_000_000, 0);
        let ba = BoundAware.place_default(shape, 300, &nodes).unwrap();
        let lb = LoadBalance.place_default(shape, 300, &nodes).unwrap();
        assert_eq!(ba, lb, "identical caps must reproduce LoadBalance");
        assert_eq!(ba.reason, PlaceReason::LocalityHit);
    }

    #[test]
    fn bound_aware_shapeless_tasks_keep_load_balance() {
        let nodes = mixed_nodes();
        let p = BoundAware
            .place_default(TaskShape::default(), 0, &nodes)
            .unwrap();
        assert_eq!(p.reason, PlaceReason::LeastLoaded);
    }

    #[test]
    fn hybrid_follows_profile_divergence() {
        let nodes = mixed_nodes();
        let disk_task = TaskShape::new(0, 1_000_000_000, 0);
        // Divergent profile → bound-aware.
        let h = Hybrid::from_bounds(vec![Bound::Disk, Bound::Cpu]);
        let p = h.place_default(disk_task, 0, &nodes).unwrap();
        assert_eq!(p.reason, PlaceReason::BoundMatch);
        // Uniform profile → load balance even though caps differ.
        let h = Hybrid::from_bounds(vec![Bound::Cpu, Bound::Cpu]);
        let p = h.place_default(disk_task, 0, &nodes).unwrap();
        assert_eq!(p.reason, PlaceReason::LeastLoaded);
        // No profile → fall back to comparing the caps themselves.
        let h = Hybrid::default();
        let p = h.place_default(disk_task, 0, &nodes).unwrap();
        assert_eq!(p.reason, PlaceReason::BoundMatch);
    }

    #[test]
    fn policy_from_name_covers_the_flag_values() {
        for name in ["load_balance", "bound_aware", "hybrid"] {
            assert_eq!(policy_from_name(name).unwrap().name(), name);
        }
        assert!(policy_from_name("round_robin").is_none());
    }
}

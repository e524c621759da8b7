//! # exo-sim — discrete-event cluster substrate
//!
//! This crate is the bottom layer of the Exoshuffle reproduction: a
//! deterministic discrete-event simulation (DES) substrate that models the
//! *time* dimension of a cluster — CPU slots, spinning/solid-state disks,
//! NICs — while the layers above it move *real bytes* through real data
//! structures.
//!
//! The paper evaluates Exoshuffle on AWS clusters (d3.2xlarge HDD nodes,
//! i3.2xlarge NVMe nodes, 100-node 100 TB sorts). We reproduce the *shapes*
//! of those experiments by charging every I/O and compute operation against
//! device models parameterised from the paper's instance specs
//! ([`device::NodeSpec`] presets), under a virtual clock.
//!
//! ## Pieces
//!
//! - [`SimTime`] / [`SimDuration`]: microsecond-resolution virtual time.
//! - [`EventQueue`]: a stable (time, sequence)-ordered event queue.
//! - [`Resource`]: a k-server FIFO queueing resource used to model disks
//!   (k = spindles/channels) and NIC directions (k = 1). Service time for a
//!   disk op is `seek + size / per-server-bandwidth`, which makes random
//!   IOPS limits — the core of the paper's small-block I/O story — emerge
//!   naturally. Each server keeps its booked completions in a FIFO ring
//!   ([`RingPool`]), so the event queue holds one head per busy server.
//! - [`engine::Engine`]: a conservative virtual-time event loop. User
//!   "driver" code (the shuffle libraries) runs on real threads and talks to
//!   the simulation through command channels; the clock only advances when
//!   every driver is parked waiting for a reply, which makes runs
//!   deterministic for a single driver.
//! - [`device`]: instance-type presets taken from §5.1.1 of the paper.
//! - [`rng`]: a tiny deterministic SplitMix64 generator so simulations never
//!   depend on ambient entropy.

pub mod device;
pub mod engine;
pub mod queue;
pub mod resource;
pub mod rng;
pub mod time;

pub use device::{ClusterSpec, DeviceCaps, DiskSpec, NicSpec, NodeCaps, NodeSpec};
pub use engine::{dispatch_total, Ctx, DriverConn, Engine, Reply, Simulation};
pub use queue::{EventQueue, QueueFootprint, TableFootprint};
pub use resource::{IoKind, Resource, RingId, RingPool};
pub use rng::SplitMix64;
pub use time::{SimDuration, SimTime};

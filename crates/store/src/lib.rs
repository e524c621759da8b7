//! # exo-store — per-node shared-memory object store
//!
//! Models Ray's Plasma-style object store as extended by the paper
//! (§4.2.1–§4.2.2): a fixed-capacity shared-memory arena per node, an
//! **allocation queue** that keeps memory usage bounded while guaranteeing
//! forward progress, a **spilling subsystem** that migrates sealed objects
//! to disk (fusing small objects into ≥100 MB files to avoid small random
//! writes), **restore** of spilled objects, and a **fallback allocation**
//! path that keeps the node live when nothing can be spilled.
//!
//! The store is a *pure state machine*: it tracks object sizes, pins,
//! references and residency, and decides *what* I/O should happen. It never
//! performs I/O or advances time itself — the runtime (`exo-rt`) charges
//! the decisions against `exo-sim` device models and acknowledges
//! completions back to the store. This keeps the store unit-testable in
//! isolation. Every allocation eventually succeeds — in memory, after
//! spilling, or through fallback — so the store has no out-of-memory
//! outcome (Figure 6's Dask OOMs are modelled analytically in
//! `exo-monolith`).
//!
//! ## Protocol
//!
//! ```text
//! runtime                          store
//! ───────                          ─────
//! request_create(id,size,tag) ───► Granted | Queued | Fallback
//! (writes payload)             ◄── take_granted()  (after memory frees)
//! seal(id)
//! next_spill_batch()           ◄── Some(batch)      (when backlogged)
//! (charges disk write)
//! spill_complete(batch) ──────►    memory freed, grants may fire
//! request_restore(id,tag) ────►    InMemory | Granted | Queued | Lost
//! (charges disk read)
//! restore_complete(id) ───────►
//! ```

mod metrics;
pub mod seqmap;
mod store;

pub use metrics::StoreMetrics;
pub use store::{
    AllocDecision, GrantKind, NodeStore, ObjId, Priority, Residency, RestoreDecision, SpillBatch,
    StoreConfig,
};

//! # exo-shuffle — shuffle algorithms as application-level libraries
//!
//! This crate is the paper's contribution: distributed shuffle expressed as
//! short driver programs against the distributed-futures API (`exo-rt`),
//! rather than as monolithic engine internals.
//!
//! Implemented strategies (one module each, mirroring the paper's
//! listings):
//!
//! | Variant | Paper | Module |
//! |---|---|---|
//! | ES-simple: pull-based MapReduce | §3.1.1, Listing 1 | [`simple`] |
//! | ES-merge: Riffle-style pre-shuffle merge | §3.1.2, Listing 1 | [`merge`] |
//! | ES-push: Magnet-style push-based shuffle | §3.1.3, Listing 1 | [`push`] |
//! | ES-push*: pipelined two-stage push shuffle | §4.1, Listing 3 | [`push_star`] |
//! | Streaming shuffle for online aggregation | §3.2.1, Listing 2 | [`streaming`] |
//! | Per-epoch pipelined shuffle for ML loaders | §3.2.2, Listing 2 | [`ShuffleWindow`]; the loop is `exo_ml::trainer` |
//!
//! All variants consume the same workload description ([`ShuffleJob`]) and
//! return reduce-output futures, so an application can pick its shuffle at
//! run time — the paper's flexibility claim. A [`ShuffleVariant`] enum plus
//! [`run_shuffle`] make that selection a one-liner.

pub mod job;
pub mod merge;
pub mod push;
pub mod push_star;
pub mod simple;
pub mod speculative;
pub mod streaming;

pub use job::{key_sum_job, key_sum_total, Block, CombineFn, MapFn, ReduceFn, ShuffleJob};
pub use merge::{merge_shuffle, MergeConfig};
pub use push::{push_shuffle, PushConfig};
pub use push_star::{
    frame_blocks, merge_frames, push_star_shuffle, unframe_blocks, PushStarConfig,
};
pub use simple::simple_shuffle;
pub use speculative::{speculative_simple_shuffle, SpeculationConfig, SpeculationReport};
pub use streaming::{streaming_shuffle, StreamReduceFn, StreamingConfig};

use exo_rt::{ObjectRef, RtHandle};

/// Which shuffle strategy to run (selectable at run time, §5.1.6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShuffleVariant {
    /// Pull-based simple shuffle.
    Simple,
    /// Riffle-style pre-shuffle merge with the given merge factor.
    Merge {
        /// Map outputs merged per group.
        factor: usize,
    },
    /// Magnet-style push-based shuffle with the given merge factor.
    Push {
        /// Map outputs merged per group.
        factor: usize,
    },
    /// Pipelined two-stage push shuffle (Listing 3).
    PushStar {
        /// Concurrent map tasks per node per round.
        map_parallelism: usize,
    },
}

/// How much of the dataset each per-epoch shuffle round mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShuffleWindow {
    /// Full distributed shuffle across the entire dataset per epoch.
    Full,
    /// Partial shuffle: only blocks within a window of `partitions`
    /// partitions are mixed (Petastorm-style local buffer shuffle).
    Window {
        /// Window size in partitions.
        partitions: usize,
    },
}

/// Run `job` under the chosen variant; returns the reduce-output futures.
pub fn run_shuffle(rt: &RtHandle, job: &ShuffleJob, variant: ShuffleVariant) -> Vec<ObjectRef> {
    match variant {
        ShuffleVariant::Simple => simple_shuffle(rt, job),
        ShuffleVariant::Merge { factor } => merge_shuffle(rt, job, MergeConfig { factor }),
        ShuffleVariant::Push { factor } => push_shuffle(rt, job, PushConfig::new(factor)),
        ShuffleVariant::PushStar { map_parallelism } => {
            push_star_shuffle(rt, job, PushStarConfig::new(map_parallelism))
        }
    }
}

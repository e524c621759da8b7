//! # exo-ml — distributed ML training on shuffled data (§5.2.2)
//!
//! Reproduces the paper's ML experiments: training a model whose data must
//! be re-shuffled every epoch, where both *shuffle quality* (full vs.
//! windowed) and *pipelining* (overlapping shuffle with GPU compute)
//! determine the outcome.
//!
//! Substitution (per DESIGN.md): the paper trains TabNet on HIGGS with
//! Ludwig on GPUs. We train logistic regression with SGD on a synthetic,
//! **label-ordered** binary-classification dataset — order bias is what
//! makes shuffle quality matter, and SGD's sensitivity to it is the same
//! mechanism at a fraction of the compute. GPU step time is charged on the
//! virtual clock.
//!
//! - [`dataset`]: deterministic biased dataset generation and block codec.
//! - [`model`]: logistic regression + SGD + accuracy.
//! - [`trainer`]: the pipelined per-epoch training loop over Exoshuffle
//!   (full or windowed shuffle, [`ShuffleWindow`](exo_shuffle::ShuffleWindow)).
//! - [`petastorm`]: a Petastorm-style buffered loader — sequential chunk
//!   reads into a bounded in-memory buffer, random draws from the buffer —
//!   the single-node baseline of Fig 8.

pub mod dataset;
pub mod model;
pub mod petastorm;
pub mod trainer;

pub use dataset::{decode_block, gen_block, DatasetSpec};
pub use model::LogisticModel;
pub use petastorm::{petastorm_training, PetastormConfig, PetastormError};
pub use trainer::{exoshuffle_training, unshuffled_training, TrainConfig, TrainReport};

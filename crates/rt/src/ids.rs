//! Identifiers for nodes, tasks, objects, jobs and tenants.
//!
//! Task, object and waiter ids are *job-scoped*: the owning [`JobId`]
//! lives in the high bits and a per-job sequence number in the low bits.
//! Job 0's ids are numerically identical to the pre-multi-job global
//! counters, so single-job runs stay bit-identical through the
//! shuffle-as-a-service refactor.

use std::fmt;

/// Bits reserved for the per-job sequence number; the job id occupies
/// the bits above. 2^40 ids per job is far beyond any simulated run.
pub const JOB_SEQ_BITS: u32 = 40;

/// A worker node in the cluster, indexed densely from 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// A job admitted to the runtime. Job 0 is the one job `run` registers
/// for its driver.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

/// The tenant a job bills its resources to. Quotas and fair-share
/// weights are keyed by tenant, not job.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

/// A submitted task. Each submission gets a fresh id; re-executions for
/// lineage reconstruction reuse the id with a bumped attempt number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

/// A distributed object. Object ids are assigned at task submission (one
/// per declared return) or when the driver puts an inline value.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

/// Pack a job id and per-job sequence number into one raw 64-bit id.
pub fn pack_id(job: JobId, seq: u64) -> u64 {
    debug_assert!(seq < 1 << JOB_SEQ_BITS, "per-job id space exhausted");
    ((job.0 as u64) << JOB_SEQ_BITS) | seq
}

/// Recover the owning job from a raw packed id.
pub fn job_of(raw: u64) -> JobId {
    JobId((raw >> JOB_SEQ_BITS) as u32)
}

impl TaskId {
    /// The job this task belongs to.
    pub fn job(self) -> JobId {
        job_of(self.0)
    }
}

impl ObjectId {
    /// The job this object belongs to.
    pub fn job(self) -> JobId {
        job_of(self.0)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}
impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}
impl fmt::Debug for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}
impl fmt::Debug for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}
impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}
impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

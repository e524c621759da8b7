//! Cumulative store counters, used to reproduce the paper's write-
//! amplification comparisons (ES-push vs ES-push*, Fig 4d) and the spilling
//! microbenchmark (Fig 7).

/// Monotonic counters over a store's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreMetrics {
    /// Bytes migrated to disk by the spilling subsystem.
    pub spilled_bytes: u64,
    /// Number of spill *files* written (fused batches count once).
    pub spill_files: u64,
    /// Number of objects spilled.
    pub spilled_objects: u64,
    /// Bytes copied back from disk into memory.
    pub restored_bytes: u64,
    /// Number of restore operations.
    pub restore_ops: u64,
    /// Bytes allocated through the fallback (filesystem) path.
    pub fallback_bytes: u64,
    /// Number of fallback allocations.
    pub fallback_allocs: u64,
    /// Spills avoided because the object already had an up-to-date copy on
    /// disk (restored earlier, never dirtied — objects are immutable).
    pub spill_writes_elided: u64,
    /// High-water mark of in-memory usage.
    pub peak_used: u64,
    /// Objects evicted without any disk write because their reference count
    /// dropped to zero first (the ES-push* `del` saving).
    pub evicted_unwritten: u64,
    /// Creates routed to the fallback path because the owner's byte quota
    /// was exhausted (multi-tenant isolation enforcement).
    pub quota_denials: u64,
}

impl StoreMetrics {
    /// Folds another store's counters into these: every counter sums,
    /// and `peak_used` keeps the larger high-water mark.
    pub fn merge(&mut self, other: &StoreMetrics) {
        self.spilled_bytes += other.spilled_bytes;
        self.spill_files += other.spill_files;
        self.spilled_objects += other.spilled_objects;
        self.restored_bytes += other.restored_bytes;
        self.restore_ops += other.restore_ops;
        self.fallback_bytes += other.fallback_bytes;
        self.fallback_allocs += other.fallback_allocs;
        self.spill_writes_elided += other.spill_writes_elided;
        self.peak_used = self.peak_used.max(other.peak_used);
        self.evicted_unwritten += other.evicted_unwritten;
        self.quota_denials += other.quota_denials;
    }
}

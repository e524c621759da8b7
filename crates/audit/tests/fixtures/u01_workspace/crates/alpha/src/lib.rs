// Fixture: U01 across a workspace. golden.rs audits this directory as a
// workspace root; the comments say what each item exercises.

/// Used by crate beta: not a finding.
pub fn used_by_beta() -> u32 {
    1
}

/// Used by examples/ only: not a finding.
pub fn used_by_example() {}

/// Used by the benchmark only: not a finding.
pub const USED_BY_BENCHMARK: u32 = 3;

/// Used only by alpha's integration test: a finding.
pub fn used_only_by_integration_test() {}

/// Used only under `#[cfg(test)]`: a finding.
pub const ONLY_TESTED: u32 = 7;

/// Named only by beta's `pub use` and a doc link: a finding.
pub fn reexported_only() {}

pub struct Config {
    /// Read by beta: not a finding.
    pub read_field: u32,
    /// Named nowhere but here: a finding.
    pub dead_field: u32,
}

pub enum Mode {
    /// Constructed by beta: not a finding.
    Live,
    /// Named nowhere but here: a finding.
    Dead,
}

/// Named only in its own impl: the type and its method are findings.
pub struct SelfOnly;

impl SelfOnly {
    pub fn make() -> SelfOnly {
        SelfOnly
    }
}

// audit:allow(U01): the oracle test below checks its answer.
pub fn oracle_only() -> u32 {
    42
}

// audit:allow(U01): stale — beta calls this, so the allow is unused.
pub fn called_by_beta() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle() {
        assert_eq!(oracle_only(), 42 + ONLY_TESTED - 7);
    }
}

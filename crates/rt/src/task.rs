//! Task specifications: functions, costs, placement.

use std::sync::Arc;

use exo_sim::{SimDuration, SplitMix64};

use crate::ids::{NodeId, ObjectId, TaskId};
use crate::object::Payload;

/// Context passed to an executing task.
pub struct TaskCtx {
    /// Resolved argument payloads, in submission order.
    pub args: Vec<Payload>,
    /// Node the task runs on.
    pub node: NodeId,
    /// Execution attempt (0 for the first run; >0 for lineage
    /// reconstruction re-executions).
    pub attempt: u32,
    /// A per-(task, nothing-else) deterministic RNG: attempts of the same
    /// task see the same stream, so re-executions are idempotent (§4.2.3).
    pub rng: SplitMix64,
}

/// A task body. Must be deterministic in its arguments and `rng` —
/// lineage reconstruction re-runs it and expects the same outputs. It may
/// run on any thread, concurrently with other task bodies and with the
/// engine, so it must not share mutable state with anything else.
pub type TaskFn = Arc<dyn Fn(TaskCtx) -> Vec<Payload> + Send + Sync>;

/// CPU cost model for a task, evaluated from the logical input bytes when
/// the task's arguments are pinned, before its closure runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuCost {
    /// Fixed cost per invocation (scheduling, interpreter, setup).
    pub fixed: SimDuration,
    /// Nanoseconds of CPU per logical input byte.
    pub per_in_byte_ns: f64,
}

impl CpuCost {
    /// Only a fixed cost.
    pub fn fixed(d: SimDuration) -> CpuCost {
        CpuCost {
            fixed: d,
            ..Default::default()
        }
    }

    /// Cost proportional to input bytes, at `bytes_per_sec` processing
    /// throughput, plus a small fixed overhead.
    pub fn input_throughput(bytes_per_sec: f64) -> CpuCost {
        CpuCost {
            fixed: SimDuration::from_micros(500),
            per_in_byte_ns: 1e9 / bytes_per_sec,
        }
    }

    /// Evaluate the model at `in_bytes` logical input bytes.
    pub fn eval(&self, in_bytes: u64) -> SimDuration {
        let var = self.per_in_byte_ns * in_bytes as f64;
        self.fixed + SimDuration::from_secs_f64(var / 1e9)
    }
}

/// Resource shape a task declares at submission time: a hint to
/// bound-aware placement policies about how much of each device the task
/// will consume, matched against per-node hardware capacities
/// (`exo_sim::NodeCaps`). Shuffle libraries derive it from their cost
/// models. All-zero means "undeclared" — shapeless tasks keep plain
/// load-balanced placement under every policy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TaskShape {
    /// Estimated CPU microseconds on a reference core.
    pub cpu: u64,
    /// Bytes of sequential disk I/O the task performs at its node
    /// (input reads + output writes).
    pub disk_bytes: u64,
    /// Bytes the task moves over the network *beyond* its argument
    /// fetches (e.g. a map task's outputs being pushed away). Argument
    /// bytes are accounted by the policy from object locality.
    pub net_bytes: u64,
}

impl TaskShape {
    /// Shape with explicit components.
    pub fn new(cpu_us: u64, disk_bytes: u64, net_bytes: u64) -> TaskShape {
        TaskShape {
            cpu: cpu_us,
            disk_bytes,
            net_bytes,
        }
    }

    /// Derive a shape from a CPU cost model evaluated at the expected
    /// input size (device byte counts are added with the builders below).
    pub fn from_cost(cpu: CpuCost, in_bytes: u64) -> TaskShape {
        TaskShape {
            cpu: cpu.eval(in_bytes).as_micros(),
            disk_bytes: 0,
            net_bytes: 0,
        }
    }

    /// Add sequential disk bytes to the shape.
    pub fn with_disk(mut self, bytes: u64) -> TaskShape {
        self.disk_bytes = bytes;
        self
    }

    /// Add non-argument network bytes to the shape.
    pub fn with_net(mut self, bytes: u64) -> TaskShape {
        self.net_bytes = bytes;
        self
    }

    /// True when no component was declared.
    pub fn is_empty(&self) -> bool {
        self.cpu == 0 && self.disk_bytes == 0 && self.net_bytes == 0
    }
}

/// Where the scheduler should place a task (§4.3.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulingStrategy {
    /// Locality-aware default: the node holding the most argument bytes,
    /// tie-broken by load; least-loaded when there are no object args.
    #[default]
    Default,
    /// Round-robin across alive nodes (for embarrassingly parallel stages
    /// like map tasks over external input).
    Spread,
    /// Pin to a node. Soft: if the node is dead, fall back to `Default` —
    /// "node affinity is soft, meaning Ray will choose another suitable
    /// node if the specified node fails".
    NodeAffinity(NodeId),
}

/// Per-task options.
#[derive(Clone, Debug)]
pub struct TaskOptions {
    /// Number of return values (multiple-returns API, §4.3.1).
    pub num_returns: usize,
    /// Placement strategy.
    pub strategy: SchedulingStrategy,
    /// CPU cost model.
    pub cpu: CpuCost,
    /// Bytes of job input this task reads from its node's disk
    /// (sequential) before compute — e.g. a map task reading its partition.
    pub reads_input: u64,
    /// Bytes of job output this task writes to its node's disk
    /// (sequential) after compute — e.g. a reduce task writing results.
    pub writes_output: u64,
    /// Remote-generator semantics (§4.3.1): outputs are yielded one at a
    /// time, becoming available at evenly spaced points of the compute
    /// phase instead of all at the end. Reduces peak executor memory and
    /// overlaps downstream consumption with execution.
    pub generator: bool,
    /// Label recorded on the task's trace spans (e.g. `"map"`,
    /// `"reduce"`).
    pub label: &'static str,
    /// Declared resource shape, consumed by bound-aware placement
    /// policies (ignored by plain load balancing).
    pub shape: TaskShape,
}

impl Default for TaskOptions {
    fn default() -> Self {
        TaskOptions {
            num_returns: 1,
            strategy: SchedulingStrategy::Default,
            cpu: CpuCost::default(),
            reads_input: 0,
            writes_output: 0,
            generator: false,
            label: "task",
            shape: TaskShape::default(),
        }
    }
}

/// Everything needed to execute (and re-execute) a task.
#[derive(Clone)]
pub struct TaskSpec {
    /// The body.
    pub func: TaskFn,
    /// Arguments in order: distributed futures produced elsewhere.
    pub args: Vec<ObjectId>,
    /// Options.
    pub opts: TaskOptions,
}

impl TaskSpec {
    /// Object ids among the arguments (deduplicated, order-preserving).
    pub fn object_args(&self) -> Vec<ObjectId> {
        let mut seen = std::collections::HashSet::new();
        self.args
            .iter()
            .copied()
            .filter(|id| seen.insert(*id))
            .collect()
    }
}

impl std::fmt::Debug for TaskSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskSpec")
            .field("args", &self.args.len())
            .field("opts", &self.opts)
            .finish()
    }
}

/// Derives the deterministic RNG seed for a task execution. Attempts share
/// the seed so reconstruction reproduces identical outputs.
pub fn task_seed(task: TaskId) -> SplitMix64 {
    SplitMix64::new(0x9E37_79B9_0000_0000 ^ task.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_cost_eval_combines_terms() {
        let c = CpuCost {
            fixed: SimDuration::from_micros(100),
            per_in_byte_ns: 2.0,
        };
        // 1000 in * 2ns = 2 µs + 100 µs.
        assert_eq!(c.eval(1000).as_micros(), 102);
    }

    #[test]
    fn input_throughput_maps_to_per_byte_cost() {
        let c = CpuCost::input_throughput(100.0 * 1e6); // 100 MB/s
        let d = c.eval(100_000_000);
        assert!((d.as_secs_f64() - 1.0005).abs() < 1e-3);
    }

    #[test]
    fn object_args_deduplicates() {
        let f: TaskFn = Arc::new(|_ctx| vec![]);
        let spec = TaskSpec {
            func: f,
            args: vec![ObjectId(1), ObjectId(2), ObjectId(1)],
            opts: TaskOptions::default(),
        };
        assert_eq!(spec.object_args(), vec![ObjectId(1), ObjectId(2)]);
    }

    #[test]
    fn task_seed_is_stable_across_attempts() {
        let mut a = task_seed(TaskId(7));
        let mut b = task_seed(TaskId(7));
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = task_seed(TaskId(8));
        assert_ne!(task_seed(TaskId(7)).next_u64(), c.next_u64());
    }
}

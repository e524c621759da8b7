//! Task closures run off the engine thread, from the moment their
//! arguments are pinned, and their outputs land at the modelled CPU-done
//! event. These tests pin down that the overlap is invisible to the
//! simulation: reruns stay identical whichever thread finishes first, a
//! closure's panic reaches the caller, and a killed attempt's in-flight
//! result never lands.

use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};

use bytes::Bytes;
use exo_rt::{CpuCost, NodeId, ObjectRef, Payload, RtConfig, RtHandle, TaskCtx, TraceConfig};
use exo_sim::{ClusterSpec, NodeSpec, SimDuration};

fn cluster(nodes: usize) -> RtConfig {
    RtConfig::new(ClusterSpec::homogeneous(NodeSpec::i3_2xlarge(), nodes))
}

/// Host work proportional to `units`, with no clock read: a closure
/// that calls it stays deterministic in its arguments.
fn spin(units: u64) -> u64 {
    let mut x = units ^ 0x9E37_79B9_7F4A_7C15;
    for _ in 0..units * 200_000 {
        x = black_box(x.rotate_left(7).wrapping_mul(0x2545_F491_4F6C_DD1D));
    }
    x
}

/// A closure whose output depends only on its rng stream and the host
/// work it was told to do.
fn spinning_task(units: u64) -> impl Fn(TaskCtx) -> Vec<Payload> + Send + Sync + 'static {
    move |ctx: TaskCtx| {
        let mut rng = ctx.rng;
        let v = rng.next_u64() ^ spin(units);
        vec![Payload::inline(Bytes::from(v.to_le_bytes().to_vec()))]
    }
}

fn word(p: &Payload) -> u64 {
    u64::from_le_bytes(p.data[..8].try_into().unwrap())
}

#[test]
fn reruns_are_identical_when_landing_order_differs_from_launch_order() {
    const N: u64 = 12;
    let run_once = || {
        let mut cfg = cluster(2);
        cfg.trace = TraceConfig::on();
        let (report, out) = exo_rt::run(cfg, |rt| {
            // Task i launches i-th but lands (N - i)-th: its modelled CPU
            // phase shrinks with i while its host work grows with i.
            let leaves: Vec<ObjectRef> = (0..N)
                .map(|i| {
                    rt.task(spinning_task(1 + i))
                        .on_node(NodeId((i % 2) as usize))
                        .cpu(CpuCost::fixed(SimDuration::from_millis(100 * (N - i))))
                        .reads_input(if i % 3 == 0 { 64 << 20 } else { 0 })
                        .submit_one()
                })
                .collect();
            let gen = rt
                .task(|ctx: TaskCtx| {
                    (0..4u8)
                        .map(|k| Payload::inline(Bytes::from(vec![k; 1 + spin(3) as usize % 7])))
                        .chain(std::iter::once(Payload::inline(ctx.args[0].data.clone())))
                        .collect()
                })
                .arg(&leaves[0])
                .num_returns(5)
                .generator()
                .cpu(CpuCost::fixed(SimDuration::from_millis(250)))
                .submit();
            let sum = rt
                .task(|ctx: TaskCtx| {
                    let s = ctx
                        .args
                        .iter()
                        .map(|p| p.data.len() as u64 + p.data[0] as u64);
                    vec![Payload::inline(Bytes::from(
                        s.sum::<u64>().to_le_bytes().to_vec(),
                    ))]
                })
                .args(leaves.iter().chain(&gen))
                .submit_one();
            let mut got: Vec<u64> = rt.get(&leaves).unwrap().iter().map(word).collect();
            got.push(word(&rt.get_one(&sum).unwrap()));
            got
        });
        (
            report.end_time,
            format!("{:?}", report.metrics),
            format!("{:?}", report.trace),
            out,
        )
    };
    let first = run_once();
    assert!(first.2.len() > 2, "trace retention is on");
    for _ in 0..2 {
        assert!(run_once() == first, "a rerun diverged");
    }
}

#[test]
fn closure_panic_reaches_the_caller_with_its_message() {
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        exo_rt::run(cluster(2), |rt| {
            let busy: Vec<ObjectRef> = (0..4)
                .map(|i| rt.task(spinning_task(5 + i)).submit_one())
                .collect();
            let bad = rt
                .task(|ctx: TaskCtx| {
                    spin(10);
                    panic!("closure exploded on node {}", ctx.node.0)
                })
                .on_node(NodeId(1))
                .reads_input(256 << 20)
                .submit_one();
            rt.wait_all(&busy);
            let _ = rt.get_one(&bad);
        })
    }));
    let payload = result.expect_err("exo_rt::run must re-raise the closure's panic");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert_eq!(msg, "closure exploded on node 1");
}

/// Runs six spinning tasks on node 1, whose closures launch at the start
/// of a multi-second modelled read, injects `fault` 2 s in (while they
/// are in flight), and returns each task's value with the (node,
/// attempt) its landed result came from.
fn with_fault(fault: impl Fn(&RtHandle) + Send + Sync) -> (Vec<u64>, Vec<(usize, u32)>) {
    let (_report, out) = exo_rt::run(cluster(3), |rt| {
        let refs: Vec<Vec<ObjectRef>> = (0..6u64)
            .map(|i| {
                let body = spinning_task(20 + 5 * i);
                rt.task(move |ctx: TaskCtx| {
                    let from = vec![ctx.node.0 as u8, ctx.attempt as u8];
                    let mut out = body(ctx);
                    out.push(Payload::inline(Bytes::from(from)));
                    out
                })
                .on_node(NodeId(1))
                .reads_input(8 << 30)
                .cpu(CpuCost::fixed(SimDuration::from_secs(1)))
                .num_returns(2)
                .submit()
            })
            .collect();
        fault(rt);
        refs.iter()
            .map(|r| {
                let got = rt.get(r).unwrap();
                (
                    word(&got[0]),
                    (got[1].data[0] as usize, got[1].data[1] as u32),
                )
            })
            .unzip()
    });
    out
}

#[test]
fn killed_attempts_in_flight_are_discarded_and_reexecutions_land() {
    let (clean, clean_from) = with_fault(|_| {});
    assert!(clean_from.iter().all(|&f| f == (1, 0)));

    // Executor death: the store survives, every running attempt re-runs
    // with a bumped attempt number, and only the re-run's result lands.
    let (after_exec, exec_from) =
        with_fault(|rt| rt.kill_executors(NodeId(1), rt.now() + SimDuration::from_secs(2)));
    assert_eq!(after_exec, clean);
    assert!(
        exec_from.iter().any(|&(_, attempt)| attempt == 1),
        "some attempt was in flight at the kill: {exec_from:?}"
    );

    // Node death: the queued and running attempts move to other nodes.
    let (after_node, node_from) = with_fault(|rt| {
        rt.kill_node(
            NodeId(1),
            rt.now() + SimDuration::from_secs(2),
            Some(SimDuration::from_secs(30)),
        )
    });
    assert_eq!(after_node, clean);
    assert!(
        node_from.iter().all(|&(node, _)| node != 1),
        "no result from the dead node landed: {node_from:?}"
    );
}

//! End-to-end behaviour tests for the distributed-futures runtime.

use bytes::Bytes;
use exo_rt::{CpuCost, Payload, RtConfig, RtError, SchedulingStrategy, TaskCtx, TraceConfig};
use exo_sim::{ClusterSpec, NodeSpec, SimDuration, SimTime};

fn small_cluster(nodes: usize) -> RtConfig {
    RtConfig::new(ClusterSpec::homogeneous(NodeSpec::i3_2xlarge(), nodes))
}

fn const_task(v: Vec<u8>) -> impl Fn(TaskCtx) -> Vec<Payload> + Send + Sync + 'static {
    move |_ctx| vec![Payload::inline(Bytes::from(v.clone()))]
}

#[test]
fn single_task_roundtrip() {
    let (_report, out) = exo_rt::run(small_cluster(2), |rt| {
        let r = rt.task(const_task(vec![1, 2, 3])).submit_one();
        rt.get_one(&r).unwrap().data.to_vec()
    });
    assert_eq!(out, vec![1, 2, 3]);
}

#[test]
fn task_chain_passes_data_through_objects() {
    let (_report, out) = exo_rt::run(small_cluster(3), |rt| {
        let a = rt.task(const_task(vec![10])).submit_one();
        let b = rt
            .task(|ctx: TaskCtx| {
                let x = ctx.args[0].data[0];
                vec![Payload::inline(Bytes::from(vec![x + 5]))]
            })
            .arg(&a)
            .submit_one();
        let c = rt
            .task(|ctx: TaskCtx| {
                let x = ctx.args[0].data[0];
                vec![Payload::inline(Bytes::from(vec![x * 2]))]
            })
            .arg(&b)
            .submit_one();
        rt.get_one(&c).unwrap().data[0]
    });
    assert_eq!(out, 30);
}

#[test]
fn multiple_returns_route_separately() {
    let (_report, (left, right)) = exo_rt::run(small_cluster(2), |rt| {
        let outs = rt
            .task(|_ctx| {
                vec![
                    Payload::inline(Bytes::from_static(b"left")),
                    Payload::inline(Bytes::from_static(b"right")),
                ]
            })
            .num_returns(2)
            .submit();
        let l = rt
            .task(|ctx: TaskCtx| vec![Payload::inline(ctx.args[0].data.clone())])
            .arg(&outs[0])
            .submit_one();
        let r = rt
            .task(|ctx: TaskCtx| vec![Payload::inline(ctx.args[0].data.clone())])
            .arg(&outs[1])
            .submit_one();
        (
            rt.get_one(&l).unwrap().data.to_vec(),
            rt.get_one(&r).unwrap().data.to_vec(),
        )
    });
    assert_eq!(left, b"left");
    assert_eq!(right, b"right");
}

#[test]
fn fanout_runs_in_parallel_across_cluster() {
    // 32 identical 1-second tasks on 4 nodes × 8 cpus = 32 slots should
    // finish in ~1 second of virtual time, not 32.
    let (report, _) = exo_rt::run(small_cluster(4), |rt| {
        let refs: Vec<_> = (0..32)
            .map(|_| {
                rt.task(const_task(vec![0]))
                    .cpu(CpuCost::fixed(SimDuration::from_secs(1)))
                    .strategy(SchedulingStrategy::Spread)
                    .submit_one()
            })
            .collect();
        rt.wait_all(&refs);
    });
    let t = report.end_time.as_secs_f64();
    assert!(t < 1.5, "expected ~1s, got {t}s");
}

#[test]
fn serial_when_single_slot_bound() {
    // 4 one-second tasks pinned to one node: 8 slots, but cpu cost means
    // they still run concurrently. Force serialisation with 9 tasks? No:
    // instead pin 16 tasks to a node with 8 cpus -> 2 rounds ~ 2s.
    let (report, _) = exo_rt::run(small_cluster(2), |rt| {
        let refs: Vec<_> = (0..16)
            .map(|_| {
                rt.task(const_task(vec![0]))
                    .cpu(CpuCost::fixed(SimDuration::from_secs(1)))
                    .on_node(exo_rt::NodeId(0))
                    .submit_one()
            })
            .collect();
        rt.wait_all(&refs);
    });
    let t = report.end_time.as_secs_f64();
    assert!(
        (1.9..2.6).contains(&t),
        "expected ~2s (two slot rounds), got {t}s"
    );
}

#[test]
fn wait_returns_ready_subset() {
    let (_report, (ready, pending)) = exo_rt::run(small_cluster(2), |rt| {
        let fast = rt
            .task(const_task(vec![1]))
            .cpu(CpuCost::fixed(SimDuration::from_millis(10)))
            .submit_one();
        let slow = rt
            .task(const_task(vec![2]))
            .cpu(CpuCost::fixed(SimDuration::from_secs(100)))
            .submit_one();
        rt.wait(&[fast.clone(), slow.clone()], 1, None)
    });
    assert_eq!(ready, vec![0]);
    assert_eq!(pending, vec![1]);
}

#[test]
fn wait_timeout_fires() {
    let (report, (ready, pending)) = exo_rt::run(small_cluster(2), |rt| {
        let slow = rt
            .task(const_task(vec![2]))
            .cpu(CpuCost::fixed(SimDuration::from_secs(100)))
            .submit_one();
        rt.wait(&[slow], 1, Some(SimDuration::from_secs(5)))
    });
    assert!(ready.is_empty());
    assert_eq!(pending, vec![0]);
    assert!((4.9..5.2).contains(&report.end_time.as_secs_f64()));
}

#[test]
fn sleep_and_now_track_virtual_time() {
    let (_report, (t0, t1)) = exo_rt::run(small_cluster(1), |rt| {
        let t0 = rt.now();
        rt.sleep(SimDuration::from_secs(42));
        (t0, rt.now())
    });
    assert_eq!(t0, SimTime::ZERO);
    assert_eq!(t1.as_secs_f64(), 42.0);
}

#[test]
fn remote_args_travel_over_network() {
    let (report, v) = exo_rt::run(small_cluster(2), |rt| {
        // Producer pinned to node 0, consumer to node 1: data must cross
        // the network.
        let big = vec![7u8; 1024];
        let a = rt
            .task(const_task(big))
            .on_node(exo_rt::NodeId(0))
            .submit_one();
        let b = rt
            .task(|ctx: TaskCtx| vec![Payload::inline(Bytes::from(vec![ctx.args[0].data[42]]))])
            .arg(&a)
            .on_node(exo_rt::NodeId(1))
            .submit_one();
        rt.get_one(&b).unwrap().data[0]
    });
    assert_eq!(v, 7);
    assert!(report.metrics.net_bytes >= 1024, "transfer not recorded");
}

#[test]
fn locality_scheduling_avoids_network() {
    let (report, _) = exo_rt::run(small_cluster(4), |rt| {
        let a = rt
            .task(const_task(vec![1u8; 4096]))
            .on_node(exo_rt::NodeId(2))
            .submit_one();
        rt.wait_all(std::slice::from_ref(&a));
        // Default strategy should colocate with the (large) argument.
        let b = rt
            .task(|ctx: TaskCtx| {
                vec![Payload::inline(Bytes::copy_from_slice(
                    &ctx.args[0].data[..1],
                ))]
            })
            .arg(&a)
            .submit_one();
        rt.get_one(&b).unwrap();
        rt.locations(&a)
    });
    assert_eq!(
        report.metrics.net_bytes, 0,
        "locality should avoid any transfer"
    );
}

#[test]
fn spilling_kicks_in_under_memory_pressure() {
    // Store capacity 1 MB; produce 8 objects of 512 KB (logical).
    let mut cfg = small_cluster(1);
    cfg.object_store_capacity = Some(1_000_000);
    cfg.fuse_min = 400_000;
    let (report, _) = exo_rt::run(cfg, |rt| {
        let refs: Vec<_> = (0..8)
            .map(|_| {
                rt.task(|_ctx| vec![Payload::scaled(Bytes::from_static(b"x"), 512_000)])
                    .submit_one()
            })
            .collect();
        rt.wait_all(&refs);
        // Keep refs alive so objects must spill rather than evict.
        rt.metrics()
    });
    assert!(
        report.metrics.store.spilled_bytes > 0,
        "expected spilling, metrics: {:?}",
        report.metrics.store
    );
}

#[test]
fn dropped_refs_avoid_spilling() {
    // Same pressure, but drop refs as soon as each object is consumed:
    // eviction should replace most spill writes (the ES-push* trick).
    let mut cfg = small_cluster(1);
    cfg.object_store_capacity = Some(1_000_000);
    let (report, _) = exo_rt::run(cfg, |rt| {
        for _ in 0..8 {
            let r = rt
                .task(|_ctx| vec![Payload::scaled(Bytes::from_static(b"x"), 512_000)])
                .submit_one();
            rt.wait_all(std::slice::from_ref(&r));
            drop(r); // release immediately
        }
    });
    assert_eq!(
        report.metrics.store.spilled_bytes, 0,
        "eager release should evict, not spill"
    );
    assert!(report.metrics.store.evicted_unwritten >= 7);
}

#[test]
fn generator_outputs_become_available_progressively() {
    let (_report, (first_ready_at, all_done_at)) = exo_rt::run(small_cluster(1), |rt| {
        let outs = rt
            .task(|_ctx| {
                (0..10)
                    .map(|i| Payload::inline(Bytes::from(vec![i as u8])))
                    .collect()
            })
            .num_returns(10)
            .generator()
            .cpu(CpuCost::fixed(SimDuration::from_secs(10)))
            .submit();
        let (ready, _) = rt.wait(&outs, 1, None);
        assert!(!ready.is_empty());
        let t1 = rt.now();
        rt.wait_all(&outs);
        (t1, rt.now())
    });
    assert!(
        first_ready_at.as_secs_f64() < 1.5,
        "first yield should land ~1s, got {first_ready_at}"
    );
    assert!(all_done_at.as_secs_f64() >= 9.9);
}

#[test]
fn node_failure_recovers_via_lineage() {
    let (report, v) = exo_rt::run(small_cluster(4), |rt| {
        // Produce on node 1, then kill node 1 before consumption.
        let a = rt
            .task(const_task(vec![9u8; 256]))
            .on_node(exo_rt::NodeId(1))
            .cpu(CpuCost::fixed(SimDuration::from_secs(1)))
            .submit_one();
        rt.wait_all(std::slice::from_ref(&a));
        rt.kill_node(
            exo_rt::NodeId(1),
            rt.now() + SimDuration::from_secs(1),
            Some(SimDuration::from_secs(30)),
        );
        rt.sleep(SimDuration::from_secs(5)); // let the failure land
        let b = rt
            .task(|ctx: TaskCtx| vec![Payload::inline(Bytes::from(vec![ctx.args[0].data[0]]))])
            .arg(&a)
            .on_node(exo_rt::NodeId(2))
            .submit_one();
        rt.get_one(&b).unwrap().data[0]
    });
    assert_eq!(v, 9);
    assert_eq!(report.metrics.node_failures, 1);
    assert!(
        report.metrics.tasks_reexecuted >= 1,
        "lineage reconstruction should re-run the producer"
    );
}

#[test]
fn fan_in_survives_losing_a_landed_arg_mid_wait() {
    // A 4-ary fan-in over producers on nodes 0–2. Node 1 dies after its
    // arg landed but while two slow args are still missing, so the
    // consumer's arrival countdown is invalidated mid-wait: the lost arg
    // is rebuilt from lineage, its re-landing and the slow landings
    // count down from a fresh scan (cross-checked in debug builds), and
    // the consumer still runs exactly once, on the right bytes.
    let run_once = || {
        exo_rt::run(small_cluster(4), |rt| {
            let producer = |v: u8, node: usize, secs: u64| {
                rt.task(const_task(vec![v]))
                    .on_node(exo_rt::NodeId(node))
                    .cpu(CpuCost::fixed(SimDuration::from_secs(secs)))
                    .submit_one()
            };
            let args = [
                producer(1, 0, 1),
                producer(2, 1, 8),
                producer(3, 2, 10),
                producer(4, 2, 20),
            ];
            let merged = rt
                .task(|ctx: TaskCtx| {
                    let v: Vec<u8> = ctx.args.iter().map(|p| p.data[0]).collect();
                    vec![Payload::inline(Bytes::from(v))]
                })
                .args(&args)
                .submit_one();
            rt.kill_node(
                exo_rt::NodeId(1),
                SimTime::ZERO + SimDuration::from_secs(9),
                Some(SimDuration::from_secs(1)),
            );
            rt.get_one(&merged).unwrap().data.to_vec()
        })
    };
    let (report, out) = run_once();
    assert_eq!(out, vec![1, 2, 3, 4]);
    assert_eq!(report.metrics.node_failures, 1);
    assert_eq!(
        report.metrics.tasks_reexecuted, 1,
        "only the lost arg's producer re-runs"
    );
    let (rerun, rerun_out) = run_once();
    assert_eq!(rerun_out, out);
    assert_eq!(rerun.end_time, report.end_time);
    assert_eq!(
        format!("{:?}", rerun.metrics),
        format!("{:?}", report.metrics)
    );
}

#[test]
fn one_object_watched_every_way_survives_a_killed_fetch_destination() {
    // One slow 1 GB object X on node 0 gathers every kind of interest at
    // once: five consumers pinned to nodes 1–5 wait for it, a `wait`
    // with a deadline times out on it, and a `get` blocks on it. When X
    // lands, each consumer stages it through its own inbound fetch,
    // serialised on node 0's NIC. Node 3 dies with its fetch in flight:
    // its fetch and staging registration go, its consumer re-places,
    // and nothing is lost, so no lineage re-run. X ends with copies on
    // five or more nodes, past the inline copy slots. Without prefetching,
    // node 3's consumer holds its execution slot while it stages, so the
    // kill must drop a slot held by a queued attempt.
    let run_once = |prefetch: bool| {
        let mut cfg = small_cluster(7);
        cfg.prefetch_args = prefetch;
        exo_rt::run(cfg, |rt| {
            let x = rt
                .task(|_ctx| vec![Payload::scaled(Bytes::from_static(&[40]), 1_000_000_000)])
                .on_node(exo_rt::NodeId(0))
                .cpu(CpuCost::fixed(SimDuration::from_secs(10)))
                .submit_one();
            let consumers: Vec<_> = (1..=5u8)
                .map(|i| {
                    rt.task(move |ctx: TaskCtx| {
                        vec![Payload::inline(Bytes::from(vec![ctx.args[0].data[0] + i]))]
                    })
                    .arg(&x)
                    .on_node(exo_rt::NodeId(i as usize))
                    .submit_one()
                })
                .collect();
            let timed_out = rt.wait(std::slice::from_ref(&x), 1, Some(SimDuration::from_secs(2)));
            let got = rt.get_one(&x).unwrap().data.to_vec();
            let landed = rt.now();
            rt.kill_node(exo_rt::NodeId(3), landed + SimDuration::from_secs(1), None);
            let outs: Vec<u8> = rt
                .get(&consumers)
                .unwrap()
                .iter()
                .map(|p| p.data[0])
                .collect();
            (timed_out, got, landed, outs, rt.locations(&x))
        })
    };
    for prefetch in [true, false] {
        let (report, (timed_out, got, landed, outs, copies)) = run_once(prefetch);
        assert_eq!(timed_out, (vec![], vec![0]), "the deadline fires first");
        assert_eq!(got, [40]);
        assert!(landed.as_secs_f64() >= 10.0);
        assert_eq!(outs, [41, 42, 43, 44, 45]);
        assert!(copies.len() >= 5, "copies: {copies:?}");
        assert!(!copies.contains(&exo_rt::NodeId(3)));
        // Node 3's fetch had started (five transfers began, one per pinned
        // consumer) and its re-placed consumer found a local copy.
        assert_eq!(report.metrics.net_ops, 5);
        assert_eq!(report.metrics.node_failures, 1);
        assert_eq!(
            report.metrics.tasks_reexecuted, 0,
            "a dead fetch destination loses no object"
        );
        let (rerun, rerun_out) = run_once(prefetch);
        assert_eq!(rerun_out.3, outs);
        assert_eq!(rerun_out.4, copies);
        assert_eq!(rerun.end_time, report.end_time);
        assert_eq!(
            format!("{:?}", rerun.metrics),
            format!("{:?}", report.metrics)
        );
    }
}

#[test]
fn task_ready_while_every_node_is_down_runs_after_restart() {
    let (_report, v) = exo_rt::run(small_cluster(1), |rt| {
        rt.kill_node(
            exo_rt::NodeId(0),
            rt.now() + SimDuration::from_secs(1),
            Some(SimDuration::from_secs(10)),
        );
        rt.sleep(SimDuration::from_secs(2)); // the only node is down
        let r = rt.task(const_task(vec![7])).submit_one();
        rt.get_one(&r).unwrap().data[0]
    });
    assert_eq!(v, 7);
}

/// Node 1 dies at 1 s and is back at 2 s. From 3 s it produces a 1 GB
/// object in 6 s, which node 0 then fetches over 2.5 Gbps, in flight
/// from 9 s to past 12 s. `second_kill` kills node 1 again at 1 s, while
/// it is down, asking for a restart at 10 s.
fn kill_then_fetch(second_kill: bool) -> (exo_rt::RunReport, u8) {
    let mut cfg = small_cluster(2);
    cfg.trace = TraceConfig::on();
    exo_rt::run(cfg, |rt| {
        let at = SimTime::ZERO + SimDuration::from_secs(1);
        rt.kill_node(exo_rt::NodeId(1), at, Some(SimDuration::from_secs(1)));
        if second_kill {
            rt.kill_node(exo_rt::NodeId(1), at, Some(SimDuration::from_secs(9)));
        }
        rt.sleep(SimDuration::from_secs(3));
        let x = rt
            .task(|_ctx| vec![Payload::scaled(Bytes::from_static(&[7]), 1_000_000_000)])
            .on_node(exo_rt::NodeId(1))
            .cpu(CpuCost::fixed(SimDuration::from_secs(6)))
            .submit_one();
        let y = rt
            .task(|ctx: TaskCtx| vec![Payload::inline(Bytes::from(vec![ctx.args[0].data[0]]))])
            .arg(&x)
            .on_node(exo_rt::NodeId(0))
            .submit_one();
        rt.get_one(&y).unwrap().data[0]
    })
}

#[test]
fn a_kill_of_a_dead_node_is_a_no_op_restart_and_all() {
    // The second kill must neither schedule a restart of its own (which
    // would find node 1 alive and void its in-flight fetch) nor leave a
    // trace: the run is the single kill's, edge for edge.
    let (single, v) = kill_then_fetch(false);
    let (double, w) = kill_then_fetch(true);
    assert_eq!((v, w), (7, 7));
    assert_eq!(single.metrics.node_failures, 1);
    assert_eq!(single.metrics.net_ops, 1);
    assert_eq!(double.end_time, single.end_time);
    assert_eq!(
        format!("{:?}", double.metrics),
        format!("{:?}", single.metrics)
    );
    assert!(single.trace.len() > 2, "trace retention is on");
    assert!(
        format!("{:?}", double.trace) == format!("{:?}", single.trace),
        "the trace streams differ"
    );
}

#[test]
fn get_after_failure_reconstructs_directly() {
    let (_report, v) = exo_rt::run(small_cluster(3), |rt| {
        let a = rt
            .task(const_task(vec![5u8]))
            .on_node(exo_rt::NodeId(2))
            .submit_one();
        rt.wait_all(std::slice::from_ref(&a));
        rt.kill_node(
            exo_rt::NodeId(2),
            rt.now() + SimDuration::from_millis(1),
            None,
        );
        rt.sleep(SimDuration::from_secs(1));
        rt.get_one(&a).unwrap().data[0]
    });
    assert_eq!(v, 5);
}

#[test]
fn deterministic_rng_makes_reconstruction_idempotent() {
    let (_report, (first, second)) = exo_rt::run(small_cluster(3), |rt| {
        let a = rt
            .task(|ctx: TaskCtx| {
                let mut rng = ctx.rng;
                vec![Payload::inline(Bytes::from(
                    vec![rng.next_below(250) as u8],
                ))]
            })
            .on_node(exo_rt::NodeId(1))
            .submit_one();
        let first = rt.get_one(&a).unwrap().data[0];
        rt.kill_node(
            exo_rt::NodeId(1),
            rt.now() + SimDuration::from_millis(1),
            None,
        );
        rt.sleep(SimDuration::from_secs(1));
        let second = rt.get_one(&a).unwrap().data[0];
        (first, second)
    });
    assert_eq!(
        first, second,
        "re-execution must reproduce identical output"
    );
}

#[test]
fn put_values_are_retrievable_and_passable() {
    let (_report, v) = exo_rt::run(small_cluster(2), |rt| {
        let p = rt.put(Payload::inline(Bytes::from_static(b"seed")));
        let t = rt
            .task(|ctx: TaskCtx| {
                let mut d = ctx.args[0].data.to_vec();
                d.extend_from_slice(b"!");
                vec![Payload::inline(Bytes::from(d))]
            })
            .arg(&p)
            .submit_one();
        rt.get_one(&t).unwrap().data.to_vec()
    });
    assert_eq!(v, b"seed!");
}

#[test]
fn lost_put_fails_its_job_instead_of_hanging() {
    // A driver `put` lives only on node 0 and has no lineage. Killing
    // node 0 loses it for good: a `get` of the put, and a `get` of a task
    // that consumes it, each fail with `ObjectLost` instead of waiting
    // forever. A `wait` on either, before or after the failing `get`,
    // returns at once with the target still pending.
    for via_task in [false, true] {
        for wait_first in [false, true] {
            let (_report, (got, waited, put)) = exo_rt::run(small_cluster(2), |rt| {
                let p = rt.put(Payload::inline(Bytes::from_static(b"seed")));
                rt.kill_node(
                    exo_rt::NodeId(0),
                    rt.now() + SimDuration::from_millis(1),
                    None,
                );
                rt.sleep(SimDuration::from_secs(1));
                let target = if via_task {
                    rt.task(|ctx: TaskCtx| vec![ctx.args[0].clone()])
                        .arg(&p)
                        .submit_one()
                } else {
                    p.clone()
                };
                let wait = || rt.wait(std::slice::from_ref(&target), 1, None);
                let waited = wait_first.then(wait);
                let got = rt.get_one(&target).err();
                (got, waited.unwrap_or_else(wait), p.id())
            });
            assert_eq!(got, Some(RtError::ObjectLost { obj: put }));
            assert_eq!(waited, (vec![], vec![0]));
        }
    }
}

#[test]
fn producers_are_found_across_puts_between_multi_return_tasks() {
    // Object ids come from one per-job counter: a put, a 3-return task,
    // a 0-return task, a put, a 2-return task. The id just past the first
    // task's range is the second put's, and the empty range starts at
    // it. Node 0 holds all of them; killing it makes both multi-return
    // tasks' outputs rebuild from their producers, while the put between
    // them has no producer and is lost.
    let returns = |tag: u8, n: u8| {
        move |_ctx: TaskCtx| {
            (0..n)
                .map(|i| Payload::inline(Bytes::from(vec![tag, i])))
                .collect::<Vec<_>>()
        }
    };
    let run_once = || {
        exo_rt::run(small_cluster(2), |rt| {
            let _head = rt.put(Payload::inline(Bytes::from_static(b"head")));
            let a = rt
                .task(returns(b'a', 3))
                .num_returns(3)
                .on_node(exo_rt::NodeId(0))
                .submit();
            assert!(rt.task(returns(b'z', 0)).num_returns(0).submit().is_empty());
            let between = rt.put(Payload::inline(Bytes::from_static(b"between")));
            let b = rt
                .task(returns(b'b', 2))
                .num_returns(2)
                .on_node(exo_rt::NodeId(0))
                .submit();
            assert_eq!(between.id().0, a[2].id().0 + 1);
            assert_eq!(b[0].id().0, between.id().0 + 1);
            let outs: Vec<_> = a.iter().chain(&b).cloned().collect();
            rt.wait_all(&outs);
            rt.kill_node(
                exo_rt::NodeId(0),
                rt.now() + SimDuration::from_millis(1),
                None,
            );
            rt.sleep(SimDuration::from_secs(1));
            let values: Vec<Vec<u8>> = rt
                .get(&outs)
                .unwrap()
                .into_iter()
                .map(|p| p.data.to_vec())
                .collect();
            let lost = rt.get_one(&between).err();
            (values, lost, between.id())
        })
    };
    let (report, out) = run_once();
    let (values, lost, between) = &out;
    assert_eq!(
        values,
        &vec![
            vec![b'a', 0],
            vec![b'a', 1],
            vec![b'a', 2],
            vec![b'b', 0],
            vec![b'b', 1]
        ]
    );
    assert_eq!(lost, &Some(RtError::ObjectLost { obj: *between }));
    // Three first runs and two re-runs: nothing rebuilds the 0-return task.
    assert_eq!(report.metrics.tasks_completed, 5);
    assert_eq!(report.metrics.tasks_reexecuted, 2);
    assert_eq!(report.metrics.objects_reconstructed, 5);
    let (rerun, rerun_out) = run_once();
    assert_eq!(rerun_out, out);
    assert_eq!(rerun.end_time, report.end_time);
    assert_eq!(
        format!("{:?}", rerun.metrics),
        format!("{:?}", report.metrics)
    );
}

#[test]
fn input_and_output_disk_charges_extend_runtime() {
    // A task reading 1.1 GiB on a d3 node (1100 MiB/s aggregate but one
    // sequential stream per server) should take ~seconds, not ~0.
    let cfg = RtConfig::new(ClusterSpec::homogeneous(NodeSpec::d3_2xlarge(), 1));
    let (report, _) = exo_rt::run(cfg, |rt| {
        let r = rt
            .task(const_task(vec![0]))
            .reads_input(1_100 * 1024 * 1024)
            .writes_output(1_100 * 1024 * 1024)
            .submit_one();
        rt.wait_all(std::slice::from_ref(&r));
    });
    let t = report.end_time.as_secs_f64();
    assert!(t > 5.0, "disk charges should dominate, got {t}s");
    assert!(report.metrics.disk_read_bytes >= 1_100 * 1024 * 1024);
    assert!(report.metrics.disk_write_bytes >= 1_100 * 1024 * 1024);
}

#[test]
fn metrics_count_tasks() {
    let (report, _) = exo_rt::run(small_cluster(2), |rt| {
        let refs: Vec<_> = (0..10)
            .map(|_| rt.task(const_task(vec![0])).submit_one())
            .collect();
        rt.wait_all(&refs);
    });
    assert_eq!(report.metrics.tasks_completed, 10);
}

#[test]
fn same_driver_program_is_deterministic() {
    let run_once = || {
        let (report, _) = exo_rt::run(small_cluster(3), |rt| {
            let refs: Vec<_> = (0..24)
                .map(|i| {
                    rt.task(const_task(vec![i as u8; 2048]))
                        .cpu(CpuCost::fixed(SimDuration::from_millis(100 + i)))
                        .strategy(SchedulingStrategy::Spread)
                        .submit_one()
                })
                .collect();
            let merged = rt
                .task(|ctx: TaskCtx| {
                    let sum: u64 = ctx.args.iter().map(|p| p.data[0] as u64).sum();
                    vec![Payload::inline(Bytes::from(sum.to_le_bytes().to_vec()))]
                })
                .args(&refs)
                .submit_one();
            rt.get_one(&merged).unwrap();
        });
        report.end_time
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn prefetch_off_serialises_fetch_with_execution() {
    // Producer on node 0, consumers on node 1. With prefetching the
    // transfers overlap queued execution; without it each consumer fetches
    // only once it holds a slot. Both must complete correctly, and the
    // no-prefetch run must not be faster.
    let run = |prefetch: bool| {
        let mut cfg = small_cluster(2);
        cfg.prefetch_args = prefetch;
        let (report, ok) = exo_rt::run(cfg, |rt| {
            let producers: Vec<_> = (0..8)
                .map(|i| {
                    rt.task(const_task(vec![i as u8; 1 << 16]))
                        .on_node(exo_rt::NodeId(0))
                        .submit_one()
                })
                .collect();
            let consumers: Vec<_> = producers
                .iter()
                .map(|p| {
                    rt.task(|ctx: TaskCtx| {
                        vec![Payload::inline(Bytes::copy_from_slice(
                            &ctx.args[0].data[..1],
                        ))]
                    })
                    .arg(p)
                    .on_node(exo_rt::NodeId(1))
                    .cpu(CpuCost::fixed(SimDuration::from_millis(50)))
                    .submit_one()
                })
                .collect();
            rt.get(&consumers).unwrap().len()
        });
        (report.end_time, ok)
    };
    let (t_pre, n1) = run(true);
    let (t_nopre, n2) = run(false);
    assert_eq!(n1, 8);
    assert_eq!(n2, 8);
    assert!(
        t_pre <= t_nopre,
        "prefetch {t_pre} should not lose to no-prefetch {t_nopre}"
    );
}

#[test]
fn store_overcommit_keeps_oversized_working_sets_live() {
    // One consumer whose combined arguments exceed the whole object store:
    // the store must overcommit rather than wedge.
    let mut cfg = small_cluster(1);
    cfg.object_store_capacity = Some(1_000_000);
    let (_report, v) = exo_rt::run(cfg, |rt| {
        let parts: Vec<_> = (0..4)
            .map(|i| {
                rt.task(move |_ctx: TaskCtx| {
                    vec![Payload::scaled(Bytes::from(vec![i as u8; 8]), 400_000)]
                })
                .submit_one()
            })
            .collect();
        let all = rt
            .task(|ctx: TaskCtx| {
                let sum: u64 = ctx.args.iter().map(|p| p.data[0] as u64).sum();
                vec![Payload::inline(Bytes::from(sum.to_le_bytes().to_vec()))]
            })
            .args(&parts)
            .submit_one();
        u64::from_le_bytes(rt.get_one(&all).unwrap().data[..8].try_into().unwrap())
    });
    assert_eq!(v, (0..4).sum::<u64>());
}

#[test]
fn locations_reports_copy_sites() {
    let (_report, (locs_before, locs_after)) = exo_rt::run(small_cluster(3), |rt| {
        let a = rt
            .task(const_task(vec![1u8; 512]))
            .on_node(exo_rt::NodeId(0))
            .submit_one();
        rt.wait_all(std::slice::from_ref(&a));
        let before = rt.locations(&a);
        // Consume it on node 2: a copy should appear there.
        let b = rt
            .task(|ctx: TaskCtx| vec![Payload::inline(ctx.args[0].data.clone())])
            .arg(&a)
            .on_node(exo_rt::NodeId(2))
            .submit_one();
        rt.wait_all(std::slice::from_ref(&b));
        (before, rt.locations(&a))
    });
    assert_eq!(locs_before, vec![exo_rt::NodeId(0)]);
    assert!(
        locs_after.contains(&exo_rt::NodeId(2)),
        "copy site missing: {locs_after:?}"
    );
}

#[test]
fn wait_clamps_num_ready_to_len() {
    let (_report, (ready, pending)) = exo_rt::run(small_cluster(1), |rt| {
        let a = rt.task(const_task(vec![1])).submit_one();
        rt.wait(std::slice::from_ref(&a), 99, None)
    });
    assert_eq!(ready, vec![0]);
    assert!(pending.is_empty());
}

#[test]
fn no_fusing_config_spills_per_object() {
    let mut cfg = small_cluster(1);
    cfg.object_store_capacity = Some(1_000_000);
    cfg.fuse_spill_writes = false;
    let (report, _) = exo_rt::run(cfg, |rt| {
        let refs: Vec<_> = (0..16)
            .map(|_| rt.task(|_ctx| vec![Payload::ghost(200_000)]).submit_one())
            .collect();
        rt.wait_all(&refs);
        refs.len()
    });
    let m = &report.metrics.store;
    assert!(
        m.spill_files >= m.spilled_objects,
        "one file per object without fusing: {m:?}"
    );
}

#[test]
fn executor_failure_loses_no_objects() {
    // Kill executors after production: completed outputs live in the
    // NodeManager's store and survive; nothing re-executes.
    let (report, v) = exo_rt::run(small_cluster(2), |rt| {
        let a = rt
            .task(const_task(vec![3u8; 128]))
            .on_node(exo_rt::NodeId(0))
            .submit_one();
        rt.wait_all(std::slice::from_ref(&a));
        rt.kill_executors(exo_rt::NodeId(0), rt.now() + SimDuration::from_millis(1));
        rt.sleep(SimDuration::from_secs(1));
        rt.get_one(&a).unwrap().data[0]
    });
    assert_eq!(v, 3);
    assert_eq!(report.metrics.executor_failures, 1);
    assert_eq!(
        report.metrics.tasks_reexecuted, 0,
        "objects survive executor death"
    );
}

#[test]
fn executor_failure_reruns_inflight_tasks() {
    // Node 1 runs a 10 s task while a consumer there stages a 1 GB arg
    // from node 0 (3.2 s on the wire). Without prefetching, that
    // consumer holds an execution slot while it stages. The executors die
    // at 2 s: the running task restarts from scratch, the staging
    // consumer keeps its attempt and its slot, and reruns are identical.
    let run_once = |prefetch: bool| {
        let mut cfg = small_cluster(2);
        cfg.prefetch_args = prefetch;
        exo_rt::run(cfg, |rt| {
            let a = rt
                .task(const_task(vec![9u8]))
                .cpu(CpuCost::fixed(SimDuration::from_secs(10)))
                .on_node(exo_rt::NodeId(1))
                .submit_one();
            let big = rt
                .task(|_ctx| vec![Payload::scaled(Bytes::from_static(&[7]), 1_000_000_000)])
                .on_node(exo_rt::NodeId(0))
                .submit_one();
            let c = rt
                .task(|ctx: TaskCtx| {
                    vec![Payload::inline(Bytes::from(vec![ctx.args[0].data[0] + 1]))]
                })
                .arg(&big)
                .on_node(exo_rt::NodeId(1))
                .submit_one();
            // Kill the executors mid-flight.
            rt.kill_executors(exo_rt::NodeId(1), rt.now() + SimDuration::from_secs(2));
            let outs = rt.get(&[a, c]).unwrap();
            (outs[0].data[0], outs[1].data[0])
        })
    };
    for prefetch in [true, false] {
        let (report, v) = run_once(prefetch);
        assert_eq!(v, (9, 8));
        assert_eq!(report.metrics.executor_failures, 1);
        assert!(
            report.end_time.as_secs_f64() >= 12.0,
            "task restarted from scratch: {}",
            report.end_time
        );
        let (rerun, rerun_v) = run_once(prefetch);
        assert_eq!(rerun_v, v);
        assert_eq!(rerun.end_time, report.end_time);
        assert_eq!(
            format!("{:?}", rerun.metrics),
            format!("{:?}", report.metrics)
        );
    }
}

#[test]
fn slow_node_multiplier_stretches_compute() {
    let run = |factor: f64| {
        let cfg = small_cluster(1).with_slow_node(0, factor);
        let (report, _) = exo_rt::run(cfg, |rt| {
            let r = rt
                .task(const_task(vec![0]))
                .cpu(CpuCost::fixed(SimDuration::from_secs(1)))
                .submit_one();
            rt.wait_all(std::slice::from_ref(&r));
        });
        report.end_time.as_secs_f64()
    };
    let fast = run(1.0);
    let slow = run(5.0);
    assert!((slow / fast - 5.0).abs() < 0.5, "fast {fast}, slow {slow}");
}

/// `(virtual µs at return, ready, pending)` of a `wait` or `get`.
type Resolved = (u64, Vec<usize>, Vec<usize>);

/// Twelve producers land at 1–12 s, submitted out of order; waits and a
/// get resolve on the landing that completes them.
fn staggered_waits() -> Vec<Resolved> {
    let (_report, seen) = exo_rt::run(small_cluster(4), |rt| {
        let secs = [7u64, 3, 11, 1, 9, 5, 12, 2, 8, 4, 10, 6];
        let objs: Vec<_> = secs
            .iter()
            .map(|&s| {
                rt.task(const_task(vec![s as u8]))
                    .cpu(CpuCost::fixed(SimDuration::from_secs(s)))
                    .submit_one()
            })
            .collect();
        let mut seen = Vec::new();
        let mut record = |(ready, pending): (Vec<usize>, Vec<usize>)| {
            seen.push((rt.now().as_micros(), ready, pending));
        };
        record(rt.wait(&objs, 3, None));
        // A duplicated ref counts once per listing.
        let dup: Vec<_> = objs.iter().chain(&objs[..2]).cloned().collect();
        record(rt.wait(&dup, 9, None));
        record(rt.wait(&objs, 12, Some(SimDuration::from_secs(2))));
        let got = rt.get(&objs).unwrap();
        let bytes: Vec<u8> = got.iter().map(|p| p.data[0]).collect();
        assert_eq!(bytes, secs.map(|s| s as u8));
        record(((0..objs.len()).collect(), vec![]));
        record(rt.wait(&objs, 12, None));
        seen
    });
    seen
}

/// A counted object is lost and rebuilt while a wait and a get watch
/// it: the wait counted it at registration (twice, listed twice), its
/// node dies, lineage rebuilds it, and its re-landing wakes the wait
/// again, so the running count overshoots the true one.
fn lost_and_rebuilt_waits() -> (Vec<Resolved>, u64) {
    let (report, seen) = exo_rt::run(small_cluster(4), |rt| {
        let producer = |v: u8, secs: u64| {
            rt.task(const_task(vec![v]))
                .cpu(CpuCost::fixed(SimDuration::from_secs(secs)))
                .submit_one()
        };
        let (a, b, c, d) = (
            producer(1, 1),
            producer(2, 6),
            producer(3, 12),
            producer(4, 3),
        );
        let mut seen = Vec::new();
        let (ready, pending) = rt.wait(std::slice::from_ref(&a), 1, None);
        seen.push((rt.now().as_micros(), ready, pending));
        let home = rt.locations(&a)[0];
        rt.kill_node(
            home,
            rt.now() + SimDuration::from_secs(1),
            Some(SimDuration::from_secs(1)),
        );
        let watched = [a.clone(), b.clone(), c.clone(), d.clone(), a.clone()];
        let (ready, pending) = rt.wait(&watched, 4, None);
        seen.push((rt.now().as_micros(), ready, pending));
        let got = rt.get(&[a, b, c, d]).unwrap();
        let bytes: Vec<u8> = got.iter().map(|p| p.data[0]).collect();
        assert_eq!(bytes, [1, 2, 3, 4]);
        seen.push((rt.now().as_micros(), vec![0, 1, 2, 3], vec![]));
        seen
    });
    (seen, report.metrics.tasks_reexecuted)
}

/// Each `wait` and `get` resolves at the same virtual time with the
/// same (ready, pending) split as a full recount on every wake would
/// give: the values below were recorded from that implementation.
#[test]
fn waits_and_gets_resolve_on_the_landing_that_completes_them() {
    let all: Vec<usize> = (0..12).collect();
    assert_eq!(
        staggered_waits(),
        [
            (3_000_000, vec![1, 3, 7], vec![0, 2, 4, 5, 6, 8, 9, 10, 11]),
            (
                7_000_000,
                vec![0, 1, 3, 5, 7, 9, 11, 12, 13],
                vec![2, 4, 6, 8, 10]
            ),
            (9_000_000, vec![0, 1, 3, 4, 5, 7, 8, 9, 11], vec![2, 6, 10]),
            (12_000_000, all.clone(), vec![]),
            (12_000_000, all, vec![]),
        ]
    );
    let (seen, reexecuted) = lost_and_rebuilt_waits();
    assert_eq!(reexecuted, 1, "the lost object is rebuilt once");
    assert_eq!(
        seen,
        [
            (1_000_000, vec![0], vec![]),
            (6_000_000, vec![0, 1, 3, 4], vec![2]),
            (12_000_000, vec![0, 1, 2, 3], vec![]),
        ]
    );
}

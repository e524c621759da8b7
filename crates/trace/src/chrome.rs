//! Chrome trace-event JSON exporter (the array format understood by
//! `chrome://tracing` and Perfetto).
//!
//! Layout: one *process* per node (`pid` = node id). Within a node,
//! task executions become complete (`"X"`) events on per-slot lanes
//! (`tid` 0..cpu_slots, assigned greedily so overlapping tasks never
//! share a lane); store/spill activity becomes instant (`"i"`) events
//! on a dedicated lane; each `ResourceSample` field becomes a counter
//! (`"C"`) track, one per node×resource as the issue requires. Failures
//! are global instants. Output is sorted by timestamp, so every track's
//! timestamps are monotonically non-decreasing.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::attempts::{AttemptRecord, AttemptTable};
use crate::event::{Event, EventKind, IncidentKind, ObjectPhase};
use crate::json::escape;

/// Lane used for store instant events, above any plausible slot count.
const STORE_LANE: u32 = 1000;

/// Pseudo-process id for the `incidents` track (detector verdicts from
/// `exo-watch`), above any plausible node id.
const INCIDENTS_PID: u32 = 9999;

/// Pseudo-process id for the `jobs` track (job lifecycle edges under the
/// multi-job runtime), one lane per tenant.
const JOBS_PID: u32 = 9998;

/// In multi-job traces each (job, node) pair gets its own process so a
/// job's tasks render as one group; single-job traces keep the legacy
/// `pid = node` layout byte-for-byte.
fn job_pid(job: u32, node: u32) -> u32 {
    (job + 1) * 10_000 + node
}

/// Serialises `events` as a Chrome trace-event JSON array.
pub fn chrome_trace_json(events: &[Event]) -> String {
    // (sort key ts, serialized object) — metadata first at ts 0.
    let mut entries: Vec<(u64, String)> = Vec::new();
    let mut nodes_seen: Vec<u32> = Vec::new();
    let note_node = |entries: &mut Vec<(u64, String)>, nodes_seen: &mut Vec<u32>, node: u32| {
        if !nodes_seen.contains(&node) {
            nodes_seen.push(node);
            entries.push((
                0,
                format!(
                    r#"{{"name":"process_name","ph":"M","pid":{node},"tid":0,"args":{{"name":"node{node}"}}}}"#
                ),
            ));
            entries.push((
                0,
                format!(
                    r#"{{"name":"process_sort_index","ph":"M","pid":{node},"tid":0,"args":{{"sort_index":{node}}}}}"#
                ),
            ));
        }
    };

    // Pass 1: fold task edges into the attempt table; render the rest.
    let mut jobs_seen: BTreeMap<u32, u32> = BTreeMap::new(); // job -> tenant
    let mut any_job_event = false;
    let mut attempts = AttemptTable::default();
    // Incident open edges awaiting their close: id → (t_open, event).
    // Ordered: stray opens are flushed by iterating this map, and the
    // final sort is stable, so same-ts spans would otherwise come out
    // in hash order and the rendered bytes would differ across runs.
    let mut open_incidents: BTreeMap<u32, (u64, crate::event::IncidentEvent)> = BTreeMap::new();
    let mut any_incident = false;

    for ev in events {
        match &ev.kind {
            EventKind::Task(t) => attempts.apply(ev.at_us, t),
            EventKind::Object(o) => {
                note_node(&mut entries, &mut nodes_seen, o.node);
                // Spill-path transitions show as instants on the store
                // lane; Created/Transferred are high-volume and live in
                // the counter tracks / JSONL stream instead.
                if matches!(
                    o.phase,
                    ObjectPhase::Spilled
                        | ObjectPhase::Restored
                        | ObjectPhase::Fallback
                        | ObjectPhase::Reconstructed
                ) {
                    entries.push((
                        ev.at_us,
                        format!(
                            r#"{{"name":"{}","cat":"store","ph":"i","ts":{},"pid":{},"tid":{},"s":"t","args":{{"object":{},"bytes":{}}}}}"#,
                            o.phase.name(),
                            ev.at_us,
                            o.node,
                            STORE_LANE,
                            o.object,
                            o.bytes
                        ),
                    ));
                }
            }
            EventKind::Resource(r) => {
                note_node(&mut entries, &mut nodes_seen, r.node);
                for (name, value) in [
                    ("cpu_slots_busy", r.cpu_slots_busy as u64),
                    ("store_used", r.store_used),
                    ("disk_queue_depth", r.disk_queue_depth as u64),
                    ("nic_bytes_in_flight", r.nic_bytes_in_flight),
                ] {
                    entries.push((
                        ev.at_us,
                        format!(
                            r#"{{"name":"{name}","cat":"resource","ph":"C","ts":{},"pid":{},"args":{{"{name}":{value}}}}}"#,
                            ev.at_us, r.node
                        ),
                    ));
                }
            }
            EventKind::Failure(f) => {
                note_node(&mut entries, &mut nodes_seen, f.node);
                entries.push((
                    ev.at_us,
                    format!(
                        r#"{{"name":"{}","cat":"failure","ph":"i","ts":{},"pid":{},"tid":0,"s":"g"}}"#,
                        f.kind.name(),
                        ev.at_us,
                        f.node
                    ),
                ));
            }
            EventKind::Incident(inc) => {
                any_incident = true;
                if inc.open {
                    open_incidents.insert(inc.id, (ev.at_us, *inc));
                } else if let Some((t_open, _)) = open_incidents.remove(&inc.id) {
                    // The close edge carries the peak severity/value, so
                    // the rendered span reports the whole incident.
                    entries.push((t_open, incident_span(t_open, ev.at_us, inc)));
                }
            }
            EventKind::Job(j) => {
                any_job_event = true;
                jobs_seen.insert(j.job, j.tenant);
                entries.push((
                    ev.at_us,
                    format!(
                        r#"{{"name":"job{} {}","cat":"job","ph":"i","ts":{},"pid":{JOBS_PID},"tid":{},"s":"p","args":{{"job":{},"tenant":{},"label":"{}"}}}}"#,
                        j.job,
                        j.phase.name(),
                        ev.at_us,
                        j.tenant,
                        j.job,
                        j.tenant,
                        escape(j.label)
                    ),
                ));
            }
            // Dependency edges and fetch-wait intervals are analysis
            // inputs (exo-prof); they stay out of the rendered timeline
            // but remain available in the JSONL sibling.
            EventKind::Dep(_) | EventKind::FetchWait(_) | EventKind::Io(_) => {}
        }
    }
    // Open incidents with no close edge (a truncated stream; the runtime
    // force-closes at end_time) still render, as zero-length spans.
    for (t_open, inc) in open_incidents.into_values() {
        entries.push((t_open, incident_span(t_open, t_open, &inc)));
    }
    if any_incident {
        entries.push((
            0,
            format!(
                r#"{{"name":"process_name","ph":"M","pid":{INCIDENTS_PID},"tid":0,"args":{{"name":"incidents"}}}}"#
            ),
        ));
        entries.push((
            0,
            format!(
                r#"{{"name":"process_sort_index","ph":"M","pid":{INCIDENTS_PID},"tid":0,"args":{{"sort_index":{INCIDENTS_PID}}}}}"#
            ),
        ));
        for (lane, kind) in IncidentKind::ALL.iter().enumerate() {
            entries.push((
                0,
                format!(
                    r#"{{"name":"thread_name","ph":"M","pid":{INCIDENTS_PID},"tid":{lane},"args":{{"name":"{}"}}}}"#,
                    kind.name()
                ),
            ));
        }
    }

    // A span per scheduled attempt that finished (one a requeue abandoned
    // never does), in finish order until the stable sort by start below.
    let mut spans: Vec<(u64, u64, AttemptRecord)> = attempts
        .finished()
        .filter(|r| r.scheduled.is_some())
        .map(|&r| {
            let end = r.finished.unwrap_or(0);
            let start = r.started.or(r.dequeued).or(r.scheduled).unwrap_or(end);
            (start, end, r)
        })
        .collect();
    for (_, _, r) in &spans {
        jobs_seen.entry(r.job).or_insert(0);
    }

    // Pass 2: greedy lane assignment per process so overlapping
    // executions render side by side like CPU slots. With more than one
    // job in the stream, each (job, node) pair becomes its own process
    // so a job's tasks group together; single-job traces keep the
    // legacy `pid = node` layout exactly.
    let multi_job = jobs_seen.len() > 1;
    if any_job_event {
        let tenants: std::collections::BTreeSet<u32> = jobs_seen.values().copied().collect();
        for tenant in tenants {
            entries.push((
                0,
                format!(
                    r#"{{"name":"thread_name","ph":"M","pid":{JOBS_PID},"tid":{tenant},"args":{{"name":"tenant{tenant}"}}}}"#
                ),
            ));
        }
        entries.push((
            0,
            format!(
                r#"{{"name":"process_name","ph":"M","pid":{JOBS_PID},"tid":0,"args":{{"name":"jobs"}}}}"#
            ),
        ));
        entries.push((
            0,
            format!(
                r#"{{"name":"process_sort_index","ph":"M","pid":{JOBS_PID},"tid":0,"args":{{"sort_index":{JOBS_PID}}}}}"#
            ),
        ));
    }
    spans.sort_by_key(|&(start, _, _)| start);
    let mut lanes_free: HashMap<u32, Vec<u64>> = HashMap::new(); // pid -> end time per lane
                                                                 // Ordered: iterated below to emit thread_name metadata, all at ts 0,
                                                                 // where the stable sort preserves emission order.
    let mut lane_count: BTreeMap<u32, u32> = BTreeMap::new();
    let mut job_pids_named: Vec<u32> = Vec::new();
    for &(start, end, ref s) in &spans {
        let pid = if multi_job {
            let pid = job_pid(s.job, s.node);
            if !job_pids_named.contains(&pid) {
                job_pids_named.push(pid);
                entries.push((
                    0,
                    format!(
                        r#"{{"name":"process_name","ph":"M","pid":{pid},"tid":0,"args":{{"name":"job{} node{}"}}}}"#,
                        s.job, s.node
                    ),
                ));
                entries.push((
                    0,
                    format!(
                        r#"{{"name":"process_sort_index","ph":"M","pid":{pid},"tid":0,"args":{{"sort_index":{pid}}}}}"#
                    ),
                ));
            }
            pid
        } else {
            note_node(&mut entries, &mut nodes_seen, s.node);
            s.node
        };
        let free = lanes_free.entry(pid).or_default();
        let lane = match free.iter().position(|&busy_until| busy_until <= start) {
            Some(i) => {
                free[i] = end;
                i as u32
            }
            None => {
                free.push(end);
                (free.len() - 1) as u32
            }
        };
        let lc = lane_count.entry(pid).or_insert(0);
        *lc = (*lc).max(lane + 1);
        let mut args = format!(
            r#""task":{},"attempt":{},"queue_wait_us":{},"stage_wait_us":{}"#,
            s.task,
            s.attempt,
            s.queue_us(),
            s.stage_us()
        );
        if multi_job {
            let _ = write!(args, r#","job":{}"#, s.job);
        }
        if let Some(p) = s.reason {
            let _ = write!(
                args,
                r#","placed":"{}","policy":"{}""#,
                p.reason.name(),
                p.policy
            );
        }
        entries.push((
            start,
            format!(
                r#"{{"name":"{}","cat":"task","ph":"X","ts":{},"dur":{},"pid":{},"tid":{},"args":{{{}}}}}"#,
                escape(s.label),
                start,
                end.saturating_sub(start).max(1),
                pid,
                lane,
                args
            ),
        ));
    }

    // Lane names.
    for (&pid, &count) in &lane_count {
        for lane in 0..count {
            entries.push((
                0,
                format!(
                    r#"{{"name":"thread_name","ph":"M","pid":{pid},"tid":{lane},"args":{{"name":"cpu slot {lane}"}}}}"#
                ),
            ));
        }
    }
    for &node in &nodes_seen {
        entries.push((
            0,
            format!(
                r#"{{"name":"thread_name","ph":"M","pid":{node},"tid":{STORE_LANE},"args":{{"name":"store"}}}}"#
            ),
        ));
    }

    entries.sort_by_key(|(ts, _)| *ts);
    let mut out = String::with_capacity(entries.len() * 96 + 2);
    out.push('[');
    for (i, (_, e)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        out.push_str(e);
    }
    out.push_str("\n]\n");
    out
}

/// One incident as a complete (`"X"`) span on the `incidents` track,
/// one lane per [`IncidentKind`].
fn incident_span(t_open: u64, t_close: u64, inc: &crate::event::IncidentEvent) -> String {
    let lane = IncidentKind::ALL
        .iter()
        .position(|k| *k == inc.kind)
        .unwrap_or(0);
    let mut args = format!(
        r#""id":{},"severity":{},"value":{},"threshold":{}"#,
        inc.id,
        crate::json::Json::from(inc.severity).render(),
        crate::json::Json::from(inc.value).render(),
        crate::json::Json::from(inc.threshold).render()
    );
    if let Some(node) = inc.node {
        let _ = write!(args, r#","node":{node}"#);
    }
    if let Some(stage) = inc.stage {
        let _ = write!(args, r#","stage":"{}""#, escape(stage));
    }
    if let Some(task) = inc.task {
        let _ = write!(args, r#","task":{task}"#);
    }
    if let Some(tenant) = inc.tenant {
        let _ = write!(args, r#","tenant":{tenant}"#);
    }
    format!(
        r#"{{"name":"{}","cat":"incident","ph":"X","ts":{},"dur":{},"pid":{},"tid":{},"args":{{{}}}}}"#,
        inc.kind.name(),
        t_open,
        t_close.saturating_sub(t_open).max(1),
        INCIDENTS_PID,
        lane,
        args
    )
}

/// Writes the Chrome trace for `events` to `path`.
pub fn write_chrome_trace(path: &Path, events: &[Event]) -> io::Result<()> {
    std::fs::write(path, chrome_trace_json(events))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::*;

    fn task(task: u64, phase: TaskPhase, node: u32, at_us: u64) -> Event {
        Event {
            at_us,
            kind: EventKind::Task(TaskSpan {
                job: 0,
                task,
                phase,
                node,
                label: "map",
                attempt: 0,
                retry: false,
                reason: if phase == TaskPhase::Scheduled {
                    Some(Placement {
                        reason: PlaceReason::LocalityHit,
                        policy: "load_balance",
                        score: 0.0,
                        slots_free: 0,
                        slots_total: 0,
                    })
                } else {
                    None
                },
            }),
        }
    }

    #[test]
    fn overlapping_tasks_get_distinct_lanes() {
        let events = vec![
            task(1, TaskPhase::Scheduled, 0, 0),
            task(2, TaskPhase::Scheduled, 0, 0),
            task(1, TaskPhase::Started, 0, 10),
            task(2, TaskPhase::Started, 0, 15),
            task(1, TaskPhase::Finished, 0, 30),
            task(2, TaskPhase::Finished, 0, 35),
        ];
        let json = chrome_trace_json(&events);
        assert!(json.contains(r#""ph":"X","ts":10"#));
        assert!(
            json.contains(r#""tid":0"#) && json.contains(r#""tid":1"#),
            "{json}"
        );
        assert!(json.contains(r#""placed":"locality_hit""#));
    }

    #[test]
    fn resource_samples_become_counter_tracks() {
        let events = vec![Event {
            at_us: 500,
            kind: EventKind::Resource(ResourceSample {
                node: 2,
                cpu_slots_busy: 3,
                cpu_slots_total: 8,
                store_used: 1024,
                disk_queue_depth: 7,
                nic_bytes_in_flight: 99,
            }),
        }];
        let json = chrome_trace_json(&events);
        for name in [
            "cpu_slots_busy",
            "store_used",
            "disk_queue_depth",
            "nic_bytes_in_flight",
        ] {
            assert!(
                json.contains(&format!(r#""name":"{name}","cat":"resource","ph":"C""#)),
                "{name}"
            );
        }
        assert!(json.contains(r#""name":"node2""#));
    }
}

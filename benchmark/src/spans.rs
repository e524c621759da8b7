//! Host-time spans recorded by the benchmark around each public call it
//! makes into the system: kept in memory, written out as Chrome-trace
//! JSON at exit, and folded into self times (a span's duration minus the
//! part of its interval its child spans cover).
//!
//! The recorder is process-global because the multitenant workload opens
//! spans on job threads the runtime spawns for `'static` closures.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use exo_rt::trace::Json;

/// One closed span. Times are host microseconds since the recorder's
/// epoch (first use in the process).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Recorder-assigned thread number (1 = first thread that opened a span).
    pub tid: u64,
    /// Job id shared by the spans of one multitenant job.
    pub job: Option<u64>,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }

    pub fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .set("id", self.id)
            .set("name", self.name.as_str())
            .set("start_us", self.start_us)
            .set("end_us", self.end_us)
            .set("tid", self.tid);
        if let Some(p) = self.parent {
            j = j.set("parent", p);
        }
        if let Some(job) = self.job {
            j = j.set("job", job);
        }
        j
    }

    pub fn from_json(j: &Json) -> Option<Span> {
        let num = |k: &str| j.get(k).and_then(Json::as_f64);
        Some(Span {
            id: num("id")? as u64,
            parent: num("parent").map(|p| p as u64),
            name: j.get("name")?.as_str()?.to_string(),
            start_us: num("start_us")?,
            end_us: num("end_us")?,
            tid: num("tid")? as u64,
            job: num("job").map(|p| p as u64),
        })
    }
}

/// A span that has been opened and not yet closed.
#[must_use = "an open span is recorded only when closed"]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_us: f64,
    tid: u64,
    job: Option<u64>,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Host microseconds since the recorder's epoch.
pub fn now_us() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

pub fn open(name: &'static str, parent: Option<u64>, job: Option<u64>) -> Open {
    Open {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        name,
        start_us: now_us(),
        tid: TID.with(|t| *t),
        job,
    }
}

/// Closes `o` now; returns its duration in seconds.
pub fn close(o: Open) -> f64 {
    close_at(o, now_us())
}

/// Closes `o` at a given instant, so consecutive spans can share one
/// clock read and tile their parent exactly.
pub fn close_at(o: Open, end_us: f64) -> f64 {
    let span = Span {
        id: o.id,
        parent: o.parent,
        name: o.name.to_string(),
        start_us: o.start_us,
        end_us,
        tid: o.tid,
        job: o.job,
    };
    let dur = span.dur_us() / 1e6;
    SPANS.lock().expect("span recorder poisoned").push(span);
    dur
}

/// Opens a span at a given instant (the pair of [`close_at`]).
pub fn open_at(name: &'static str, parent: Option<u64>, start_us: f64) -> Open {
    Open {
        start_us,
        ..open(name, parent, None)
    }
}

/// Runs `f` inside a span.
pub fn timed<R>(
    name: &'static str,
    parent: Option<u64>,
    job: Option<u64>,
    f: impl FnOnce() -> R,
) -> R {
    let o = open(name, parent, job);
    let r = f();
    close(o);
    r
}

/// Drains every span recorded so far, in close order.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span recorder poisoned"))
}

/// Total duration of all spans named `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_us)
        .sum::<f64>()
        / 1e6
}

/// `span`'s duration minus the union of its children's intervals
/// (clipped to `span`), in µs. Children may overlap one another, as job
/// threads do under the multitenant coordinator.
fn self_time_us(span: &Span, spans: &[Span]) -> f64 {
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start_us.max(span.start_us), c.end_us.min(span.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in kids {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    span.dur_us() - covered
}

/// Per-name (count, total µs, self µs), in order of first appearance.
pub fn self_time_table(spans: &[Span]) -> Vec<(String, usize, f64, f64)> {
    let mut rows: Vec<(String, usize, f64, f64)> = Vec::new();
    for s in spans {
        let self_us = self_time_us(s, spans);
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.dur_us();
                r.3 += self_us;
            }
            None => rows.push((s.name.clone(), 1, s.dur_us(), self_us)),
        }
    }
    rows
}

/// Chrome-trace JSON ("X" complete events, host µs). `pid` separates
/// workloads in one file.
pub fn chrome_events(spans: &[Span], pid: u64, process: &str) -> Vec<Json> {
    let mut out = vec![Json::obj()
        .set("name", "process_name")
        .set("ph", "M")
        .set("pid", pid)
        .set("args", Json::obj().set("name", process))];
    for s in spans {
        let mut args = Json::obj().set("id", s.id);
        if let Some(p) = s.parent {
            args = args.set("parent", p);
        }
        if let Some(job) = s.job {
            args = args.set("job", job);
        }
        out.push(
            Json::obj()
                .set("name", s.name.as_str())
                .set("ph", "X")
                .set("ts", s.start_us)
                .set("dur", s.dur_us())
                .set("pid", pid)
                .set("tid", s.tid)
                .set("args", args),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            start_us: start,
            end_us: end,
            tid: 1,
            job: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "driver", 0.0, 100.0),
            // Overlapping children (concurrent job threads) count once.
            span(2, Some(1), "job", 10.0, 40.0),
            span(3, Some(1), "job", 30.0, 50.0),
            // Disjoint child.
            span(4, Some(1), "get", 60.0, 70.0),
            // A child running past its parent is clipped.
            span(5, Some(1), "late", 95.0, 120.0),
            // Grandchildren do not count against the grandparent.
            span(6, Some(2), "inner", 12.0, 14.0),
        ];
        assert_eq!(self_time_us(&spans[0], &spans), 100.0 - 40.0 - 10.0 - 5.0);
        assert_eq!(self_time_us(&spans[1], &spans), 30.0 - 2.0);
        assert_eq!(self_time_us(&spans[3], &spans), 10.0);
    }

    #[test]
    fn self_time_table_sums_by_name() {
        let spans = vec![
            span(1, None, "iteration", 0.0, 10.0),
            span(2, Some(1), "setup", 0.0, 2.0),
            span(3, Some(1), "driver", 2.0, 9.0),
            span(4, Some(1), "teardown", 9.0, 10.0),
            span(5, Some(3), "rt.wait_all", 3.0, 8.0),
            span(6, Some(3), "rt.wait_all", 8.0, 8.5),
        ];
        let t = self_time_table(&spans);
        let row = |n: &str| t.iter().find(|r| r.0 == n).cloned().expect("row");
        assert_eq!(row("iteration").3, 0.0);
        assert_eq!(row("driver").3, 7.0 - 5.5);
        assert_eq!(row("rt.wait_all").1, 2);
        assert_eq!(row("rt.wait_all").2, 5.5);
        assert_eq!(total_s(&spans, "rt.wait_all"), 5.5e-6);
    }

    #[test]
    fn spans_round_trip_through_json() {
        let mut s = span(7, Some(3), "job.join", 1.5, 2.25);
        s.job = Some(11);
        let back = Span::from_json(&Json::parse(&s.to_json().render()).expect("json"));
        assert_eq!(back, Some(s));
    }
}

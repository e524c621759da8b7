//! Bench-side observability plumbing: the shared `--trace <path>` /
//! `--profile [path]` / `--live <path>` / `--watch` flags,
//! Chrome-trace/JSONL export with an end-of-run text summary, the
//! exo-prof report, the streaming live-metrics timeseries, the online
//! incident detector, and the machine-readable `results/<name>.json`
//! files every binary writes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use exo_prof::{profile, CritTask};
use exo_rt::trace::{
    summarize, write_chrome_trace, write_jsonl, Event, EventKind, IncidentEvent, Json,
    NodeCapacityLine,
};
use exo_rt::watch::WatchReport;
use exo_rt::{LiveConfig, RtConfig, RunReport, TraceConfig, WatchConfig};
use exo_sim::DeviceCaps;

use crate::runs::SortRunResult;

/// How one `--flag`/`--flag=value`/`--flag value` appeared on the
/// command line. Shared by `--trace` (value required) and `--profile`
/// (value optional).
#[derive(Debug, Clone, PartialEq, Eq)]
enum FlagArg {
    Absent,
    /// Flag present, with its value if one was given.
    Present(Option<PathBuf>),
}

/// Parses `flag` out of `args`. A following argument is its value
/// unless it looks like another flag.
fn parse_path_flag(flag: &str, args: &[String]) -> FlagArg {
    let prefix = format!("{flag}=");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return match it.clone().next() {
                Some(v) if !v.starts_with("--") => FlagArg::Present(Some(PathBuf::from(v))),
                _ => FlagArg::Present(None),
            };
        }
        if let Some(rest) = a.strip_prefix(&prefix) {
            return if rest.is_empty() {
                FlagArg::Present(None)
            } else {
                FlagArg::Present(Some(PathBuf::from(rest)))
            };
        }
    }
    FlagArg::Absent
}

fn argv() -> Vec<String> {
    std::env::args().collect()
}

/// Path given via `--trace <path>` or `--trace=<path>`, if any.
/// A bare `--trace` with no path is a hard usage error: silently
/// tracing nowhere wastes a (possibly long) instrumented run.
pub fn trace_flag() -> Option<PathBuf> {
    match parse_path_flag("--trace", &argv()) {
        FlagArg::Absent => None,
        FlagArg::Present(Some(path)) => Some(path),
        FlagArg::Present(None) => {
            eprintln!("error: --trace requires an output path, e.g. `--trace run.trace.json`");
            std::process::exit(2);
        }
    }
}

/// Whether `--profile` was passed, and the optional path to also write
/// the profile report JSON to (`--profile=prof.json`).
pub fn profile_flag() -> (bool, Option<PathBuf>) {
    match parse_path_flag("--profile", &argv()) {
        FlagArg::Absent => (false, None),
        FlagArg::Present(path) => (true, path),
    }
}

/// Path given via `--live <path>` or `--live=<path>`, if any: the JSONL
/// live-metrics timeseries destination. Like `--trace`, a bare `--live`
/// is a hard usage error rather than a silently-discarded timeseries.
pub fn live_flag() -> Option<PathBuf> {
    match parse_path_flag("--live", &argv()) {
        FlagArg::Absent => None,
        FlagArg::Present(Some(path)) => Some(path),
        FlagArg::Present(None) => {
            eprintln!("error: --live requires an output path, e.g. `--live run.live.jsonl`");
            std::process::exit(2);
        }
    }
}

/// Whether `--live-progress` was passed: print the one-line live
/// summary to stderr at every snapshot tick.
pub fn live_progress_flag() -> bool {
    !matches!(parse_path_flag("--live-progress", &argv()), FlagArg::Absent)
}

/// Whether `--watch` was passed: run the `exo-watch` online incident
/// detectors against the instrumented run and embed the incident set
/// under `"incidents"` in the results file.
pub fn watch_flag() -> bool {
    !matches!(parse_path_flag("--watch", &argv()), FlagArg::Absent)
}

/// Placement policy requested via `--policy <name>` /
/// `--policy=<name>`, if any. Unknown names and a bare `--policy` are
/// hard usage errors — silently falling back to the default would make
/// policy comparisons lie.
pub fn policy_flag() -> Option<std::sync::Arc<dyn exo_rt::PlacementPolicy>> {
    match parse_path_flag("--policy", &argv()) {
        FlagArg::Absent => None,
        FlagArg::Present(Some(path)) => {
            let name = path.to_string_lossy();
            match exo_rt::policy_from_name(&name) {
                Some(policy) => Some(policy),
                None => {
                    eprintln!(
                        "error: unknown --policy '{name}' (expected load_balance, bound_aware or hybrid)"
                    );
                    std::process::exit(2);
                }
            }
        }
        FlagArg::Present(None) => {
            eprintln!("error: --policy requires a name: load_balance, bound_aware or hybrid");
            std::process::exit(2);
        }
    }
}

/// Apply the `--policy` flag (if present) to a run's config.
pub fn apply_policy(cfg: &mut RtConfig) {
    if let Some(policy) = policy_flag() {
        cfg.placement = policy;
    }
}

/// Hook one simulated run up to the observability flags: `--policy`
/// applies to every run, while `--trace`/`--profile`/`--live`/`--watch`
/// instrument only the first run of a sweep (outside [`without_trace`]).
/// Pass the run's report to [`Obs::finish`] once it returns.
pub fn instrument(cfg: &mut RtConfig) -> Obs {
    apply_policy(cfg);
    let obs = claim_obs();
    cfg.trace = obs.cfg.clone();
    cfg.live = obs.live_cfg();
    cfg.watch = obs.watch_cfg();
    obs
}

static OBS_CLAIMED: AtomicBool = AtomicBool::new(false);
static OBS_SUPPRESSED: AtomicBool = AtomicBool::new(false);

/// The claimed observability request for one simulated run: carries the
/// [`TraceConfig`] that [`instrument`] puts on `RtConfig` and knows what
/// to do with the retained events afterwards (see [`Obs::finish`]).
#[derive(Debug)]
pub struct Obs {
    cfg: TraceConfig,
    trace_path: Option<PathBuf>,
    profile: bool,
    profile_path: Option<PathBuf>,
    live_path: Option<PathBuf>,
    live_progress: bool,
    watch: bool,
}

impl Obs {
    fn disabled() -> Obs {
        Obs {
            cfg: TraceConfig::default(),
            trace_path: None,
            profile: false,
            profile_path: None,
            live_path: None,
            live_progress: false,
            watch: false,
        }
    }

    /// Whether this run was instrumented at all.
    pub fn active(&self) -> bool {
        self.cfg.enabled || self.live_path.is_some() || self.watch
    }

    /// The [`LiveConfig`] to put on `RtConfig::live` before running, if
    /// `--live` asked for a timeseries. Streaming observers need no
    /// event retention, so `--live` alone leaves `cfg.enabled` false.
    fn live_cfg(&self) -> Option<LiveConfig> {
        self.live_path.as_ref().map(|_| LiveConfig {
            progress: self.live_progress,
        })
    }

    /// The [`WatchConfig`] to put on `RtConfig::watch` before running,
    /// if `--watch` asked for incident detection. Like `--live`, the
    /// detector is a streaming observer and needs no event retention.
    fn watch_cfg(&self) -> Option<WatchConfig> {
        self.watch.then(WatchConfig::default)
    }

    /// Consume a finished run's report: export the Chrome trace + JSONL
    /// if `--trace` asked for them, compute/print the exo-prof report if
    /// `--profile` did, and write the live timeseries if `--live` did —
    /// stashing the profile/live JSON so [`write_results`] embeds them
    /// under `"profile"` / `"live"`.
    pub fn finish(&self, report: &RunReport, caps: &DeviceCaps) {
        let events = &report.trace;
        if let Some(path) = &self.trace_path {
            export_trace_with_caps(path, events, caps);
        }
        let prof = self.profile.then(|| profile(events, caps));
        if let Some(prof) = &prof {
            println!("\n{prof}");
            let json = prof.to_json();
            if let Some(path) = &self.profile_path {
                match std::fs::write(path, json.render() + "\n") {
                    Ok(()) => eprintln!("wrote profile report to {}", path.display()),
                    Err(e) => eprintln!("failed to write profile {}: {e}", path.display()),
                }
            }
            *PROFILE_JSON.lock().expect("profile stash poisoned") = Some(json);
        }
        if self.watch {
            match &report.incidents {
                Some(watch) => {
                    let kinds: Vec<String> = watch
                        .by_kind()
                        .into_iter()
                        .map(|(k, n)| format!("{}={n}", k.name()))
                        .collect();
                    eprintln!(
                        "[watch] {} incident(s){}{}",
                        watch.len(),
                        if kinds.is_empty() { "" } else { ": " },
                        kinds.join(" ")
                    );
                    *WATCH_JSON.lock().expect("watch stash poisoned") = Some(incidents_json(
                        watch,
                        prof.as_ref().map(|p| p.critpath.tasks.as_slice()),
                    ));
                }
                // finish() on a run that never had watch configured — a
                // caller wiring bug worth surfacing, not hiding.
                None => eprintln!(
                    "warning: --watch was claimed but the run produced no incident report \
                     (RtConfig::watch not set?)"
                ),
            }
        }
        if let Some(path) = &self.live_path {
            match &report.live {
                Some(series) => {
                    // Incident transitions interleave into the live
                    // timeseries as `"type":"incident"` lines, ordered
                    // by virtual time.
                    let content = match &report.incidents {
                        Some(watch) if !watch.is_empty() => {
                            merge_incident_lines(&series.to_jsonl(), watch)
                        }
                        _ => series.to_jsonl(),
                    };
                    match std::fs::write(path, content) {
                        Ok(()) => eprintln!(
                            "wrote live timeseries ({} snapshots) to {}",
                            series.len(),
                            path.display()
                        ),
                        Err(e) => {
                            eprintln!("failed to write live timeseries {}: {e}", path.display())
                        }
                    }
                    *LIVE_JSON.lock().expect("live stash poisoned") = Some(series.summary_json());
                }
                // finish() on a run that never had live configured — a
                // caller wiring bug worth surfacing, not hiding.
                None => eprintln!(
                    "warning: --live was claimed but the run produced no live series \
                     (RtConfig::live not set?)"
                ),
            }
        }
    }
}

/// The open/close trace events of one detected incident, carrying its
/// peak evidence on both edges (the report keeps only the peak).
fn incident_edge_events(inc: &exo_rt::watch::Incident) -> [Event; 2] {
    let edge = |open| Event {
        at_us: if open {
            inc.t_open_us
        } else {
            inc.t_close_us.unwrap_or(inc.t_open_us)
        },
        kind: EventKind::Incident(IncidentEvent {
            id: inc.id,
            tenant: inc.tenant,
            kind: inc.kind,
            open,
            severity: inc.severity,
            node: inc.node,
            stage: inc.stage,
            task: inc.task,
            value: inc.value,
            threshold: inc.threshold,
        }),
    };
    [edge(true), edge(false)]
}

/// Merges incident open/close lines into a live-snapshot JSONL stream,
/// ordered by `at_us` (snapshots first at equal times, so delta folding
/// over snapshot lines is unaffected).
fn merge_incident_lines(snapshot_jsonl: &str, watch: &WatchReport) -> String {
    fn at_us_of(line: &str) -> u64 {
        line.strip_prefix(r#"{"at_us":"#)
            .and_then(|rest| rest.split([',', '}']).next())
            .and_then(|n| n.parse().ok())
            .unwrap_or(0)
    }
    let mut entries: Vec<(u64, u8, String)> = snapshot_jsonl
        .lines()
        .map(|l| (at_us_of(l), 0, l.to_string()))
        .collect();
    for inc in &watch.incidents {
        for ev in incident_edge_events(inc) {
            entries.push((ev.at_us, 1, exo_rt::trace::jsonl::event_json(&ev)));
        }
    }
    entries.sort_by_key(|(at, class, _)| (*at, *class));
    let mut out = String::with_capacity(snapshot_jsonl.len() + watch.len() * 160);
    for (_, _, line) in entries {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// The `"incidents"` results block: the watch report's JSON, plus —
/// when the run was also profiled — the exo-prof cross-attribution
/// (which incidents overlap the critical path).
fn incidents_json(watch: &WatchReport, crit_tasks: Option<&[CritTask]>) -> Json {
    let doc = watch.to_json();
    let Some(crit_tasks) = crit_tasks else {
        return doc;
    };
    let on_path: Vec<&exo_rt::watch::Incident> = watch
        .incidents
        .iter()
        .filter(|inc| {
            let close = inc.t_close_us.unwrap_or(inc.t_open_us);
            crit_tasks.iter().any(|t| {
                // A task-scoped incident attributes by identity; the
                // rest by interval overlap with an on-path execution.
                match inc.task {
                    Some(task) => task == t.task,
                    None => inc.t_open_us <= t.finished_us && t.started_us <= close,
                }
            })
        })
        .collect();
    doc.set("on_critical_path", on_path.len()).set(
        "critical_path_incident_ids",
        Json::from(
            on_path
                .iter()
                .map(|inc| Json::from(u64::from(inc.id)))
                .collect::<Vec<_>>(),
        ),
    )
}

/// Claim the `--trace`/`--profile`/`--live` flags for the *first*
/// simulated run of a sweep. Returns an enabled [`Obs`] exactly once;
/// every later call gets a disabled one, so instrumenting one
/// representative run leaves the rest of the sweep unperturbed.
fn claim_obs() -> Obs {
    if OBS_SUPPRESSED.load(Ordering::SeqCst) {
        return Obs::disabled();
    }
    let trace_path = trace_flag();
    let (profile, profile_path) = profile_flag();
    let live_path = live_flag();
    let watch = watch_flag();
    if trace_path.is_none() && !profile && live_path.is_none() && !watch {
        return Obs::disabled();
    }
    if OBS_CLAIMED.swap(true, Ordering::SeqCst) {
        return Obs::disabled();
    }
    Obs {
        // Live streaming and incident detection alone need no retention;
        // only --trace/--profile (which analyze the full stream) switch
        // it on.
        cfg: if trace_path.is_some() || profile {
            TraceConfig::on()
        } else {
            TraceConfig::default()
        },
        trace_path,
        profile,
        profile_path,
        live_path,
        live_progress: live_progress_flag(),
        watch,
    }
}

/// Run `f` with observability claiming suppressed. Used by bins whose
/// first simulated run is not the interesting one (fig4_ft instruments
/// the first *failure* run, not the clean baseline it needs beforehand).
pub fn without_trace<T>(f: impl FnOnce() -> T) -> T {
    OBS_SUPPRESSED.store(true, Ordering::SeqCst);
    let out = f();
    OBS_SUPPRESSED.store(false, Ordering::SeqCst);
    out
}

/// The profile JSON of the instrumented run, for embedding into the
/// results file written later in the same process.
static PROFILE_JSON: Mutex<Option<Json>> = Mutex::new(None);

/// The live summary JSON of the instrumented run, embedded under
/// `"live"` by [`write_results`].
static LIVE_JSON: Mutex<Option<Json>> = Mutex::new(None);

/// The incident-set JSON of the instrumented run, embedded under
/// `"incidents"` by [`write_results`].
static WATCH_JSON: Mutex<Option<Json>> = Mutex::new(None);

/// Export a finished run's trace: Chrome trace-event JSON at `path`
/// (loadable in Perfetto / `chrome://tracing`), a flat JSONL sibling, and
/// the text summary on stdout, with per-node capacity lines from the
/// cluster's capacity card.
pub fn export_trace_with_caps(path: &Path, events: &[Event], caps: &DeviceCaps) {
    match write_chrome_trace(path, events) {
        Ok(()) => eprintln!(
            "wrote Chrome trace ({} events) to {} — load it at https://ui.perfetto.dev",
            events.len(),
            path.display()
        ),
        Err(e) => eprintln!("failed to write trace {}: {e}", path.display()),
    }
    let jsonl = path.with_extension("jsonl");
    match write_jsonl(&jsonl, events) {
        Ok(()) => eprintln!("wrote flat event log to {}", jsonl.display()),
        Err(e) => eprintln!("failed to write event log {}: {e}", jsonl.display()),
    }
    let summary = summarize(events).with_capacities(capacity_lines(caps));
    println!("\n{summary}");
}

/// Per-node capacity lines for the trace summary, straight off the
/// cluster's capacity card.
pub fn capacity_lines(caps: &DeviceCaps) -> Vec<NodeCapacityLine> {
    caps.per_node
        .iter()
        .enumerate()
        .map(|(i, n)| NodeCapacityLine {
            node: i as u32,
            cpu_slots: n.cpu_slots as u32,
            disk_seq_bw: n.disk_seq_bw,
            nic_bw: n.nic_bw,
            store_bytes: n.store_bytes,
        })
        .collect()
}

/// For binaries that run no `exo-rt` simulation (fig6, table1): explain
/// why `--trace`/`--profile` produce nothing rather than silently
/// ignoring them.
pub fn obs_not_applicable(bin: &str) {
    if trace_flag().is_some() || profile_flag().0 || live_flag().is_some() || watch_flag() {
        eprintln!(
            "note: {bin} runs no exo-rt simulation; --trace/--profile/--live/--watch are ignored"
        );
    }
}

/// The shared metric fields of a [`SortRunResult`] as a JSON object.
pub fn sort_result_json(r: &SortRunResult) -> Json {
    Json::obj()
        .set("jct_s", r.jct.as_secs_f64())
        .set("spilled_bytes", r.spilled)
        .set("net_bytes", r.net)
        .set("disk_read_bytes", r.disk_read)
        .set("disk_write_bytes", r.disk_write)
        .set("tasks_reexecuted", r.reexecuted)
}

/// Write `results/<name>.json` (creating `results/` if needed) so sweeps
/// are machine-readable alongside the printed tables. When the process
/// profiled a run (`--profile`), its report is embedded as `"profile"`;
/// a `--live` run's summary is embedded as `"live"`.
pub fn write_results(name: &str, doc: Json) {
    let doc = match PROFILE_JSON.lock().expect("profile stash poisoned").clone() {
        Some(profile) => doc.set("profile", profile),
        None => doc,
    };
    let doc = match LIVE_JSON.lock().expect("live stash poisoned").clone() {
        Some(live) => doc.set("live", live),
        None => doc,
    };
    let doc = match WATCH_JSON.lock().expect("watch stash poisoned").clone() {
        Some(watch) => doc.set("incidents", watch),
        None => doc,
    };
    // Every results file carries the process-wide perf block (engine
    // events dispatched, sim-events/sec, peak RSS) so the perf
    // trajectory is visible across all bins, not just cloudsort_xl.
    let doc = doc.set("perf", crate::runs::perf_json());
    let dir = Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("failed to create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match std::fs::write(&path, doc.render() + "\n") {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exo_rt::trace::IncidentKind;
    use exo_rt::watch::Incident;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn flag_parsing_covers_all_spellings() {
        assert_eq!(parse_path_flag("--trace", &args(&[])), FlagArg::Absent);
        assert_eq!(
            parse_path_flag("--trace", &args(&["bin", "--quick"])),
            FlagArg::Absent
        );
        assert_eq!(
            parse_path_flag("--trace", &args(&["bin", "--trace", "t.json"])),
            FlagArg::Present(Some(PathBuf::from("t.json")))
        );
        assert_eq!(
            parse_path_flag("--trace", &args(&["bin", "--trace=t.json"])),
            FlagArg::Present(Some(PathBuf::from("t.json")))
        );
        // Missing values are detected, not swallowed: a trailing flag or
        // another option in value position both count as "no value".
        assert_eq!(
            parse_path_flag("--trace", &args(&["bin", "--trace"])),
            FlagArg::Present(None)
        );
        assert_eq!(
            parse_path_flag("--trace", &args(&["bin", "--trace", "--quick"])),
            FlagArg::Present(None)
        );
        assert_eq!(
            parse_path_flag("--trace", &args(&["bin", "--trace="])),
            FlagArg::Present(None)
        );
        // --profile shares the same parser; a bare flag is valid there.
        assert_eq!(
            parse_path_flag("--profile", &args(&["bin", "--profile"])),
            FlagArg::Present(None)
        );
        assert_eq!(
            parse_path_flag("--profile", &args(&["bin", "--profile=p.json"])),
            FlagArg::Present(Some(PathBuf::from("p.json")))
        );
    }

    fn crit_task(task: u64, started_us: u64, finished_us: u64) -> CritTask {
        CritTask {
            task,
            label: "reduce",
            node: 0,
            attempt: 0,
            started_us,
            finished_us,
            queue_us: 0,
            stage_us: 0,
            exec_us: finished_us - started_us,
            fetch_wait_us: 0,
            contribution_us: finished_us - started_us,
        }
    }

    fn incident(id: u32, kind: IncidentKind, task: Option<u64>, window: (u64, u64)) -> Incident {
        Incident {
            id,
            kind,
            t_open_us: window.0,
            t_close_us: Some(window.1),
            node: task.is_none().then_some(3),
            stage: None,
            task,
            tenant: None,
            value: 2.0,
            threshold: 1.0,
            severity: 2.0,
        }
    }

    #[test]
    fn incidents_cross_attribute_to_critical_tasks() {
        // Tasks 9 (executing 300..400) and 7 (100..200) are on the path.
        let path = [crit_task(9, 300, 400), crit_task(7, 100, 200)];
        let watch = WatchReport {
            incidents: vec![
                // Task-scoped on an on-path task: counts by identity,
                // though its window overlaps no on-path execution.
                incident(0, IncidentKind::Straggler, Some(7), (500, 600)),
                // Task-scoped on an off-path task: does not count, though
                // its window overlaps task 7's execution.
                incident(1, IncidentKind::Straggler, Some(8), (150, 160)),
                // Node-scoped, overlapping task 9's execution.
                incident(2, IncidentKind::DiskHotspot, None, (390, 450)),
                // Node-scoped, between the two executions: not counted.
                incident(3, IncidentKind::NetHotspot, None, (220, 280)),
            ],
        };
        let doc = incidents_json(&watch, Some(&path)).render();
        assert!(
            doc.ends_with(r#""on_critical_path":2,"critical_path_incident_ids":[0,2]}"#),
            "{doc}"
        );
        // An unprofiled run gets no cross-attribution.
        let plain = incidents_json(&watch, None).render();
        assert_eq!(plain, watch.to_json().render());
        assert!(!plain.contains("on_critical_path"), "{plain}");
    }
}

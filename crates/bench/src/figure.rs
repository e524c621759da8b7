//! Figures as results documents with views.
//!
//! A figure is a function of a [`Scale`] that returns a [`Figure`]: the
//! lines printed above it, a closure that runs it and returns its
//! results document, and the [`View`]s printed from that document. A
//! view is a table over an array in the document, one row per element
//! and one [`Column`] per cell, or a text line computed from it. [`run`]
//! writes the document to `results/<name>.json`, so no value is printed
//! without also being recorded. The sort figures are [`Figure::cases`]:
//! an ordered list of cases, each returning one row of `"runs"`.

use exo_ml::{DatasetSpec, TrainConfig, TrainReport};
use exo_monolith::{spark_sort, SparkConfig};
use exo_rt::trace::Json;
use exo_shuffle::{ShuffleVariant, ShuffleWindow};
use exo_sim::{ClusterSpec, NodeSpec};

use crate::obs::{obs_flags_given, settle_obs_claim};
use crate::runs::variant_name;
use crate::{run_es_sort, sort_result_json, write_results, EsSortParams, Table};

/// Which configuration of a figure to run: `--quick` shrinks it for
/// smoke tests, `--full` runs the paper's scale where a figure has one,
/// and neither runs the default.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Default,
    Full,
}

impl Scale {
    /// The scale named on this process's command line (`--quick` wins
    /// over `--full`).
    pub fn from_args() -> Scale {
        Scale::parse(std::env::args())
    }

    fn parse(args: impl IntoIterator<Item = impl AsRef<str>>) -> Scale {
        let (mut quick, mut full) = (false, false);
        for a in args {
            quick |= a.as_ref() == "--quick";
            full |= a.as_ref() == "--full";
        }
        match (quick, full) {
            (true, _) => Scale::Quick,
            (false, true) => Scale::Full,
            (false, false) => Scale::Default,
        }
    }

    /// The value for this scale.
    pub fn pick<T>(self, quick: T, default: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Default => default,
            Scale::Full => full,
        }
    }
}

/// One case: runs once and returns its JSON row.
pub type Case = Box<dyn FnOnce() -> Json>;

/// Text read from a JSON value: a column's cell for one row, where
/// `None` (a missing key) renders as `-`, or a text view of a document.
type Cell = Box<dyn Fn(&Json) -> Option<String>>;

/// One table column: a header and a cell read from a JSON row.
pub struct Column {
    header: String,
    cell: Cell,
}

impl Column {
    /// A column computed from the row.
    pub fn new(header: &str, cell: impl Fn(&Json) -> Option<String> + 'static) -> Column {
        Column {
            header: header.into(),
            cell: Box::new(cell),
        }
    }

    /// The value at `path` as written: strings bare, numbers as JSON.
    pub fn text(header: &str, path: &'static str) -> Column {
        Column::new(header, move |row| {
            Some(match field(row, path)? {
                Json::Str(s) => s.clone(),
                other => other.render(),
            })
        })
    }

    /// The number at `path` divided by `unit`, to `decimals` places.
    pub fn num(header: &str, path: &'static str, unit: f64, decimals: usize) -> Column {
        Column::new(header, move |row| {
            Some(format!("{:.decimals$}", number(row, path)? / unit))
        })
    }
}

/// The value at a dotted `path` (`"failed.jct_s"`, `"runs.1.jct_s"`):
/// each step is an object key or an array index.
fn field<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(doc, |v, key| match v {
        Json::Arr(items) => items.get(key.parse::<usize>().ok()?),
        _ => v.get(key),
    })
}

/// The number at a dotted `path` of a document.
pub fn number(doc: &Json, path: &str) -> Option<f64> {
    field(doc, path)?.as_f64()
}

/// The elements of the array at a dotted `path`; none when it is absent.
pub fn items<'a>(doc: &'a Json, path: &str) -> &'a [Json] {
    match field(doc, path) {
        Some(Json::Arr(items)) => items,
        _ => &[],
    }
}

/// One printed view of a results document: its lines, or `None` to
/// print nothing.
pub struct View(Cell);

impl View {
    /// A table with one row per element of the array at the dotted path
    /// `at`.
    pub fn table(at: &'static str, columns: Vec<Column>) -> View {
        View(Box::new(move |doc| Some(render(&columns, items(doc, at)))))
    }

    /// Text computed from the document; `None` prints nothing.
    pub fn text(text: impl Fn(&Json) -> Option<String> + 'static) -> View {
        View(Box::new(move |doc| text(doc).map(|t| t + "\n")))
    }
}

/// What a figure function returns; see the module docs.
pub struct Figure {
    /// Printed before the runs, followed by a blank line.
    pub header: Vec<String>,
    /// Runs the figure and returns its results fields, written after
    /// `"figure"`.
    pub results: Box<dyn FnOnce() -> Json>,
    /// Rendered from the results in order, a blank line between two.
    pub views: Vec<View>,
}

impl Figure {
    /// A case list shown as one table: the results are `fields`, then
    /// case `i`'s row as row `i` of `"runs"`.
    pub fn cases(
        header: Vec<String>,
        fields: Json,
        cases: Vec<Case>,
        columns: Vec<Column>,
    ) -> Figure {
        Figure {
            header,
            results: Box::new(move || fields.set("runs", run_cases(cases))),
            views: vec![View::table("runs", columns)],
        }
    }
}

/// Runs `cases` one after another; row `i` is case `i`'s.
fn run_cases(cases: Vec<Case>) -> Vec<Json> {
    cases.into_iter().map(|case| case()).collect()
}

/// The table of `rows` under `columns`.
fn render(columns: &[Column], rows: &[Json]) -> String {
    let headers: Vec<&str> = columns.iter().map(|c| c.header.as_str()).collect();
    let mut table = Table::new(&headers);
    for row in rows {
        table.row(
            columns
                .iter()
                .map(|c| (c.cell)(row).unwrap_or_else(|| "-".into()))
                .collect(),
        );
    }
    table.render()
}

/// `views` of `doc` in order, a blank line between two printed views.
fn render_views(views: &[View], doc: &Json) -> String {
    let shown: Vec<String> = views.iter().filter_map(|view| (view.0)(doc)).collect();
    shown.join("\n")
}

/// The stderr note for observability flags that no run took: `given`
/// says a flag was passed, `claimed` that a run took the flags.
fn ignored_flags_note(given: bool, claimed: bool) -> Option<&'static str> {
    (given && !claimed)
        .then_some("note: no run took --trace/--profile/--live/--watch; they are ignored")
}

/// Runs figure `name` at the command line's [`Scale`]: prints its
/// header, runs it, prints its views of the results, notes observability
/// flags no run took and writes `results/<name>.json`.
pub fn run(name: &str, figure: impl FnOnce(Scale) -> Figure) {
    let fig = figure(Scale::from_args());
    for line in &fig.header {
        println!("{line}");
    }
    println!();
    let doc = (fig.results)()
        .entries()
        .iter()
        .fold(Json::obj().set("figure", name), |doc, (k, v)| {
            doc.set(k, v.clone())
        });
    print!("{}", render_views(&fig.views, &doc));
    if let Some(note) = ignored_flags_note(obs_flags_given(), settle_obs_claim()) {
        eprintln!("{note}");
    }
    write_results(name, doc);
}

/// The two arms of a training figure as one table: per epoch, each arm's
/// time and accuracy from the [`epoch_rows`] array at its key, headed by
/// its label.
pub fn epoch_table(a: (&'static str, &str), b: (&'static str, &str)) -> View {
    let columns = vec![
        Column::text("epoch", "epoch"),
        Column::num(&format!("{} time (s)", a.1), "a.time_s", 1.0, 2),
        Column::num(&format!("{} acc", a.1), "a.accuracy", 1.0, 3),
        Column::num(&format!("{} time (s)", b.1), "b.time_s", 1.0, 2),
        Column::num(&format!("{} acc", b.1), "b.accuracy", 1.0, 3),
    ];
    let (a, b) = (a.0, b.0);
    View(Box::new(move |doc| {
        let epochs = items(doc, a).iter().zip(items(doc, b)).enumerate();
        let rows: Vec<Json> = epochs
            .map(|(e, (a, b))| {
                Json::obj()
                    .set("epoch", e + 1)
                    .set("a", a.clone())
                    .set("b", b.clone())
            })
            .collect();
        Some(render(&columns, &rows))
    }))
}

/// The training figures' pipelined full shuffle of `samples` HIGGS-like
/// samples in 16 partitions. Each sample's ~2 KB logical footprint makes
/// the single-process loader the bottleneck, as in the paper's setup.
pub fn full_shuffle_training(samples: usize, epochs: usize, gpu_ns: f64) -> TrainConfig {
    TrainConfig {
        dataset: DatasetSpec::new(samples, 16, 2023).with_logical_sample_bytes(2000),
        epochs,
        batch_size: 128,
        lr: 0.5,
        variant: ShuffleVariant::Simple,
        window: ShuffleWindow::Full,
        gpu_ns_per_sample: gpu_ns,
    }
}

/// One training arm's epochs as `{"time_s", "accuracy"}` rows.
pub fn epoch_rows(report: &TrainReport) -> Vec<Json> {
    report
        .epoch_times
        .iter()
        .zip(&report.accuracy)
        .map(|(d, a)| {
            Json::obj()
                .set("time_s", d.as_secs_f64())
                .set("accuracy", *a)
        })
        .collect()
}

/// Figures 4a and 4b: a sort on 10 `node`s, each Exoshuffle variant and
/// Spark at each partition count. `title` names the figure and
/// `machine` the node in the header; `node_key` names it in the JSON.
pub fn partition_sweep(
    scale: Scale,
    title: &str,
    node: NodeSpec,
    node_key: &str,
    machine: &str,
) -> Figure {
    let nodes = 10;
    // Default: 100 GB over partition counts chosen to cover the same
    // shuffle-block-size range (10 MB → 150 KB) as the paper's 1 TB sweep;
    // --full runs the 1 TB configuration (slow: millions of objects).
    let data: u64 = scale.pick(20_000_000_000, 100_000_000_000, 1_000_000_000_000);
    let sweeps: &[usize] = scale.pick(&[50, 100], &[100, 200, 400], &[500, 1000, 2000]);
    let cluster = ClusterSpec::homogeneous(node, nodes);
    let theory = cluster.theoretical_sort_time(data);
    // Preserve the paper's data : object-store ratio (~5:1) so scaled-down
    // runs still exercise spilling like the 1 TB original.
    let store_capacity = data / 5 / nodes as u64;

    let mut cases: Vec<Case> = Vec::new();
    for &parts in sweeps {
        for variant in [
            ShuffleVariant::Simple,
            ShuffleVariant::Merge { factor: 8 },
            ShuffleVariant::Push { factor: 8 },
            ShuffleVariant::PushStar { map_parallelism: 4 },
        ] {
            let p = EsSortParams {
                store_capacity: Some(store_capacity),
                ..EsSortParams::new(node, nodes, data, parts, variant)
            };
            cases.push(Box::new(move || {
                sort_result_json(&run_es_sort(p))
                    .set("partitions", parts)
                    .set("variant", variant_name(variant))
            }));
        }
        let cluster = cluster.clone();
        cases.push(Box::new(move || {
            let spark = spark_sort(&SparkConfig::native(cluster), data, parts, parts);
            Json::obj()
                .set("jct_s", spark.jct.as_secs_f64())
                .set("net_bytes", spark.net_bytes)
                .set("partitions", parts)
                .set("variant", "Spark")
        }));
    }
    Figure::cases(
        vec![
            format!(
                "# {title} — {} GB sort, {nodes}× {machine}",
                data / 1_000_000_000
            ),
            format!("theoretical baseline T=4D/B: {:.0} s", theory.as_secs_f64()),
        ],
        Json::obj()
            .set("node", node_key)
            .set("nodes", nodes)
            .set("data_bytes", data)
            .set("store_capacity", store_capacity)
            .set("theoretical_s", theory.as_secs_f64()),
        cases,
        vec![
            Column::text("partitions", "partitions"),
            Column::text("variant", "variant"),
            Column::num("JCT (s)", "jct_s", 1.0, 0),
            Column::num("spilled (GB)", "spilled_bytes", 1e9, 1),
            Column::num("net (GB)", "net_bytes", 1e9, 1),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Json> {
        vec![
            Json::obj().set("name", "a").set("x", 1.25).set("n", 3u64),
            Json::obj().set("name", "b").set("n", 12u64),
            Json::obj()
                .set("name", "c")
                .set("x", 2500.0)
                .set("inner", Json::obj().set("y", 0.5)),
        ]
    }

    /// `rows()` nested two levels down, as `"profile.per_node_bounds"` is.
    fn doc() -> Json {
        Json::obj()
            .set("total", 7u64)
            .set("outer", Json::obj().set("rows", rows()))
    }

    fn columns() -> Vec<Column> {
        vec![
            Column::text("name", "name"),
            Column::num("x", "x", 1.0, 1),
            Column::num("x (k)", "x", 1e3, 2),
            Column::text("n", "n"),
            Column::num("y", "inner.y", 1.0, 2),
        ]
    }

    #[test]
    fn missing_keys_render_as_a_dash() {
        let flat = render(&columns(), &rows());
        let nested = render_views(&[View::table("outer.rows", columns())], &doc());
        assert_eq!(flat, nested);
        let lines: Vec<&str> = nested.lines().collect();
        let cells = |i: usize| lines[i].split_whitespace().collect::<Vec<_>>();
        assert_eq!(cells(2), ["a", "1.2", "0.00", "3", "-"]);
        assert_eq!(cells(3), ["b", "-", "-", "12", "-"]);
        assert_eq!(cells(4), ["c", "2500.0", "2.50", "-", "0.50"]);
        // An absent array is a table with no rows.
        let empty = render_views(&[View::table("outer.none", columns())], &doc());
        assert_eq!(empty.lines().count(), 2);
    }

    #[test]
    fn rendering_is_table_render_of_the_same_cells() {
        let mut table = Table::new(&["name", "x", "x (k)", "n", "y"]);
        for cells in [
            ["a", "1.2", "0.00", "3", "-"],
            ["b", "-", "-", "12", "-"],
            ["c", "2500.0", "2.50", "-", "0.50"],
        ] {
            table.row(cells.iter().map(|c| c.to_string()).collect());
        }
        assert_eq!(render(&columns(), &rows()), table.render());
        let view = View::table("outer.rows", columns());
        assert_eq!(render_views(&[view], &doc()), table.render());
    }

    #[test]
    fn rows_keep_case_order() {
        let ran = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let cases: Vec<Case> = (0..5u64)
            .rev()
            .map(|i| {
                let ran = ran.clone();
                Box::new(move || {
                    ran.borrow_mut().push(i);
                    Json::obj().set("i", i)
                }) as Case
            })
            .collect();
        let fig = Figure::cases(vec![], Json::obj().set("k", 1u64), cases, vec![]);
        let doc = (fig.results)();
        assert_eq!(*ran.borrow(), [4, 3, 2, 1, 0]);
        assert_eq!(doc.entries()[0].0, "k");
        let text = render_views(&[View::table("runs", vec![Column::text("i", "i")])], &doc);
        let order: Vec<&str> = text.lines().skip(2).map(str::trim).collect();
        assert_eq!(order, ["4", "3", "2", "1", "0"]);
    }

    #[test]
    fn views_render_in_order_a_blank_line_apart() {
        let views = [
            View::text(|doc| Some(format!("total {}", number(doc, "total")?))),
            View::table("outer.rows", vec![Column::text("name", "name")]),
            // A text view that finds no value prints nothing, not even
            // its blank line.
            View::text(|doc| Some(format!("{}", number(doc, "missing")?))),
            View::text(|doc| Some(format!("last x {}", number(doc, "outer.rows.2.x")?))),
        ];
        assert_eq!(
            render_views(&views, &doc()),
            "total 7\n\nname\n----\n   a\n   b\n   c\n\nlast x 2500\n"
        );
    }

    #[test]
    fn epoch_table_pairs_the_two_arms_by_epoch() {
        let arm = |times: [f64; 2], acc: f64| {
            times
                .map(|t| Json::obj().set("time_s", t).set("accuracy", acc))
                .to_vec()
        };
        let doc = Json::obj()
            .set("p", arm([1.0, 2.5], 0.9))
            .set("q", arm([3.0, 4.125], 0.5));
        let text = render_views(&[epoch_table(("p", "P"), ("q", "Q"))], &doc);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "epoch  P time (s)  P acc  Q time (s)  Q acc");
        assert_eq!(
            lines[2].split_whitespace().collect::<Vec<_>>(),
            ["1", "1.00", "0.900", "3.00", "0.500"]
        );
        assert_eq!(
            lines[3].split_whitespace().collect::<Vec<_>>(),
            ["2", "2.50", "0.900", "4.12", "0.500"]
        );
    }

    #[test]
    fn the_flags_note_needs_a_flag_that_no_run_took() {
        assert_eq!(ignored_flags_note(false, false), None);
        assert_eq!(ignored_flags_note(false, true), None);
        assert_eq!(ignored_flags_note(true, true), None);
        assert!(ignored_flags_note(true, false).is_some_and(|n| n.contains("--trace")));
    }

    #[test]
    fn scale_parses_quick_full_and_neither() {
        assert_eq!(Scale::parse(["bin"]), Scale::Default);
        assert_eq!(Scale::parse(["bin", "--quick"]), Scale::Quick);
        assert_eq!(Scale::parse(["bin", "--full"]), Scale::Full);
        assert_eq!(Scale::parse(["bin", "--full", "--quick"]), Scale::Quick);
        assert_eq!(Scale::parse(["bin", "--trace", "t.json"]), Scale::Default);
        assert_eq!(Scale::Full.pick(1, 2, 3), 3);
    }
}

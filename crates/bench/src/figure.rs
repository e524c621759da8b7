//! Sort figures as case lists.
//!
//! A figure is a function of a [`Scale`] that returns a [`Figure`]: the
//! lines printed above its table, its top-level results fields, its
//! [`Column`]s, an ordered list of cases and an optional footer. [`run`]
//! runs the cases in order, each returning one JSON row, then renders
//! the table from those rows and writes them to `results/<name>.json`
//! under `"runs"`. The table is a view of the JSON, so no value is
//! printed without also being recorded.

use exo_monolith::{spark_sort, SparkConfig};
use exo_rt::trace::Json;
use exo_shuffle::ShuffleVariant;
use exo_sim::{ClusterSpec, NodeSpec};

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

/// A column's cell for one row; `None` (a missing key) renders as `-`.
type Cell = Box<dyn Fn(&Json) -> Option<String>>;

/// One table column: a header and a cell read from a JSON row.
pub struct Column {
    header: &'static str,
    cell: Cell,
}

impl Column {
    /// A column computed from the row.
    pub fn new(header: &'static str, cell: impl Fn(&Json) -> Option<String> + 'static) -> Column {
        Column {
            header,
            cell: Box::new(cell),
        }
    }

    /// The value at `path` as written: strings bare, numbers as JSON.
    pub fn text(header: &'static str, path: &'static str) -> Column {
        Column::new(header, move |row| {
            Some(match field(row, path)? {
                Json::Str(s) => s.clone(),
                other => other.render(),
            })
        })
    }

    /// The number at `path` divided by `unit`, to `decimals` places.
    pub fn num(header: &'static str, path: &'static str, unit: f64, decimals: usize) -> Column {
        Column::new(header, move |row| {
            Some(format!("{:.decimals$}", number(row, path)? / unit))
        })
    }
}

/// The value at a dotted `path` (`"failed.jct_s"`) of a row.
fn field<'a>(row: &'a Json, path: &str) -> Option<&'a Json> {
    path.split('.').try_fold(row, |v, key| v.get(key))
}

/// The number at a dotted `path` of a row.
pub fn number(row: &Json, path: &str) -> Option<f64> {
    field(row, path)?.as_f64()
}

/// What a figure function returns; see the module docs.
pub struct Figure {
    /// Printed before the cases run, followed by a blank line.
    pub header: Vec<String>,
    /// Top-level results fields, written after `"figure"`.
    pub fields: Json,
    pub columns: Vec<Column>,
    /// Run in order; row `i` of the table and of `"runs"` is case `i`'s.
    pub cases: Vec<Case>,
    /// Printed after the table and a blank line.
    pub footer: Option<fn(&[Json]) -> String>,
}

/// Runs `cases` one after another; row `i` is case `i`'s.
fn run_cases(cases: Vec<Case>) -> Vec<Json> {
    cases.into_iter().map(|case| case()).collect()
}

/// The table of `rows` under `columns`.
fn render(columns: &[Column], rows: &[Json]) -> String {
    let headers: Vec<&str> = columns.iter().map(|c| c.header).collect();
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

/// Runs figure `name` at the command line's [`Scale`]: prints its
/// header, runs its cases, prints the table and footer and writes
/// `results/<name>.json`.
pub fn run(name: &str, figure: impl FnOnce(Scale) -> Figure) {
    let fig = figure(Scale::from_args());
    for line in &fig.header {
        println!("{line}");
    }
    println!();
    let rows = run_cases(fig.cases);
    print!("{}", render(&fig.columns, &rows));
    if let Some(footer) = fig.footer {
        println!("\n{}", footer(&rows));
    }
    let doc = fig
        .fields
        .entries()
        .iter()
        .fold(Json::obj().set("figure", name), |doc, (k, v)| {
            doc.set(k, v.clone())
        });
    write_results(name, doc.set("runs", rows));
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
    Figure {
        header: vec![
            format!(
                "# {title} — {} GB sort, {nodes}× {machine}",
                data / 1_000_000_000
            ),
            format!("theoretical baseline T=4D/B: {:.0} s", theory.as_secs_f64()),
        ],
        fields: Json::obj()
            .set("node", node_key)
            .set("nodes", nodes)
            .set("data_bytes", data)
            .set("store_capacity", store_capacity)
            .set("theoretical_s", theory.as_secs_f64()),
        columns: vec![
            Column::text("partitions", "partitions"),
            Column::text("variant", "variant"),
            Column::num("JCT (s)", "jct_s", 1.0, 0),
            Column::num("spilled (GB)", "spilled_bytes", 1e9, 1),
            Column::num("net (GB)", "net_bytes", 1e9, 1),
        ],
        cases,
        footer: None,
    }
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
        let text = render(&columns(), &rows());
        let lines: Vec<&str> = text.lines().collect();
        let cells = |i: usize| lines[i].split_whitespace().collect::<Vec<_>>();
        assert_eq!(cells(2), ["a", "1.2", "0.00", "3", "-"]);
        assert_eq!(cells(3), ["b", "-", "-", "12", "-"]);
        assert_eq!(cells(4), ["c", "2500.0", "2.50", "-", "0.50"]);
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
        let rows = run_cases(cases);
        assert_eq!(*ran.borrow(), [4, 3, 2, 1, 0]);
        let text = render(&[Column::text("i", "i")], &rows);
        let order: Vec<&str> = text.lines().skip(2).map(str::trim).collect();
        assert_eq!(order, ["4", "3", "2", "1", "0"]);
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

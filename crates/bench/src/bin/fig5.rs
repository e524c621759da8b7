//! Figure 5: online aggregation over a pageview log — regular vs
//! streaming shuffle, with partial-result error over time.
//!
//! Expected shape (paper): streaming takes ~1.4× longer in total, but the
//! user gets a partial result within a few percent error more than an
//! order of magnitude sooner than the batch job completes.

use exo_agg::{regular_aggregation, streaming_aggregation, AggConfig, PageviewSpec};
use exo_bench::figure::{items, number, run, Column, Figure, Scale, View};
use exo_bench::observed_run;
use exo_rt::trace::Json;
use exo_rt::RtConfig;
use exo_sim::{ClusterSpec, NodeSpec};

fn main() {
    run("fig5", fig5);
}

fn fig5(scale: Scale) -> Figure {
    let quick = scale == Scale::Quick;
    // Default: a 1 TB log over 10 r6i nodes, as in §5.2.1 (fewer, larger
    // map partitions keep the single-core harness fast; the time/error
    // shape is unchanged).
    let (data_bytes, num_maps, num_reduces, pages) = if quick {
        (10_000_000_000, 40, 16, 100_000)
    } else {
        (1_000_000_000_000, 200, 40, 1_000_000)
    };
    let spec = PageviewSpec {
        data_bytes,
        num_maps,
        num_reduces,
        entries_per_map: 3000,
        pages,
        seed: 3,
    };
    let cfg = AggConfig {
        spec,
        rounds: if quick { 5 } else { 20 },
    };
    let results = move || {
        let cluster = ClusterSpec::homogeneous(NodeSpec::r6i_2xlarge(), 10);
        let (_, (t_batch, samples, t_stream)) = observed_run(RtConfig::new(cluster), |rt| {
            let (t_batch, truth) = regular_aggregation(rt, &cfg);
            let (samples, t_stream) = streaming_aggregation(rt, &cfg, &truth);
            (t_batch, samples, t_stream)
        });
        let t_batch = t_batch.as_secs_f64();
        let samples: Vec<Json> = samples
            .iter()
            .map(|s| {
                Json::obj()
                    .set("round", s.round)
                    .set("at_s", s.at.as_secs_f64())
                    .set("kl", s.kl)
                    .set("speedup", t_batch / s.at.as_secs_f64())
            })
            .collect();
        Json::obj()
            .set("node", "r6i_2xlarge")
            .set("nodes", 10usize)
            .set("data_bytes", cfg.spec.data_bytes)
            .set("rounds", cfg.rounds)
            .set("t_batch_s", t_batch)
            .set("t_stream_s", t_stream.as_secs_f64())
            .set("samples", samples)
    };
    Figure {
        header: vec!["# Figure 5 — online aggregation, 10× r6i.2xlarge".into()],
        results: Box::new(results),
        views: vec![
            View::text(|doc| {
                let (batch, stream) = (number(doc, "t_batch_s")?, number(doc, "t_stream_s")?);
                Some(format!(
                    "regular shuffle total:   {batch:.1} s\n\
                     streaming shuffle total: {stream:.1} s\n\
                     streaming/batch slowdown: {:.2}x (paper: ~1.4x)",
                    stream / batch
                ))
            }),
            View::table(
                "samples",
                vec![
                    Column::text("round", "round"),
                    Column::num("time (s)", "at_s", 1.0, 1),
                    Column::num("KL error", "kl", 1.0, 4),
                    Column::new("speedup vs batch", |row| {
                        Some(format!("{:.1}x", number(row, "speedup")?))
                    }),
                ],
            ),
            View::text(|doc| {
                let first = items(doc, "samples")
                    .iter()
                    .find(|s| number(s, "kl").is_some_and(|kl| kl < 0.08))?;
                Some(format!(
                    "first partial result under 8% error: {:.1} s (KL={:.4}), {:.0}x before batch completion",
                    number(first, "at_s")?,
                    number(first, "kl")?,
                    number(first, "speedup")?
                ))
            }),
        ],
    }
}

//! Figure 5: online aggregation over a pageview log — regular vs
//! streaming shuffle, with partial-result error over time.
//!
//! Expected shape (paper): streaming takes ~1.4× longer in total, but the
//! user gets a partial result within a few percent error more than an
//! order of magnitude sooner than the batch job completes.

use exo_agg::{regular_aggregation, streaming_aggregation, AggConfig, PageviewSpec};
use exo_bench::{instrument, write_results, Scale, Table};
use exo_rt::trace::Json;
use exo_rt::RtConfig;
use exo_sim::{ClusterSpec, NodeSpec};

fn main() {
    let quick = Scale::from_args() == Scale::Quick;
    let spec = if quick {
        PageviewSpec {
            data_bytes: 10_000_000_000,
            num_maps: 40,
            num_reduces: 16,
            entries_per_map: 3000,
            pages: 100_000,
            seed: 3,
        }
    } else {
        // 1 TB log over 10 r6i nodes, as in §5.2.1 (fewer, larger map
        // partitions keep the single-core harness fast; the time/error
        // shape is unchanged).
        PageviewSpec {
            data_bytes: 1_000_000_000_000,
            num_maps: 200,
            num_reduces: 40,
            entries_per_map: 3000,
            pages: 1_000_000,
            seed: 3,
        }
    };
    let cfg = AggConfig {
        spec,
        rounds: if quick { 5 } else { 20 },
    };
    let cluster = ClusterSpec::homogeneous(NodeSpec::r6i_2xlarge(), 10);
    let caps = cluster.device_caps();
    let mut rt_cfg = RtConfig::new(cluster);
    let obs = instrument(&mut rt_cfg);

    println!("# Figure 5 — online aggregation, 10× r6i.2xlarge\n");
    let (report, (t_batch, samples, t_stream)) = exo_bench::timed_run(rt_cfg, |rt| {
        let (t_batch, truth) = regular_aggregation(rt, &cfg);
        let (samples, t_stream) = streaming_aggregation(rt, &cfg, &truth);
        (t_batch, samples, t_stream)
    });
    obs.finish(&report, &caps);

    println!("regular shuffle total:   {:.1} s", t_batch.as_secs_f64());
    println!("streaming shuffle total: {:.1} s", t_stream.as_secs_f64());
    println!(
        "streaming/batch slowdown: {:.2}x (paper: ~1.4x)\n",
        t_stream.as_secs_f64() / t_batch.as_secs_f64()
    );

    let mut t = Table::new(&["round", "time (s)", "KL error", "speedup vs batch"]);
    let mut first_good: Option<(f64, f64)> = None;
    for s in &samples {
        if s.kl < 0.08 && first_good.is_none() {
            first_good = Some((s.at.as_secs_f64(), s.kl));
        }
        t.row(vec![
            s.round.to_string(),
            format!("{:.1}", s.at.as_secs_f64()),
            format!("{:.4}", s.kl),
            format!("{:.1}x", t_batch.as_secs_f64() / s.at.as_secs_f64()),
        ]);
    }
    t.print();
    if let Some((at, kl)) = first_good {
        println!(
            "\nfirst partial result under 8% error: {:.1} s (KL={kl:.4}), {:.0}x before batch completion",
            at,
            t_batch.as_secs_f64() / at
        );
    }
    write_results(
        "fig5",
        Json::obj()
            .set("figure", "fig5")
            .set("node", "r6i_2xlarge")
            .set("nodes", 10usize)
            .set("data_bytes", cfg.spec.data_bytes)
            .set("rounds", cfg.rounds)
            .set("t_batch_s", t_batch.as_secs_f64())
            .set("t_stream_s", t_stream.as_secs_f64())
            .set(
                "samples",
                samples
                    .iter()
                    .map(|s| {
                        Json::obj()
                            .set("round", s.round)
                            .set("at_s", s.at.as_secs_f64())
                            .set("kl", s.kl)
                    })
                    .collect::<Vec<_>>(),
            ),
    );
}

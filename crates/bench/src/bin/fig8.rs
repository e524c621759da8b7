//! Figure 8: single-node ML training for 20 epochs — Exoshuffle-based
//! pipelined full shuffle vs a Petastorm-style buffered loader (§5.2.2).
//!
//! Expected shape (paper): the Exoshuffle pipeline is ~2.4× faster
//! end-to-end and converges to higher accuracy per epoch, because the
//! buffered loader both bottlenecks on single-process decode and limits
//! shuffling to a ~9% window of the (label-ordered) dataset.

use exo_bench::obs::apply_policy;
use exo_bench::{instrument, write_results, Scale, Table};
use exo_ml::{exoshuffle_training, petastorm_training, DatasetSpec, PetastormConfig, TrainConfig};
use exo_rt::trace::Json;
use exo_rt::RtConfig;
use exo_shuffle::{ShuffleVariant, ShuffleWindow};
use exo_sim::{ClusterSpec, NodeSpec};

fn main() {
    let quick = Scale::from_args() == Scale::Quick;
    let epochs = if quick { 5 } else { 20 };
    // `--mixed` swaps the single g4dn node for the heterogeneous
    // ML-loader cluster: a g4dn.4xlarge trainer plus r6i.2xlarge feeder
    // nodes, scheduled with per-node slot counts.
    let mixed = std::env::args().any(|a| a == "--mixed");
    // HIGGS-like logical footprint: ~2 KB of stored/decoded bytes per
    // sample, so the single-process loader becomes the bottleneck exactly
    // as in the paper's setup.
    let dataset = DatasetSpec::new(if quick { 20_000 } else { 80_000 }, 16, 2023)
        .with_logical_sample_bytes(2000);
    let rt_cfg = || {
        RtConfig::new(if mixed {
            ClusterSpec::ml_loader(2)
        } else {
            ClusterSpec::homogeneous(NodeSpec::g4dn_4xlarge(), 1)
        })
    };
    let gpu_ns = 40_000.0; // 40 µs/sample on the T4

    if mixed {
        println!(
            "# Figure 8 (mixed cluster) — {} epochs, g4dn.4xlarge trainer + 2x r6i.2xlarge feeders\n",
            epochs
        );
    } else {
        println!(
            "# Figure 8 — single-node training, {} epochs, g4dn.4xlarge\n",
            epochs
        );
    }

    let es_cfg = TrainConfig {
        dataset,
        epochs,
        batch_size: 128,
        lr: 0.5,
        variant: ShuffleVariant::Simple,
        window: ShuffleWindow::Full,
        gpu_ns_per_sample: gpu_ns,
    };
    let mut es_rt_cfg = rt_cfg();
    let caps = es_rt_cfg.cluster.device_caps();
    let obs = instrument(&mut es_rt_cfg);
    let (es_report, es) = exo_bench::timed_run(es_rt_cfg, |rt| exoshuffle_training(rt, &es_cfg));
    obs.finish(&es_report, &caps);

    let ps_cfg = PetastormConfig {
        dataset,
        epochs,
        batch_size: 128,
        lr: 0.5,
        buffer_fraction: 0.09, // the paper's OOM-avoiding window
        gpu_ns_per_sample: gpu_ns,
        decode_throughput: 20.0 * 1e6, // single-process Parquet decode
    };
    let mut ps_rt_cfg = rt_cfg();
    apply_policy(&mut ps_rt_cfg);
    let (_r, ps) = exo_bench::timed_run(ps_rt_cfg, |rt| petastorm_training(rt, &ps_cfg));
    let ps = ps.expect("9% buffer fits");

    println!(
        "end-to-end: Exoshuffle {:.1} s, Petastorm-style {:.1} s  ({:.2}x; paper: ~2.4x)\n",
        es.total_time.as_secs_f64(),
        ps.total_time.as_secs_f64(),
        ps.total_time.as_secs_f64() / es.total_time.as_secs_f64()
    );

    let mut t = Table::new(&["epoch", "ES time (s)", "ES acc", "PS time (s)", "PS acc"]);
    for e in 0..epochs {
        t.row(vec![
            (e + 1).to_string(),
            format!("{:.2}", es.epoch_times[e].as_secs_f64()),
            format!("{:.3}", es.accuracy[e]),
            format!("{:.2}", ps.epoch_times[e].as_secs_f64()),
            format!("{:.3}", ps.accuracy[e]),
        ]);
    }
    t.print();
    let epoch_rows = |times: &[exo_sim::SimDuration], acc: &[f64]| {
        times
            .iter()
            .zip(acc)
            .map(|(d, a)| {
                Json::obj()
                    .set("time_s", d.as_secs_f64())
                    .set("accuracy", *a)
            })
            .collect::<Vec<_>>()
    };
    write_results(
        if mixed { "fig8_mixed" } else { "fig8" },
        Json::obj()
            .set("figure", if mixed { "fig8_mixed" } else { "fig8" })
            .set(
                "node",
                if mixed {
                    "ml_loader(2)"
                } else {
                    "g4dn_4xlarge"
                },
            )
            .set("epochs", epochs)
            .set("exoshuffle_total_s", es.total_time.as_secs_f64())
            .set("petastorm_total_s", ps.total_time.as_secs_f64())
            .set(
                "exoshuffle_epochs",
                epoch_rows(&es.epoch_times, &es.accuracy),
            )
            .set(
                "petastorm_epochs",
                epoch_rows(&ps.epoch_times, &ps.accuracy),
            ),
    );
}

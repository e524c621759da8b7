//! Figure 9: 4-node distributed training for 20 epochs — full shuffle vs
//! partial (windowed, Petastorm-emulating) shuffle on the Exoshuffle-based
//! loader (§5.2.2).
//!
//! Expected shape (paper): per-epoch time is slightly faster with partial
//! shuffle (it stays local), but convergence accuracy is slightly lower
//! because of the less-random shuffling.

use exo_bench::obs::apply_policy;
use exo_bench::{instrument, write_results, Scale, Table};
use exo_ml::{exoshuffle_training, DatasetSpec, TrainConfig};
use exo_rt::trace::Json;
use exo_rt::RtConfig;
use exo_shuffle::{ShuffleVariant, ShuffleWindow};
use exo_sim::{ClusterSpec, NodeSpec};

fn main() {
    let quick = Scale::from_args() == Scale::Quick;
    let epochs = if quick { 5 } else { 20 };
    // HIGGS-like logical footprint: ~2 KB of stored/decoded bytes per
    // sample, so the single-process loader becomes the bottleneck exactly
    // as in the paper's setup.
    let dataset = DatasetSpec::new(if quick { 20_000 } else { 80_000 }, 16, 2023)
        .with_logical_sample_bytes(2000);
    let rt_cfg = || RtConfig::new(ClusterSpec::homogeneous(NodeSpec::g4dn_xlarge(), 4));

    let base = TrainConfig {
        dataset,
        epochs,
        batch_size: 128,
        lr: 0.5,
        variant: ShuffleVariant::Simple,
        window: ShuffleWindow::Full,
        gpu_ns_per_sample: 60_000.0,
    };
    println!(
        "# Figure 9 — 4× g4dn.xlarge distributed training, {} epochs\n",
        epochs
    );

    let mut full_rt_cfg = rt_cfg();
    let caps = full_rt_cfg.cluster.device_caps();
    let obs = instrument(&mut full_rt_cfg);
    let (full_rep, full) = exo_bench::timed_run(full_rt_cfg, |rt| exoshuffle_training(rt, &base));
    obs.finish(&full_rep, &caps);
    let mut windowed_cfg = base;
    windowed_cfg.window = ShuffleWindow::Window { partitions: 4 }; // per-node batches only
    let mut win_rt_cfg = rt_cfg();
    apply_policy(&mut win_rt_cfg);
    let (win_rep, win) =
        exo_bench::timed_run(win_rt_cfg, |rt| exoshuffle_training(rt, &windowed_cfg));

    let avg = |xs: &[exo_sim::SimDuration]| {
        xs.iter().map(|d| d.as_secs_f64()).sum::<f64>() / xs.len() as f64
    };
    println!(
        "avg epoch time: full {:.2} s, partial {:.2} s",
        avg(&full.epoch_times),
        avg(&win.epoch_times)
    );
    println!(
        "final accuracy: full {:.3}, partial {:.3}",
        full.accuracy.last().expect("epochs"),
        win.accuracy.last().expect("epochs")
    );
    println!(
        "network bytes: full {:.1} MB, partial {:.1} MB\n",
        full_rep.metrics.net_bytes as f64 / 1e6,
        win_rep.metrics.net_bytes as f64 / 1e6
    );

    let mut t = Table::new(&[
        "epoch",
        "full time (s)",
        "full acc",
        "partial time (s)",
        "partial acc",
    ]);
    for e in 0..epochs {
        t.row(vec![
            (e + 1).to_string(),
            format!("{:.2}", full.epoch_times[e].as_secs_f64()),
            format!("{:.3}", full.accuracy[e]),
            format!("{:.2}", win.epoch_times[e].as_secs_f64()),
            format!("{:.3}", win.accuracy[e]),
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
        "fig9",
        Json::obj()
            .set("figure", "fig9")
            .set("node", "g4dn_xlarge")
            .set("nodes", 4usize)
            .set("epochs", epochs)
            .set("full_net_bytes", full_rep.metrics.net_bytes)
            .set("partial_net_bytes", win_rep.metrics.net_bytes)
            .set("full_epochs", epoch_rows(&full.epoch_times, &full.accuracy))
            .set(
                "partial_epochs",
                epoch_rows(&win.epoch_times, &win.accuracy),
            ),
    );
}

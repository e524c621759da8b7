//! Figure 9: 4-node distributed training for 20 epochs — full shuffle vs
//! partial (windowed, Petastorm-emulating) shuffle on the Exoshuffle-based
//! loader (§5.2.2).
//!
//! Expected shape (paper): per-epoch time is slightly faster with partial
//! shuffle (it stays local), but convergence accuracy is slightly lower
//! because of the less-random shuffling.

use exo_bench::figure::{
    epoch_rows, epoch_table, full_shuffle_training, items, number, run, Figure, Scale, View,
};
use exo_bench::observed_run;
use exo_ml::{exoshuffle_training, TrainConfig};
use exo_rt::trace::Json;
use exo_rt::RtConfig;
use exo_shuffle::ShuffleWindow;
use exo_sim::{ClusterSpec, NodeSpec};

fn main() {
    run("fig9", fig9);
}

fn fig9(scale: Scale) -> Figure {
    let quick = scale == Scale::Quick;
    let epochs = if quick { 5 } else { 20 };
    let base = full_shuffle_training(if quick { 20_000 } else { 80_000 }, epochs, 60_000.0);
    let rt_cfg = || RtConfig::new(ClusterSpec::homogeneous(NodeSpec::g4dn_xlarge(), 4));
    let results = move || {
        let (full_rep, full) = observed_run(rt_cfg(), |rt| exoshuffle_training(rt, &base));
        let windowed_cfg = TrainConfig {
            window: ShuffleWindow::Window { partitions: 4 }, // per-node batches only
            ..base
        };
        let (win_rep, win) = observed_run(rt_cfg(), |rt| exoshuffle_training(rt, &windowed_cfg));
        Json::obj()
            .set("node", "g4dn_xlarge")
            .set("nodes", 4usize)
            .set("epochs", epochs)
            .set("full_net_bytes", full_rep.metrics.net_bytes)
            .set("partial_net_bytes", win_rep.metrics.net_bytes)
            .set("full_epochs", epoch_rows(&full))
            .set("partial_epochs", epoch_rows(&win))
    };
    Figure {
        header: vec![format!(
            "# Figure 9 — 4× g4dn.xlarge distributed training, {epochs} epochs"
        )],
        results: Box::new(results),
        views: vec![
            View::text(|doc| {
                let avg = |key| {
                    let epochs = items(doc, key);
                    let total = epochs
                        .iter()
                        .map(|e| number(e, "time_s"))
                        .sum::<Option<f64>>();
                    Some(total? / epochs.len() as f64)
                };
                let last = |key| number(items(doc, key).last()?, "accuracy");
                Some(format!(
                    "avg epoch time: full {:.2} s, partial {:.2} s\n\
                     final accuracy: full {:.3}, partial {:.3}\n\
                     network bytes: full {:.1} MB, partial {:.1} MB",
                    avg("full_epochs")?,
                    avg("partial_epochs")?,
                    last("full_epochs")?,
                    last("partial_epochs")?,
                    number(doc, "full_net_bytes")? / 1e6,
                    number(doc, "partial_net_bytes")? / 1e6,
                ))
            }),
            epoch_table(("full_epochs", "full"), ("partial_epochs", "partial")),
        ],
    }
}

//! Synthetic pageview log: zipf-distributed pages, skewed languages.

use std::sync::Arc;

use exo_rt::{CpuCost, Payload};
use exo_shuffle::{Block, ShuffleJob};
use exo_sim::SplitMix64;

/// Languages in the log (the statistic aggregated per language).
pub const NUM_LANGS: usize = 16;

/// Bytes per encoded entry: `u8 lang, u32 page, u32 views`.
pub const ENTRY_BYTES: usize = 9;

/// Workload description.
#[derive(Clone, Copy, Debug)]
pub struct PageviewSpec {
    /// Total logical bytes of the log.
    pub data_bytes: u64,
    /// Input partitions / map tasks.
    pub num_maps: usize,
    /// Output partitions / reducers.
    pub num_reduces: usize,
    /// Real entries generated per map (scaled-down payload; logical sizes
    /// stay at `data_bytes`).
    pub entries_per_map: usize,
    /// Distinct pages.
    pub pages: u32,
    /// Seed.
    pub seed: u64,
}

impl PageviewSpec {
    /// Logical bytes per map partition.
    pub fn partition_bytes(&self) -> u64 {
        self.data_bytes / self.num_maps as u64
    }
}

/// Sample a page id with a zipf-ish (s≈1) distribution over `n` pages.
fn zipf_page(rng: &mut SplitMix64, n: u32) -> u32 {
    // Inverse-CDF approximation for s=1: p(k) ∝ 1/k, CDF ≈ ln(k)/ln(n).
    let u = rng.next_f64();
    let k = ((n as f64).ln() * u).exp();
    (k as u32).min(n - 1)
}

/// Language of a page: deterministic per page, skewed so a few languages
/// dominate (like real Wikipedia traffic).
pub fn lang_of_page(page: u32) -> u8 {
    // Weight language l proportional to 1/(l+1) via a folded hash.
    let h = (page as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
    let mut x = (h % 676) as f64 / 676.0; // uniform in [0,1)
    let total: f64 = (1..=NUM_LANGS).map(|l| 1.0 / l as f64).sum();
    for l in 0..NUM_LANGS {
        let w = (1.0 / (l + 1) as f64) / total;
        if x < w {
            return l as u8;
        }
        x -= w;
    }
    (NUM_LANGS - 1) as u8
}

/// Generate the entries of map partition `m`, encoded.
///
/// Real pageview logs are time-ordered and traffic mix rotates with the
/// time of day, so early partitions over-represent some languages. We
/// model that by boosting a rotating language per partition — this is what
/// makes early streaming rounds *approximate* (Fig 5's error decay) rather
/// than instantly exact.
pub fn gen_entries(spec: &PageviewSpec, m: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(spec.seed ^ (m as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let mut out = Vec::with_capacity(spec.entries_per_map * ENTRY_BYTES);
    let boosted = (m % NUM_LANGS) as u8;
    for _ in 0..spec.entries_per_map {
        let page = zipf_page(&mut rng, spec.pages);
        let lang = lang_of_page(page);
        // Time-of-day effect: the boosted language gets 4x the views.
        let views = 1 + rng.next_below(20) as u32;
        let views = if lang == boosted { views * 4 } else { views };
        out.push(lang);
        out.extend_from_slice(&page.to_le_bytes());
        out.extend_from_slice(&views.to_le_bytes());
    }
    out
}

/// Decode entries into `(lang, page, views)` triples.
pub fn decode_entries(data: &[u8]) -> Vec<(u8, u32, u32)> {
    assert_eq!(data.len() % ENTRY_BYTES, 0, "whole entries only");
    data.chunks_exact(ENTRY_BYTES)
        .map(|e| {
            (
                e[0],
                u32::from_le_bytes(e[1..5].try_into().expect("page")),
                u32::from_le_bytes(e[5..9].try_into().expect("views")),
            )
        })
        .collect()
}

/// Aggregated reducer state: `(lang, page) → views`, encoded as repeated
/// `u8 lang, u32 page, u64 views` (13 bytes) in ascending key order.
///
/// Every `(key, views)` pair of `prev` and `blocks` is sorted by key and
/// each run of one key summed. A valid `prev` holds each key once, so
/// this is the same state as inserting `prev` into an ordered map and
/// adding the entries to it.
pub fn fold_state(prev: Option<&[u8]>, blocks: &[Payload]) -> Vec<u8> {
    let mut pairs = decode_state(prev.unwrap_or_default());
    pairs.reserve_exact(blocks.iter().map(|b| b.data.len() / ENTRY_BYTES).sum());
    for b in blocks {
        let entries = decode_entries(&b.data).into_iter();
        pairs.extend(entries.map(|(lang, page, views)| ((lang, page), u64::from(views))));
    }
    pairs.sort_unstable_by_key(|&(key, _)| key);
    pairs.dedup_by(|next, run| {
        let same = next.0 == run.0;
        if same {
            run.1 += next.1;
        }
        same
    });
    let mut out = Vec::with_capacity(pairs.len() * 13);
    for ((lang, page), views) in pairs {
        out.push(lang);
        out.extend_from_slice(&page.to_le_bytes());
        out.extend_from_slice(&views.to_le_bytes());
    }
    out
}

/// Decode a reducer state into `((lang, page), views)` pairs.
pub fn decode_state(data: &[u8]) -> Vec<((u8, u32), u64)> {
    data.chunks_exact(13)
        .map(|e| {
            (
                (e[0], u32::from_le_bytes(e[1..5].try_into().expect("page"))),
                u64::from_le_bytes(e[5..13].try_into().expect("views")),
            )
        })
        .collect()
}

/// Build the batch aggregation as a [`ShuffleJob`]: partition entries by
/// page hash, reduce to the per-(lang, page) totals.
pub fn pageview_job(spec: PageviewSpec) -> ShuffleJob {
    let s = spec;
    let map = Arc::new(move |m: usize, r_total: usize, _rng: &mut SplitMix64| {
        let entries = gen_entries(&s, m);
        let scale = s.partition_bytes() / (entries.len().max(1) as u64);
        let dest =
            |e: &[u8]| u32::from_le_bytes(e[1..5].try_into().expect("page")) as usize % r_total;
        // A counting pass first, so each block is allocated at its final size.
        let mut counts = vec![0; r_total];
        for e in entries.chunks_exact(ENTRY_BYTES) {
            counts[dest(e)] += 1;
        }
        let mut blocks: Vec<Vec<u8>> = counts
            .into_iter()
            .map(|c| Vec::with_capacity(c * ENTRY_BYTES))
            .collect();
        for e in entries.chunks_exact(ENTRY_BYTES) {
            blocks[dest(e)].extend_from_slice(e);
        }
        blocks
            .into_iter()
            .map(|b| {
                let logical = b.len() as u64 * scale.max(1);
                Payload::scaled(b, logical)
            })
            .collect()
    });
    let combine = Arc::new(|blocks: &[Block]| {
        let mut out = Vec::new();
        let mut logical = 0;
        for b in blocks {
            out.extend_from_slice(b.data);
            logical += b.logical;
        }
        Payload::scaled(out, logical)
    });
    let reduce = Arc::new(|_r: usize, blocks: &[Payload]| {
        let folded = fold_state(None, blocks);
        // Aggregated state is much smaller than the raw log.
        Payload::inline(folded)
    });
    ShuffleJob::new(spec.num_maps, spec.num_reduces, map, combine, reduce)
        .with_io(spec.partition_bytes(), 0)
        .with_cpu(
            CpuCost::input_throughput(200.0 * 1e6), // parse + partition
            CpuCost::input_throughput(800.0 * 1e6),
            CpuCost::input_throughput(150.0 * 1e6), // hash aggregation
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The ordered-map fold the sort fold replaced: the oracle.
    fn oracle_fold(prev: Option<&[u8]>, blocks: &[Payload]) -> Vec<u8> {
        use std::collections::BTreeMap;
        let mut acc: BTreeMap<(u8, u32), u64> =
            decode_state(prev.unwrap_or_default()).into_iter().collect();
        for b in blocks {
            for (lang, page, views) in decode_entries(&b.data) {
                *acc.entry((lang, page)).or_default() += u64::from(views);
            }
        }
        let mut out = Vec::new();
        for ((lang, page), views) in acc {
            out.push(lang);
            out.extend_from_slice(&page.to_le_bytes());
            out.extend_from_slice(&views.to_le_bytes());
        }
        out
    }

    /// The map's partitioning before presizing.
    fn oracle_partition(entries: &[u8], r_total: usize) -> Vec<Vec<u8>> {
        let mut blocks = vec![Vec::new(); r_total];
        for e in entries.chunks_exact(ENTRY_BYTES) {
            let page = u32::from_le_bytes(e[1..5].try_into().expect("page"));
            blocks[(page as usize) % r_total].extend_from_slice(e);
        }
        blocks
    }

    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    fn spec() -> PageviewSpec {
        PageviewSpec {
            data_bytes: 1_000_000,
            num_maps: 4,
            num_reduces: 2,
            entries_per_map: 1000,
            pages: 10_000,
            seed: 11,
        }
    }

    #[test]
    fn entries_roundtrip() {
        let e = gen_entries(&spec(), 0);
        let decoded = decode_entries(&e);
        assert_eq!(decoded.len(), 1000);
        assert!(decoded
            .iter()
            .all(|&(l, p, v)| (l as usize) < NUM_LANGS && p < 10_000 && v >= 1));
    }

    #[test]
    fn zipf_pages_are_skewed() {
        let e = decode_entries(&gen_entries(&spec(), 0));
        let low_pages = e.iter().filter(|&&(_, p, _)| p < 100).count();
        // Zipf: the first 100 of 10k pages should hold far more than 1% of
        // traffic.
        assert!(low_pages > 200, "zipf head too light: {low_pages}/1000");
    }

    #[test]
    fn fold_state_accumulates_and_roundtrips() {
        let b1 = Payload::inline(gen_entries(&spec(), 0));
        let b2 = Payload::inline(gen_entries(&spec(), 1));
        let s1 = fold_state(None, std::slice::from_ref(&b1));
        let s2 = fold_state(Some(&s1), std::slice::from_ref(&b2));
        let total_views: u64 = decode_state(&s2).iter().map(|(_, v)| v).sum();
        let expect: u64 = decode_entries(&b1.data)
            .iter()
            .chain(decode_entries(&b2.data).iter())
            .map(|&(_, _, v)| v as u64)
            .sum();
        assert_eq!(total_views, expect);
    }

    #[test]
    fn lang_of_page_is_deterministic_and_skewed() {
        assert_eq!(lang_of_page(123), lang_of_page(123));
        let mut counts = [0usize; NUM_LANGS];
        for p in 0..10_000u32 {
            counts[lang_of_page(p) as usize] += 1;
        }
        assert!(
            counts[0] > counts[NUM_LANGS - 1],
            "skew expected: {counts:?}"
        );
    }

    /// States and map blocks computed by the ordered-map fold and the
    /// growing map blocks, before the sort fold and presizing.
    #[test]
    fn fold_and_map_match_golden_checksums() {
        let blocks: Vec<Payload> = (0..3)
            .map(|m| Payload::inline(gen_entries(&spec(), m)))
            .collect();
        let s1 = fold_state(None, &blocks[..2]);
        assert_eq!((s1.len(), fnv(&s1)), (12_168, 0x15db_edb1_a7dc_16ee));
        let s2 = fold_state(Some(&s1), &blocks[2..]);
        assert_eq!((s2.len(), fnv(&s2)), (16_575, 0x5433_ed06_86ed_3189));
        let job = pageview_job(spec());
        let outs = (job.map)(1, 3, &mut SplitMix64::new(0));
        let golden = [
            (2871, 77_517, 0xe047_218b_2474_a17a),
            (3339, 90_153, 0xd245_8e8e_b5b7_2788),
            (2790, 75_330, 0x3e25_d501_e1f0_a7bd),
        ];
        for (o, (len, logical, sum)) in outs.iter().zip(golden) {
            assert_eq!((o.data.len(), o.logical, fnv(&o.data)), (len, logical, sum));
        }
        let red = (job.reduce)(0, &outs);
        assert_eq!(
            (red.data.len(), fnv(&red.data)),
            (6994, 0x004c_abf7_148c_356f)
        );
    }

    /// Raw `(lang, page, views)` entries with few distinct keys, so runs
    /// of one key are common.
    fn entries() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec((0u8..3, 0u32..40, any::<u32>()), 0..200).prop_map(|es| {
            let mut out = Vec::new();
            for (lang, page, views) in es {
                out.push(lang);
                out.extend_from_slice(&page.to_le_bytes());
                out.extend_from_slice(&(views >> 8).to_le_bytes());
            }
            out
        })
    }

    proptest! {
        #[test]
        fn sort_fold_equals_ordered_map_fold(
            prev in entries(),
            blocks in proptest::collection::vec(entries(), 0..4),
        ) {
            let blocks: Vec<Payload> = blocks.into_iter().map(Payload::inline).collect();
            let prev = oracle_fold(None, &[Payload::inline(prev)]);
            prop_assert_eq!(fold_state(None, &blocks), oracle_fold(None, &blocks));
            prop_assert_eq!(fold_state(Some(&prev), &blocks), oracle_fold(Some(&prev), &blocks));
        }

        #[test]
        fn presized_blocks_equal_growing_blocks(m in 0usize..8, r_total in 1usize..9, seed in any::<u64>()) {
            let s = PageviewSpec { seed, ..spec() };
            let outs = (pageview_job(s).map)(m, r_total, &mut SplitMix64::new(0));
            let want = oracle_partition(&gen_entries(&s, m), r_total);
            let got: Vec<&[u8]> = outs.iter().map(|p| &p.data[..]).collect();
            prop_assert_eq!(got, want.iter().map(|v| &v[..]).collect::<Vec<_>>());
        }
    }
}

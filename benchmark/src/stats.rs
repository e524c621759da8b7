//! Order statistics and the regression rule `--compare` applies.

/// Median: the middle value, or the mean of the two middle values.
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile: the `ceil(q·n)`-th smallest value (rank
/// clamped to `1..=n`). `NaN` for an empty slice.
pub fn nearest_rank(xs: &[f64], q: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median and nearest-rank quartiles of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        Summary {
            n: xs.len(),
            median: median(xs),
            q1: nearest_rank(xs, 0.25),
            q3: nearest_rank(xs, 0.75),
        }
    }

    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// Judges run set `b` against baseline `a`. The allowed worsening is
/// `bound` as a share of `a`'s median, but never less than `floor` in the
/// metric's unit. When either side's quartile spread exceeds the allowed
/// worsening the comparison cannot tell noise from change, so it is
/// UNRESOLVED — unless every run of `b` beats every run of `a`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64, floor: f64) -> Verdict {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let allowed = (bound * sa.median.abs()).max(floor);
    let worse_by = match better {
        Better::Lower => sb.median - sa.median,
        Better::Higher => sa.median - sb.median,
    };
    let (min_a, max_a) = (nearest_rank(a, 0.0), nearest_rank(a, 1.0));
    let (min_b, max_b) = (nearest_rank(b, 0.0), nearest_rank(b, 1.0));
    let b_beats_every_a = match better {
        Better::Lower => max_b < min_a,
        Better::Higher => min_b > max_a,
    };
    if sa.iqr().max(sb.iqr()) > allowed && !b_beats_every_a {
        Verdict::Unresolved
    } else if worse_by > allowed {
        Verdict::Regressed
    } else {
        Verdict::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_quartiles() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(nearest_rank(&xs, 0.25), 10.0);
        assert_eq!(nearest_rank(&xs, 0.50), 20.0);
        assert_eq!(nearest_rank(&xs, 0.75), 30.0);
        assert_eq!(nearest_rank(&xs, 0.0), 10.0);
        assert_eq!(nearest_rank(&xs, 1.0), 40.0);
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 2.0, 3.0, 4.0));
        assert_eq!(s.iqr(), 2.0);
    }

    #[test]
    fn verdict_applies_share_bound() {
        let a = [10.0, 10.1, 9.9];
        assert_eq!(
            verdict(&a, &[10.5, 10.6, 10.4], Better::Lower, 0.10, 0.0),
            Verdict::Pass
        );
        assert_eq!(
            verdict(&a, &[11.5, 11.6, 11.4], Better::Lower, 0.10, 0.0),
            Verdict::Regressed
        );
        // Direction matters: a drop is a regression for higher-is-better.
        assert_eq!(
            verdict(&a, &[8.5, 8.6, 8.4], Better::Higher, 0.10, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &[8.5, 8.6, 8.4], Better::Lower, 0.10, 0.0),
            Verdict::Pass
        );
    }

    #[test]
    fn verdict_applies_absolute_floor() {
        // +50% on a tiny value stays within a 0.05 floor.
        let a = [0.0100, 0.0101, 0.0099];
        let b = [0.0150, 0.0151, 0.0149];
        assert_eq!(verdict(&a, &b, Better::Lower, 0.10, 0.05), Verdict::Pass);
        assert_eq!(
            verdict(&a, &b, Better::Lower, 0.10, 0.0),
            Verdict::Regressed
        );
    }

    #[test]
    fn verdict_is_unresolved_when_spread_exceeds_bound() {
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        // Medians equal, but a 2-unit IQR swamps a 1-unit bound.
        assert_eq!(
            verdict(&noisy, &noisy, Better::Lower, 0.10, 0.0),
            Verdict::Unresolved
        );
        // Unless every run of b beats every run of a.
        let faster = [5.0, 5.5, 6.0, 6.5, 7.0];
        assert_eq!(
            verdict(&noisy, &faster, Better::Lower, 0.10, 0.0),
            Verdict::Pass
        );
        // A spread within the floor is resolved.
        assert_eq!(
            verdict(&noisy, &noisy, Better::Lower, 0.10, 5.0),
            Verdict::Pass
        );
    }
}

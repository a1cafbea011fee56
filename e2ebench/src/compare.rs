//! The paired wall-clock compare rule.
//!
//! Parent and change runs are made in alternating pairs with identical
//! benchmark settings. A change counts as a gain only when it wins at
//! least nine tenths of the pairs (ties count for neither side) *and*
//! its median differs from the parent's by more than the parent's own
//! interquartile range. The mirror image is a loss. Anything else,
//! including fewer than [`MIN_PAIRS`] pairs, is unresolved.

use crate::stats;

/// Fewest pairs on which a verdict other than
/// [`Verdict::Unresolved`] is given.
pub const MIN_PAIRS: usize = 10;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (latency, memory, set-up time).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// Parses the `"better"` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// `true` when `a` is strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// Outcome of [`compare`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change is better by the paired rule.
    Improved,
    /// The change is worse by the paired rule.
    Worse,
    /// Neither side wins clearly enough, or there are too few pairs.
    Unresolved,
}

impl Verdict {
    /// Lower-case label used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// First quartile, median and third quartile of one side's runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Quartiles of a set of runs; `None` for fewer than two runs.
    pub fn of(values: &[f64]) -> Option<Quartiles> {
        let (q1, median, q3) = stats::quartiles(values)?;
        Some(Quartiles { q1, median, q3 })
    }

    /// Interquartile range as a share of the median: the run-to-run
    /// spread a regression bound has to clear. 0 when every run read
    /// the same.
    pub fn spread(&self) -> f64 {
        let iqr = self.q3 - self.q1;
        if iqr == 0.0 {
            0.0
        } else {
            iqr / self.median.abs()
        }
    }
}

/// A paired comparison of one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Comparison {
    /// Pairs compared (the shorter side's run count).
    pub pairs: usize,
    /// Pairs in which the change read strictly better.
    pub change_wins: usize,
    /// Pairs in which the parent read strictly better.
    pub parent_wins: usize,
    /// The parent's runs.
    pub parent: Quartiles,
    /// The change's runs.
    pub change: Quartiles,
    /// The verdict of the paired rule.
    pub verdict: Verdict,
}

impl Comparison {
    /// Change median minus parent median, as a share of the parent
    /// median (positive = the value went up).
    pub fn shift(&self) -> f64 {
        (self.change.median - self.parent.median) / self.parent.median.abs()
    }

    /// `true` when the change median is worse than the parent median by
    /// more than `bound` (a share of the parent median).
    pub fn exceeds_bound(&self, better: Better, bound: f64) -> bool {
        let allowed = self.parent.median.abs() * bound;
        match better {
            Better::Lower => self.change.median > self.parent.median + allowed,
            Better::Higher => self.change.median < self.parent.median - allowed,
        }
    }
}

/// Compares paired runs: `parent[i]` and `change[i]` were measured as
/// the i-th alternating pair. `None` when either side has fewer than
/// two runs (no quartiles).
pub fn compare(parent: &[f64], change: &[f64], better: Better) -> Option<Comparison> {
    let pairs = parent.len().min(change.len());
    let parent = &parent[..pairs];
    let change = &change[..pairs];
    let pq = Quartiles::of(parent)?;
    let cq = Quartiles::of(change)?;
    let change_wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better.beats(c, p))
        .count();
    let parent_wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better.beats(p, c))
        .count();
    let clear_shift = (cq.median - pq.median).abs() > pq.q3 - pq.q1;
    let decisive = |wins: usize| pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && clear_shift;
    let verdict = if decisive(change_wins) && better.beats(cq.median, pq.median) {
        Verdict::Improved
    } else if decisive(parent_wins) && better.beats(pq.median, cq.median) {
        Verdict::Worse
    } else {
        Verdict::Unresolved
    };
    Some(Comparison {
        pairs,
        change_wins,
        parent_wins,
        parent: pq,
        change: cq,
        verdict,
    })
}

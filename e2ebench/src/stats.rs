//! Order statistics over measured samples.

/// A sorted copy of `values` (total order, so a NaN cannot panic the
/// sort; it sorts last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Arithmetic mean; `None` for an empty slice. The values are summed in
/// sorted order, so the result does not depend on their order to the
/// last bit: a mean over a seed-shuffled case list is the same on every
/// seed.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(sorted(values).iter().sum::<f64>() / values.len() as f64)
}

/// Percentile `p` (0 to 100) by linear interpolation between the two
/// closest ranks, so `percentile(v, 50)` is the usual median. `None`
/// for an empty slice or a `p` outside 0 to 100.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let v = sorted(values);
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median; `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// First quartile, median and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (its default, "exclusive"
/// method), so a spread computed here matches one computed from the
/// same values in Python. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

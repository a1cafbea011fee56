//! Percentile and quartile math on known vectors. The quartile
//! expectations are what Python's `statistics.quantiles(v, n=4)` returns
//! for the same vectors.

use rectpart_e2ebench::stats::{mean, median, percentile, quartiles};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn percentiles_interpolate_between_ranks() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.0), Some(1.0));
    assert_eq!(percentile(&v, 100.0), Some(10.0));
    assert!(close(percentile(&v, 90.0).unwrap(), 9.1));
    assert!(close(percentile(&v, 25.0).unwrap(), 3.25));
    assert_eq!(median(&v), Some(5.5));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[7.0]), Some(7.0));
    assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
}

#[test]
fn order_of_input_does_not_matter() {
    let v = [9.0, 2.0, 7.0, 4.0, 1.0, 8.0];
    let mut w = v;
    w.reverse();
    assert_eq!(percentile(&v, 90.0), percentile(&w, 90.0));
    assert_eq!(quartiles(&v), quartiles(&w));
    // Summed in these orders the mean would be 0.25 and 0.5.
    let a = mean(&[1e16, 1.0, -1e16, 1.0]).unwrap();
    let b = mean(&[1.0, 1.0, 1e16, -1e16]).unwrap();
    assert_eq!(a.to_bits(), b.to_bits());
}

#[test]
fn empty_or_out_of_range_gives_none() {
    assert_eq!(median(&[]), None);
    assert_eq!(mean(&[]), None);
    assert_eq!(percentile(&[1.0], 101.0), None);
    assert_eq!(percentile(&[1.0], -1.0), None);
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn quartiles_match_python_exclusive_method() {
    // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
    assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some((1.25, 2.5, 3.75)));
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
    // Two values extrapolate: [0.75, 1.5, 2.25].
    assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
    // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
    assert_eq!(
        quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
        Some((15.0, 30.0, 45.0))
    );
}

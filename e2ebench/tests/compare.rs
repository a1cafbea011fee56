//! Verdicts of the paired compare rule.

use rectpart_e2ebench::compare::{compare, Better, Quartiles, Verdict, MIN_PAIRS};

/// Ten parent runs around 100 with an interquartile range of about 2.
fn parent() -> Vec<f64> {
    vec![
        99.0, 101.0, 100.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0,
    ]
}

fn shifted(by: f64) -> Vec<f64> {
    parent().iter().map(|v| v + by).collect()
}

#[test]
fn clear_win_is_improved() {
    let c = compare(&parent(), &shifted(-10.0), Better::Lower).unwrap();
    assert_eq!(c.verdict, Verdict::Improved);
    assert_eq!((c.pairs, c.change_wins, c.parent_wins), (10, 10, 0));
    assert!(c.shift() < -0.09);
    assert!(!c.exceeds_bound(Better::Lower, 0.0));
}

#[test]
fn clear_loss_is_worse() {
    let c = compare(&parent(), &shifted(10.0), Better::Lower).unwrap();
    assert_eq!(c.verdict, Verdict::Worse);
    assert!(c.exceeds_bound(Better::Lower, 0.05));
    assert!(!c.exceeds_bound(Better::Lower, 0.15));
}

#[test]
fn direction_follows_the_metric() {
    // Higher throughput is the gain.
    let c = compare(&parent(), &shifted(10.0), Better::Higher).unwrap();
    assert_eq!(c.verdict, Verdict::Improved);
    let c = compare(&parent(), &shifted(-10.0), Better::Higher).unwrap();
    assert_eq!(c.verdict, Verdict::Worse);
    assert!(c.exceeds_bound(Better::Higher, 0.05));
}

#[test]
fn shift_within_the_parent_spread_is_unresolved() {
    // The change wins every pair, but by less than the parent's IQR.
    let c = compare(&parent(), &shifted(-0.5), Better::Lower).unwrap();
    assert_eq!(c.change_wins, 10);
    assert_eq!(c.verdict, Verdict::Unresolved);
}

#[test]
fn too_few_wins_is_unresolved() {
    // A large median shift, but the change wins only 8 of 10 pairs.
    let mut change = shifted(-10.0);
    change[0] = 200.0;
    change[1] = 200.0;
    let c = compare(&parent(), &change, Better::Lower).unwrap();
    assert_eq!(c.change_wins, 8);
    assert_eq!(c.verdict, Verdict::Unresolved);
}

#[test]
fn nine_of_ten_wins_suffice_and_ties_count_for_neither() {
    let mut change = shifted(-10.0);
    change[3] = parent()[3];
    let c = compare(&parent(), &change, Better::Lower).unwrap();
    assert_eq!((c.change_wins, c.parent_wins), (9, 0));
    assert_eq!(c.verdict, Verdict::Improved);
}

#[test]
fn spread_is_the_interquartile_range_over_the_median() {
    // statistics.quantiles(parent(), n=4) == [98.875, 100.0, 101.125]
    let q = Quartiles::of(&parent()).unwrap();
    assert_eq!((q.q1, q.median, q.q3), (98.875, 100.0, 101.125));
    assert!((q.spread() - 0.0225).abs() < 1e-12);
    assert_eq!(Quartiles::of(&[0.5; 10]).unwrap().spread(), 0.0);
}

#[test]
fn fewer_than_ten_pairs_is_unresolved() {
    let p = parent();
    let c = shifted(-10.0);
    let n = MIN_PAIRS - 1;
    let r = compare(&p[..n], &c[..n], Better::Lower).unwrap();
    assert_eq!(r.change_wins, n);
    assert_eq!(r.verdict, Verdict::Unresolved);
    // Unequal sides pair up to the shorter one.
    let r = compare(&p, &c[..n], Better::Lower).unwrap();
    assert_eq!(r.pairs, n);
    assert!(compare(&p[..1], &c[..1], Better::Lower).is_none());
}

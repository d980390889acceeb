//! The order statistics and the `compare` verdict.

use hwdp_benchmark::compare::{judge, Verdict};
use hwdp_benchmark::stats::{median, percentile, quartiles, samples_needed};

fn ramp(n: u32) -> Vec<f64> {
    (1..=n).map(f64::from).collect()
}

#[test]
fn percentile_refuses_fewer_than_ten_samples_beyond() {
    assert_eq!(samples_needed(0.95), 200);
    // 199 samples: p95 is rank 190, leaving 9 beyond it.
    let refused = percentile(&ramp(199), 0.95).expect_err("9 samples beyond p95");
    assert!(refused.contains("needs at least 200 samples"), "{refused}");
    assert_eq!(percentile(&ramp(200), 0.95), Ok(190.0));
    assert_eq!(percentile(&ramp(20), 0.5), Ok(10.0));
    assert!(percentile(&ramp(19), 0.5).is_err());
    assert!(percentile(&[], 0.5).is_err());
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from `statistics.quantiles(values, n=4)`.
    assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
    assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
    assert_eq!(
        quartiles(&[3.5, 1.0, 2.0, 10.0, 7.0]),
        Some([1.5, 3.5, 8.5])
    );
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn verdict_follows_direction_bound_and_base_spread() {
    let base = [10.0, 10.1, 9.9, 10.0];
    let judged = |head: &[f64], lower| {
        judge(&base, head, lower, 0.1)
            .expect("two values a side")
            .verdict
    };
    assert_eq!(
        judged(&[10.5, 10.6], true),
        Verdict::Ok,
        "5% slower is within a 10% bound"
    );
    assert_eq!(judged(&[11.5, 11.6], true), Verdict::Regressed);
    assert_eq!(
        judged(&[11.5, 11.6], false),
        Verdict::Ok,
        "higher is better for this metric"
    );
    assert_eq!(judged(&[8.5, 8.6], false), Verdict::Regressed);

    let noisy = [5.0, 10.0, 15.0, 20.0];
    assert_eq!(
        judge(&noisy, &[30.0, 31.0], true, 0.1).map(|c| c.verdict),
        Some(Verdict::Unresolved)
    );
    assert_eq!(
        judge(&noisy, &[1.0, 2.0], true, 0.1).map(|c| c.verdict),
        Some(Verdict::Better)
    );
    assert!(
        judge(&noisy, &[1.0], true, 0.1).is_none(),
        "one head value cannot be judged"
    );
}

//! Order statistics over host-time samples.

/// Fewest samples a reported percentile must leave above it.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); NaN when
/// `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Fewest samples for which [`percentile`] gives `p`.
pub fn samples_needed(p: f64) -> usize {
    (MIN_BEYOND as f64 / (1.0 - p)).ceil() as usize
}

/// Nearest-rank percentile `p` (in `(0, 1)`). Refuses when fewer than
/// [`MIN_BEYOND`] samples lie above the chosen rank: such a tail value
/// rests on a handful of samples and does not repeat.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    let v = sorted(values);
    let n = v.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} over {n} samples leaves {beyond} beyond it; needs at least {} samples",
            p * 100.0,
            samples_needed(p)
        ));
    }
    Ok(v[rank - 1])
}

/// First quartile, median and third quartile by the exclusive method
/// (Python's `statistics.quantiles(values, n=4)`); `None` for fewer than
/// two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([q(1), q(2), q(3)])
}

//! Small statistics helpers: medians, histogram quantiles interpolated
//! inside their bucket, and the output lines the benchmark prints.

use mprec_runtime::LatencyHistogram;

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The `q`-quantile of a log-bucketed latency histogram in
/// milliseconds, interpolated linearly by rank inside the bucket that
/// holds it.
///
/// `LatencyHistogram::quantile_us` returns the bucket's upper edge, so
/// on its own it can only take values on a ~4.4% grid; a benchmark
/// median built from it would read the same on most runs and hide any
/// change smaller than a bucket. The interpolation uses only the
/// histogram's public counters.
pub fn quantile_ms(h: &LatencyHistogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let upper = h.quantile_us(q);
    let subs = f64::from(h.subs_per_octave());
    if upper <= 1.0 {
        return upper / 1e3;
    }
    // Bucket i holds (2^((i-1)/subs), 2^(i/subs)]; probe its middle and
    // the next bucket's middle to read cumulative counts.
    let i = (upper.log2() * subs - 1e-9).ceil();
    let at = |x: f64| 2f64.powf(x / subs);
    let ge_bucket = h.count_above(at(i - 0.5));
    let ge_next = h.count_above(at(i + 0.5));
    let in_bucket = ge_bucket.saturating_sub(ge_next);
    let lower = at(i - 1.0).max(h.quantile_us(0.0));
    if in_bucket == 0 || upper <= lower {
        return upper / 1e3;
    }
    let target = ((q * n as f64).ceil() as u64).max(1);
    let below = n - ge_bucket;
    let frac = (target.saturating_sub(below) as f64 / in_bucket as f64).clamp(0.0, 1.0);
    (lower + frac * (upper - lower)) / 1e3
}

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Formats a float as a JSON number (non-finite values, which fail the
/// run's checks, become `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn interpolated_quantile_tracks_uniform_data() {
        let mut h = LatencyHistogram::new();
        for i in 1..=10_000 {
            h.record(1000.0 + i as f64 * 0.1);
        }
        // True p50 is 1500 us; the bucket edge alone is off by up to 4.4%.
        let p50 = quantile_ms(&h, 0.5) * 1e3;
        assert!((p50 - 1500.0).abs() < 5.0, "p50 {p50}");
        let p95 = quantile_ms(&h, 0.95) * 1e3;
        assert!((p95 - 1950.0).abs() < 5.0, "p95 {p95}");
    }
}

//! Order statistics over latency samples.

/// A latency distribution summarised the way the benchmark reports it.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// The tail value: see [`tail`].
    pub tail: f64,
    /// The percentile the tail value sits at.
    pub tail_pct: f64,
}

/// Median of `samples` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest sample, at percentile `100 · (n − 10) / n`. Returns
/// `None` below eleven samples, where no value has ten samples beyond it.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 11 {
        return None;
    }
    let sorted = sorted(samples);
    Some((sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64))
}

/// Median and tail of `samples`; `None` below eleven samples.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let (tail, tail_pct) = tail(samples)?;
    Some(Summary { count: samples.len(), p50: median(samples), tail, tail_pct })
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_exactly_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&samples).unwrap();
        assert_eq!(value, 90.0);
        assert_eq!(samples.iter().filter(|&&s| s > value).count(), 10);
        assert_eq!(pct, 90.0);
    }

    #[test]
    fn tail_moves_out_as_samples_grow() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (value, pct) = tail(&samples).unwrap();
        assert_eq!(value, 990.0);
        assert_eq!(pct, 99.0);
        // Order does not matter.
        let reversed: Vec<f64> = samples.iter().rev().copied().collect();
        assert_eq!(tail(&reversed), Some((990.0, 99.0)));
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        // The smallest sample is the only one with ten samples beyond it.
        assert_eq!(tail(&eleven).unwrap().0, 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}

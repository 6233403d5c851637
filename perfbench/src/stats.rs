//! Latency summaries and process measurements.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the value at the highest whole percentile
/// that still has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: u32,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
    pub samples: usize,
}

/// [`Tail`] of `values`, searched from the 99th percentile down to the
/// median; `None` when even the median has fewer than ten samples beyond
/// it (fewer than 21 samples).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n < 21 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // rank r (0-based) leaves n - 1 - r samples beyond it
    for p in (50..=99u32).rev() {
        let rank = ((p as f64 / 100.0) * n as f64).ceil() as usize;
        let rank = rank.clamp(1, n) - 1;
        let beyond = n - 1 - rank;
        if beyond >= 10 {
            return Some(Tail { value: v[rank], percentile: p, beyond, samples: n });
        }
    }
    None
}

/// Peak resident set size of a process in MiB (`VmHWM`), from procfs.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
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
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.percentile, 90);
        assert!(t.beyond >= 10);
        assert_eq!(t.value, 90.0);
        let few: Vec<f64> = (1..=21).map(f64::from).collect();
        let t = tail(&few).unwrap();
        assert_eq!((t.percentile, t.beyond, t.value), (52, 10, 11.0));
        assert!(tail(&few[..20]).is_none());
    }
}

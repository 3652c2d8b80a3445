//! Small numeric helpers and the result line.

use std::time::Instant;

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linearly interpolated quantile `q` in `[0, 1]` of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Mean of the middle half of `v` by rank (the median below 4 values).
/// On this host a run's slices fall into a fast and a slow speed state for
/// a second or two at a time; the median of such slices snaps from one
/// state to the other as their shares cross one half, while the middle-half
/// mean moves smoothly with the shares and still ignores single bursts.
pub fn interquartile_mean(v: &[f64]) -> f64 {
    if v.len() < 4 {
        return median(v);
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let cut = s.len() / 4;
    let mid = &s[cut..s.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metrics in insertion order.
#[derive(Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.items.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = (name.to_string(), value, unit),
            None => self.items.push((name.to_string(), value, unit)),
        }
    }

    /// The declared `(name, unit)` metrics, in declared order; an error
    /// names any that was not measured or carries another unit.
    pub fn select(&self, declared: &[(&str, &str)]) -> Result<Metrics, String> {
        let mut out = Metrics::default();
        for &(name, unit) in declared {
            let (_, value, got) = self
                .items
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if *got != unit {
                return Err(format!("metric {name} has unit {got}, declared {unit}"));
            }
            out.items.push((name.to_string(), *value, got));
        }
        Ok(out)
    }

    /// The JSON object of every metric: `{"name": {"value": v, "unit": u}}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .items
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn select_keeps_declared_order_and_checks_units() {
        let mut m = Metrics::default();
        m.set("b", 2.0, "ms");
        m.set("a", 1.0, "s");
        m.set("extra", 3.0, "s");
        let s = m.select(&[("a", "s"), ("b", "ms")]).unwrap();
        assert_eq!(
            s.to_json(),
            "{\"a\": {\"value\": 1.0, \"unit\": \"s\"}, \"b\": {\"value\": 2.0, \"unit\": \"ms\"}}"
        );
        assert!(m.select(&[("missing", "s")]).is_err());
        assert!(m.select(&[("a", "ms")]).is_err());
    }

    #[test]
    fn interquartile_mean_drops_both_quarters() {
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]),
            3.5
        );
        assert_eq!(interquartile_mean(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn metrics_render_full_precision() {
        let mut m = Metrics::default();
        m.set("a", 0.1 + 0.2, "s");
        m.set("b", 2.0, "ms");
        m.set("a", 1.5, "s");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2.0, \"unit\": \"ms\"}}"
        );
    }
}

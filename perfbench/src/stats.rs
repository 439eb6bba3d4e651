//! Latency recording per statement kind.
//!
//! Every kind keeps an `HdrHistogram` (the repository's one histogram
//! type) for its tail, plus the exact samples for its median: a median
//! read from histogram buckets is a bucket bound, which can repeat
//! exactly across runs and moves in 3 % steps.

use std::collections::BTreeMap;
use std::time::Duration;

use polardbx_common::metrics::HdrHistogram;

/// Latencies of one statement kind.
#[derive(Default)]
pub struct Lat {
    hist: HdrHistogram,
    ns: Vec<u64>,
}

/// A tail percentile with at least ten samples beyond it.
pub struct Tail {
    /// Percentile in percent (for example 99.0 or 97.5).
    pub pct: f64,
    pub us: f64,
    pub samples: usize,
}

impl Lat {
    pub fn record(&mut self, d: Duration) {
        self.hist.record(d);
        self.ns.push(d.as_nanos() as u64);
    }

    pub fn merge(&mut self, other: &Lat) {
        self.hist.merge(&other.hist);
        self.ns.extend_from_slice(&other.ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Exact quantile `q` in microseconds (0 when empty).
    pub fn quantile_us(&self, q: f64) -> f64 {
        quantile(
            &self.ns.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>(),
            q,
        )
    }

    pub fn p50_us(&self) -> f64 {
        self.quantile_us(0.5)
    }

    /// The highest percentile, at most p99, that leaves at least ten
    /// samples beyond it; `None` below twenty samples.
    pub fn tail(&self) -> Option<Tail> {
        let n = self.len();
        if n < 20 {
            return None;
        }
        let p = (1.0 - 10.0 / n as f64).min(0.99);
        // Round down to a tenth of a percent so the label is stable.
        let pct = (p * 1000.0).floor() / 10.0;
        let us = self.hist.percentile(pct / 100.0).as_nanos() as f64 / 1e3;
        Some(Tail {
            pct,
            us,
            samples: n,
        })
    }

    /// One report line: count, p50, p90, tail and max.
    pub fn line(&self, kind: &str) -> String {
        let tail = match self.tail() {
            Some(t) => format!("p{} {:.0} us", t.pct, t.us),
            None => "tail n/a".into(),
        };
        format!(
            "  {kind:<12} n={:<6} p50 {:>9.0} us  p90 {:>9.0} us  {tail}  max {:.0} us",
            self.len(),
            self.p50_us(),
            self.quantile_us(0.9),
            self.hist.max().as_nanos() as f64 / 1e3,
        )
    }
}

/// Exact linear-interpolated quantile of unsorted values (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Per-thread tally of a load phase.
#[derive(Default)]
pub struct Tally {
    pub lat: BTreeMap<&'static str, Lat>,
    pub attempted: u64,
    /// Client-visible errors and wrong row counts.
    pub failed: u64,
    /// Rows written by acknowledged statements.
    pub rows_written: u64,
    pub first_errors: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self, kind: &'static str, d: Duration) {
        self.attempted += 1;
        self.lat.entry(kind).or_default().record(d);
    }

    pub fn fail(&mut self, kind: &'static str, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.first_errors.len() < 5 {
            self.first_errors.push(format!("{kind}: {why}"));
        }
    }

    pub fn merge(&mut self, other: Tally) {
        for (k, l) in &other.lat {
            self.lat.entry(k).or_default().merge(l);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rows_written += other.rows_written;
        for e in other.first_errors {
            if self.first_errors.len() < 5 {
                self.first_errors.push(e);
            }
        }
    }

    pub fn p50_us(&self, kind: &str) -> f64 {
        self.lat.get(kind).map(Lat::p50_us).unwrap_or(0.0)
    }

    /// Statements of `kinds` that completed without error.
    pub fn completed(&self, kinds: &[&str]) -> usize {
        kinds
            .iter()
            .filter_map(|k| self.lat.get(k))
            .map(Lat::len)
            .sum()
    }

    /// Tail over the union of `kinds`.
    pub fn tail_of(&self, kinds: &[&str]) -> Option<Tail> {
        let mut all = Lat::default();
        for k in kinds {
            if let Some(l) = self.lat.get(k) {
                all.merge(l);
            }
        }
        all.tail()
    }

    pub fn report(&self, out: &mut Vec<String>) {
        for (k, l) in &self.lat {
            out.push(l.line(k));
        }
        for e in &self.first_errors {
            out.push(format!("  error: {e}"));
        }
    }
}

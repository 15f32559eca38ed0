//! The benchmark's own arithmetic: percentile selection with sample
//! counts, due-time latency, the rate ladder's stop rule and the
//! closed-loop Little's-law self-check. Pure functions, unit-tested
//! below, so a wrong number can be traced to the load or to the maths.

use std::time::Duration;

/// Minimum number of samples that must lie beyond a reported
/// percentile for it to count as supported by the sample.
pub const BEYOND: usize = 10;

/// Latency samples in nanoseconds, sorted once for percentile reads.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    sorted: Vec<u64>,
}

/// One percentile read: the percentile actually reported, its value in
/// milliseconds, the sample count and how many samples lie beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    /// The percentile, in percent.
    pub pct: f64,
    /// Its value in milliseconds.
    pub ms: f64,
    /// Samples in the set.
    pub n: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

impl Samples {
    /// Takes ownership of raw samples and sorts them.
    pub fn new(mut raw: Vec<u64>) -> Self {
        raw.sort_unstable();
        Self { sorted: raw }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Mean in milliseconds (0 for an empty set).
    pub fn mean_ms(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let sum: u128 = self.sorted.iter().map(|&v| u128::from(v)).sum();
        sum as f64 / self.sorted.len() as f64 / 1e6
    }

    /// Nearest-rank percentile `pct` (in percent): the value at rank
    /// `ceil(pct/100 · n)`. `None` on an empty set.
    pub fn at(&self, pct: f64) -> Option<Pct> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = rank(pct, n);
        Some(Pct {
            pct,
            ms: self.sorted[rank - 1] as f64 / 1e6,
            n,
            beyond: n - rank,
        })
    }

    /// The 99th percentile when at least [`BEYOND`] samples lie beyond
    /// it; otherwise the highest percentile that still has [`BEYOND`]
    /// samples beyond it. `None` when even that does not exist.
    pub fn p99_or_tail(&self) -> Option<Pct> {
        match self.at(99.0) {
            Some(p) if p.beyond >= BEYOND => Some(p),
            _ => self.tail(),
        }
    }

    /// The highest percentile with at least [`BEYOND`] samples beyond
    /// it: the value just below the [`BEYOND`] largest samples.
    pub fn tail(&self) -> Option<Pct> {
        let n = self.sorted.len();
        if n <= BEYOND {
            return None;
        }
        let rank = n - BEYOND;
        Some(Pct {
            pct: 100.0 * rank as f64 / n as f64,
            ms: self.sorted[rank - 1] as f64 / 1e6,
            n,
            beyond: BEYOND,
        })
    }
}

/// Nearest rank (1-based) of percentile `pct` among `n` samples.
fn rank(pct: f64, n: usize) -> usize {
    let r = (pct / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n)
}

/// Median of a small set of measurements (set-up times, repeated runs).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// When request `index` of an open loop at `rate` requests per second is
/// due, as an offset from the loop's start. Open-loop latency runs from
/// this instant, not from the actual send, so a stalled generator
/// charges its stall to every request it delayed.
pub fn due_ns(index: u64, rate: f64) -> u64 {
    (index as f64 * 1e9 / rate) as u64
}

/// Latency of an open-loop request due at `due` and answered at `done`
/// (both offsets from the loop's start, in ns).
pub fn due_latency_ns(due: u64, done: u64) -> u64 {
    done.saturating_sub(due)
}

/// One step of the open-loop rate ladder, as measured.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LadderStep {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// The step's 99th-percentile latency (or its supported tail), ms.
    pub p99_ms: f64,
    /// Failed or refused requests over attempted ones.
    pub failed_frac: f64,
    /// Requests still unanswered when the step's sending window closed.
    pub in_flight_at_end: u64,
    /// Requests the step sent.
    pub sent: u64,
    /// Of those, requests sent more than [`GEN_LATE_MS`] late.
    pub late: u64,
}

/// The latency limit a ladder step must meet, on its 99th percentile.
pub const LADDER_P99_LIMIT_MS: f64 = 10.0;

/// A request the generator sends (or releases) more than this late
/// counts as late.
pub const GEN_LATE_MS: f64 = 1.0;

/// The share of late requests past which a step or a run is invalid: it
/// measured the generator (or a stalled host), not the server.
pub const GEN_LATE_FRAC: f64 = 0.05;

/// Whether a generator kept to its schedule: at most [`GEN_LATE_FRAC`]
/// of its `sent` requests went out more than [`GEN_LATE_MS`] late.
pub fn generator_on_time(late: u64, sent: u64) -> bool {
    late as f64 <= GEN_LATE_FRAC * sent as f64
}

/// Whether the backlog grew during a step: more requests outstanding at
/// the end of the window than the rate can drain within the latency
/// limit (Little's law: `rate · limit` is the most that can be in
/// flight while every one of them still meets the limit).
pub fn backlog_growing(step: &LadderStep) -> bool {
    step.in_flight_at_end as f64 > step.rate * LADDER_P99_LIMIT_MS / 1e3
}

/// Whether a step meets the ladder's bar: the latency limit on its
/// 99th percentile, no failure, no growing backlog, and a generator
/// that kept to its schedule (otherwise the step measured the
/// generator, not the server).
pub fn step_passes(step: &LadderStep) -> bool {
    step.p99_ms <= LADDER_P99_LIMIT_MS
        && step.failed_frac == 0.0
        && !backlog_growing(step)
        && generator_on_time(step.late, step.sent)
}

/// The ladder's stop rule: the highest rate reached, climbing in
/// order, before the first step that fails. Steps above a failure do
/// not count even if they happen to pass. 0 when the first step fails.
pub fn max_ok_rate(steps: &[LadderStep]) -> f64 {
    let mut best = 0.0;
    for s in steps {
        if !step_passes(s) {
            break;
        }
        best = s.rate;
    }
    best
}

/// Little's law for a closed loop: throughput × mean latency equals the
/// requests kept in flight. Returns the measured ratio
/// `ok_per_s · mean_latency / in_flight` (1.0 is exact).
pub fn littles_ratio(ok_per_s: f64, mean_latency: Duration, in_flight: usize) -> f64 {
    ok_per_s * mean_latency.as_secs_f64() / in_flight.max(1) as f64
}

/// Tolerance of the closed-loop self-check: the ramp at the start and
/// the drain at the end keep fewer than the nominal requests in flight.
pub const LITTLE_TOLERANCE: f64 = 0.1;

/// Whether the Little's-law ratio is within [`LITTLE_TOLERANCE`].
pub fn littles_law_holds(ratio: f64) -> bool {
    (ratio - 1.0).abs() <= LITTLE_TOLERANCE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> u64 {
        v * 1_000_000
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = Samples::new((1..=100).map(ms).rev().collect());
        assert_eq!(s.at(50.0).unwrap().ms, 50.0);
        assert_eq!(s.at(99.0).unwrap().ms, 99.0);
        assert_eq!(s.at(100.0).unwrap().ms, 100.0);
        assert_eq!(s.at(0.0).unwrap().ms, 1.0);
        assert_eq!(s.at(99.0).unwrap().beyond, 1);
        assert!(Samples::default().at(50.0).is_none());
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly 10 beyond — p99 is supported.
        let s = Samples::new((1..=1000).map(ms).collect());
        let p = s.p99_or_tail().unwrap();
        assert_eq!((p.pct, p.ms, p.n, p.beyond), (99.0, 990.0, 1000, 10));

        // 500 samples: p99 has only 5 beyond, so the report falls back to
        // the highest percentile with 10 beyond: rank 490, i.e. p98.
        let s = Samples::new((1..=500).map(ms).collect());
        let p = s.p99_or_tail().unwrap();
        assert_eq!(p.beyond, 10);
        assert_eq!(p.ms, 490.0);
        assert!((p.pct - 98.0).abs() < 1e-9);

        // Too few samples to support any tail at all.
        assert!(Samples::new((1..=10).collect()).p99_or_tail().is_none());
    }

    #[test]
    fn tail_is_the_highest_supported_percentile() {
        let s = Samples::new((1..=200_000).collect());
        let t = s.tail().unwrap();
        assert_eq!(t.beyond, 10);
        assert_eq!(t.ms, 199_990.0 / 1e6);
        assert!((t.pct - 99.995).abs() < 1e-9);
    }

    #[test]
    fn mean_and_median() {
        let s = Samples::new(vec![ms(1), ms(2), ms(6)]);
        assert_eq!(s.mean_ms(), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time() {
        // 20K req/s: one request every 50 us.
        assert_eq!(due_ns(0, 20_000.0), 0);
        assert_eq!(due_ns(1, 20_000.0), 50_000);
        assert_eq!(due_ns(20_000, 20_000.0), 1_000_000_000);
        // A 5 ms generator stall before request 100 (due at 5 ms): it
        // is sent at 10 ms and answered 1 ms later. Its latency is 6 ms
        // from the due time, not the 1 ms a send-time clock would show.
        let due = due_ns(100, 20_000.0);
        assert_eq!(due, 5_000_000);
        assert_eq!(due_latency_ns(due, 11_000_000), 6_000_000);
        // An answer can never precede its due time in the record.
        assert_eq!(due_latency_ns(due, 1), 0);
    }

    fn step(rate: f64, p99_ms: f64) -> LadderStep {
        LadderStep {
            rate,
            p99_ms,
            failed_frac: 0.0,
            in_flight_at_end: 10,
            sent: 20_000,
            late: 0,
        }
    }

    #[test]
    fn ladder_stops_at_the_first_failing_step() {
        let steps = [
            step(20e3, 1.2),
            step(40e3, 1.4),
            step(80e3, 12.0),
            step(160e3, 2.0),
        ];
        // 160K passing after 80K failed does not count.
        assert_eq!(max_ok_rate(&steps), 40e3);
        assert_eq!(max_ok_rate(&steps[..2]), 40e3);
        assert_eq!(max_ok_rate(&[step(20e3, 11.0)]), 0.0);
        assert_eq!(max_ok_rate(&[]), 0.0);
    }

    #[test]
    fn ladder_step_fails_on_failures_backlog_or_a_late_generator() {
        let mut s = step(20e3, 1.0);
        assert!(step_passes(&s));
        s.failed_frac = 1e-6;
        assert!(!step_passes(&s));

        let mut s = step(20e3, 1.0);
        // 20K req/s may keep at most 200 in flight within 10 ms.
        s.in_flight_at_end = 200;
        assert!(!backlog_growing(&s));
        s.in_flight_at_end = 201;
        assert!(backlog_growing(&s));
        assert!(!step_passes(&s));

        let mut s = step(20e3, 1.0);
        s.late = 1000;
        assert!(step_passes(&s), "5% late is the bound itself");
        s.late = 1001;
        assert!(!step_passes(&s));

        let s = step(20e3, LADDER_P99_LIMIT_MS);
        assert!(step_passes(&s), "the limit itself is met");
    }

    #[test]
    fn generator_lateness_bound() {
        assert!(generator_on_time(0, 0));
        assert!(generator_on_time(50, 1000));
        assert!(!generator_on_time(51, 1000));
    }

    #[test]
    fn littles_law_self_check() {
        // 512 in flight at 3 ms each sustain 170 667 ok/s.
        let rate = 512.0 / 0.003;
        let r = littles_ratio(rate, Duration::from_millis(3), 512);
        assert!((r - 1.0).abs() < 1e-9);
        assert!(littles_law_holds(r));
        // A loop that silently kept only half its window in flight (or
        // whose latency clock is off by 2x) fails the check.
        let r = littles_ratio(rate / 2.0, Duration::from_millis(3), 512);
        assert!(!littles_law_holds(r));
        let r = littles_ratio(rate, Duration::from_millis(6), 512);
        assert!(!littles_law_holds(r));
    }
}

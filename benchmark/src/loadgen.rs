//! Load-generator bookkeeping shared by the serving workloads: the
//! open-loop send schedule, latency measured from when a request was due,
//! and the SLO tally in which every refused, failed or wrong answer counts
//! as a miss.

/// Latency limit of one localization query, in milliseconds.
pub const SLO_MS: f64 = 2.0;

/// A fixed-rate open-loop schedule: request `i` is due `i / rate`
/// seconds after the phase starts, whether or not earlier requests have
/// been answered.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    rate_per_s: f64,
}

impl Schedule {
    /// A schedule offering `rate_per_s` requests per second.
    ///
    /// # Panics
    ///
    /// Panics unless the rate is positive and finite.
    pub fn new(rate_per_s: f64) -> Schedule {
        assert!(
            rate_per_s.is_finite() && rate_per_s > 0.0,
            "rate must be positive"
        );
        Schedule { rate_per_s }
    }

    /// When request `i` is due, in nanoseconds after the phase start.
    pub fn due_ns(&self, i: u64) -> u64 {
        (i as f64 * 1e9 / self.rate_per_s) as u64
    }
}

/// Milliseconds from a request's due time to its answer. Timing from the
/// due time, not the send time, charges a generator stall to every
/// request it delayed.
pub fn latency_from_due_ms(due_ns: u64, answered_ns: u64) -> f64 {
    answered_ns.saturating_sub(due_ns) as f64 / 1e6
}

/// How one request ended, as the load generator saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// Located, and bit-identical to the reference answer.
    Correct {
        /// Latency in milliseconds.
        latency_ms: f64,
        /// Answered by the fallback model.
        degraded: bool,
    },
    /// Located, but not the reference answer.
    Wrong,
    /// Refused at admission (shed, draining, …).
    Refused,
    /// A transport or internal error.
    Failed,
}

/// Per-phase request accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Requests sent.
    pub sent: u64,
    /// Correct answers.
    pub correct: u64,
    /// Correct answers from the fallback model.
    pub degraded: u64,
    /// Correct answers slower than [`SLO_MS`].
    pub late: u64,
    /// Located but wrong answers.
    pub wrong: u64,
    /// Refusals.
    pub refused: u64,
    /// Errors.
    pub failed: u64,
}

impl Tally {
    /// Accounts one request.
    pub fn record(&mut self, outcome: Outcome) {
        self.sent += 1;
        match outcome {
            Outcome::Correct {
                latency_ms,
                degraded,
            } => {
                self.correct += 1;
                self.degraded += u64::from(degraded);
                self.late += u64::from(latency_ms > SLO_MS);
            }
            Outcome::Wrong => self.wrong += 1,
            Outcome::Refused => self.refused += 1,
            Outcome::Failed => self.failed += 1,
        }
    }

    /// Requests that did not get a correct answer.
    pub fn unsuccessful(&self) -> u64 {
        self.wrong + self.refused + self.failed
    }

    /// Requests that missed the SLO: late, refused, failed or wrong.
    pub fn slo_misses(&self) -> u64 {
        self.late + self.unsuccessful()
    }

    /// [`slo_misses`](Self::slo_misses) over requests sent.
    pub fn slo_miss_ratio(&self) -> f64 {
        self.slo_misses() as f64 / self.sent.max(1) as f64
    }

    /// Degraded answers over requests sent.
    pub fn degraded_ratio(&self) -> f64 {
        self.degraded as f64 / self.sent.max(1) as f64
    }

    /// Adds another tally of the same phase into this one.
    pub fn absorb(&mut self, other: &Tally) {
        self.sent += other.sent;
        self.correct += other.correct;
        self.degraded += other.degraded;
        self.late += other.late;
        self.wrong += other.wrong;
        self.refused += other.refused;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refused_failed_and_wrong_answers_miss_the_slo() {
        let mut tally = Tally::default();
        tally.record(Outcome::Correct {
            latency_ms: 0.5,
            degraded: false,
        });
        tally.record(Outcome::Correct {
            latency_ms: 0.7,
            degraded: true,
        });
        tally.record(Outcome::Correct {
            latency_ms: SLO_MS + 0.1,
            degraded: false,
        });
        tally.record(Outcome::Refused);
        tally.record(Outcome::Failed);
        tally.record(Outcome::Wrong);
        assert_eq!(tally.sent, 6);
        assert_eq!(tally.correct, 3);
        assert_eq!(tally.unsuccessful(), 3, "refused, failed and wrong");
        assert_eq!(tally.slo_misses(), 4, "the late answer misses too");
        assert!((tally.slo_miss_ratio() - 4.0 / 6.0).abs() < 1e-12);
        assert!((tally.degraded_ratio() - 1.0 / 6.0).abs() < 1e-12);
        assert_eq!(
            Tally::default().slo_miss_ratio(),
            0.0,
            "no requests, no misses"
        );

        let mut slices = Tally::default();
        slices.absorb(&tally);
        slices.absorb(&tally);
        assert_eq!(
            (slices.sent, slices.slo_misses(), slices.degraded),
            (12, 8, 2)
        );
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // 1000 requests/s: request i is due at i ms.
        let schedule = Schedule::new(1000.0);
        assert_eq!(schedule.due_ns(0), 0);
        assert_eq!(schedule.due_ns(3), 3_000_000);
        // A 10 ms generator stall: requests 0..10 all go out at 10 ms and
        // are answered 0.5 ms later. Each is charged the stall it sat
        // through, not just its 0.5 ms of service.
        let answered = 10_500_000;
        let latencies: Vec<f64> = (0..10)
            .map(|i| latency_from_due_ms(schedule.due_ns(i), answered))
            .collect();
        assert!((latencies[0] - 10.5).abs() < 1e-9);
        assert!((latencies[9] - 1.5).abs() < 1e-9);
        assert!(latencies.windows(2).all(|w| w[0] > w[1]));
        // An answer stamped before its due time (clock granularity) is 0.
        assert_eq!(latency_from_due_ms(5, 3), 0.0);
    }
}

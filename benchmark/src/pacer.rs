//! Open-loop pacing: operations are due on a fixed schedule and every
//! latency is counted from the instant the operation was *due*, not from
//! when the client got round to sending it. A stall therefore charges its
//! delay to the operations queued behind it, and the schedule never sheds
//! the debt (the `crates/workload` driver times from send and resets its
//! schedule after 100 ms; its loop is deliberately not reused).

use std::time::{Duration, Instant};

/// The clock the pacing loop runs on (a fake one in the unit tests).
pub trait Time {
    /// Time since the loop's epoch.
    fn now(&self) -> Duration;
    /// Block until `t` (return at once when `t` has passed).
    fn sleep_until(&self, t: Duration);
}

/// Wall-clock time. Sleeps rather than spins: the two cores belong to the
/// system under test.
pub struct Wall(pub Instant);

impl Time for Wall {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        if let Some(wait) = t.checked_sub(self.0.elapsed()) {
            std::thread::sleep(wait);
        }
    }
}

/// Operation `i` is due at `first + i * interval`, while that is `< end`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub first: Duration,
    pub interval: Duration,
    pub end: Duration,
}

/// One completed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample<K> {
    pub kind: K,
    pub due: Duration,
    pub issued: Duration,
    pub done: Duration,
}

impl<K> Sample<K> {
    /// Latency as the user sees it: from the due time.
    pub fn latency(&self) -> Duration {
        self.done - self.due
    }

    /// How late the generator sent the operation.
    pub fn lateness(&self) -> Duration {
        self.issued - self.due
    }

    /// Time inside the call itself.
    pub fn service(&self) -> Duration {
        self.done - self.issued
    }
}

/// Run `op` once per scheduled slot. Every scheduled operation is issued,
/// however late: a loop that is behind sends back-to-back until it has
/// caught up with the schedule.
pub fn run_paced<T: Time, K>(
    time: &T,
    schedule: Schedule,
    mut op: impl FnMut(u64) -> K,
) -> Vec<Sample<K>> {
    let mut samples = Vec::new();
    for i in 0u64.. {
        let due = schedule.first + schedule.interval.mul_f64(i as f64);
        if due >= schedule.end {
            break;
        }
        time.sleep_until(due);
        let issued = time.now();
        let kind = op(i);
        samples.push(Sample { kind, due, issued, done: time.now() });
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to: `sleep_until` jumps to the
    /// target, operations advance it by their cost.
    struct Fake(Cell<Duration>);

    impl Time for Fake {
        fn now(&self) -> Duration {
            self.0.get()
        }

        fn sleep_until(&self, t: Duration) {
            self.0.set(self.0.get().max(t));
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn an_unstalled_loop_runs_on_schedule() {
        let clock = Fake(Cell::new(Duration::ZERO));
        let schedule = Schedule { first: MS, interval: MS, end: 11 * MS };
        let samples = run_paced(&clock, schedule, |i| {
            clock.0.set(clock.0.get() + MS / 10);
            i
        });
        assert_eq!(samples.len(), 10);
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.kind, i as u64);
            assert_eq!(s.due, MS * (i as u32 + 1));
            assert_eq!(s.lateness(), Duration::ZERO);
            assert_eq!(s.latency(), MS / 10);
        }
    }

    #[test]
    fn a_stalled_op_charges_its_delay_to_the_ops_queued_behind_it() {
        let clock = Fake(Cell::new(Duration::ZERO));
        let schedule = Schedule { first: Duration::ZERO, interval: MS, end: 20 * MS };
        // Op 2 stalls for 5 ms; every other op costs 0.1 ms.
        let samples = run_paced(&clock, schedule, |i| {
            let cost = if i == 2 { 5 * MS } else { MS / 10 };
            clock.0.set(clock.0.get() + cost);
        });
        // Nothing is shed: all 20 scheduled ops ran.
        assert_eq!(samples.len(), 20);
        assert_eq!(samples[2].latency(), 5 * MS);
        // Op 3 was due at 3 ms but could only be sent at 7 ms: its latency
        // carries the 4 ms it queued, although its own service time is 0.1 ms.
        assert_eq!(samples[3].lateness(), 4 * MS);
        assert_eq!(samples[3].service(), MS / 10);
        assert_eq!(samples[3].latency(), 4 * MS + MS / 10);
        // The debt drains at 0.9 ms per op and is never written off.
        assert!(samples[4].lateness() < samples[3].lateness());
        assert!(samples[4].lateness() > 3 * MS);
        // Once drained, the loop is back on schedule.
        assert_eq!(samples[10].lateness(), Duration::ZERO);
        // Timing from send would have hidden all of it.
        assert!(samples.iter().filter(|s| s.latency() > MS).count() >= 5);
        assert_eq!(samples.iter().filter(|s| s.service() > MS).count(), 1);
    }
}

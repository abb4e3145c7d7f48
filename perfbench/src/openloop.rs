//! Open-loop accounting. Requests are due on a fixed-rate schedule
//! whether or not earlier ones have been answered; each is timed from
//! when it was due, so a stall also charges the requests queued behind
//! it. Times are seconds since the start of the load phase.

/// Due times of `count` requests at `rate` per second from `start`.
pub fn due_times(start: f64, rate: f64, count: usize) -> Vec<f64> {
    (0..count).map(|i| start + i as f64 / rate).collect()
}

/// The life of one request.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Timing {
    /// When it was due.
    pub due: f64,
    /// When the generator sent it (`None` if never sent).
    pub sent: Option<f64>,
    /// When its response arrived (`None` if never answered).
    pub done: Option<f64>,
}

impl Timing {
    /// Latency from the due time, if answered.
    pub fn latency(&self) -> Option<f64> {
        self.done.map(|d| d - self.due)
    }

    /// How late the generator sent it.
    pub fn lateness(&self) -> Option<f64> {
        self.sent.map(|s| (s - self.due).max(0.0))
    }

    /// Due by `t` but not answered by `t`.
    pub fn outstanding_at(&self, t: f64) -> bool {
        self.due <= t && self.done.is_none_or(|d| d > t)
    }
}

/// Requests due by `t` and not answered by `t`.
pub fn backlog_at(timings: &[Timing], t: f64) -> usize {
    timings.iter().filter(|x| x.outstanding_at(t)).count()
}

/// A backlog grows when the requests outstanding at the end of a step
/// exceed both `floor` and those outstanding at its midpoint.
pub fn backlog_grows(timings: &[Timing], mid: f64, end: f64, floor: usize) -> bool {
    let at_end = backlog_at(timings, end);
    at_end > floor && at_end > backlog_at(timings, mid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced() {
        assert_eq!(due_times(1.0, 4.0, 3), vec![1.0, 1.25, 1.5]);
        assert!(due_times(0.0, 10.0, 0).is_empty());
    }

    #[test]
    fn latency_counts_from_due_not_from_send() {
        // Due at 1.0, sent late at 1.5 behind a stall, answered at 1.6.
        let t = Timing {
            due: 1.0,
            sent: Some(1.5),
            done: Some(1.6),
        };
        assert!((t.latency().unwrap() - 0.6).abs() < 1e-12);
        assert!((t.lateness().unwrap() - 0.5).abs() < 1e-12);
        // Sent early (clock skew within a tick) is not negative lateness.
        let early = Timing {
            due: 2.0,
            sent: Some(1.9999),
            done: None,
        };
        assert_eq!(early.lateness(), Some(0.0));
        assert_eq!(early.latency(), None);
    }

    #[test]
    fn backlog_counts_due_and_unanswered() {
        let ts = [
            Timing {
                due: 0.0,
                sent: Some(0.0),
                done: Some(0.5),
            },
            Timing {
                due: 1.0,
                sent: Some(1.0),
                done: None,
            },
            Timing {
                due: 3.0,
                sent: None,
                done: None,
            },
        ];
        assert_eq!(backlog_at(&ts, 0.25), 1);
        assert_eq!(backlog_at(&ts, 0.75), 0);
        assert_eq!(backlog_at(&ts, 2.0), 1);
        assert_eq!(backlog_at(&ts, 3.0), 2);
        assert!(backlog_grows(&ts, 2.0, 3.0, 1));
        assert!(!backlog_grows(&ts, 2.0, 3.0, 2));
    }
}

//! Outside-in tracing: a timing wrapper around the oracle and a recorder
//! of the engine's progress events, from which the per-term layer numbers
//! are derived. Nothing here reaches inside the attack crates.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use polykey_attack::{Oracle, ProgressEvent, SimOracle};

/// A [`SimOracle`] that counts and times every call made into it.
pub struct TimingOracle<'a> {
    inner: SimOracle<'a>,
    pub busy: Duration,
    pub calls: u64,
}

impl<'a> TimingOracle<'a> {
    pub fn new(inner: SimOracle<'a>) -> TimingOracle<'a> {
        TimingOracle { inner, busy: Duration::ZERO, calls: 0 }
    }

    fn timed<R>(&mut self, call: impl FnOnce(&mut SimOracle<'a>) -> R) -> R {
        let start = Instant::now();
        let result = call(&mut self.inner);
        self.busy += start.elapsed();
        self.calls += 1;
        result
    }
}

impl Oracle for TimingOracle<'_> {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn query(&mut self, input: &[bool]) -> Vec<bool> {
        self.timed(|inner| inner.query(input))
    }

    fn query_batch(&mut self, inputs: &[Vec<bool>]) -> Vec<Vec<bool>> {
        self.timed(|inner| inner.query_batch(inputs))
    }

    fn queries(&self) -> u64 {
        self.inner.queries()
    }
}

/// Term lifecycle events with the instant each arrived. Per-DIP events are
/// not kept: they carry no timing the term events lack.
#[derive(Default)]
pub struct EventLog {
    events: Mutex<Vec<(Instant, ProgressEvent)>>,
}

impl EventLog {
    pub fn record(&self, event: &ProgressEvent) {
        if matches!(event, ProgressEvent::Dip { .. }) {
            return;
        }
        let now = Instant::now();
        self.events.lock().expect("event log poisoned").push((now, event.clone()));
    }

    pub fn into_events(self) -> Vec<(Instant, ProgressEvent)> {
        self.events.into_inner().expect("event log poisoned")
    }
}

/// Per-term numbers derived from one session's event stream.
#[derive(Debug, Default)]
pub struct TermTimeline {
    /// Terms that finished (leaves and resplit interiors).
    pub terms: u64,
    pub resplits: u64,
    /// Summed over terms: wall time before `TermStarted` (cofactoring and
    /// term setup).
    pub setup: Duration,
    /// Longest wait between a term's enqueue and its pickup by a worker.
    pub max_queue_wait: Duration,
    /// `TermStarted` to `TermFinished`, per term, sorted.
    pub run_times: Vec<Duration>,
    /// Summed term wall times.
    pub busy: Duration,
    /// DIPs spent by terms that were later split.
    pub wasted_dips: u64,
}

impl TermTimeline {
    /// Derives the timeline. `session_start` is when `run` was called,
    /// the enqueue time of every root term of width `root_width`; a
    /// resplit child is enqueued when its parent's `TermSplit` fires.
    pub fn derive(
        session_start: Instant,
        root_width: u8,
        events: &[(Instant, ProgressEvent)],
    ) -> TermTimeline {
        let mut started: HashMap<(u64, u8), Instant> = HashMap::new();
        let mut split_at: HashMap<(u64, u8), Instant> = HashMap::new();
        for (at, event) in events {
            match *event {
                ProgressEvent::TermStarted { pattern, width, .. } => {
                    started.insert((pattern, width), *at);
                }
                ProgressEvent::TermSplit { pattern, width, .. } => {
                    split_at.insert((pattern, width), *at);
                }
                _ => {}
            }
        }
        let mut timeline = TermTimeline::default();
        for (finished, event) in events {
            match *event {
                ProgressEvent::TermFinished { pattern, width, wall_time, .. } => {
                    timeline.terms += 1;
                    timeline.busy += wall_time;
                    let run = started
                        .get(&(pattern, width))
                        .map_or(wall_time, |&s| finished.saturating_duration_since(s));
                    timeline.run_times.push(run);
                    timeline.setup += wall_time.saturating_sub(run);
                    let enqueued = if width <= root_width {
                        Some(session_start)
                    } else {
                        let parent = (pattern & !(1u64 << (width - 1)), width - 1);
                        split_at.get(&parent).copied()
                    };
                    if let (Some(enqueued), Some(pickup)) =
                        (enqueued, finished.checked_sub(wall_time))
                    {
                        let wait = pickup.saturating_duration_since(enqueued);
                        timeline.max_queue_wait = timeline.max_queue_wait.max(wait);
                    }
                }
                ProgressEvent::TermSplit { dips, .. } => {
                    timeline.resplits += 1;
                    timeline.wasted_dips += dips;
                }
                _ => {}
            }
        }
        timeline.run_times.sort_unstable();
        timeline
    }

    pub fn run_p50(&self) -> Duration {
        self.run_times.get(self.run_times.len() / 2).copied().unwrap_or_default()
    }

    pub fn run_max(&self) -> Duration {
        self.run_times.last().copied().unwrap_or_default()
    }

    pub fn run_total(&self) -> Duration {
        self.run_times.iter().sum()
    }
}

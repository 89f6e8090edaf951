//! The discrete-event engine.
//!
//! A [`Sim`] owns a priority queue of events ordered by `(time, sequence)`.
//! Events are boxed closures executed on the thread that calls [`Sim::run`];
//! ties in time are broken by scheduling order, which makes every run
//! deterministic. Simulated *processes* (coroutines with blocking
//! semantics, run on the same thread) are layered on top in
//! [`crate::process`]; exactly one entity — the event loop or a single
//! resumed process — executes at any instant, so component state guarded
//! by [`parking_lot::Mutex`] is never contended.
//!
//! Ownership discipline (important, see `DESIGN.md` §6): components must
//! **not** store `Sim` handles. Every component method takes a
//! `&dyn SimAccess` argument; events receive `&Sim`. This keeps the `Sim` the
//! unique strong owner of the engine, so dropping it deterministically
//! terminates all parked processes.

use std::collections::BinaryHeap;
use std::marker::PhantomData;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::SimResult;
use crate::process::{ProcId, ProcTable, ProcessCtx, StepOutcome};
use crate::sync::Completion;
use crate::time::{SimDuration, SimTime};

/// A scheduled event: a one-shot closure run on the event-loop thread.
pub type EventFn = Box<dyn FnOnce(&Sim) + Send>;

struct Event {
    time: SimTime,
    seq: u64,
    f: EventFn,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    // Reversed so that `BinaryHeap` (a max-heap) pops the earliest event.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

pub(crate) struct SimCore {
    now: SimTime,
    next_seq: u64,
    queue: BinaryHeap<Event>,
    executed: u64,
}

/// Engine state shared between the event loop, processes and wakers.
///
/// This type has no public API of its own; use it through [`SimAccess`].
pub struct SimShared {
    pub(crate) core: Mutex<SimCore>,
    pub(crate) procs: Mutex<ProcTable>,
    pub(crate) tracer: emp_trace::Tracer,
    pub(crate) telemetry: Arc<emp_trace::telemetry::Registry>,
}

impl SimShared {
    pub(crate) fn now(&self) -> SimTime {
        self.core.lock().now
    }

    pub(crate) fn schedule_boxed(&self, at: SimTime, f: EventFn) {
        let mut core = self.core.lock();
        // Never schedule into the past; clamp to "now" (runs after events
        // already queued for the current instant, preserving causality).
        let time = at.max(core.now);
        let seq = core.next_seq;
        core.next_seq += 1;
        core.queue.push(Event { time, seq, f });
    }

    /// Schedule the wake-up of a parked process. Crate-private: the 1:1
    /// park/wake discipline is maintained by the blocking primitives in
    /// [`crate::process`] and [`crate::sync`].
    pub(crate) fn schedule_wake(&self, pid: ProcId, at: SimTime) {
        self.schedule_boxed(at, Box::new(move |sim| sim.step_process(pid)));
    }
}

/// Access to the engine from either the event loop (`&Sim`) or a simulated
/// process (`&ProcessCtx`).
///
/// Component methods should take `&dyn SimAccess` so they can be called from
/// both contexts. The extension trait [`SimAccessExt`] adds the generic
/// convenience methods.
pub trait SimAccess {
    /// The shared engine state. Panics if the simulation no longer exists
    /// (only possible from a process that outlives teardown, which the
    /// termination protocol prevents for well-behaved processes).
    #[doc(hidden)]
    fn shared(&self) -> Arc<SimShared>;

    /// The current simulated time.
    fn now(&self) -> SimTime {
        self.shared().now()
    }

    /// Schedule a boxed event at an absolute time (clamped to now).
    fn schedule_boxed(&self, at: SimTime, f: EventFn) {
        self.shared().schedule_boxed(at, f);
    }

    /// This simulation's event tracer (a cheap shared handle). All layers
    /// record into the same per-simulation ring; recording is a no-op
    /// unless the `trace` feature is enabled, and emission sites should be
    /// gated on [`emp_trace::ENABLED`] so they compile out entirely.
    fn tracer(&self) -> emp_trace::Tracer {
        self.shared().tracer.clone()
    }

    /// This simulation's always-on telemetry registry. Unlike the tracer
    /// this is live in every build; layers register counters, gauges,
    /// histograms, and sampled series under stable dotted names. The
    /// engine drives its sampler after every executed event.
    fn telemetry(&self) -> Arc<emp_trace::telemetry::Registry> {
        Arc::clone(&self.shared().telemetry)
    }
}

/// Generic conveniences on top of [`SimAccess`].
pub trait SimAccessExt: SimAccess {
    /// Schedule `f` to run `after` from now.
    fn schedule_after<F>(&self, after: SimDuration, f: F)
    where
        F: FnOnce(&Sim) + Send + 'static,
    {
        self.schedule_boxed(self.now() + after, Box::new(f));
    }

    /// Schedule `f` at the absolute instant `at` (clamped to now).
    fn schedule_at<F>(&self, at: SimTime, f: F)
    where
        F: FnOnce(&Sim) + Send + 'static,
    {
        self.schedule_boxed(at, Box::new(f));
    }
}

impl<T: SimAccess + ?Sized> SimAccessExt for T {}

/// A discrete-event simulation.
///
/// `Sim` is deliberately **not** `Clone`: it is the unique strong owner of
/// the engine. Dropping it terminates all processes.
///
/// Nor is it `Send`: its processes run on the thread that calls
/// [`Sim::run`], so a simulation stays on the thread that built it.
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<simnet::Sim>();
/// ```
///
/// # Example
///
/// ```
/// use simnet::{Sim, SimAccess, SimDuration};
///
/// let sim = Sim::new();
/// sim.spawn("hello", |ctx| {
///     ctx.delay(SimDuration::from_micros(5))?;
///     assert_eq!(ctx.now().nanos(), 5_000);
///     Ok(())
/// });
/// sim.run();
/// assert_eq!(sim.now().nanos(), 5_000);
/// ```
pub struct Sim {
    shared: Arc<SimShared>,
    _pinned: PhantomData<*const ()>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an empty simulation at t = 0.
    pub fn new() -> Sim {
        Sim {
            shared: Arc::new(SimShared {
                core: Mutex::new(SimCore {
                    now: SimTime::ZERO,
                    next_seq: 0,
                    queue: BinaryHeap::new(),
                    executed: 0,
                }),
                procs: Mutex::default(),
                tracer: emp_trace::Tracer::new(),
                telemetry: emp_trace::telemetry::Registry::new(),
            }),
            _pinned: PhantomData,
        }
    }

    /// Spawn a simulated process that starts at the current simulated time.
    ///
    /// The closure runs on a stack of its own, on the thread that runs the
    /// simulation, in strict alternation with the event loop: it executes
    /// only between [`ProcessCtx`] blocking calls, so it may freely
    /// manipulate shared component state.
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(&mut ProcessCtx) -> SimResult<()> + Send + 'static,
    {
        let pid = ProcTable::spawn(&self.shared, name.into(), f);
        self.shared.schedule_wake(pid, self.shared.now());
        pid
    }

    /// Run until the event queue is empty. Returns the final simulated time.
    pub fn run(&self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    /// Run events with `time <= deadline`. The clock advances only to
    /// executed events, so a drained queue leaves it at the last event that
    /// ran. Returns the current simulated time.
    pub fn run_until(&self, deadline: SimTime) -> SimTime {
        while let Some(ev) = self.pop_due(deadline) {
            self.execute(ev);
        }
        self.shared.now()
    }

    /// Run until `done` completes or the event queue drains, with a hard
    /// `deadline` as a backstop against runaway protocol timers. Returns
    /// `true` if the completion fired.
    pub fn run_until_complete(&self, done: &Completion, deadline: SimTime) -> bool {
        while !done.is_done() {
            let Some(ev) = self.pop_due(deadline) else {
                return false;
            };
            self.execute(ev);
        }
        true
    }

    /// Pop the next event due at or before `deadline`, advancing the clock
    /// to it.
    fn pop_due(&self, deadline: SimTime) -> Option<Event> {
        let mut core = self.shared.core.lock();
        if core.queue.peek()?.time > deadline {
            return None;
        }
        let ev = core.queue.pop()?;
        core.now = ev.time;
        core.executed += 1;
        Some(ev)
    }

    /// Run one popped event, then give the telemetry sampler its tick.
    fn execute(&self, ev: Event) {
        let t = ev.time;
        (ev.f)(self);
        self.shared.telemetry.maybe_sample(t.nanos());
    }

    /// Total number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.shared.core.lock().executed
    }

    /// Number of events currently queued.
    pub fn events_pending(&self) -> usize {
        self.shared.core.lock().queue.len()
    }

    /// Resume a parked process and return once it parks again or finishes.
    /// Only called from wake events scheduled via `schedule_wake`.
    pub(crate) fn step_process(&self, pid: ProcId) {
        let step = self.shared.procs.lock().begin_step(pid);
        let Some(step) = step else { return };
        let outcome = step.run();
        if !matches!(outcome, StepOutcome::Parked) {
            self.shared.procs.lock().mark_finished(pid);
        }
        if let StepOutcome::Failed(msg) = outcome {
            panic!("simulated process failed: {msg}");
        }
    }
}

impl SimAccess for Sim {
    fn shared(&self) -> Arc<SimShared> {
        Arc::clone(&self.shared)
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        ProcTable::terminate_all(&self.shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn events_run_in_time_order() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for &t in &[30u64, 10, 20] {
            let log = Arc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(t), move |sim| {
                log.lock().push(sim.now().nanos());
            });
        }
        sim.run();
        assert_eq!(*log.lock(), vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_scheduling_order() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..5 {
            let log = Arc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(100), move |_| log.lock().push(i));
        }
        sim.run();
        assert_eq!(*log.lock(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn events_can_schedule_events() {
        let sim = Sim::new();
        let count = Arc::new(AtomicU64::new(0));
        fn chain(sim: &Sim, count: Arc<AtomicU64>, left: u64) {
            if left == 0 {
                return;
            }
            count.fetch_add(1, Ordering::Relaxed);
            sim.schedule_after(SimDuration::from_nanos(7), move |sim| {
                chain(sim, count, left - 1)
            });
        }
        let c2 = Arc::clone(&count);
        sim.schedule_at(SimTime::ZERO, move |sim| chain(sim, c2, 10));
        sim.run();
        assert_eq!(count.load(Ordering::Relaxed), 10);
        assert_eq!(sim.now().nanos(), 10 * 7);
        assert_eq!(sim.events_executed(), 11);
    }

    #[test]
    fn run_until_respects_deadline() {
        let sim = Sim::new();
        let hits = Arc::new(AtomicU64::new(0));
        for t in [10u64, 20, 30, 40] {
            let hits = Arc::clone(&hits);
            sim.schedule_at(SimTime::from_nanos(t), move |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        sim.run_until(SimTime::from_nanos(25));
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        assert_eq!(sim.events_pending(), 2);
        sim.run();
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn scheduling_into_the_past_clamps_to_now() {
        let sim = Sim::new();
        let seen = Arc::new(Mutex::new(None));
        let seen2 = Arc::clone(&seen);
        sim.schedule_at(SimTime::from_nanos(100), move |sim| {
            let seen3 = Arc::clone(&seen2);
            // Try to schedule at t=5, which is in the past.
            sim.schedule_at(SimTime::from_nanos(5), move |sim| {
                *seen3.lock() = Some(sim.now().nanos());
            });
        });
        sim.run();
        assert_eq!(*seen.lock(), Some(100));
    }

    #[test]
    fn identical_runs_are_deterministic() {
        fn run_once() -> Vec<u64> {
            let sim = Sim::new();
            let log = Arc::new(Mutex::new(Vec::new()));
            for i in 0..50u64 {
                let log = Arc::clone(&log);
                sim.schedule_at(SimTime::from_nanos(i % 7), move |_| {
                    log.lock().push(i);
                });
            }
            sim.run();
            let v = log.lock().clone();
            v
        }
        assert_eq!(run_once(), run_once());
    }
}

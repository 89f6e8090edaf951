//! Simulated processes with blocking semantics, run as stackful coroutines.
//!
//! Each simulated process has a stack of its own but runs on the thread that
//! calls [`Sim::run`](crate::Sim::run), in **strict alternation** with the
//! event loop: a wake event switches onto the process's stack, and the
//! process runs until it parks or finishes, which switches back. This gives
//! application code (ftp clients, web servers, ...) natural blocking
//! `read()`/`write()` style without an async runtime, while keeping the
//! whole simulation deterministic.
//!
//! The 1:1 park/wake discipline: a parked process has *exactly one* pending
//! wake-up — scheduled either by [`ProcessCtx::delay`] or by the sync
//! primitive it blocked on. Blocking primitives outside this crate must be
//! built from [`crate::sync`] types (or `delay`), never by scheduling raw
//! wakes, which is why `SimShared::schedule_wake` is crate-private.
//!
//! Sharing one thread means a process must not park holding a lock (the
//! next `lock()` would deadlock; debug builds assert it), and all processes
//! see the same thread-locals except the scoped context
//! ([`ProcessCtx::scoped`]), which is saved and restored on every switch.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("simnet's process backend switches stacks in x86_64 assembly and maps them with Linux mmap; other targets are not supported");

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::{self, NonNull};
use std::sync::{Arc, Weak};

use crate::engine::{SimAccess, SimShared};
use crate::error::{SimError, SimResult};
use crate::time::SimDuration;

/// Identifier of a simulated process (index into the process table).
pub type ProcId = usize;

type Body = Box<dyn FnOnce(&mut ProcessCtx) -> SimResult<()> + Send>;

/// Handle given to a process closure; provides time, scheduling and the
/// blocking primitives.
pub struct ProcessCtx {
    /// The coroutine this context belongs to. The context lives on that
    /// coroutine's own stack, which the coroutine outlives.
    co: NonNull<Coroutine>,
}

impl SimAccess for ProcessCtx {
    fn shared(&self) -> Arc<SimShared> {
        self.co()
            .shared
            .upgrade()
            .expect("simulation dropped while process was running")
    }
}

impl ProcessCtx {
    fn co(&self) -> &Coroutine {
        // SAFETY: see the field docs; the coroutine is only ever accessed
        // through shared references and `Cell`s.
        unsafe { self.co.as_ref() }
    }

    /// This process's id.
    pub fn pid(&self) -> ProcId {
        self.co().pid
    }

    /// The name given at spawn time.
    pub fn name(&self) -> &str {
        &self.co().name
    }

    /// Consume `d` of simulated time (models CPU work or an explicit sleep).
    pub fn delay(&self, d: SimDuration) -> SimResult<()> {
        let shared = self.shared();
        let at = shared.now() + d;
        shared.schedule_wake(self.pid(), at);
        self.park()
    }

    /// Yield the CPU: re-run this process after all events already queued
    /// for the current instant.
    pub fn yield_now(&self) -> SimResult<()> {
        self.delay(SimDuration::ZERO)
    }

    /// Spawn a sibling process starting at the current simulated time.
    pub fn spawn<F>(&self, name: impl Into<String>, f: F) -> ProcId
    where
        F: FnOnce(&mut ProcessCtx) -> SimResult<()> + Send + 'static,
    {
        let shared = self.shared();
        let pid = ProcTable::spawn(&shared, name.into(), f);
        shared.schedule_wake(pid, shared.now());
        pid
    }

    /// Run `f` with this context installed as the process's scoped
    /// context, which [`with_scoped`] reaches from code that has no
    /// `&ProcessCtx` in hand (e.g. inside `Future::poll`). The previous
    /// scoped context is restored afterwards, also on unwind. If `f`
    /// parks, the slot is saved with the process and restored when it
    /// resumes, so other processes never see it.
    pub fn scoped<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(*const ProcessCtx);
        impl Drop for Restore {
            fn drop(&mut self) {
                SCOPED.set(self.0);
            }
        }
        let _restore = Restore(SCOPED.replace(self));
        f()
    }

    /// Park this process. A wake-up must already be arranged (crate-internal;
    /// see module docs for the discipline).
    pub(crate) fn park(&self) -> SimResult<()> {
        let co = self.co();
        if !co.terminating.get() {
            debug_assert_eq!(
                parking_lot::held_guards(),
                0,
                "process '{}' parked while holding a lock",
                co.name
            );
            co.suspend();
        }
        if co.terminating.get() {
            Err(SimError::Terminated)
        } else {
            Ok(())
        }
    }
}

thread_local! {
    /// The running process's scoped context (see [`ProcessCtx::scoped`]).
    static SCOPED: Cell<*const ProcessCtx> = const { Cell::new(ptr::null()) };
}

/// Call `f` with the running process's scoped context (see
/// [`ProcessCtx::scoped`]); `None` when no scope is active.
pub fn with_scoped<R>(f: impl FnOnce(&ProcessCtx) -> R) -> Option<R> {
    let p = SCOPED.get();
    // SAFETY: a non-null `p` was installed by `ProcessCtx::scoped` from a
    // `&ProcessCtx` borrowed for the whole call we are running inside, and
    // is swapped out whenever that process is switched away from.
    (!p.is_null()).then(|| f(unsafe { &*p }))
}

/// What happened when a process was stepped.
pub(crate) enum StepOutcome {
    Parked,
    Finished,
    Failed(String),
}

/// A single engine→process switch, detached from the process-table lock.
pub(crate) struct Step(NonNull<Coroutine>);

impl Step {
    pub(crate) fn run(self) -> StepOutcome {
        debug_assert_eq!(
            parking_lot::held_guards(),
            0,
            "the engine resumed a process while holding a lock"
        );
        // SAFETY: the table keeps the coroutine boxed until the engine marks
        // it finished, which happens only after this step returns.
        let co = unsafe { self.0.as_ref() };
        co.resume();
        co.exit.take().unwrap_or(StepOutcome::Parked)
    }
}

/// Registry of all processes in a simulation; `None` marks a finished one.
#[derive(Default)]
pub(crate) struct ProcTable {
    slots: Vec<Option<Box<Coroutine>>>,
}

// SAFETY: the coroutines are `!Send` because they hold raw stack pointers
// and `Cell`s. Only the simulation's own thread touches the table: the
// field is crate-private and reached only through `Sim` and `ProcessCtx`,
// both `!Send`. `Sim::drop` empties it, so an engine kept alive elsewhere
// (e.g. by a waker) holds no coroutines.
unsafe impl Send for ProcTable {}

impl ProcTable {
    /// Map the process's stack and register the slot. The new process does
    /// not run until its first wake event fires.
    pub(crate) fn spawn<F>(shared: &Arc<SimShared>, name: String, f: F) -> ProcId
    where
        F: FnOnce(&mut ProcessCtx) -> SimResult<()> + Send + 'static,
    {
        let mut table = shared.procs.lock();
        let pid = table.slots.len();
        let co = Coroutine::new(pid, name, Arc::downgrade(shared), Box::new(f));
        table.slots.push(Some(co));
        pid
    }

    /// Prepare to step `pid`; returns `None` if it already finished.
    pub(crate) fn begin_step(&self, pid: ProcId) -> Option<Step> {
        self.slots[pid].as_deref().map(|co| Step(NonNull::from(co)))
    }

    /// Drop a finished process, unmapping its stack.
    pub(crate) fn mark_finished(&mut self, pid: ProcId) {
        self.slots[pid] = None;
    }

    /// Terminate every live process. Called from `Sim::drop`: each started
    /// process is resumed once with its park returning
    /// [`SimError::Terminated`], so it unwinds its own stack and runs its
    /// destructors; a process that never started just drops its closure.
    /// Processes spawned while others unwind are reclaimed the same way.
    pub(crate) fn terminate_all(shared: &SimShared) {
        loop {
            // Not under the lock: unwinding processes may spawn.
            let slots = std::mem::take(&mut shared.procs.lock().slots);
            if slots.is_empty() {
                return;
            }
            for co in slots.into_iter().flatten() {
                // An unstarted process still holds its body: just drop it.
                if co.body.take().is_none() {
                    co.terminating.set(true);
                    co.resume();
                }
            }
        }
    }
}

/// One process: its stack, its body until started, and the saved stack
/// pointers of both sides of the switch. Boxed, as the stack's first frame
/// holds its address; only ever shared-borrowed, by both sides alike.
struct Coroutine {
    pid: ProcId,
    name: String,
    shared: Weak<SimShared>,
    stack: Stack,
    /// The process's stack pointer while it is switched out.
    sp: Cell<*mut u8>,
    /// The resumer's stack pointer while the process runs.
    caller_sp: Cell<*mut u8>,
    /// The closure, until the process first runs.
    body: Cell<Option<Body>>,
    terminating: Cell<bool>,
    /// Set by the process right before its last switch out.
    exit: Cell<Option<StepOutcome>>,
    /// The process's scoped context while it is switched out.
    scoped: Cell<*const ProcessCtx>,
}

impl Coroutine {
    fn new(pid: ProcId, name: String, shared: Weak<SimShared>, body: Body) -> Box<Coroutine> {
        let co = Box::new(Coroutine {
            pid,
            name,
            shared,
            stack: Stack::new(),
            sp: Cell::new(ptr::null_mut()),
            caller_sp: Cell::new(ptr::null_mut()),
            body: Cell::new(Some(body)),
            terminating: Cell::new(false),
            exit: Cell::new(None),
            scoped: Cell::new(ptr::null()),
        });
        // SAFETY: the stack is freshly mapped and unused, and its top is one
        // past the mapping's end; `co` is boxed, so its address stays valid.
        let sp = unsafe { initial_frame(co.stack.base.add(STACK_SIZE), &*co) };
        co.sp.set(sp);
        co
    }

    /// Switch from the caller onto this process until it parks or exits.
    fn resume(&self) {
        let outer = SCOPED.replace(self.scoped.get());
        // SAFETY: `sp` holds a frame saved by `switch` (or built by
        // `initial_frame`) on this coroutine's live stack.
        unsafe { switch(self.caller_sp.as_ptr(), self.sp.get()) };
        self.scoped.set(SCOPED.replace(outer));
    }

    /// Switch from this (running) process back to whoever resumed it.
    fn suspend(&self) {
        if !self.stack.canary_intact() {
            eprintln!("process '{}' overflowed its stack", self.name);
            std::process::abort();
        }
        // SAFETY: `caller_sp` was saved by the `switch` in `resume` that
        // started this run, and that frame is still waiting for us.
        unsafe { switch(self.sp.as_ptr(), self.caller_sp.get()) };
    }
}

/// First Rust frame on a process stack, called by [`trampoline`].
extern "C" fn coroutine_main(co: *const Coroutine) -> ! {
    // SAFETY: `initial_frame` was given the boxed coroutine's address.
    let co = unsafe { &*co };
    co.exit.set(Some(run_body(co)));
    co.suspend();
    // A finished process is never resumed again.
    std::process::abort()
}

fn run_body(co: &Coroutine) -> StepOutcome {
    let body = co.body.take().expect("a process body runs once");
    let mut ctx = ProcessCtx {
        co: NonNull::from(co),
    };
    match catch_unwind(AssertUnwindSafe(|| body(&mut ctx))) {
        Ok(Ok(()) | Err(SimError::Terminated)) => StepOutcome::Finished,
        Ok(Err(e)) => StepOutcome::Failed(format!("process '{}': {e}", co.name)),
        // `&*payload`: deref the Box explicitly, otherwise the Box itself
        // coerces to `dyn Any` and downcasts fail.
        Err(payload) => StepOutcome::Failed(format!(
            "process '{}' panicked: {}",
            co.name,
            panic_message(&*payload)
        )),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Save the running side's callee-saved registers and floating-point
/// control words on its stack, store its stack pointer in `*save`, then
/// restore the side whose stack pointer is `load` and return into it.
///
/// # Safety
///
/// `save` must be writable, and `load` must be a stack pointer saved by
/// `switch` (or built by `initial_frame`) on a stack that is still mapped
/// and not running.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, load: *mut u8) {
    std::arch::naked_asm!(
        "push rbp; push rbx; push r12; push r13; push r14; push r15",
        "sub rsp, 8; stmxcsr [rsp]; fnstcw [rsp + 4]",
        "mov [rdi], rsp; mov rsp, rsi",
        "ldmxcsr [rsp]; fldcw [rsp + 4]; add rsp, 8",
        "pop r15; pop r14; pop r13; pop r12; pop rbx; pop rbp; ret",
    )
}

/// Where a new process's first `switch` returns to: calls
/// [`coroutine_main`] with the coroutine pointer `initial_frame` left in
/// rbx. `.cfi_undefined rip` makes this the outermost frame, so unwinders
/// and backtraces stop here instead of walking off the stack.
///
/// # Safety
///
/// Only `switch` may enter it, through a frame from `initial_frame`.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    std::arch::naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, rbx",
        "call {main}",
        "ud2",
        ".cfi_endproc",
        main = sym coroutine_main,
    )
}

/// Build the frame `switch` restores on a process's first resume, below
/// the 16-byte aligned `top`, and return its stack pointer.
///
/// # Safety
///
/// `top` must be the top of an unused, mapped stack, and `co` must stay
/// valid for as long as that stack runs.
unsafe fn initial_frame(top: *mut u8, co: *const Coroutine) -> *mut u8 {
    /// MXCSR and x87 control word at their power-on defaults (all
    /// exceptions masked, round to nearest), packed as `switch` saves them.
    const FP_CONTROL: u64 = 0x1F80 | (0x037F << 32);
    let frame: [u64; 8] = [
        FP_CONTROL,
        0,                              // r15
        0,                              // r14
        0,                              // r13
        0,                              // r12
        co as u64,                      // rbx: trampoline's argument
        0,                              // rbp: ends frame-pointer chains
        trampoline as *const () as u64, // return address; leaves rsp = top
    ];
    // SAFETY: the caller guarantees the words below `top` are ours.
    unsafe {
        let sp = top.cast::<u64>().sub(frame.len());
        sp.copy_from_nonoverlapping(frame.as_ptr(), frame.len());
        sp.cast()
    }
}

/// Virtual size of a process stack, guard page included. Pages are
/// committed only when touched, so this costs address space, not memory.
const STACK_SIZE: usize = 2 << 20;
const PAGE: usize = 4096;
/// Written just above the guard page and checked on every park.
const CANARY: u64 = 0x5afe_57ac_c0de_cafe;

const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 0x1 | 0x2;
/// `MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE`.
const MAP_FLAGS: i32 = 0x02 | 0x20 | 0x4000;
const MAP_FAILED: *mut u8 = !0usize as *mut u8;

extern "C" {
    fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
    fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut u8, len: usize) -> i32;
}

thread_local! {
    /// Stacks mapped and not yet unmapped on this thread (tests check it).
    static LIVE_STACKS: Cell<usize> = const { Cell::new(0) };
}

/// An mmap'd process stack with a `PROT_NONE` guard page at its base.
struct Stack {
    base: *mut u8,
}

impl Stack {
    fn new() -> Stack {
        // SAFETY: a fresh anonymous mapping; nothing else refers to it.
        unsafe {
            let base = mmap(
                ptr::null_mut(),
                STACK_SIZE,
                PROT_READ_WRITE,
                MAP_FLAGS,
                -1,
                0,
            );
            if base == MAP_FAILED || mprotect(base, PAGE, PROT_NONE) != 0 {
                let err = std::io::Error::last_os_error();
                panic!("mapping a process stack failed: {err}");
            }
            base.add(PAGE).cast::<u64>().write(CANARY);
            LIVE_STACKS.set(LIVE_STACKS.get() + 1);
            Stack { base }
        }
    }

    fn canary_intact(&self) -> bool {
        // SAFETY: the word above the guard page is mapped and ours.
        unsafe { self.base.add(PAGE).cast::<u64>().read() == CANARY }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: unmaps exactly the region `new` mapped; no frame on it is
        // live (its process finished, unwound, or never started).
        unsafe { munmap(self.base, STACK_SIZE) };
        LIVE_STACKS.set(LIVE_STACKS.get() - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Sim, SimAccessExt};
    use crate::time::SimTime;
    use parking_lot::Mutex;

    #[test]
    fn delay_advances_process_time() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        sim.spawn("delayer", move |ctx| {
            for _ in 0..3 {
                ctx.delay(SimDuration::from_micros(10))?;
                log2.lock().push(ctx.now().nanos());
            }
            Ok(())
        });
        sim.run();
        assert_eq!(*log.lock(), vec![10_000, 20_000, 30_000]);
    }

    #[test]
    fn processes_interleave_deterministically() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (name, step) in [("a", 3u64), ("b", 5u64)] {
            let log = Arc::clone(&log);
            sim.spawn(name, move |ctx| {
                for _ in 0..4 {
                    ctx.delay(SimDuration::from_nanos(step))?;
                    log.lock().push((ctx.name().to_string(), ctx.now().nanos()));
                }
                Ok(())
            });
        }
        sim.run();
        let got: Vec<(String, u64)> = log.lock().clone();
        let expect: Vec<(String, u64)> = vec![
            ("a".into(), 3),
            ("b".into(), 5),
            ("a".into(), 6),
            ("a".into(), 9),
            ("b".into(), 10),
            ("a".into(), 12),
            ("b".into(), 15),
            ("b".into(), 20),
        ];
        assert_eq!(got, expect);
    }

    #[test]
    fn spawn_from_process_starts_at_current_time() {
        let sim = Sim::new();
        let seen = Arc::new(Mutex::new(None));
        let seen2 = Arc::clone(&seen);
        sim.spawn("parent", move |ctx| {
            ctx.delay(SimDuration::from_micros(7))?;
            let seen3 = Arc::clone(&seen2);
            ctx.spawn("child", move |ctx| {
                *seen3.lock() = Some(ctx.now().nanos());
                Ok(())
            });
            Ok(())
        });
        sim.run();
        assert_eq!(*seen.lock(), Some(7_000));
    }

    #[test]
    fn yield_now_runs_after_queued_events() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let log_p = Arc::clone(&log);
        let log_e = Arc::clone(&log);
        sim.spawn("yielder", move |ctx| {
            log_p.lock().push("proc-before");
            ctx.yield_now()?;
            log_p.lock().push("proc-after");
            Ok(())
        });
        sim.schedule_at(SimTime::ZERO, move |_| log_e.lock().push("event"));
        sim.run();
        assert_eq!(*log.lock(), vec!["proc-before", "event", "proc-after"]);
    }

    #[test]
    fn dropping_sim_terminates_parked_processes() {
        let sim = Sim::new();
        let cleanly_terminated = Arc::new(Mutex::new(false));
        let flag = Arc::clone(&cleanly_terminated);
        sim.spawn("sleeper", move |ctx| {
            // Park forever: the sim is dropped before this wake fires.
            let res = ctx.delay(SimDuration::from_secs(10_000));
            if res == Err(SimError::Terminated) {
                *flag.lock() = true;
            }
            res
        });
        sim.run_until(SimTime::from_nanos(1));
        drop(sim); // must not hang, must unwind the process
        assert!(*cleanly_terminated.lock());
    }

    #[test]
    fn never_started_process_is_reclaimed() {
        let sim = Sim::new();
        sim.spawn("never-runs", |_ctx| Ok(()));
        drop(sim); // process never stepped; drop must still reclaim it
    }

    #[test]
    #[should_panic(expected = "process 'bomber' panicked: boom")]
    fn process_panic_propagates_to_run() {
        let sim = Sim::new();
        sim.spawn("bomber", |_ctx| panic!("boom"));
        sim.run();
    }

    #[test]
    #[should_panic(expected = "process 'failer': application error: gave up")]
    fn process_app_error_propagates_to_run() {
        let sim = Sim::new();
        sim.spawn("failer", |_ctx| Err(SimError::app("gave up")));
        sim.run();
    }

    #[test]
    fn ten_thousand_processes_delay_and_finish() {
        let sim = Sim::new();
        let done = Arc::new(Mutex::new(0u64));
        for i in 0..10_000 {
            let done = Arc::clone(&done);
            sim.spawn(format!("p{i}"), move |ctx| {
                ctx.delay(SimDuration::from_nanos(i % 97))?;
                *done.lock() += 1;
                Ok(())
            });
        }
        sim.run();
        assert_eq!((*done.lock(), sim.now().nanos()), (10_000, 96));
        assert_eq!(
            LIVE_STACKS.get(),
            0,
            "finished processes unmap their stacks"
        );
    }

    #[test]
    fn dropping_sim_with_parked_processes_releases_every_stack() {
        let sim = Sim::new();
        let token = Arc::new(());
        for i in 0..1000 {
            let token = Arc::clone(&token);
            sim.spawn(format!("sleeper-{i}"), move |ctx| {
                let _token = token;
                ctx.delay(SimDuration::from_secs(1))
            });
        }
        sim.run_until(SimTime::from_nanos(1));
        assert_eq!((LIVE_STACKS.get(), Arc::strong_count(&token)), (1000, 1001));
        drop(sim);
        assert_eq!((LIVE_STACKS.get(), Arc::strong_count(&token)), (0, 1));
    }

    fn dive(depth: u32) -> SimResult<()> {
        if depth == 0 {
            panic!("bottom of the stack");
        }
        dive(std::hint::black_box(depth - 1))?;
        // Not a tail call, so every frame stays on the stack.
        std::hint::black_box(Ok(()))
    }

    #[test]
    #[should_panic(expected = "process 'deep' panicked: bottom of the stack")]
    fn panic_deep_in_a_process_is_reported() {
        let sim = Sim::new();
        sim.spawn("deep", |_ctx| dive(5_000));
        sim.run();
    }

    #[test]
    fn backtrace_inside_a_process_stops_at_its_entry() {
        let sim = Sim::new();
        let text = Arc::new(Mutex::new(String::new()));
        let t2 = Arc::clone(&text);
        sim.spawn("tracer", move |ctx| {
            ctx.yield_now()?;
            *t2.lock() = std::backtrace::Backtrace::force_capture().to_string();
            Ok(())
        });
        sim.run();
        let text = text.lock().clone();
        assert!(text.contains("coroutine_main"), "{text}");
    }

    #[test]
    fn processes_spawn_processes_that_spawn_processes() {
        fn tree(ctx: &ProcessCtx, depth: u32, log: Arc<Mutex<Vec<String>>>) -> SimResult<()> {
            log.lock()
                .push(format!("{}@{}", ctx.name(), ctx.now().nanos()));
            for child in 0..2 * (depth > 0) as u32 {
                let log = Arc::clone(&log);
                ctx.spawn(format!("{}.{child}", ctx.name()), move |ctx| {
                    ctx.delay(SimDuration::from_nanos(10))?;
                    tree(ctx, depth - 1, log)
                });
            }
            Ok(())
        }
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l2 = Arc::clone(&log);
        sim.spawn("r", move |ctx| tree(ctx, 2, l2));
        sim.run();
        let want = "r@0 r.0@10 r.1@10 r.0.0@20 r.0.1@20 r.1.0@20 r.1.1@20";
        assert_eq!(log.lock().join(" "), want);
        assert_eq!(LIVE_STACKS.get(), 0);
    }

    #[test]
    fn yield_now_order_is_round_robin_behind_queued_events() {
        let sim = Sim::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for name in ["a", "b"] {
            let log = Arc::clone(&log);
            sim.spawn(name, move |ctx| {
                for round in 0..3 {
                    log.lock().push(format!("{name}{round}"));
                    ctx.yield_now()?;
                }
                Ok(())
            });
        }
        let l2 = Arc::clone(&log);
        sim.schedule_at(SimTime::ZERO, move |sim| {
            l2.lock().push("e".into());
            let l3 = Arc::clone(&l2);
            sim.schedule_at(SimTime::ZERO, move |_| l3.lock().push("f".into()));
        });
        sim.run();
        assert_eq!(log.lock().join(" "), "a0 b0 e a1 b1 f a2 b2");
    }
}

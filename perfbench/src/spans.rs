//! Spans recorded by the benchmark's own code around every call it makes
//! into the system: facade calls, ops, `Sim::run` phases and probes.
//!
//! A span carries its name, host start/end (ns since the log was made),
//! simulated start/end (ns), its parent span and the op it belongs to.
//! Spans stay in memory and are written out when the run ends. Recording
//! is off unless [`SpanLog::set_on`] turned it on, and an inactive span
//! costs one relaxed atomic load.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use simnet::SimAccess;

/// Parent id of a root span.
pub const ROOT: u32 = 0;
/// Op id of a span outside any op.
pub const NO_OP: u64 = u64::MAX;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub op: u64,
    pub host: (u64, u64),
    pub sim: (u64, u64),
}

impl Span {
    pub fn host_ns(&self) -> u64 {
        self.host.1 - self.host.0
    }

    pub fn sim_ns(&self) -> u64 {
        self.sim.1 - self.sim.0
    }
}

/// A span that has begun; `id == ROOT` marks one begun while recording
/// was off, which [`SpanLog::end`] drops.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    pub id: u32,
    name: &'static str,
    parent: u32,
    op: u64,
    host0: u64,
    sim0: u64,
}

/// Span ids are unique across every log of the process.
static NEXT_ID: AtomicU32 = AtomicU32::new(ROOT + 1);

pub struct SpanLog {
    t0: Instant,
    on: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            t0: Instant::now(),
            on: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn host_now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&self, name: &'static str, parent: u32, op: u64, s: &dyn SimAccess) -> Open {
        if !self.is_on() {
            return Open {
                id: ROOT,
                name,
                parent,
                op,
                host0: 0,
                sim0: 0,
            };
        }
        Open {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            name,
            parent,
            op,
            host0: self.host_now(),
            sim0: s.now().nanos(),
        }
    }

    pub fn end(&self, o: Open, s: &dyn SimAccess) {
        if o.id == ROOT {
            return;
        }
        let span = Span {
            name: o.name,
            id: o.id,
            parent: o.parent,
            op: o.op,
            host: (o.host0, self.host_now()),
            sim: (o.sim0, s.now().nanos()),
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u32,
        op: u64,
        s: &dyn SimAccess,
        f: impl FnOnce() -> R,
    ) -> R {
        let o = self.begin(name, parent, op, s);
        let r = f();
        self.end(o, s);
        r
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }
}

/// Each span's self time: its host duration minus the part of it that its
/// children's host intervals cover (overlapping children count once).
pub fn self_host_ns(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != ROOT) {
        children.entry(s.parent).or_default().push(s.host);
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0u64, s.host.0);
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.host.1));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, s.host_ns() - covered)
        })
        .collect()
}

/// Write the spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let op = if s.op == NO_OP {
            "null".to_string()
        } else {
            s.op.to_string()
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"op\":{},\"host_start_ns\":{},\"host_end_ns\":{},\"sim_start_ns\":{},\"sim_end_ns\":{}}}",
            s.name, s.id, s.parent, op, s.host.0, s.host.1, s.sim.0, s.sim.1
        )?;
    }
    out.flush()
}

//! The four closed-loop workloads. Each caller waits for its reply before
//! it sends again. The seed generates every payload byte and, on the web
//! workloads, each connection's start offset; the system under test sees
//! only those bytes, and every byte that comes back is checked.
//!
//! Every workload runs in three phases that `main.rs`
//! separates with [`Shared`]'s completions:
//!
//! 1. set-up: listen, connect, warm up; each participant then calls
//!    [`Shared::warmed`] and parks on `go`;
//! 2. the deterministic window: the first `k` ops, whose simulated results
//!    depend on the seed alone; `kdone` fires when op `k` completes;
//! 3. the host window: callers keep issuing ops until both `k` ops are
//!    done and `--seconds` of wall time have passed.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use emp_apps::api::{Conn, NetError};
use emp_apps::{serve_async, AsyncConnector, AsyncStream};
use emp_async::{with_ctx, LocalExecutor};
use simnet::{Completion, ProcessCtx, Sim, SimAccess, SimDuration, SimResult};

use crate::bed::{Bed, Stack};
use crate::spans::{SpanLog, NO_OP};
use crate::stats::FineHist;

/// Ops per chunk of the host window. Host throughput is the median over
/// chunks, and chunks a few milliseconds long leave most of them clear of
/// a passing stall on a shared host. The traced run alternates traced and
/// untraced chunks, so both modes see the same drift in host speed.
pub const CHUNK: u64 = 32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Pingpong4b,
    Stream64k,
    Web32,
    Web32Tcp,
}

pub const ALL: [Workload; 4] = [
    Workload::Pingpong4b,
    Workload::Stream64k,
    Workload::Web32,
    Workload::Web32Tcp,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pingpong4b => "pingpong-4b",
            Workload::Stream64k => "stream-64k",
            Workload::Web32 => "web-32",
            Workload::Web32Tcp => "web-32-tcp",
        }
    }

    pub fn stack(self) -> Stack {
        match self {
            Workload::Web32Tcp => Stack::Tcp,
            _ => Stack::Emp,
        }
    }

    fn nodes(self) -> usize {
        match self {
            Workload::Web32 | Workload::Web32Tcp => 3,
            _ => 2,
        }
    }

    /// Ops in the deterministic window: at least 1,000, so the p99 has ten
    /// samples beyond it.
    pub fn k(self) -> u64 {
        match self {
            Workload::Pingpong4b | Workload::Stream64k => 2000,
            Workload::Web32 | Workload::Web32Tcp => 3200,
        }
    }

    /// Processes that must finish set-up before the window opens: the
    /// pinger; the stream writer and reader; one client process per node.
    fn participants(self) -> usize {
        match self {
            Workload::Pingpong4b => 1,
            Workload::Stream64k | Workload::Web32 | Workload::Web32Tcp => 2,
        }
    }

    pub fn uses_executor(self) -> bool {
        matches!(self, Workload::Web32 | Workload::Web32Tcp)
    }

    /// State shared by one set-up's processes and `main.rs`; a traced
    /// one records spans from the start.
    pub fn shared(self, traced: bool) -> Arc<Shared> {
        let sh = Shared::new(self.k(), self.participants(), traced);
        sh.spans.set_on(traced);
        sh
    }

    /// Build the testbed and spawn the workload's processes.
    pub fn spawn(self, sim: &Sim, sh: &Arc<Shared>, seed: u64) -> Bed {
        let bed = Bed::new(self.stack(), self.nodes());
        match self {
            Workload::Pingpong4b => pingpong(sim, &bed, sh, seed),
            Workload::Stream64k => stream(sim, &bed, sh, seed),
            Workload::Web32 | Workload::Web32Tcp => web(sim, &bed, sh, seed),
        }
        bed
    }
}

#[derive(Default)]
pub struct Record {
    /// Ops finished since the window opened.
    pub ops: u64,
    /// Simulated duration of each op of the deterministic window, in
    /// completion order.
    pub window_sim_ns: Vec<u64>,
    /// Host duration of every op, split by whether spans were being
    /// recorded when it began (index 1) or not (index 0).
    pub host_ns: [FineHist; 2],
    /// Host duration of each whole chunk of `CHUNK` ops, split by chunk
    /// parity: even chunks (index 0) are the traced ones in a traced run.
    pub chunk_ns: [FineHist; 2],
    chunk_start: Option<Instant>,
    /// Payload bytes verified in the deterministic window, and the
    /// simulated instant the window's last byte was verified.
    pub window_bytes: u64,
    pub window_end_sim: Option<u64>,
    /// First failure, for the report.
    pub first_failure: Option<String>,
}

/// State shared between `main.rs` and the simulated processes.
pub struct Shared {
    pub k: u64,
    /// Fires when every participant has finished set-up.
    pub ready: Completion,
    /// Fired by `main.rs` to start the measured window.
    pub go: Completion,
    /// Fires when op `k` completes.
    pub kdone: Completion,
    ready_left: AtomicUsize,
    deadline: Mutex<Option<Instant>>,
    pub rec: Mutex<Record>,
    pub failed: AtomicU64,
    pub spans: SpanLog,
    /// Alternate traced and untraced chunks during the window.
    pub traced: bool,
    /// The `Sim::run` span that ops and server calls hang under.
    pub run_span: AtomicU32,
}

/// A begun op.
pub struct OpStart {
    wall: Instant,
    sim: u64,
    traced: bool,
}

impl Shared {
    fn new(k: u64, participants: usize, traced: bool) -> Arc<Shared> {
        Arc::new(Shared {
            k,
            ready: Completion::new(),
            go: Completion::new(),
            kdone: Completion::new(),
            ready_left: AtomicUsize::new(participants),
            deadline: Mutex::new(None),
            rec: Mutex::new(Record::default()),
            failed: AtomicU64::new(0),
            spans: SpanLog::new(),
            traced,
            run_span: AtomicU32::new(0),
        })
    }

    fn rec(&self) -> std::sync::MutexGuard<'_, Record> {
        self.rec.lock().expect("record lock poisoned")
    }

    pub fn start_window(&self, now: Instant, deadline: Instant) {
        self.rec().chunk_start = Some(now);
        *self.deadline.lock().expect("deadline lock poisoned") = Some(deadline);
    }

    fn warmed(&self, s: &dyn SimAccess) {
        if self.ready_left.fetch_sub(1, Ordering::Relaxed) == 1 {
            self.ready.complete(s);
        }
    }

    fn keep_going(&self) -> bool {
        if self.rec().ops < self.k {
            return true;
        }
        let deadline = *self.deadline.lock().expect("deadline lock poisoned");
        deadline.is_some_and(|d| Instant::now() < d)
    }

    fn fail(&self, what: String) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        self.rec().first_failure.get_or_insert(what);
    }

    fn run_span(&self) -> u32 {
        self.run_span.load(Ordering::Relaxed)
    }

    fn start_op(&self, s: &dyn SimAccess) -> OpStart {
        OpStart {
            wall: Instant::now(),
            sim: s.now().nanos(),
            traced: self.spans.is_on(),
        }
    }

    /// Record a finished op that verified `bytes` payload bytes. The
    /// process completing op `k` yields once, so `main.rs` reads the
    /// layer counters exactly at the window's end.
    fn finish_op(&self, ctx: &ProcessCtx, st: OpStart, bytes: u64) -> SimResult<()> {
        let (wall, sim) = (Instant::now(), ctx.now().nanos());
        let hit_k = {
            let mut r = self.rec();
            r.ops += 1;
            r.host_ns[usize::from(st.traced)].record((wall - st.wall).as_nanos() as u64);
            let n = r.ops;
            if n <= self.k {
                r.window_sim_ns.push(sim - st.sim);
                if bytes > 0 {
                    r.window_bytes += bytes;
                    r.window_end_sim = Some(sim);
                }
            }
            if n.is_multiple_of(CHUNK) {
                let start = r.chunk_start.replace(wall).expect("window opened");
                r.chunk_ns[((n / CHUNK - 1) % 2) as usize].record((wall - start).as_nanos() as u64);
                if self.traced {
                    self.spans.set_on(!self.spans.is_on());
                }
            }
            n == self.k
        };
        if hit_k {
            self.kdone.complete(ctx);
            ctx.yield_now()?;
        }
        Ok(())
    }

    /// Drive one blocking closed-loop caller: `warmup` unmeasured ops, the
    /// set-up handshake, then measured ops until the window ends. `body`
    /// runs op `i` under the op span `parent` (with op id `op`) and
    /// returns the payload bytes it verified, or what went wrong.
    fn closed_loop(
        &self,
        ctx: &ProcessCtx,
        warmup: u64,
        mut body: impl FnMut(u64, u32, u64) -> SimResult<Result<u64, String>>,
    ) -> SimResult<()> {
        for i in 0.. {
            let warm = i < warmup;
            if i == warmup {
                self.warmed(ctx);
                self.go.wait(ctx)?;
            }
            if !warm && !self.keep_going() {
                break;
            }
            let op_id = if warm { NO_OP } else { i };
            let st = self.start_op(ctx);
            let op = self.spans.begin("op", self.run_span(), op_id, ctx);
            let res = body(i, op.id, op_id)?;
            self.spans.end(op, ctx);
            match res {
                Ok(bytes) if !warm => self.finish_op(ctx, st, bytes)?,
                Ok(_) => {}
                Err(e) => {
                    self.fail(format!("op {i}: {e}"));
                    break;
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Seeded inputs
// ---------------------------------------------------------------------

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fill(state: &mut u64, out: &mut [u8]) {
    for chunk in out.chunks_mut(8) {
        let v = splitmix(state).to_le_bytes();
        chunk.copy_from_slice(&v[..chunk.len()]);
    }
}

/// Write all of `data`, however the stack splits it.
fn write_all(conn: &Conn, ctx: &ProcessCtx, data: &[u8]) -> SimResult<Result<(), NetError>> {
    let mut off = 0;
    while off < data.len() {
        match conn.write(ctx, &data[off..])? {
            Ok(n) => off += n,
            Err(e) => return Ok(Err(e)),
        }
    }
    Ok(Ok(()))
}

// ---------------------------------------------------------------------
// pingpong-4b
// ---------------------------------------------------------------------

const PINGPONG_PORT: u16 = 77;
const PING: usize = 4;
const PINGPONG_WARMUP: u64 = 4;

fn pingpong(sim: &Sim, bed: &Bed, sh: &Arc<Shared>, seed: u64) {
    let (server_api, client_api) = (Arc::clone(&bed.apis[1]), Arc::clone(&bed.apis[0]));
    let server_host = server_api.local_host();
    let srv = Arc::clone(sh);
    sim.spawn("pingpong-echoer", move |ctx| {
        let l = server_api
            .listen(ctx, PINGPONG_PORT, 4)?
            .expect("port free");
        let conn = l.accept(ctx)?.expect("accept");
        loop {
            let got = srv.spans.span("srv.read", srv.run_span(), NO_OP, ctx, || {
                conn.read(ctx, PING)
            })?;
            let m = match got {
                Ok(m) if !m.is_empty() => m,
                _ => break,
            };
            let res = srv
                .spans
                .span("srv.write", srv.run_span(), NO_OP, ctx, || {
                    write_all(&conn, ctx, &m)
                })?;
            if res.is_err() {
                break;
            }
        }
        conn.close(ctx)?;
        l.close(ctx)
    });
    let sh = Arc::clone(sh);
    sim.spawn("pingpong-pinger", move |ctx| {
        let conn = sh.spans.span("connect", sh.run_span(), NO_OP, ctx, || {
            client_api.connect(ctx, server_host, PINGPONG_PORT)
        })?;
        let conn = match conn {
            Ok(c) => c,
            Err(e) => {
                sh.fail(format!("connect: {e}"));
                return Ok(());
            }
        };
        let (mut rng, mut payload) = (seed, [0u8; PING]);
        sh.closed_loop(ctx, PINGPONG_WARMUP, |_, parent, op| {
            fill(&mut rng, &mut payload);
            let wrote = sh
                .spans
                .span("write", parent, op, ctx, || write_all(&conn, ctx, &payload))?;
            let echo = sh
                .spans
                .span("read", parent, op, ctx, || conn.read_exact(ctx, PING))?;
            Ok(match (&wrote, &echo) {
                (Ok(()), Ok(Some(b))) if b[..] == payload[..] => Ok(PING as u64),
                _ => Err(format!("write {wrote:?}, echo {echo:?}")),
            })
        })?;
        sh.spans
            .span("close", sh.run_span(), NO_OP, ctx, || conn.close(ctx))
    });
}

// ---------------------------------------------------------------------
// stream-64k
// ---------------------------------------------------------------------

const STREAM_PORT: u16 = 78;
const STREAM_WRITE: usize = 64 * 1024;
const STREAM_WARMUP: u64 = 8;
/// Distinct seeded blocks; write `i` sends block `i % STREAM_BLOCKS`, a
/// prime count so no other period lines up with it.
const STREAM_BLOCKS: usize = 7;

fn stream(sim: &Sim, bed: &Bed, sh: &Arc<Shared>, seed: u64) {
    let mut rng = seed;
    let blocks: Arc<Vec<Vec<u8>>> = Arc::new(
        (0..STREAM_BLOCKS)
            .map(|_| {
                let mut b = vec![0u8; STREAM_WRITE];
                fill(&mut rng, &mut b);
                b
            })
            .collect(),
    );
    let (reader_api, writer_api) = (Arc::clone(&bed.apis[1]), Arc::clone(&bed.apis[0]));
    let reader_host = reader_api.local_host();
    let (srv, expect) = (Arc::clone(sh), Arc::clone(&blocks));
    let k = sh.k;
    sim.spawn("stream-reader", move |ctx| {
        let l = reader_api.listen(ctx, STREAM_PORT, 4)?.expect("port free");
        let conn = l.accept(ctx)?.expect("accept");
        let warm_bytes = STREAM_WARMUP * STREAM_WRITE as u64;
        let window_end = warm_bytes + k * STREAM_WRITE as u64;
        let mut off: u64 = 0;
        loop {
            let got = srv.spans.span("srv.read", srv.run_span(), NO_OP, ctx, || {
                conn.read(ctx, STREAM_WRITE)
            })?;
            let data = match got {
                Ok(d) if !d.is_empty() => d,
                Ok(_) => break,
                Err(e) => {
                    srv.fail(format!("stream read at byte {off}: {e}"));
                    break;
                }
            };
            // Compare block by block: a read may span two writes.
            let mut at = 0;
            while at < data.len() {
                let pos = (off % STREAM_WRITE as u64) as usize;
                let block = &expect[(off / STREAM_WRITE as u64) as usize % STREAM_BLOCKS];
                let n = (STREAM_WRITE - pos).min(data.len() - at);
                if data[at..at + n] != block[pos..pos + n] {
                    srv.fail(format!("stream bytes differ near byte {off}"));
                    return conn.close(ctx);
                }
                at += n;
                off += n as u64;
            }
            if off == warm_bytes {
                srv.warmed(ctx);
            }
            if off >= window_end {
                let mut r = srv.rec();
                if r.window_end_sim.is_none() {
                    r.window_end_sim = Some(ctx.now().nanos());
                    r.window_bytes = k * STREAM_WRITE as u64;
                }
            }
        }
        conn.close(ctx)?;
        l.close(ctx)
    });
    let sh = Arc::clone(sh);
    sim.spawn("stream-writer", move |ctx| {
        let conn = sh.spans.span("connect", sh.run_span(), NO_OP, ctx, || {
            writer_api.connect(ctx, reader_host, STREAM_PORT)
        })?;
        let conn = match conn {
            Ok(c) => c,
            Err(e) => {
                sh.fail(format!("connect: {e}"));
                return Ok(());
            }
        };
        // The reader verifies the bytes and accounts the window's goodput.
        sh.closed_loop(ctx, STREAM_WARMUP, |i, parent, op| {
            let wrote = sh.spans.span("write", parent, op, ctx, || {
                write_all(&conn, ctx, &blocks[i as usize % STREAM_BLOCKS])
            })?;
            Ok(wrote.map(|()| 0).map_err(|e| format!("stream write: {e}")))
        })?;
        conn.flush(ctx)?.ok();
        sh.spans
            .span("close", sh.run_span(), NO_OP, ctx, || conn.close(ctx))
    });
}

// ---------------------------------------------------------------------
// web-32 and web-32-tcp
// ---------------------------------------------------------------------

const WEB_PORT: u16 = 80;
pub const WEB_CONNS: u32 = 32;
const GREETING: &[u8] = b"220 ready\r\n";
const REQUEST: usize = 16;
pub const RESPONSE: usize = 512;
const WEB_WARMUP: u32 = 2;
/// Connection start offsets are drawn uniformly from `[0, WEB_OFFSET_NS)`.
const WEB_OFFSET_NS: u64 = 500_000;

/// The response body for one request: a function of every request byte.
fn response(req: &[u8]) -> Vec<u8> {
    let mut state = req.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    let mut body = vec![0u8; RESPONSE];
    fill(&mut state, &mut body);
    body
}

fn web(sim: &Sim, bed: &Bed, sh: &Arc<Shared>, seed: u64) {
    let server_api = Arc::clone(&bed.apis[0]);
    let server_host = server_api.local_host();
    sim.spawn("web-server", move |ctx| {
        let l = server_api
            .listen(ctx, WEB_PORT, WEB_CONNS as usize + 8)?
            .expect("port free");
        serve_async(ctx, l, WEB_CONNS, GREETING, |inbuf, out| {
            while inbuf.len() >= REQUEST {
                out.extend_from_slice(&response(&inbuf[..REQUEST]));
                inbuf.drain(..REQUEST);
            }
        })
    });
    let client_nodes = bed.apis.len() - 1;
    let per_node = WEB_CONNS as usize / client_nodes;
    for node in 1..=client_nodes {
        let api = Arc::clone(&bed.apis[node]);
        let sh = Arc::clone(sh);
        sim.spawn(format!("web-clients-n{node}"), move |ctx| {
            let exec = LocalExecutor::new();
            let warm_left = Rc::new(Cell::new(per_node));
            let tasks: Vec<_> = (0..per_node)
                .map(|j| {
                    let conn_id = ((node - 1) * per_node + j) as u32;
                    let task = web_conn(
                        Arc::clone(&sh),
                        AsyncConnector::new(Arc::clone(&api)),
                        server_host,
                        conn_id,
                        seed,
                        Rc::clone(&warm_left),
                    );
                    exec.spawn(task)
                })
                .collect();
            exec.run(ctx)?;
            for t in tasks {
                t.try_take().expect("client task ran to completion")?;
            }
            Ok(())
        });
    }
}

async fn web_conn(
    sh: Arc<Shared>,
    connector: AsyncConnector,
    server: simnet::MacAddr,
    conn_id: u32,
    seed: u64,
    warm_left: Rc<Cell<usize>>,
) -> SimResult<()> {
    let mut rng = seed ^ (u64::from(conn_id) + 1).wrapping_mul(0xa076_1d64_78bd_642f);
    let offset = SimDuration::from_nanos(splitmix(&mut rng) % WEB_OFFSET_NS);
    let sp = with_ctx(|c| sh.spans.begin("connect", sh.run_span(), NO_OP, c));
    let stream = connector.connect(server, WEB_PORT).await?;
    with_ctx(|c| sh.spans.end(sp, c));
    let stream: AsyncStream = match stream {
        Ok(s) => s,
        Err(e) => {
            sh.fail(format!("conn {conn_id} connect: {e}"));
            return Ok(());
        }
    };
    match stream.read_exact(GREETING.len()).await? {
        Ok(Some(g)) if g[..] == GREETING[..] => {}
        other => {
            sh.fail(format!("conn {conn_id} greeting: {other:?}"));
            return stream.close().await;
        }
    }
    let mut req = [0u8; REQUEST];
    let mut seq: u32 = 0;
    loop {
        let warm = seq < WEB_WARMUP;
        if seq == WEB_WARMUP {
            warm_left.set(warm_left.get() - 1);
            if warm_left.get() == 0 {
                with_ctx(|c| sh.warmed(c));
            }
            emp_async::wait_for(&sh.go).await;
            emp_async::sleep(offset).await;
        }
        if !warm && !sh.keep_going() {
            break;
        }
        req[..4].copy_from_slice(&conn_id.to_le_bytes());
        req[4..8].copy_from_slice(&seq.to_le_bytes());
        fill(&mut rng, &mut req[8..]);
        let op_id = if warm {
            NO_OP
        } else {
            (u64::from(conn_id) << 32) | u64::from(seq)
        };
        let st = with_ctx(|c| sh.start_op(c));
        let op = with_ctx(|c| sh.spans.begin("op", sh.run_span(), op_id, c));
        let sp = with_ctx(|c| sh.spans.begin("write", op.id, op_id, c));
        let wrote = stream.write_all(&req).await?;
        with_ctx(|c| sh.spans.end(sp, c));
        let sp = with_ctx(|c| sh.spans.begin("read", op.id, op_id, c));
        let body = stream.read_exact(RESPONSE).await?;
        with_ctx(|c| sh.spans.end(sp, c));
        let ok = wrote.is_ok() && matches!(&body, Ok(Some(b)) if b[..] == response(&req)[..]);
        with_ctx(|c| sh.spans.end(op, c));
        if !ok {
            sh.fail(format!(
                "conn {conn_id} request {seq}: write {wrote:?}, response ok: {}",
                matches!(body, Ok(Some(_)))
            ));
            break;
        }
        if !warm {
            with_ctx(|c| sh.finish_op(c, st, RESPONSE as u64))?;
        }
        seq += 1;
    }
    let sp = with_ctx(|c| sh.spans.begin("close", sh.run_span(), NO_OP, c));
    stream.close().await?;
    with_ctx(|c| sh.spans.end(sp, c));
    Ok(())
}

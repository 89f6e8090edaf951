//! The server drivers: one application protocol, four ways to run it.
//!
//! An application states its protocol once, sans I/O: a `greeting` sent
//! on accept, a `service(inbuf, out)` closure that consumes complete
//! requests from `inbuf` and appends the responses to `out` (leaving a
//! partial request in place), and a `next_read(inbuf)` framing function
//! giving how many bytes finish the request in progress.
//! [`ServerModel::serve`] runs that triple under any of the four I/O
//! models — so every model answers the same protocol byte for byte and
//! they differ only in how they drive it:
//!
//! * [`serve_per_connection`] — a worker process per connection, blocking
//!   calls, reads sized by `next_read`;
//! * [`serve_event_loop`] — this module's single-process readiness loop:
//!   one [`NetApi::poll`] over the listener and every live connection,
//!   nonblocking calls in between (the readiness-first shape of the
//!   paper's substrate: one descriptor table, one poll wait);
//! * [`serve_completion`] — one completion ring;
//! * [`serve_async`] — straight-line `async` handlers on one executor.

use std::sync::Arc;

use parking_lot::Mutex;
use simnet::{ProcessCtx, SimAccess, SimDuration, SimResult, SimTime};

use crate::api::{Conn, Interest, NetApi, NetError, NetListener, PollSource, PollTarget};
use crate::asyncio::{serve_async, READ_CHUNK};
use crate::completion::serve_completion;

/// How a server is structured.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServerModel {
    /// A worker process per accepted connection, blocking calls
    /// ([`serve_per_connection`]).
    PerConnection,
    /// One process, one [`NetApi::poll`] wait, nonblocking calls
    /// ([`serve_event_loop`]).
    EventLoop,
    /// One process, one completion ring ([`NetApi::ring`]): ops
    /// submitted over registered buffers, completions reaped in batches
    /// ([`serve_completion`]).
    Completion,
    /// One process, one async executor ([`emp_async::LocalExecutor`]):
    /// a straight-line `async` handler task per connection, wakes from
    /// the readiness layer ([`serve_async`]).
    Async,
}

impl ServerModel {
    /// Short name for reports.
    pub fn label(self) -> &'static str {
        match self {
            ServerModel::PerConnection => "per-conn",
            ServerModel::EventLoop => "event-loop",
            ServerModel::Completion => "completion",
            ServerModel::Async => "async",
        }
    }

    /// Serve `n_conns` connections from `l` with this model's driver,
    /// speaking the protocol given by `greeting`, `next_read` and
    /// `service` (see the module docs). Returns when every connection
    /// has been torn down; the listener is closed by then. Only the
    /// per-connection driver reads by `next_read`; the single-process
    /// ones read whatever has arrived, in 4 KiB chunks.
    #[allow(clippy::too_many_arguments)]
    pub fn serve(
        self,
        ctx: &ProcessCtx,
        api: &dyn NetApi,
        l: Box<dyn NetListener>,
        n_conns: u32,
        greeting: &[u8],
        next_read: fn(&[u8]) -> usize,
        service: impl FnMut(&mut Vec<u8>, &mut Vec<u8>) + Send + 'static,
    ) -> SimResult<()> {
        match self {
            ServerModel::PerConnection => {
                serve_per_connection(ctx, l, n_conns, greeting, next_read, service)
            }
            ServerModel::EventLoop => {
                let policy = OverloadPolicy::default();
                serve_event_loop(ctx, api, l.as_ref(), n_conns, greeting, &policy, service)?;
                l.close(ctx)
            }
            ServerModel::Completion => {
                serve_completion(ctx, api, l, n_conns, greeting, service).map(|_| ())
            }
            ServerModel::Async => serve_async(ctx, l, n_conns, greeting, service),
        }
    }
}

/// Accept `n_conns` connections from `l` (closing it after the last
/// accept) and serve each from its own worker process with blocking
/// calls: write `greeting` (none when empty), then read at most
/// `next_read(inbuf)` bytes, run `service(inbuf, out)`, and write what it
/// produced — until EOF or an error, then close. Reading no further than
/// the request in progress keeps the system calls those of a
/// hand-written `read_exact(header)` / `read_exact(body)` server.
pub fn serve_per_connection(
    ctx: &ProcessCtx,
    l: Box<dyn NetListener>,
    n_conns: u32,
    greeting: &[u8],
    next_read: fn(&[u8]) -> usize,
    service: impl FnMut(&mut Vec<u8>, &mut Vec<u8>) + Send + 'static,
) -> SimResult<()> {
    // Every worker runs the one service. The lock is never held across
    // a park: `service` makes no calls.
    let service = Arc::new(Mutex::new(service));
    for _ in 0..n_conns {
        let conn = l.accept(ctx)?.expect("per-connection accept");
        let service = Arc::clone(&service);
        let greeting = greeting.to_vec();
        ctx.spawn("conn-worker", move |ctx| {
            if greeting.is_empty() || conn.write(ctx, &greeting)?.is_ok() {
                let mut inbuf = Vec::new();
                let mut out = Vec::new();
                // Ends on EOF (an empty read) or an error.
                while let Ok(chunk) = conn.read(ctx, next_read(&inbuf))? {
                    if chunk.is_empty() {
                        break;
                    }
                    inbuf.extend_from_slice(&chunk);
                    service.lock()(&mut inbuf, &mut out);
                    if !out.is_empty() {
                        if conn.write(ctx, &out)?.is_err() {
                            break;
                        }
                        out.clear();
                    }
                }
            }
            let _ = conn.close(ctx);
            Ok(())
        });
    }
    l.close(ctx)
}

/// Per-connection state of the event loop.
struct ConnState {
    conn: Conn,
    /// Bytes received but not yet consumed by the service.
    inbuf: Vec<u8>,
    /// Bytes produced by the service but not yet accepted by the stack.
    out: Vec<u8>,
    /// How much of `out` the stack has taken.
    sent: usize,
    /// When this connection last made progress (bytes in or out) — the
    /// idle reaper's clock.
    last_activity: SimTime,
}

/// Overload policy for [`serve_event_loop`]: how the server degrades
/// gracefully instead of queueing without bound. All knobs default off
/// ([`OverloadPolicy::default`] = the unprotected loop).
#[derive(Clone, Debug, Default)]
pub struct OverloadPolicy {
    /// Shed new connections while this many are already being served:
    /// the connection is accepted, answered with [`Self::shed_response`]
    /// (so the client sees a *deterministic* degrade, not silence), and
    /// closed. Counted in the `app.shed` telemetry counter.
    pub max_conns: Option<usize>,
    /// Shed a connection whose pending response bytes exceed this cap —
    /// the slow-consumer guard. Counted in `app.shed`.
    pub max_queued_bytes: Option<usize>,
    /// Bytes written to a shed connection before closing it (empty =
    /// close silently). An HTTP server would put `503` here.
    pub shed_response: Vec<u8>,
    /// Reap connections that made no progress for this long (the
    /// slowloris guard). Counted in `app.reaped`.
    pub idle_timeout: Option<SimDuration>,
}

/// What [`serve_event_loop`] did under pressure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Connections served to EOF normally.
    pub served: u32,
    /// Connections shed at accept (max_conns) or mid-stream (queue cap).
    pub shed: u32,
    /// Connections reaped for idleness.
    pub reaped: u32,
}

/// Accept `n_conns` connections from `l` and serve them all from the
/// calling process: one [`NetApi::poll`] wait over the listener and every
/// live connection, nonblocking calls everywhere else. Each accepted
/// connection is greeted with `greeting` (empty for none); thereafter
/// `service(inbuf, out)` runs whenever bytes arrive — it consumes any
/// complete requests from `inbuf` and appends the responses to `out`,
/// leaving partial requests in place. Returns when every connection has
/// reached EOF (or errored) and been torn down.
///
/// While a response is pending the loop polls the connection for
/// [`Interest::WRITABLE`] only (the stack's flow control — credits on the
/// substrate, the send buffer on TCP — decides when more is accepted);
/// otherwise it polls for [`Interest::READABLE`].
///
/// `policy` bounds the damage under overload ([`OverloadPolicy::default`]
/// turns every guard off): the loop sheds connections past `max_conns`
/// (degrade response, then close), sheds slow consumers whose pending
/// output exceeds `max_queued_bytes`, and reaps connections idle past
/// `idle_timeout`. Shed and reaped connections count toward `n_conns` —
/// under a connect storm the server answers everyone *deterministically*,
/// it just answers most of them with the degrade response.
pub fn serve_event_loop(
    ctx: &ProcessCtx,
    api: &dyn NetApi,
    l: &dyn NetListener,
    n_conns: u32,
    greeting: &[u8],
    policy: &OverloadPolicy,
    mut service: impl FnMut(&mut Vec<u8>, &mut Vec<u8>),
) -> SimResult<ServeReport> {
    const LISTENER: usize = usize::MAX;

    let mut conns: Vec<Option<ConnState>> = Vec::new();
    let mut accepted = 0u32;
    let mut open = 0u32;
    let mut report = ServeReport::default();
    let shed_ctr = ctx.telemetry().counter("app.shed");
    let reaped_ctr = ctx.telemetry().counter("app.reaped");
    // Time spent handling each batch of readiness events (poll return to
    // loop bottom) — the server's per-turn latency distribution.
    let turn_hist = ctx.telemetry().histogram("app.eventloop_turn_ns");
    while accepted < n_conns || open > 0 {
        let events = {
            let mut sources = Vec::new();
            if accepted < n_conns {
                sources.push(PollSource {
                    target: PollTarget::Listener(l),
                    token: LISTENER,
                    interest: Interest::ACCEPTABLE,
                });
            }
            for (i, slot) in conns.iter().enumerate() {
                if let Some(st) = slot {
                    let interest = if st.sent < st.out.len() {
                        Interest::WRITABLE
                    } else {
                        Interest::READABLE
                    };
                    sources.push(PollSource {
                        target: PollTarget::Conn(&st.conn),
                        token: i,
                        interest,
                    });
                }
            }
            // With a reaper armed the poll must wake even when no socket
            // does — an all-idle connection set would otherwise park the
            // loop forever.
            api.poll(ctx, &sources, policy.idle_timeout)?.expect("poll")
        };
        let turn_start = ctx.now();
        for ev in events {
            if ev.token == LISTENER {
                // Drain the whole accept queue while we are here.
                while accepted < n_conns {
                    match l.try_accept(ctx)? {
                        Ok(conn) => {
                            accepted += 1;
                            if policy.max_conns.is_some_and(|m| (open as usize) >= m) {
                                // Over budget: degrade response, close.
                                let _ = conn.try_write(ctx, &policy.shed_response)?;
                                let _ = conn.flush(ctx)?;
                                let _ = conn.close(ctx);
                                report.shed += 1;
                                shed_ctr.add(1);
                                continue;
                            }
                            open += 1;
                            conns.push(Some(ConnState {
                                conn,
                                inbuf: Vec::new(),
                                out: greeting.to_vec(),
                                sent: 0,
                                last_activity: ctx.now(),
                            }));
                        }
                        Err(NetError::WouldBlock) => break,
                        Err(e) => panic!("event-loop accept failed: {e}"),
                    }
                }
                continue;
            }
            let Some(st) = conns[ev.token].as_mut() else {
                continue;
            };
            let mut dead = false;
            let before = (st.sent, st.inbuf.len());
            // Flush pending output first; while a response is in flight
            // the loop does not read (the client is waiting on us).
            flush(ctx, st, &mut dead)?;
            while !dead && st.out.is_empty() {
                match st.conn.try_read(ctx, READ_CHUNK)? {
                    Ok(chunk) if chunk.is_empty() => dead = true, // EOF
                    Ok(chunk) => {
                        st.inbuf.extend_from_slice(&chunk);
                        service(&mut st.inbuf, &mut st.out);
                    }
                    Err(NetError::WouldBlock) => break,
                    Err(_) => dead = true,
                }
            }
            // Opportunistically push what the service just produced.
            flush(ctx, st, &mut dead)?;
            if (st.sent, st.inbuf.len()) != before || !st.out.is_empty() {
                st.last_activity = ctx.now();
            }
            let over_queue = policy
                .max_queued_bytes
                .is_some_and(|cap| st.out.len() - st.sent > cap);
            if dead || over_queue {
                let st = conns[ev.token].take().expect("live state");
                let _ = st.conn.close(ctx);
                open -= 1;
                if over_queue && !dead {
                    report.shed += 1;
                    shed_ctr.add(1);
                } else {
                    report.served += 1;
                }
            }
        }
        if let Some(patience) = policy.idle_timeout {
            for slot in conns.iter_mut() {
                let idle = slot
                    .as_ref()
                    .is_some_and(|st| ctx.now().since(st.last_activity) >= patience);
                if idle {
                    let st = slot.take().expect("live state");
                    let _ = st.conn.close(ctx);
                    open -= 1;
                    report.reaped += 1;
                    reaped_ctr.add(1);
                }
            }
        }
        turn_hist.record((ctx.now() - turn_start).nanos());
    }
    Ok(report)
}

/// Write as much pending output as the stack will take right now.
fn flush(ctx: &ProcessCtx, st: &mut ConnState, dead: &mut bool) -> SimResult<()> {
    while !*dead && st.sent < st.out.len() {
        match st.conn.try_write(ctx, &st.out[st.sent..])? {
            Ok(n) => st.sent += n,
            Err(NetError::WouldBlock) => break,
            Err(_) => *dead = true,
        }
    }
    if st.sent == st.out.len() {
        st.out.clear();
        st.sent = 0;
        // The response is fully handed to the stack: push out anything it
        // staged for aggregation before going back to the poll (the
        // client is waiting on these bytes).
        if !*dead && st.conn.flush(ctx)?.is_err() {
            *dead = true;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::Testbed;
    use simnet::Sim;

    /// A 4-byte echo protocol: every whole frame goes straight back.
    fn echo(inbuf: &mut Vec<u8>, out: &mut Vec<u8>) {
        let whole = inbuf.len() / 4 * 4;
        out.extend(inbuf.drain(..whole));
    }

    #[test]
    fn every_model_serves_the_protocol_and_closes_the_listener() {
        for tb in [Testbed::emp_default(2), Testbed::kernel_default(2)] {
            for model in [
                ServerModel::PerConnection,
                ServerModel::EventLoop,
                ServerModel::Completion,
                ServerModel::Async,
            ] {
                let sim = Sim::new();
                let api = Arc::clone(&tb.nodes[0].api);
                sim.spawn("server", move |ctx| {
                    let l = api.listen(ctx, 7, 4)?.expect("port free");
                    model.serve(ctx, api.as_ref(), l, 1, b"hi", |b| 4 - b.len(), echo)
                });
                let api = Arc::clone(&tb.nodes[1].api);
                let host = tb.nodes[0].api.local_host();
                let seen = Arc::new(Mutex::new(None));
                let out = Arc::clone(&seen);
                sim.spawn("client", move |ctx| {
                    let conn = api.connect(ctx, host, 7)?.expect("connect");
                    let hi = conn.read_exact(ctx, 2)?.expect("greeting");
                    conn.write(ctx, b"pingpong")?.expect("request");
                    let back = conn.read_exact(ctx, 8)?.expect("echo");
                    conn.close(ctx)?;
                    // Once the one connection is served, nobody listens.
                    ctx.delay(SimDuration::from_millis(1))?;
                    let again = api.connect_deadline(ctx, host, 7, SimDuration::from_millis(50))?;
                    *out.lock() = Some((hi, back, again.err()));
                    Ok(())
                });
                sim.run_until(SimTime::from_secs(10));
                let on = format!("{} on {}", model.label(), tb.nodes[0].api.label());
                let (hi, back, again) = seen.lock().take().expect(&on);
                assert_eq!(hi.as_deref(), Some(&b"hi"[..]), "{on}");
                assert_eq!(back.as_deref(), Some(&b"pingpong"[..]), "{on}");
                assert_eq!(again, Some(NetError::Refused), "{on}");
            }
        }
    }
}

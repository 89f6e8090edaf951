//! Layer probes of the traced run: the engine's floor, the cost of one
//! process park/resume, and raw EMP (no sockets layer) at 4 B, the
//! baseline the substrate's own cost is measured against (the paper's
//! Fig. 11 decomposition).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use emp_proto::{build_cluster, EmpConfig, Tag};
use hostsim::VirtRange;
use simnet::{Sim, SimAccess, SimAccessExt, SimDuration, SwitchConfig};

use crate::stats::median;

const PARK_RESUMES: u32 = 4000;
const BARE_EVENTS: u64 = 400_000;
const RAW_ITERS: u32 = 1000;
const RAW_WARMUP: u32 = 4;
const RAW_MSG: usize = 4;

/// Host ns per `yield_now` round trip (process parks, engine resumes it).
pub fn park_resume_ns() -> f64 {
    let sim = Sim::new();
    let out = Arc::new(Mutex::new(f64::NAN));
    let out2 = Arc::clone(&out);
    sim.spawn("probe-yielder", move |ctx| {
        let t0 = Instant::now();
        for _ in 0..PARK_RESUMES {
            ctx.yield_now()?;
        }
        *out2.lock().expect("probe lock") =
            t0.elapsed().as_nanos() as f64 / f64::from(PARK_RESUMES);
        Ok(())
    });
    sim.run();
    let ns = *out.lock().expect("probe lock");
    ns
}

fn tick(sim: &Sim, left: u64) {
    if left > 0 {
        sim.schedule_after(SimDuration::from_nanos(1), move |s| tick(s, left - 1));
    }
}

/// Host ns per engine event on a simulation with no processes.
pub fn bare_event_ns() -> f64 {
    let sim = Sim::new();
    tick(&sim, BARE_EVENTS);
    let t0 = Instant::now();
    sim.run();
    let ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(sim.events_executed(), BARE_EVENTS, "bare-event chain");
    ns / BARE_EVENTS as f64
}

/// Raw EMP 4 B ping-pong, as the Fig. 11 "EMP" series measures it:
/// `(modelled one-way µs, host µs per round trip p50)`.
pub fn raw_emp() -> (f64, f64) {
    let sim = Sim::new();
    let cl = build_cluster(2, EmpConfig::default(), SwitchConfig::default());
    let (a, b) = (cl.nodes[0].endpoint(), cl.nodes[1].endpoint());
    let (addr_a, addr_b) = (a.addr(), b.addr());
    let buf = |slot: u64| VirtRange::new(0x9_0000_0000 + slot * 0x100_0000, RAW_MSG as u64);
    let out: Arc<Mutex<(Vec<f64>, Vec<f64>)>> = Arc::new(Mutex::new((Vec::new(), Vec::new())));
    let out2 = Arc::clone(&out);
    let total = RAW_ITERS + RAW_WARMUP;
    sim.spawn("raw-echoer", move |ctx| {
        let mut sends = Vec::with_capacity(total as usize);
        for _ in 0..total {
            let h = b.post_recv(ctx, Tag(1), None, RAW_MSG, buf(1))?;
            let msg = b.wait_recv(ctx, &h)?.expect("ping");
            sends.push(b.post_send(ctx, addr_a, Tag(2), msg.data, buf(2))?);
        }
        for h in &sends {
            assert!(b.wait_send(ctx, h)?, "raw echo send");
        }
        Ok(())
    });
    sim.spawn("raw-pinger", move |ctx| {
        ctx.delay(SimDuration::from_micros(50))?;
        let payload = Bytes::from(vec![0x11u8; RAW_MSG]);
        let mut sends = Vec::with_capacity(total as usize);
        let (mut sim_ns, mut host_ns) = (Vec::new(), Vec::new());
        for i in 0..total {
            let (w0, s0) = (Instant::now(), ctx.now());
            let hr = a.post_recv(ctx, Tag(2), None, RAW_MSG, buf(3))?;
            sends.push(a.post_send(ctx, addr_b, Tag(1), payload.clone(), buf(4))?);
            let pong = a.wait_recv(ctx, &hr)?.expect("pong");
            assert_eq!(pong.data, payload, "raw echo bytes");
            if i >= RAW_WARMUP {
                sim_ns.push((ctx.now() - s0).nanos() as f64);
                host_ns.push(w0.elapsed().as_nanos() as f64);
            }
        }
        for h in &sends {
            assert!(a.wait_send(ctx, h)?, "raw ping send");
        }
        *out2.lock().expect("probe lock") = (sim_ns, host_ns);
        Ok(())
    });
    sim.run();
    let (mut sim_ns, mut host_ns) = std::mem::take(&mut *out.lock().expect("probe lock"));
    assert_eq!(
        sim_ns.len(),
        RAW_ITERS as usize,
        "raw EMP ping-pong did not complete"
    );
    (median(&mut sim_ns) / 2e3, median(&mut host_ns) / 1e3)
}

//! Acceptance test for the completion-queue I/O model: one
//! single-process completion-ring server — ops submitted on an SQ over
//! registered buffers, completions reaped in batches, no readiness
//! callbacks — serving 32 concurrent connections byte-exact on both
//! stacks, for both evaluation applications (webserver and kvstore).
//!
//! Byte-exactness is enforced inside the clients: every webserver
//! response byte is a function of (connection, request, position), and
//! every kvstore response is length- and status-checked against the
//! stored value. The echo test additionally pins down the zero-copy
//! claim: on the substrate, ring reads complete directly from NIC slots
//! into registered buffers, so `ConnStats::copies_avoided` is non-zero.

use std::sync::Arc;

use emp_apps::completion::{serve_completion, CompletionRun};
use emp_apps::kvstore;
use emp_apps::webserver::concurrent_throughput;
use emp_apps::ServerModel;
use emp_apps::Testbed;
use parking_lot::Mutex;
use simnet::Sim;

const CONNS: u32 = 32;
const REQS_PER_CONN: u32 = 4;
const RESPONSE: usize = 1024;

#[test]
fn completion_server_serves_32_connections_on_the_substrate() {
    let tb = Testbed::emp_default(5);
    let r = concurrent_throughput(&tb, ServerModel::Completion, CONNS, REQS_PER_CONN, RESPONSE);
    assert_eq!(r.requests, u64::from(CONNS * REQS_PER_CONN));
    assert!(r.reqs_per_sec > 0.0);
}

#[test]
fn completion_server_serves_32_connections_on_kernel_tcp() {
    let tb = Testbed::kernel_default(5);
    let r = concurrent_throughput(&tb, ServerModel::Completion, CONNS, REQS_PER_CONN, RESPONSE);
    assert_eq!(r.requests, u64::from(CONNS * REQS_PER_CONN));
    assert!(r.reqs_per_sec > 0.0);
}

#[test]
fn all_three_server_models_agree_on_the_workload() {
    // Same testbed, same workload, all three I/O models: identical
    // request counts (the figure generator compares their curves).
    let tb = Testbed::emp_default(5);
    let cq = concurrent_throughput(&tb, ServerModel::Completion, CONNS, REQS_PER_CONN, RESPONSE);
    let el = concurrent_throughput(&tb, ServerModel::EventLoop, CONNS, REQS_PER_CONN, RESPONSE);
    let pc = concurrent_throughput(
        &tb,
        ServerModel::PerConnection,
        CONNS,
        REQS_PER_CONN,
        RESPONSE,
    );
    assert_eq!(cq.requests, el.requests);
    assert_eq!(cq.requests, pc.requests);
    assert!(cq.elapsed_us > 0.0 && el.elapsed_us > 0.0 && pc.elapsed_us > 0.0);
}

const KV_CLIENTS: usize = 32;
const KV_OPS: u32 = 8;

#[test]
fn completion_kvstore_serves_32_clients_on_the_substrate() {
    let tb = Testbed::emp_default(KV_CLIENTS + 1);
    let r = kvstore::run_workload_with(
        &tb,
        ServerModel::Completion,
        KV_CLIENTS,
        KV_OPS,
        256,
        0.5,
        7,
    );
    assert_eq!(r.ops, (KV_CLIENTS as u64) * u64::from(KV_OPS));
    assert!(r.hits > 0, "warmed keys must produce hits");
    assert!(r.ops_per_sec > 0.0);
}

#[test]
fn completion_kvstore_serves_32_clients_on_kernel_tcp() {
    let tb = Testbed::kernel_default(KV_CLIENTS + 1);
    let r = kvstore::run_workload_with(
        &tb,
        ServerModel::Completion,
        KV_CLIENTS,
        KV_OPS,
        256,
        0.5,
        7,
    );
    assert_eq!(r.ops, (KV_CLIENTS as u64) * u64::from(KV_OPS));
    assert!(r.hits > 0, "warmed keys must produce hits");
    assert!(r.ops_per_sec > 0.0);
}

// ---- zero-copy evidence: ring reads ride the direct-delivery path ----

const ECHO_PORT: u16 = 7;
const ECHO_MSG: usize = 512;
const ECHO_REQS: u32 = 4;

/// Serve `CONNS` echo connections through a completion ring and return
/// the run's accounting (ferried out of the server process).
fn echo_run(tb: &Testbed) -> CompletionRun {
    let sim = Sim::new();
    let api = Arc::clone(&tb.nodes[0].api);
    let out: Arc<Mutex<Option<CompletionRun>>> = Arc::default();
    let out2 = Arc::clone(&out);
    sim.spawn("echo-completion", move |ctx| {
        let l = api
            .listen(ctx, ECHO_PORT, CONNS as usize + 8)?
            .expect("port free");
        let run = serve_completion(ctx, api.as_ref(), l, CONNS, &[], |inbuf, resp| {
            resp.append(inbuf);
        })?;
        *out2.lock() = Some(run);
        Ok(())
    });
    for k in 0..CONNS {
        let node = 1 + (k as usize % (tb.nodes.len() - 1));
        let api = Arc::clone(&tb.nodes[node].api);
        let host = tb.nodes[0].api.local_host();
        sim.spawn(format!("echo-client-{k}"), move |ctx| {
            let conn = api.connect(ctx, host, ECHO_PORT)?.expect("connect");
            for r in 0..ECHO_REQS {
                let msg: Vec<u8> = (0..ECHO_MSG)
                    .map(|j| ((j * 17 + r as usize * 5 + k as usize) % 251) as u8)
                    .collect();
                conn.write(ctx, &msg)?.expect("request");
                let back = conn
                    .read_exact(ctx, ECHO_MSG)?
                    .expect("echo")
                    .expect("echo bytes");
                assert_eq!(&back[..], &msg[..], "conn {k} req {r}: echo corrupted");
            }
            conn.close(ctx)?;
            Ok(())
        });
    }
    sim.run();
    let run = out.lock().take().expect("server finished");
    run
}

#[test]
fn ring_reads_avoid_copies_on_the_substrate() {
    let run = echo_run(&Testbed::emp_default(5));
    let c = run.counters;
    assert!(
        c.pushed == c.completed && c.completed == c.reaped,
        "completion conservation violated: {c:?}"
    );
    let stats = run.substrate_stats.expect("substrate run has conn stats");
    assert!(
        stats.copies_avoided > 0,
        "ring reads never took the direct-delivery path: {stats:?}"
    );
    assert_eq!(
        stats.bytes_received,
        u64::from(CONNS) * u64::from(ECHO_REQS) * ECHO_MSG as u64,
        "server-side byte accounting wrong"
    );
}

#[test]
fn kernel_ring_reports_no_substrate_stats() {
    // The same echo workload on the kernel stack: byte-exact too, but
    // there is no substrate to report copy-avoidance from.
    let run = echo_run(&Testbed::kernel_default(5));
    let c = run.counters;
    assert!(
        c.pushed == c.completed && c.completed == c.reaped,
        "completion conservation violated: {c:?}"
    );
    assert!(run.substrate_stats.is_none());
}

//! Acceptance test for the readiness-first core: one single-process
//! event-loop web server — no per-connection processes, every socket
//! operation nonblocking, every wait a `poll()` — serving 32 concurrent
//! persistent connections byte-exact on both stacks.
//!
//! Byte-exactness is enforced inside the client of
//! [`webserver::concurrent_throughput`]: each response body byte is a
//! function of (connection, request, position), so a response delivered
//! to the wrong connection, out of order, or corrupted fails the run.

use emp_apps::webserver::concurrent_throughput;
use emp_apps::ServerModel;
use emp_apps::Testbed;

const CONNS: u32 = 32;
const REQS_PER_CONN: u32 = 4;
const RESPONSE: usize = 1024;

#[test]
fn event_loop_serves_32_connections_on_the_substrate() {
    let tb = Testbed::emp_default(5);
    let r = concurrent_throughput(&tb, ServerModel::EventLoop, CONNS, REQS_PER_CONN, RESPONSE);
    assert_eq!(r.requests, u64::from(CONNS * REQS_PER_CONN));
    assert!(r.reqs_per_sec > 0.0);
}

#[test]
fn event_loop_serves_32_connections_on_kernel_tcp() {
    let tb = Testbed::kernel_default(5);
    let r = concurrent_throughput(&tb, ServerModel::EventLoop, CONNS, REQS_PER_CONN, RESPONSE);
    assert_eq!(r.requests, u64::from(CONNS * REQS_PER_CONN));
    assert!(r.reqs_per_sec > 0.0);
}

#[test]
fn event_loop_and_per_connection_servers_agree_on_the_workload() {
    // Same testbed, same workload, both server models: identical request
    // counts and positive throughput from each (the figure generator
    // compares their throughput curves).
    let tb = Testbed::emp_default(5);
    let el = concurrent_throughput(&tb, ServerModel::EventLoop, CONNS, REQS_PER_CONN, RESPONSE);
    let pc = concurrent_throughput(
        &tb,
        ServerModel::PerConnection,
        CONNS,
        REQS_PER_CONN,
        RESPONSE,
    );
    assert_eq!(el.requests, pc.requests);
    assert!(el.elapsed_us > 0.0 && pc.elapsed_us > 0.0);
}

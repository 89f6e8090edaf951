//! Testbeds on either stack, and the layer counters read from outside
//! them at the edges of a measured window.

use std::collections::BTreeMap;
use std::sync::Arc;

use emp_apps::api::Api;
use emp_apps::{EmpNet, KernelNet};
use emp_proto::{EmpCluster, EmpConfig};
use kernel_tcp::{TcpCluster, TcpConfig};
use simnet::emp_trace::telemetry::HistSnapshot;
use simnet::{Sim, SimAccess, SwitchConfig};
use sockets_emp::{EmpSockets, SubstrateConfig};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stack {
    /// Sockets over EMP, DS_DA_UQ (the configuration of `Testbed::emp_default`).
    Emp,
    /// Kernel TCP with 16 KiB socket buffers (`Testbed::kernel_default`).
    Tcp,
}

enum Cluster {
    Emp(EmpCluster),
    Tcp(TcpCluster),
}

/// An n-node cluster with one sockets API per node. Built from the
/// protocol crates' `build_cluster` so the switch stays reachable.
pub struct Bed {
    cluster: Cluster,
    pub apis: Vec<Api>,
}

impl Bed {
    pub fn new(stack: Stack, n: usize) -> Bed {
        match stack {
            Stack::Emp => {
                let cl = emp_proto::build_cluster(n, EmpConfig::default(), SwitchConfig::default());
                let apis = cl
                    .nodes
                    .iter()
                    .map(|node| {
                        let sockets = EmpSockets::new(node.endpoint(), SubstrateConfig::ds_da_uq());
                        Arc::new(EmpNet::new(sockets, "emp-ds-da-uq")) as Api
                    })
                    .collect();
                Bed {
                    cluster: Cluster::Emp(cl),
                    apis,
                }
            }
            Stack::Tcp => {
                let cl =
                    kernel_tcp::build_tcp_cluster(n, TcpConfig::default(), SwitchConfig::default());
                let apis = cl
                    .nodes
                    .iter()
                    .map(|node| Arc::new(KernelNet::new(node.api(), "tcp-16k")) as Api)
                    .collect();
                Bed {
                    cluster: Cluster::Tcp(cl),
                    apis,
                }
            }
        }
    }

    /// Read every layer's counters now.
    pub fn counters(&self, sim: &Sim) -> Counters {
        let switch = match &self.cluster {
            Cluster::Emp(cl) => &cl.switch,
            Cluster::Tcp(cl) => &cl.switch,
        };
        let ports = switch.port_stats();
        let reg = sim.telemetry().snapshot();
        let mut c = Counters {
            sim_ns: sim.now().nanos(),
            events: sim.events_executed(),
            switch_frames: ports.iter().map(|p| p.frames_sent).sum(),
            switch_backlog_ns: ports
                .iter()
                .map(|p| p.max_backlog.nanos())
                .max()
                .unwrap_or(0),
            exec_wakes: reg.counters.get("exec.wakes").copied().unwrap_or(0),
            hists: HISTS
                .iter()
                .map(|&h| (h, reg.histograms.get(h).cloned().unwrap_or_default()))
                .collect(),
            ..Counters::default()
        };
        match &self.cluster {
            Cluster::Emp(cl) => {
                for node in &cl.nodes {
                    let s = node.nic.stats();
                    c.emp_msgs_sent += s.msgs_sent;
                    c.emp_msgs_received += s.msgs_received;
                    c.emp_acks += s.acks_sent;
                    c.emp_retransmits += s.frames_retransmitted;
                    c.emp_unexpected += s.unexpected_msgs;
                    c.emp_walked += s.descriptors_walked;
                    let tigon = node.nic.tigon();
                    c.nic_frames += tigon.frames_sent();
                    for cpu in [&tigon.cpu_tx, &tigon.cpu_rx] {
                        c.fw_busy_ns.push(cpu.busy_total().nanos());
                        c.fw_tasks += cpu.tasks_run();
                    }
                    let mem = node.host.memory().lock();
                    c.pin_hits += mem.cache_hits();
                    c.pin_misses += mem.cache_misses();
                }
            }
            Cluster::Tcp(cl) => {
                for node in &cl.nodes {
                    c.tcp_busy_ns += node.stack.kernel_cpu_busy().nanos();
                    c.tcp_rsts += node.stack.rsts_sent();
                }
            }
        }
        for api in &self.apis {
            if let Some(sub) = api.substrate() {
                let t = sub.stats().totals;
                c.sock_msgs_sent += t.msgs_sent;
                c.sock_fcacks += t.fcacks_sent;
                c.sock_piggybacked += t.piggybacked_credits;
                c.sock_credit_stalls += t.credit_stalls;
                c.sock_bytes_received += t.bytes_received;
                c.sock_bytes_direct += t.bytes_direct;
            }
        }
        c
    }
}

/// Telemetry histograms read at window edges.
pub const HISTS: [&str; 4] = [
    "emp.msg_latency_ns",
    "sock.credit_wait_ns",
    "core.poll_wait_ns",
    "exec.poll_spins",
];

/// Layer counters at one instant. Every field only grows, except
/// `switch_backlog_ns`, the largest queueing delay any switch port has
/// seen so far.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub sim_ns: u64,
    pub events: u64,
    pub switch_frames: u64,
    pub switch_backlog_ns: u64,
    pub nic_frames: u64,
    /// Busy time of each firmware CPU, in NIC order (tx, rx).
    pub fw_busy_ns: Vec<u64>,
    pub fw_tasks: u64,
    pub emp_msgs_sent: u64,
    pub emp_msgs_received: u64,
    pub emp_acks: u64,
    pub emp_retransmits: u64,
    pub emp_unexpected: u64,
    pub emp_walked: u64,
    pub pin_hits: u64,
    pub pin_misses: u64,
    pub sock_msgs_sent: u64,
    pub sock_fcacks: u64,
    pub sock_piggybacked: u64,
    pub sock_credit_stalls: u64,
    pub sock_bytes_received: u64,
    pub sock_bytes_direct: u64,
    pub tcp_busy_ns: u64,
    pub tcp_rsts: u64,
    pub exec_wakes: u64,
    pub hists: BTreeMap<&'static str, HistSnapshot>,
}

/// The samples a histogram gained between two snapshots of it. Bucket
/// counts, count and sum subtract exactly; `max` is the later one's, which
/// only bounds the topmost bucket.
pub fn hist_delta(later: &HistSnapshot, earlier: &HistSnapshot) -> HistSnapshot {
    let before: BTreeMap<u32, u64> = earlier.buckets.iter().copied().collect();
    let buckets: Vec<(u32, u64)> = later
        .buckets
        .iter()
        .map(|&(i, n)| (i, n - before.get(&i).copied().unwrap_or(0)))
        .filter(|&(_, n)| n > 0)
        .collect();
    HistSnapshot {
        count: buckets.iter().map(|&(_, n)| n).sum(),
        sum: later.sum - earlier.sum,
        min: 0,
        max: later.max,
        buckets,
    }
}

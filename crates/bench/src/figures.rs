//! One generator per figure of the paper's evaluation (§7). Each returns a
//! [`Figure`] with the same series the paper plots; the `figures` binary
//! prints them.

use emp_apps::{
    bandwidth, ftp, kvstore, matmul, overload, pingpong, webserver, ServerModel, StormConfig,
    Testbed,
};
use emp_proto::EmpConfig;
use kernel_tcp::TcpConfig;
use simnet::Sim;
use simnet::SimDuration;
use sockets_emp::{RecvMode, SubstrateConfig};

use crate::raw;
use crate::report::{parallel_sweep, Figure};

/// Sweep resolution: `quick` trims the point count for smoke runs;
/// `full` reproduces every plotted point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Few points, few iterations (CI).
    Quick,
    /// The full sweeps.
    Full,
}

impl Profile {
    fn latency_sizes(self) -> &'static [usize] {
        match self {
            Profile::Quick => &[4, 256, 4096],
            Profile::Full => &[4, 16, 64, 256, 1024, 4096],
        }
    }

    fn iters(self) -> u32 {
        match self {
            Profile::Quick => 20,
            Profile::Full => 60,
        }
    }
}

fn emp_tb(cfg: SubstrateConfig, label: &str, n: usize) -> Testbed {
    Testbed::emp(n, EmpConfig::default(), cfg, label)
}

fn tcp_tb(n: usize, sockbuf: Option<usize>, label: &str) -> Testbed {
    Testbed::kernel(n, TcpConfig::default(), sockbuf, label)
}

fn latency_sweep(
    cfg: SubstrateConfig,
    label: &str,
    sizes: &[usize],
    iters: u32,
) -> Vec<(f64, f64)> {
    parallel_sweep(sizes, |&size| {
        let sim = Sim::new();
        let tb = emp_tb(cfg.clone(), label, 2);
        (
            size as f64,
            pingpong::one_way_latency_us(&sim, &tb, size, iters),
        )
    })
}

/// Figure 11: small-message latency of the substrate variants (DS, DS_DA,
/// DS_DA_UQ, DG) against raw EMP.
pub fn fig11(profile: Profile) -> Figure {
    let sizes = profile.latency_sizes();
    let iters = profile.iters();
    let mut fig = Figure::new(
        "fig11",
        "Micro-Benchmarks: Latency (substrate variants vs raw EMP)",
        "msg bytes",
        "one-way us",
    );
    fig.push(
        "DS",
        latency_sweep(SubstrateConfig::ds(), "ds", sizes, iters),
    );
    fig.push(
        "DS_DA",
        latency_sweep(SubstrateConfig::ds_da(), "ds-da", sizes, iters),
    );
    fig.push(
        "DS_DA_UQ",
        latency_sweep(SubstrateConfig::ds_da_uq(), "ds-da-uq", sizes, iters),
    );
    fig.push(
        "DG",
        latency_sweep(SubstrateConfig::dg(), "dg", sizes, iters),
    );
    fig.push(
        "EMP",
        parallel_sweep(sizes, |&size| {
            (size as f64, raw::emp_latency_us(size, iters))
        }),
    );
    fig
}

/// Figure 12: 4-byte latency against credit size, with and without
/// delayed acknowledgments.
pub fn fig12(profile: Profile) -> Figure {
    let credits: &[u32] = match profile {
        Profile::Quick => &[1, 4, 32],
        Profile::Full => &[1, 2, 4, 8, 16, 32],
    };
    let iters = profile.iters();
    let mut fig = Figure::new(
        "fig12",
        "Latency variation for Delayed Acknowledgments with Credit Size",
        "credits",
        "one-way us (4-byte msgs)",
    );
    for (label, delayed) in [("DS", false), ("DS_DA", true)] {
        let pts = parallel_sweep(credits, |&n| {
            let cfg = if delayed {
                SubstrateConfig::ds_da().with_credits(n)
            } else {
                SubstrateConfig::ds().with_credits(n)
            };
            let sim = Sim::new();
            let tb = emp_tb(cfg, label, 2);
            (
                f64::from(n),
                pingpong::one_way_latency_us(&sim, &tb, 4, iters),
            )
        });
        fig.push(label, pts);
    }
    fig
}

/// Figure 13 (left): latency of the substrate vs TCP.
pub fn fig13_latency(profile: Profile) -> Figure {
    let sizes = profile.latency_sizes();
    let iters = profile.iters();
    let mut fig = Figure::new(
        "fig13a",
        "Micro-Benchmarks: Latency (substrate vs TCP)",
        "msg bytes",
        "one-way us",
    );
    fig.push(
        "Datagram",
        latency_sweep(SubstrateConfig::dg(), "dg", sizes, iters),
    );
    fig.push(
        "DataStream",
        latency_sweep(SubstrateConfig::ds_da_uq(), "ds", sizes, iters),
    );
    fig.push(
        "EMP",
        parallel_sweep(sizes, |&size| {
            (size as f64, raw::emp_latency_us(size, iters))
        }),
    );
    for (label, buf) in [("TCP-16K", None), ("TCP-256K", Some(256 * 1024))] {
        let pts = parallel_sweep(sizes, |&size| {
            let sim = Sim::new();
            let tb = tcp_tb(2, buf, label);
            (
                size as f64,
                pingpong::one_way_latency_us(&sim, &tb, size, iters),
            )
        });
        fig.push(label, pts);
    }
    fig
}

/// Figure 13 (right): bandwidth of the substrate vs TCP (default and
/// enlarged kernel buffers).
pub fn fig13_bandwidth(profile: Profile) -> Figure {
    let sizes: &[usize] = match profile {
        Profile::Quick => &[4096, 65536],
        Profile::Full => &[1024, 4096, 16384, 65536, 262_144],
    };
    let total = match profile {
        Profile::Quick => 2 << 20,
        Profile::Full => 8 << 20,
    };
    let mut fig = Figure::new(
        "fig13b",
        "Micro-Benchmarks: Bandwidth (substrate vs TCP)",
        "msg bytes",
        "Mbps",
    );
    fig.push(
        "DataStream",
        parallel_sweep(sizes, |&size| {
            let sim = Sim::new();
            let tb = emp_tb(SubstrateConfig::ds_da_uq(), "ds", 2);
            (
                size as f64,
                bandwidth::throughput_mbps(&sim, &tb, size, total),
            )
        }),
    );
    fig.push(
        "Datagram",
        parallel_sweep(sizes, |&size| {
            let sim = Sim::new();
            let tb = emp_tb(SubstrateConfig::dg(), "dg", 2);
            (
                size as f64,
                bandwidth::throughput_mbps(&sim, &tb, size, total),
            )
        }),
    );
    fig.push(
        "EMP",
        parallel_sweep(sizes, |&size| {
            (size as f64, raw::emp_bandwidth_mbps(size, total))
        }),
    );
    for (label, buf) in [("TCP-16K", None), ("TCP-256K", Some(256 * 1024))] {
        let pts = parallel_sweep(sizes, |&size| {
            let sim = Sim::new();
            let tb = tcp_tb(2, buf, label);
            (
                size as f64,
                bandwidth::throughput_mbps(&sim, &tb, size, total),
            )
        });
        fig.push(label, pts);
    }
    fig
}

/// Figure 14: ftp bandwidth over RAM disks.
pub fn fig14(profile: Profile) -> Figure {
    let sizes: &[usize] = match profile {
        Profile::Quick => &[1 << 20, 4 << 20],
        Profile::Full => &[256 << 10, 1 << 20, 4 << 20, 16 << 20],
    };
    let mut fig = Figure::new(
        "fig14",
        "FTP Performance (RAM disk to RAM disk)",
        "file bytes",
        "Mbps",
    );
    fig.push(
        "DataStream",
        parallel_sweep(sizes, |&size| {
            let tb = emp_tb(SubstrateConfig::ds_da_uq(), "ds", 2);
            (size as f64, ftp::transfer_mbps(&tb, size))
        }),
    );
    fig.push(
        "Datagram",
        parallel_sweep(sizes, |&size| {
            let tb = emp_tb(SubstrateConfig::dg(), "dg", 2);
            (size as f64, ftp::transfer_mbps(&tb, size))
        }),
    );
    fig.push(
        "TCP",
        parallel_sweep(sizes, |&size| {
            let tb = tcp_tb(2, None, "tcp");
            (size as f64, ftp::transfer_mbps(&tb, size))
        }),
    );
    fig
}

fn webserver_fig(
    id: &str,
    title: &str,
    version: webserver::HttpVersion,
    profile: Profile,
) -> Figure {
    let sizes: &[usize] = match profile {
        Profile::Quick => &[4, 1024, 8192],
        Profile::Full => &[4, 64, 256, 1024, 4096, 8192],
    };
    let reqs: u32 = match profile {
        Profile::Quick => 8,
        Profile::Full => 24,
    };
    let mut fig = Figure::new(id, title, "response bytes", "avg response us");
    fig.push(
        "Substrate",
        parallel_sweep(sizes, |&size| {
            // §7.4: credit size 4 for the web server.
            let tb = emp_tb(SubstrateConfig::ds_da_uq().with_credits(4), "emp-c4", 4);
            (size as f64, webserver::run_once(&tb, version, size, reqs))
        }),
    );
    fig.push(
        "TCP",
        parallel_sweep(sizes, |&size| {
            let tb = tcp_tb(4, None, "tcp");
            (size as f64, webserver::run_once(&tb, version, size, reqs))
        }),
    );
    fig
}

/// Figure 15: web server average response time, HTTP/1.0.
pub fn fig15(profile: Profile) -> Figure {
    webserver_fig(
        "fig15",
        "Web Server Average Response Time (HTTP/1.0)",
        webserver::HttpVersion::Http10,
        profile,
    )
}

/// Figure 16: web server average response time, HTTP/1.1.
pub fn fig16(profile: Profile) -> Figure {
    webserver_fig(
        "fig16",
        "Web Server Average Response Time (HTTP/1.1)",
        webserver::HttpVersion::Http11,
        profile,
    )
}

/// Figure 17: distributed matrix multiplication on 4 nodes.
pub fn fig17(profile: Profile) -> Figure {
    let ns: &[usize] = match profile {
        Profile::Quick => &[48, 96],
        Profile::Full => &[48, 96, 192, 384],
    };
    let mut fig = Figure::new(
        "fig17",
        "Matrix Multiplication Performance (4 nodes)",
        "matrix n",
        "elapsed ms",
    );
    fig.push(
        "Substrate",
        parallel_sweep(ns, |&n| {
            let sim = Sim::new();
            let tb = emp_tb(SubstrateConfig::ds_da_uq(), "emp", 4);
            let (us, _) = matmul::run(&sim, &tb, n);
            (n as f64, us / 1000.0)
        }),
    );
    fig.push(
        "TCP",
        parallel_sweep(ns, |&n| {
            let sim = Sim::new();
            let tb = tcp_tb(4, None, "tcp");
            let (us, _) = matmul::run(&sim, &tb, n);
            (n as f64, us / 1000.0)
        }),
    );
    fig
}

/// The §5.2 ablation: the rejected separate-communication-thread designs
/// against the adopted direct one, on the 4-byte latency test.
pub fn ablation_commthread(profile: Profile) -> Figure {
    let iters = match profile {
        Profile::Quick => 8,
        Profile::Full => 20,
    };
    let mut fig = Figure::new(
        "ablation-commthread",
        "§5.2 alternatives: receive-path driver vs 4-byte latency",
        "variant (0=direct, 1=polling thread, 2=blocking thread)",
        "one-way us",
    );
    let variants = [
        (0.0, RecvMode::Direct),
        (1.0, RecvMode::CommThreadPolling),
        (2.0, RecvMode::CommThreadBlocking),
    ];
    let pts = parallel_sweep(&variants, |&(x, mode)| {
        let mut cfg = SubstrateConfig::ds_da_uq();
        cfg.recv_mode = mode;
        let sim = Sim::new();
        let tb = emp_tb(cfg, "ablation", 2);
        (x, pingpong::one_way_latency_us(&sim, &tb, 4, iters))
    });
    fig.push("DS_DA_UQ", pts);
    fig
}

/// Ablation: piggy-backed credit returns on vs off (4-byte latency and
/// flow-control-ack message count in a one-way stream).
pub fn ablation_piggyback(profile: Profile) -> Figure {
    let iters = profile.iters();
    let mut fig = Figure::new(
        "ablation-piggyback",
        "§6.1 piggy-back acks: latency with and without",
        "piggyback (0=off, 1=on)",
        "one-way us (4-byte msgs)",
    );
    let variants = [(0.0, false), (1.0, true)];
    let pts = parallel_sweep(&variants, |&(x, on)| {
        let mut cfg = SubstrateConfig::ds_da_uq().with_credits(4);
        cfg.piggyback_acks = on;
        let sim = Sim::new();
        let tb = emp_tb(cfg, "ablation", 2);
        (x, pingpong::one_way_latency_us(&sim, &tb, 4, iters))
    });
    fig.push("DS_DA_UQ", pts);
    fig
}

/// The §8 future-work experiment: a data-center key-value service
/// (persistent connections, small read-mostly operations) over both
/// stacks — per-operation latency against value size.
pub fn datacenter_kv(profile: Profile) -> Figure {
    let sizes: &[usize] = match profile {
        Profile::Quick => &[64, 4096],
        Profile::Full => &[64, 512, 4096, 16384],
    };
    let ops = match profile {
        Profile::Quick => 60,
        Profile::Full => 200,
    };
    let mut fig = Figure::new(
        "datacenter-kv",
        "Key-value service (3 clients, 90% GET) — §8 future work",
        "value bytes",
        "mean op us",
    );
    fig.push(
        "Substrate",
        parallel_sweep(sizes, |&size| {
            let r = kvstore::run_workload(&Testbed::emp_default(4), 3, ops, size, 0.9, 11);
            (size as f64, r.mean_op_us)
        }),
    );
    fig.push(
        "TCP",
        parallel_sweep(sizes, |&size| {
            let r = kvstore::run_workload(&Testbed::kernel_default(4), 3, ops, size, 0.9, 11);
            (size as f64, r.mean_op_us)
        }),
    );
    fig
}

/// Multi-connection scaling: aggregate request throughput against the
/// number of concurrent persistent connections, for the single-process
/// event-loop server (the readiness layer's `poll()` + nonblocking
/// calls), the completion-ring server (submitted ops over registered
/// buffers), the async/await server (straight-line handlers on one
/// deterministic executor), and the process-per-connection server, over
/// both stacks.
pub fn event_loop_concurrency(profile: Profile) -> Figure {
    let conns: &[u32] = match profile {
        Profile::Quick => &[4, 16, 32],
        Profile::Full => &[4, 8, 16, 32, 64],
    };
    let reqs_per_conn: u32 = match profile {
        Profile::Quick => 4,
        Profile::Full => 8,
    };
    let response = 1024usize;
    let mut fig = Figure::new(
        "event-loop-concurrency",
        "Concurrent connections vs throughput: readiness event loop vs \
         completion ring vs async/await vs process-per-connection",
        "connections",
        "reqs/s",
    );
    let models = [
        ServerModel::EventLoop,
        ServerModel::Completion,
        ServerModel::Async,
        ServerModel::PerConnection,
    ];
    for model in models {
        let pts = parallel_sweep(conns, |&n| {
            let tb = emp_tb(SubstrateConfig::ds_da_uq().with_credits(4), "emp-c4", 5);
            let r = webserver::concurrent_throughput(&tb, model, n, reqs_per_conn, response);
            (f64::from(n), r.reqs_per_sec)
        });
        fig.push(format!("Substrate {}", model.label()), pts);
    }
    for model in models {
        let pts = parallel_sweep(conns, |&n| {
            let tb = tcp_tb(5, None, "tcp");
            let r = webserver::concurrent_throughput(&tb, model, n, reqs_per_conn, response);
            (f64::from(n), r.reqs_per_sec)
        });
        fig.push(format!("TCP {}", model.label()), pts);
    }
    fig
}

/// Fairness and tail latency of the concurrency models: per-request p50
/// and p99 against connection count on the substrate, for the async
/// executor, the event loop, and process-per-connection. The aggregate
/// throughput curves above can hide a server that serves connections
/// unevenly; the p99/p50 gap here is where a scheduling model that lets
/// one handler hog its turn would show up (the Jain fairness index per
/// run is asserted in the apps tests).
pub fn concurrency_fairness(profile: Profile) -> Figure {
    let conns: &[u32] = match profile {
        Profile::Quick => &[8, 32],
        Profile::Full => &[8, 16, 32, 64],
    };
    let reqs_per_conn: u32 = match profile {
        Profile::Quick => 4,
        Profile::Full => 8,
    };
    let response = 1024usize;
    let mut fig = Figure::new(
        "concurrency-fairness",
        "Request latency under concurrency: async vs event loop vs \
         process-per-connection (substrate, per-request percentiles)",
        "connections",
        "request us",
    );
    let models = [
        ServerModel::Async,
        ServerModel::EventLoop,
        ServerModel::PerConnection,
    ];
    for model in models {
        let pts = parallel_sweep(conns, |&n| {
            let tb = emp_tb(SubstrateConfig::ds_da_uq().with_credits(4), "emp-c4", 5);
            let r = webserver::concurrent_latency(&tb, model, n, reqs_per_conn, response);
            (f64::from(n), r.p50_us)
        });
        fig.push(format!("{} p50", model.label()), pts);
    }
    for model in models {
        let pts = parallel_sweep(conns, |&n| {
            let tb = emp_tb(SubstrateConfig::ds_da_uq().with_credits(4), "emp-c4", 5);
            let r = webserver::concurrent_latency(&tb, model, n, reqs_per_conn, response);
            (f64::from(n), r.p99_us)
        });
        fig.push(format!("{} p99", model.label()), pts);
    }
    fig
}

/// Connection-setup comparison (§7.4's quoted numbers): how long
/// `connect()` blocks the caller, and how long until `accept()` holds
/// the connection.
pub fn connect_time(profile: Profile) -> Figure {
    let iters = match profile {
        Profile::Quick => 8,
        Profile::Full => 24,
    };
    let mut fig = Figure::new(
        "connect-time",
        "Connection setup: substrate vs kernel TCP (§7.4)",
        "stack (0=TCP, 1=substrate c4)",
        "us",
    );
    let sim = Sim::new();
    let tb = tcp_tb(2, None, "tcp");
    let (tcp_blocked, tcp_est) = pingpong::connect_times_us(&sim, &tb, iters);
    let sim = Sim::new();
    let tb = emp_tb(SubstrateConfig::ds_da_uq().with_credits(4), "emp-c4", 2);
    let (emp_blocked, emp_est) = pingpong::connect_times_us(&sim, &tb, iters);
    fig.push(
        "connect() blocks",
        vec![(0.0, tcp_blocked), (1.0, emp_blocked)],
    );
    fig.push("established", vec![(0.0, tcp_est), (1.0, emp_est)]);
    fig
}

/// The IPDPS'02 companion ablation: EMP on a single-firmware-CPU NIC vs
/// the Tigon2's two. One CPU serializes the transmit and receive paths,
/// which mostly costs bandwidth (both directions' per-frame work lands
/// on the same resource).
pub fn ablation_nic_cpus(profile: Profile) -> Figure {
    let total = match profile {
        Profile::Quick => 2 << 20,
        Profile::Full => 8 << 20,
    };
    let mut fig = Figure::new(
        "ablation-nic-cpus",
        "Single vs dual firmware CPU (IPDPS'02 companion question)",
        "firmware CPUs",
        "stream bandwidth Mbps",
    );
    let variants = [(1.0f64, true), (2.0, false)];
    for (label, bidirectional) in [("one-way", false), ("bidirectional", true)] {
        let pts = parallel_sweep(&variants, |&(x, single)| {
            let mut emp_cfg = EmpConfig::default();
            emp_cfg.nic.single_cpu = single;
            let sim = Sim::new();
            let tb = Testbed::emp(2, emp_cfg, SubstrateConfig::ds_da_uq(), "nic-cpus");
            let mbps = if bidirectional {
                bandwidth::bidirectional_mbps(&sim, &tb, 64 * 1024, total)
            } else {
                bandwidth::throughput_mbps(&sim, &tb, 64 * 1024, total)
            };
            (x, mbps)
        });
        fig.push(label, pts);
    }
    fig
}

/// Host-CPU-consumption experiment (the §2 claim: "This gives maximum
/// benefit to the host in terms of not just bandwidth and latency but
/// also CPU utilization"): kernel/stack CPU milliseconds consumed across
/// both hosts while moving a fixed volume, per stack. The substrate's
/// entry is zero by construction — the whole protocol lives on the NIC
/// and in user space, so no kernel resource is ever charged.
pub fn cpu_utilization(profile: Profile) -> Figure {
    let total = match profile {
        Profile::Quick => 2 << 20,
        Profile::Full => 8 << 20,
    };
    let mut fig = Figure::new(
        "cpu-utilization",
        "Host kernel/stack CPU time per bulk transfer (§2 claim)",
        "stack (0=TCP, 1=substrate)",
        "kernel CPU ms",
    );
    // Kernel TCP, built directly so the kernel resource is introspectable.
    let tcp_cluster =
        kernel_tcp::build_tcp_cluster(2, TcpConfig::default(), simnet::SwitchConfig::default());
    for node in &tcp_cluster.nodes {
        node.stack.set_sockbuf(256 * 1024);
    }
    let sim = Sim::new();
    run_tcp_bulk(&sim, &tcp_cluster, total);
    let tcp_busy_ms: f64 = tcp_cluster
        .nodes
        .iter()
        .map(|n| n.stack.kernel_cpu_busy().as_millis_f64())
        .sum();
    // Substrate: run the same volume to confirm completion, then report
    // its (structurally zero) kernel time.
    let sim = Sim::new();
    let tb = emp_tb(SubstrateConfig::ds_da_uq(), "emp", 2);
    bandwidth::throughput_mbps(&sim, &tb, 64 * 1024, total);
    let emp_busy_ms = 0.0;
    fig.push("kernel CPU", vec![(0.0, tcp_busy_ms), (1.0, emp_busy_ms)]);
    fig
}

/// Drive one bulk transfer over a raw kernel cluster (introspectable,
/// unlike the adapter-wrapped testbed).
fn run_tcp_bulk(sim: &Sim, cluster: &kernel_tcp::TcpCluster, total: usize) {
    use kernel_tcp::SockAddr;
    let api_s = cluster.nodes[1].api();
    let api_c = cluster.nodes[0].api();
    let addr = SockAddr::new(cluster.nodes[1].addr(), 9);
    sim.spawn("cpu-sink", move |ctx| {
        let l = api_s.listen(ctx, 9, 4)?.expect("port");
        let c = l.accept(ctx)?;
        let mut got = 0;
        while got < total {
            let d = c.read(ctx, 64 * 1024)?.expect("data");
            if d.is_empty() {
                break;
            }
            got += d.len();
        }
        Ok(())
    });
    sim.spawn("cpu-source", move |ctx| {
        let c = api_c.connect(ctx, addr)?.expect("connect");
        let buf = vec![0u8; 64 * 1024];
        let mut sent = 0;
        while sent < total {
            c.write(ctx, &buf)?.expect("write");
            sent += buf.len();
        }
        c.close(ctx)?;
        Ok(())
    });
    sim.run();
}

/// One point of the small-write coalescing sweep: goodput with and
/// without coalescing (plus kernel TCP for scale) and the substrate
/// message counts that explain the gap. `ci.sh` asserts on the counters;
/// the figure plots the Mbps columns.
pub struct SmallMsgPoint {
    /// Application write size in bytes.
    pub size: usize,
    /// Goodput, DS_DA_UQ with coalescing off.
    pub mbps_off: f64,
    /// Goodput, DS_DA_UQ with coalescing on.
    pub mbps_on: f64,
    /// Goodput, kernel TCP (256K socket buffers).
    pub mbps_tcp: f64,
    /// Substrate data messages sent, coalescing off.
    pub msgs_off: u64,
    /// Substrate data messages sent, coalescing on.
    pub msgs_on: u64,
}

/// Run the small-message bandwidth sweep behind
/// [`small_message_throughput`], returning the per-point counters too.
pub fn small_message_sweep(profile: Profile) -> Vec<SmallMsgPoint> {
    let sizes: &[usize] = match profile {
        Profile::Quick => &[64, 256],
        Profile::Full => &[16, 64, 256, 1024],
    };
    let total: usize = match profile {
        Profile::Quick => 64 * 1024,
        Profile::Full => 256 * 1024,
    };
    parallel_sweep(sizes, |&size| {
        let run = |cfg: SubstrateConfig, label: &str| {
            let sim = Sim::new();
            let tb = emp_tb(cfg, label, 2);
            bandwidth::throughput_with_stats(&sim, &tb, size, total)
        };
        let (mbps_off, st_off) = run(SubstrateConfig::ds_da_uq(), "ds-da-uq");
        let (mbps_on, st_on) = run(SubstrateConfig::ds_da_uq().with_coalescing(), "ds-coalesce");
        let sim = Sim::new();
        let tb = tcp_tb(2, Some(256 * 1024), "tcp-256k");
        let mbps_tcp = bandwidth::throughput_mbps(&sim, &tb, size, total);
        SmallMsgPoint {
            size,
            mbps_off,
            mbps_on,
            mbps_tcp,
            msgs_off: st_off.msgs_sent,
            msgs_on: st_on.msgs_sent,
        }
    })
}

/// Shape a finished sweep into the plotted figure.
pub fn small_message_figure(points: &[SmallMsgPoint]) -> Figure {
    let mut fig = Figure::new(
        "small-message-throughput",
        "Small-message bandwidth: write coalescing vs plain substrate vs TCP",
        "msg bytes",
        "Mbps",
    );
    fig.push(
        "DS_DA_UQ",
        points.iter().map(|p| (p.size as f64, p.mbps_off)).collect(),
    );
    fig.push(
        "DS_DA_UQ+coal",
        points.iter().map(|p| (p.size as f64, p.mbps_on)).collect(),
    );
    fig.push(
        "TCP 256K",
        points.iter().map(|p| (p.size as f64, p.mbps_tcp)).collect(),
    );
    fig
}

/// Small-message bandwidth with and without write coalescing.
pub fn small_message_throughput(profile: Profile) -> Figure {
    small_message_figure(&small_message_sweep(profile))
}

/// One point of the direct-delivery sweep: ping-pong latency with and
/// without receiver-posted direct delivery, plus the delivery counters.
/// The ping-pong reader is always parked in `read()` when its message
/// lands, so with the knob on every in-sequence delivery should bypass
/// the §6.2 temp-buffer copy.
pub struct CopyAvoidPoint {
    /// Message size in bytes.
    pub size: usize,
    /// One-way latency, direct delivery off (µs).
    pub us_off: f64,
    /// One-way latency, direct delivery on (µs).
    pub us_on: f64,
    /// Temp-buffer copies skipped (both ends summed), knob on.
    pub copies_avoided: u64,
    /// Bytes delivered straight into posted reader buffers, knob on.
    pub bytes_direct: u64,
    /// Total bytes received (both ends summed), knob on.
    pub bytes_received: u64,
}

/// Run the direct-delivery ping-pong sweep behind [`copy_avoidance`].
pub fn copy_avoidance_sweep(profile: Profile) -> Vec<CopyAvoidPoint> {
    let sizes = profile.latency_sizes();
    let iters = profile.iters();
    parallel_sweep(sizes, |&size| {
        let run = |cfg: SubstrateConfig, label: &str| {
            let sim = Sim::new();
            let tb = emp_tb(cfg, label, 2);
            pingpong::pingpong_with_stats(&sim, &tb, size, iters)
        };
        let (us_off, _) = run(SubstrateConfig::ds_da_uq(), "ds-da-uq");
        let (us_on, st_on) = run(
            SubstrateConfig::ds_da_uq().with_direct_delivery(),
            "ds-direct",
        );
        CopyAvoidPoint {
            size,
            us_off,
            us_on,
            copies_avoided: st_on.copies_avoided,
            bytes_direct: st_on.bytes_direct,
            bytes_received: st_on.bytes_received,
        }
    })
}

/// Shape a finished sweep into the plotted figure.
pub fn copy_avoidance_figure(points: &[CopyAvoidPoint]) -> Figure {
    let mut fig = Figure::new(
        "copy-avoidance",
        "Posted-reader direct delivery: latency and share of bytes copied",
        "msg bytes",
        "one-way us (copy % on right series)",
    );
    fig.push(
        "DS_DA_UQ",
        points.iter().map(|p| (p.size as f64, p.us_off)).collect(),
    );
    fig.push(
        "DS_DA_UQ+direct",
        points.iter().map(|p| (p.size as f64, p.us_on)).collect(),
    );
    fig.push(
        "copied %",
        points
            .iter()
            .map(|p| {
                let copied = p.bytes_received.saturating_sub(p.bytes_direct) as f64;
                let pct = if p.bytes_received == 0 {
                    0.0
                } else {
                    copied / p.bytes_received as f64 * 100.0
                };
                (p.size as f64, pct)
            })
            .collect(),
    );
    fig
}

/// Ping-pong latency and copy share with receiver-posted direct delivery.
pub fn copy_avoidance(profile: Profile) -> Figure {
    copy_avoidance_figure(&copy_avoidance_sweep(profile))
}

/// Inter-arrival gap (µs) at the storm server's saturation point: the
/// offered-load axis of [`overload_degradation`] is expressed as
/// multiples of this arrival rate (load 2.0 = half the gap).
pub const SATURATION_STAGGER_US: u64 = 80;

/// One overload point: a connect storm at `load` times the saturation
/// arrival rate against a shedding server on `tb`.
pub fn overload_point(tb: &Testbed, load: f64, clients: u32) -> emp_apps::OverloadReport {
    let gap_us = (SATURATION_STAGGER_US as f64 / load).max(1.0) as u64;
    overload::run_storm(
        tb,
        &StormConfig {
            clients,
            stagger: SimDuration::from_micros(gap_us),
            ..StormConfig::default()
        },
    )
}

/// Overload robustness: offered load (multiples of the saturation
/// arrival rate) against goodput and p99 served latency, both stacks.
/// The claim under test (DESIGN.md §15): past saturation, admission
/// control and shedding hold goodput near its saturated peak — offered
/// load rises 8x across the sweep, goodput must not collapse.
pub fn overload_degradation(profile: Profile) -> Figure {
    let loads: &[f64] = match profile {
        Profile::Quick => &[0.5, 1.0, 4.0],
        Profile::Full => &[0.5, 1.0, 2.0, 4.0],
    };
    let clients: u32 = match profile {
        Profile::Quick => 32,
        Profile::Full => 48,
    };
    let mut fig = Figure::new(
        "overload-degradation",
        "Offered load vs goodput and tail latency under admission control",
        "offered load (% of saturation)",
        "goodput Mbps / p99 us",
    );
    let emp_pts = parallel_sweep(loads, |&load| {
        let r = overload_point(&Testbed::emp_default(4), load, clients);
        (load, (r.goodput_mbps(), r.p99_us))
    });
    let tcp_pts = parallel_sweep(loads, |&load| {
        let r = overload_point(&Testbed::kernel_default(4), load, clients);
        (load, (r.goodput_mbps(), r.p99_us))
    });
    fig.push(
        "Substrate goodput",
        emp_pts
            .iter()
            .map(|&(x, (g, _))| (x * 100.0, g))
            .collect::<Vec<_>>(),
    );
    fig.push(
        "TCP goodput",
        tcp_pts
            .iter()
            .map(|&(x, (g, _))| (x * 100.0, g))
            .collect::<Vec<_>>(),
    );
    fig.push(
        "Substrate p99",
        emp_pts
            .iter()
            .map(|&(x, (_, p))| (x * 100.0, p))
            .collect::<Vec<_>>(),
    );
    fig.push(
        "TCP p99",
        tcp_pts
            .iter()
            .map(|&(x, (_, p))| (x * 100.0, p))
            .collect::<Vec<_>>(),
    );
    fig
}

/// Every figure, in paper order.
pub fn all_figures(profile: Profile) -> Vec<Figure> {
    vec![
        fig11(profile),
        fig12(profile),
        fig13_latency(profile),
        fig13_bandwidth(profile),
        fig14(profile),
        fig15(profile),
        fig16(profile),
        fig17(profile),
        connect_time(profile),
        datacenter_kv(profile),
        event_loop_concurrency(profile),
        concurrency_fairness(profile),
        ablation_commthread(profile),
        ablation_piggyback(profile),
        ablation_nic_cpus(profile),
        cpu_utilization(profile),
        small_message_throughput(profile),
        copy_avoidance(profile),
        overload_degradation(profile),
    ]
}

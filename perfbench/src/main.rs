//! The repository benchmark. One run measures one workload:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It prints a human-readable report, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer ones
//! with `--trace 1`. It exits 1 when any output byte, failure count or
//! determinism check is wrong, and 2 on a usage error. See `README.md`.

mod bed;
mod probes;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use simnet::{Sim, SimAccess, SimTime};

use bed::{hist_delta, Counters, Stack};
use spans::{Span, NO_OP, ROOT};
use stats::{median, percentile, FineHist};
use workloads::{Record, Shared, Workload, CHUNK, RESPONSE};

/// Set-ups per run; `setup_s` is their median and the middle one is measured.
const SETUP_REPS: usize = 21;
/// Backstop against a model that never quiesces.
const SIM_DEADLINE: SimTime = SimTime::from_secs(3600);

/// Paper and committed-baseline values the modelled headlines are printed
/// beside: §7.1's 37 µs one-way for DS with all enhancements, §7.2's
/// >840 Mbps substrate peak, and `BENCH_5.json`'s fig11 DS_DA_UQ 4 B point.
const PAPER_ONE_WAY_US: f64 = 37.0;
const PAPER_PEAK_MBPS: f64 = 840.0;
const BENCH5_FIG11_DS_DA_UQ_4B_US: f64 = 35.09;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = workloads::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or(format!("unknown workload {name:?}"))?;
    let num = |flag: &str, v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
    let seed = num("--seed", get("--seed")?)?;
    let seconds = num("--seconds", get("--seconds")?)?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace {t:?}: want 0 or 1")),
    };
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds}: want 1 to 600"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Everything one run observed.
struct Run {
    setup_s: Vec<f64>,
    /// `(simulated ns, events)` at the end of each set-up.
    fingerprints: Vec<(u64, u64)>,
    at_go: Counters,
    at_k: Counters,
    at_end: Counters,
    go_wall: Instant,
    k_wall: Instant,
    rec: Record,
    failed: u64,
    spans: Vec<Span>,
}

/// Run `f` inside a `sim.run` span that ops and server calls hang under.
fn phase<R>(sh: &Shared, sim: &Sim, f: impl FnOnce() -> R) -> R {
    let sp = sh.spans.begin("sim.run", ROOT, NO_OP, sim);
    sh.run_span.store(sp.id, Ordering::Relaxed);
    let r = f();
    sh.spans.end(sp, sim);
    r
}

fn run(args: &Args) -> Result<Run, String> {
    let w = args.workload;
    let (mut setup_s, mut fingerprints, mut run) = (Vec::new(), Vec::new(), None);
    for rep in 0..SETUP_REPS {
        // The measured set-up sits in the middle, so the set-ups sample
        // the host before and after the window alike.
        let measured = rep == SETUP_REPS / 2;
        let traced = args.trace && measured;
        let sh = w.shared(traced);
        let t0 = Instant::now();
        let sim = Sim::new();
        let setup_span = sh.spans.begin("setup", ROOT, NO_OP, &sim);
        let bed = w.spawn(&sim, &sh, args.seed);
        let ready = phase(&sh, &sim, || {
            sim.run_until_complete(&sh.ready, SIM_DEADLINE)
        });
        sh.spans.end(setup_span, &sim);
        setup_s.push(t0.elapsed().as_secs_f64());
        fingerprints.push((sim.now().nanos(), sim.events_executed()));
        if !ready {
            return Err(failure(&sh, "set-up never finished"));
        }
        if measured {
            run = Some(measure(args, &sim, &bed, &sh)?);
        }
        // Dropping the simulation terminates its parked processes.
    }
    let mut run = run.expect("one set-up is measured");
    (run.setup_s, run.fingerprints) = (setup_s, fingerprints);
    Ok(run)
}

/// Open the window on a finished set-up and run it to the end.
fn measure(args: &Args, sim: &Sim, bed: &bed::Bed, sh: &Shared) -> Result<Run, String> {
    let at_go = bed.counters(sim);
    let go_wall = Instant::now();
    sh.start_window(go_wall, go_wall + Duration::from_secs(args.seconds));
    sh.go.complete(sim);
    let kdone = phase(sh, sim, || sim.run_until_complete(&sh.kdone, SIM_DEADLINE));
    if !kdone {
        return Err(failure(sh, "the deterministic window never finished"));
    }
    let (at_k, k_wall) = (bed.counters(sim), Instant::now());
    phase(sh, sim, || sim.run_until(SIM_DEADLINE));
    let at_end = bed.counters(sim);
    let rec = std::mem::take(&mut *sh.rec.lock().expect("record lock poisoned"));
    Ok(Run {
        setup_s: Vec::new(),
        fingerprints: Vec::new(),
        at_go,
        at_k,
        at_end,
        go_wall,
        k_wall,
        rec,
        failed: sh.failed.load(Ordering::Relaxed),
        spans: sh.spans.take(),
    })
}

fn failure(sh: &Shared, what: &str) -> String {
    let rec = sh.rec.lock().expect("record lock poisoned");
    match &rec.first_failure {
        Some(f) => format!("{what}: {f}"),
        None => what.to_string(),
    }
}

/// A metric: name, value (`None`: the workload does not use the layer),
/// unit.
type Metric = (&'static str, Option<f64>, &'static str);

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// Simulated µs of each op of the deterministic window.
fn window_us(r: &Run) -> Vec<f64> {
    r.rec
        .window_sim_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect()
}

/// Both halves of a traced/untraced split merged.
fn both(halves: &[FineHist; 2]) -> FineHist {
    let mut all = FineHist::default();
    halves.iter().for_each(|h| all.merge(h));
    all
}

fn end_to_end(r: &Run) -> Vec<Metric> {
    let sim_window_ns = r.rec.window_end_sim.expect("window verified") - r.at_go.sim_ns;
    let attempted = r.rec.ops + r.failed;
    vec![
        ("setup_s", Some(median(&mut r.setup_s.clone())), "s"),
        (
            "host_us_per_op.p50",
            Some(both(&r.rec.host_ns).percentile(0.5) / 1e3),
            "us",
        ),
        (
            "host_ops_per_s",
            Some(ops_per_s(&both(&r.rec.chunk_ns))),
            "1/s",
        ),
        ("peak_rss_mb", Some(peak_rss_mb()), "MB"),
        (
            "sim_us_per_op.p50",
            Some(median(&mut window_us(r))),
            "sim_us",
        ),
        (
            "sim_us_per_op.p99",
            Some(percentile(&mut window_us(r), 0.99)),
            "sim_us",
        ),
        (
            "sim_goodput_mbps",
            Some(r.rec.window_bytes as f64 * 8e3 / sim_window_ns as f64),
            "Mbps",
        ),
        ("failed_ops_frac", ratio(r.failed, attempted), "ratio"),
    ]
}

/// Ops per host second of the median chunk.
fn ops_per_s(chunk_ns: &FineHist) -> f64 {
    CHUNK as f64 * 1e9 / chunk_ns.percentile(0.5)
}

/// Process high-water mark (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Probes {
    park_resume_ns: f64,
    bare_event_ns: f64,
    raw_one_way_us: f64,
    raw_host_us: f64,
}

fn run_probes(log: &spans::SpanLog) -> Probes {
    // Each probe builds its own simulation; the spans only need a clock.
    let idle = Sim::new();
    let timed = |name, f: fn() -> f64| log.span(name, ROOT, NO_OP, &idle, f);
    let park_resume_ns = timed("probe.park_resume", probes::park_resume_ns);
    let bare_event_ns = timed("probe.bare_event", probes::bare_event_ns);
    let (raw_one_way_us, raw_host_us) =
        log.span("probe.raw_emp", ROOT, NO_OP, &idle, probes::raw_emp);
    Probes {
        park_resume_ns,
        bare_event_ns,
        raw_one_way_us,
        raw_host_us,
    }
}

/// Span host/sim durations by name, in µs, and each span's self time.
struct SpanStats<'a> {
    by_name: BTreeMap<&'static str, Vec<&'a Span>>,
    self_ns: BTreeMap<u32, u64>,
}

fn span_p50(st: &SpanStats<'_>, name: &str, f: impl Fn(&Span) -> u64) -> Option<f64> {
    let xs = st.by_name.get(name)?;
    Some(median(&mut xs.iter().map(|s| f(s) as f64).collect::<Vec<_>>()) / 1e3)
}

fn per_layer(w: Workload, r: &Run, st: &SpanStats<'_>, p: &Probes) -> Vec<Metric> {
    let (a, b) = (&r.at_go, &r.at_k);
    let k = w.k();
    let per_op = |d: u64| Some(d as f64 / k as f64);
    let emp = w.stack() == Stack::Emp;
    let on = |used: bool, v: Option<f64>| if used { v } else { None };
    let quantile = |name: &str, q: f64| {
        let h = hist_delta(&b.hists[name], &a.hists[name]);
        (h.count > 0).then(|| h.quantile(q) as f64)
    };
    let window_ns = b.sim_ns - a.sim_ns;
    let fw_util = a
        .fw_busy_ns
        .iter()
        .zip(&b.fw_busy_ns)
        .map(|(x, y)| (y - x) as f64 / window_ns as f64)
        .reduce(f64::max);
    let emp_msgs = b.emp_msgs_received - a.emp_msgs_received;
    // Application writes per op: the request (or ping) and the response
    // (or echo); the stream writer's one write.
    let writes = k * if w == Workload::Stream64k { 1 } else { 2 };
    // The substrate's own cost over raw EMP, per round trip: only the
    // ping-pong does the same op as the raw probe. Host time comes from
    // the untraced chunks, like the raw probe's.
    let pingpong = w == Workload::Pingpong4b;
    let self_sim = pingpong.then(|| median(&mut window_us(r)) - 2.0 * p.raw_one_way_us);
    let untraced = &r.rec.host_ns[0];
    let self_host =
        (pingpong && untraced.count() > 0).then(|| untraced.percentile(0.5) / 1e3 - p.raw_host_us);
    let events = b.events - a.events;
    vec![
        ("simnet.events_per_op", per_op(events), "count"),
        (
            "simnet.host_ns_per_event",
            ratio((r.k_wall - r.go_wall).as_nanos() as u64, events),
            "ns",
        ),
        ("simnet.park_resume_ns", Some(p.park_resume_ns), "ns"),
        ("simnet.bare_event_ns", Some(p.bare_event_ns), "ns"),
        (
            "simnet.frames_per_op",
            per_op(b.switch_frames - a.switch_frames),
            "count",
        ),
        (
            "simnet.switch_backlog_us.max",
            Some(b.switch_backlog_ns as f64 / 1e3),
            "sim_us",
        ),
        (
            "hostsim.pin_hit_frac",
            ratio(
                b.pin_hits - a.pin_hits,
                b.pin_hits + b.pin_misses - a.pin_hits - a.pin_misses,
            ),
            "ratio",
        ),
        (
            "tigon-nic.fw_busy_us_per_op",
            on(
                emp,
                per_op(b.fw_busy_ns.iter().sum::<u64>() - a.fw_busy_ns.iter().sum::<u64>())
                    .map(|ns| ns / 1e3),
            ),
            "sim_us",
        ),
        ("tigon-nic.fw_utilization.max", on(emp, fw_util), "ratio"),
        (
            "tigon-nic.fw_tasks_per_op",
            on(emp, per_op(b.fw_tasks - a.fw_tasks)),
            "count",
        ),
        (
            "emp-proto.acks_per_msg",
            ratio(b.emp_acks - a.emp_acks, emp_msgs),
            "count",
        ),
        (
            "emp-proto.walk_per_msg",
            ratio(b.emp_walked - a.emp_walked, emp_msgs),
            "count",
        ),
        (
            "emp-proto.unexpected_frac",
            ratio(b.emp_unexpected - a.emp_unexpected, emp_msgs),
            "ratio",
        ),
        (
            "emp-proto.msg_latency_us.p50",
            quantile("emp.msg_latency_ns", 0.5).map(|ns| ns / 1e3),
            "sim_us",
        ),
        (
            "emp-proto.msg_latency_us.p99",
            quantile("emp.msg_latency_ns", 0.99).map(|ns| ns / 1e3),
            "sim_us",
        ),
        (
            "emp-proto.retransmit_frac",
            ratio(
                b.emp_retransmits - a.emp_retransmits,
                b.nic_frames - a.nic_frames,
            ),
            "ratio",
        ),
        ("emp-proto.raw_one_way_us", Some(p.raw_one_way_us), "sim_us"),
        ("emp-proto.raw_host_us_per_op", Some(p.raw_host_us), "us"),
        ("core.self_sim_us_per_op", self_sim, "sim_us"),
        ("core.self_host_us_per_op", self_host, "us"),
        (
            "core.msgs_per_write",
            on(emp, ratio(b.sock_msgs_sent - a.sock_msgs_sent, writes)),
            "count",
        ),
        (
            "core.fcack_frac",
            ratio(
                b.sock_fcacks - a.sock_fcacks,
                b.sock_fcacks + b.sock_piggybacked - a.sock_fcacks - a.sock_piggybacked,
            ),
            "ratio",
        ),
        (
            "core.credit_stalls_per_op",
            on(emp, per_op(b.sock_credit_stalls - a.sock_credit_stalls)),
            "count",
        ),
        (
            "core.credit_wait_us.p99",
            quantile("sock.credit_wait_ns", 0.99).map(|ns| ns / 1e3),
            "sim_us",
        ),
        (
            "core.direct_frac",
            ratio(
                b.sock_bytes_direct - a.sock_bytes_direct,
                b.sock_bytes_received - a.sock_bytes_received,
            ),
            "ratio",
        ),
        (
            "core.poll_wait_us.p99",
            quantile("core.poll_wait_ns", 0.99).map(|ns| ns / 1e3),
            "sim_us",
        ),
        (
            "kernel-tcp.cpu_busy_us_per_op",
            on(
                !emp,
                per_op(b.tcp_busy_ns - a.tcp_busy_ns).map(|ns| ns / 1e3),
            ),
            "sim_us",
        ),
        (
            "kernel-tcp.rsts_sent",
            on(!emp, Some(r.at_end.tcp_rsts as f64)),
            "count",
        ),
        (
            "emp-async.wakes_per_op",
            on(w.uses_executor(), per_op(b.exec_wakes - a.exec_wakes)),
            "count",
        ),
        (
            "emp-async.poll_spins.p99",
            on(w.uses_executor(), quantile("exec.poll_spins", 0.99)),
            "count",
        ),
        (
            "apps.connect_host_us.p50",
            span_p50(st, "connect", Span::host_ns),
            "us",
        ),
        (
            "apps.connect_sim_us.p50",
            span_p50(st, "connect", Span::sim_ns),
            "sim_us",
        ),
        (
            "apps.write_host_us.p50",
            span_p50(st, "write", Span::host_ns),
            "us",
        ),
        (
            "apps.write_sim_us.p50",
            span_p50(st, "write", Span::sim_ns),
            "sim_us",
        ),
        (
            "apps.read_host_us.p50",
            span_p50(st, "read", Span::host_ns),
            "us",
        ),
        (
            "apps.read_sim_us.p50",
            span_p50(st, "read", Span::sim_ns),
            "sim_us",
        ),
        (
            "apps.op_self_host_us.p50",
            span_p50(st, "op", |s| st.self_ns[&s.id]),
            "us",
        ),
        (
            "apps.op_host_us.p99",
            Some(both(&r.rec.host_ns).percentile(0.99) / 1e3),
            "us",
        ),
        ("bench.trace_overhead_frac", trace_overhead(r), "ratio"),
    ]
}

/// `1 − traced ops/s ÷ untraced ops/s` over the alternating chunks of the
/// traced run.
fn trace_overhead(r: &Run) -> Option<f64> {
    let [traced, untraced] = &r.rec.chunk_ns;
    (traced.count() > 0 && untraced.count() > 0)
        .then(|| 1.0 - ops_per_s(traced) / ops_per_s(untraced))
}

/// Cross-run determinism: the simulated results of a seed are kept beside
/// the executable, keyed by its size and modification time, and a later
/// run of the same seed and build must reproduce them exactly.
fn check_determinism(w: Workload, seed: u64, sim_facts: &str) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let meta = std::fs::metadata(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let mtime = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let record = format!("build {} {}\n{sim_facts}", meta.len(), mtime);
    let dir: PathBuf = exe
        .parent()
        .expect("executable has a directory")
        .join("perfbench-det");
    let path = dir.join(format!("{}-seed{seed}.txt", w.name()));
    if let Ok(prev) = std::fs::read_to_string(&path) {
        if prev == record {
            return Ok(());
        }
        if prev.lines().next() == record.lines().next() {
            let clip = |l: &str| l.chars().take(160).collect::<String>();
            let diff = prev.lines().zip(record.lines()).find(|(a, b)| a != b);
            return Err(format!(
                "simulated results of seed {seed} differ from an earlier run of this build \
                 ({}): before {:?}, now {:?}",
                path.display(),
                diff.map(|d| clip(d.0)),
                diff.map(|d| clip(d.1)),
            ));
        }
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &record).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &path).map_err(|e| format!("{}: {e}", path.display()))
}

fn fmt_value(v: Option<f64>) -> String {
    v.map_or("n/a".to_string(), |v| format!("{v:.4}"))
}

fn print_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            // JSON has no "not applicable" number: a layer the workload does
            // not use reads 0 here and n/a in the table above.
            let v = v.filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    println!(
        "perfbench {} seed {} for {} s, trace {} ({} host CPUs)",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let r = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            println!("FAILED: {e}");
            print_json(false, 1, 1, &[]);
            std::process::exit(1);
        }
    };
    let mut problems = Vec::new();
    if let Some(f) = &r.rec.first_failure {
        problems.push(format!("{} failed ops, first: {f}", r.failed));
    }
    if r.fingerprints.iter().any(|f| *f != r.fingerprints[0]) {
        problems.push(format!(
            "set-ups of one seed diverged: {:?}",
            r.fingerprints
        ));
    }
    // No workload injects loss, so the measured window must not retransmit.
    let window_retransmits = r.at_k.emp_retransmits - r.at_go.emp_retransmits;
    if window_retransmits > 0 {
        problems.push(format!(
            "{window_retransmits} EMP frames retransmitted in the loss-free window"
        ));
    }
    let attempted = r.rec.ops + r.failed;
    if r.rec.window_end_sim.is_none() {
        problems.push("the window's payload was never all verified".to_string());
        println!("FAILED: {}", problems.join("; "));
        print_json(false, attempted, r.failed.max(1), &[]);
        std::process::exit(1);
    }
    let e2e = end_to_end(&r);
    let sim_facts = {
        let sims: Vec<String> = r.rec.window_sim_ns.iter().map(u64::to_string).collect();
        format!(
            "setup {:?}\nwindow events {} bytes {} end {}\nop sim ns {}\n",
            r.fingerprints[0],
            r.at_k.events - r.at_go.events,
            r.rec.window_bytes,
            r.rec.window_end_sim.unwrap_or(0),
            sims.join(" ")
        )
    };
    if let Err(e) = check_determinism(w, args.seed, &sim_facts) {
        problems.push(e);
    }

    println!(
        "\nend-to-end ({} ops, {} in the deterministic window):",
        r.rec.ops,
        w.k()
    );
    for (name, v, unit) in &e2e {
        println!("  {name:<22} {:>14} {unit}", fmt_value(*v));
    }
    print_model_error(w, &e2e);
    println!(
        "EMP frames retransmitted: {} in set-up, {} in the window, {} after it",
        r.at_go.emp_retransmits,
        window_retransmits,
        r.at_end.emp_retransmits - r.at_k.emp_retransmits
    );

    let metrics = if args.trace {
        let probe_log = spans::SpanLog::new();
        probe_log.set_on(true);
        let p = run_probes(&probe_log);
        let mut all = r.spans.clone();
        all.extend(probe_log.take());
        let st = SpanStats {
            self_ns: spans::self_host_ns(&all),
            by_name: all.iter().fold(BTreeMap::new(), |mut m, s| {
                m.entry(s.name).or_insert_with(Vec::new).push(s);
                m
            }),
        };
        print_span_table(&st);
        let layer = per_layer(w, &r, &st, &p);
        println!("\nper-layer (n/a: the workload does not use the layer):");
        for (name, v, unit) in &layer {
            println!("  {name:<32} {:>14} {unit}", fmt_value(*v));
        }
        let exe_dir = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.to_path_buf()))
            .unwrap_or_default();
        let path = exe_dir
            .join("perfbench-spans")
            .join(format!("{}.jsonl", w.name()));
        match spans::write_jsonl(&path, &all) {
            Ok(()) => println!("\n{} spans written to {}", all.len(), path.display()),
            Err(e) => problems.push(format!("writing spans to {}: {e}", path.display())),
        }
        layer
    } else {
        e2e.into_iter()
            .filter(|(name, _, _)| *name != "failed_ops_frac")
            .collect()
    };

    let correct = problems.is_empty();
    for p in &problems {
        println!("FAILED: {p}");
    }
    print_json(correct, attempted, r.failed, &metrics);
    if !correct {
        std::process::exit(1);
    }
}

fn print_model_error(w: Workload, e2e: &[Metric]) {
    let get = |n: &str| {
        e2e.iter()
            .find(|m| m.0 == n)
            .and_then(|m| m.1)
            .unwrap_or(f64::NAN)
    };
    match w {
        Workload::Pingpong4b => {
            let one_way = get("sim_us_per_op.p50") / 2.0;
            println!(
                "model-error: 4 B one-way (DS_DA_UQ) modelled {one_way:.3} us | paper {PAPER_ONE_WAY_US} us ({:+.1}%) | BENCH_5 fig11 {BENCH5_FIG11_DS_DA_UQ_4B_US} us ({:+.3} us)",
                (one_way / PAPER_ONE_WAY_US - 1.0) * 100.0,
                one_way - BENCH5_FIG11_DS_DA_UQ_4B_US
            );
        }
        Workload::Stream64k => {
            let mbps = get("sim_goodput_mbps");
            println!(
                "model-error: 64 KiB stream goodput modelled {mbps:.1} Mbps | paper substrate peak >{PAPER_PEAK_MBPS} Mbps ({:+.1}%)",
                (mbps / PAPER_PEAK_MBPS - 1.0) * 100.0
            );
        }
        Workload::Web32 | Workload::Web32Tcp => println!(
            "model-error: the paper states no headline for this workload ({} connections, {} B responses)",
            workloads::WEB_CONNS,
            RESPONSE
        ),
    }
}

fn print_span_table(st: &SpanStats<'_>) {
    println!("\nspans (host µs; self = duration minus the part child spans cover):");
    println!(
        "  {:<18} {:>8} {:>12} {:>14} {:>14} {:>12}",
        "name", "count", "host p50", "host total", "self total", "sim p50"
    );
    for (name, xs) in &st.by_name {
        let total: u64 = xs.iter().map(|s| s.host_ns()).sum();
        let self_total: u64 = xs.iter().map(|s| st.self_ns[&s.id]).sum();
        println!(
            "  {name:<18} {:>8} {:>12.2} {:>14.1} {:>14.1} {:>12.2}",
            xs.len(),
            span_p50(st, name, Span::host_ns).unwrap_or(0.0),
            total as f64 / 1e3,
            self_total as f64 / 1e3,
            span_p50(st, name, Span::sim_ns).unwrap_or(0.0),
        );
    }
}

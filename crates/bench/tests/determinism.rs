//! Telemetry determinism: two same-seed runs of the standard `empstat`
//! workload must produce byte-identical registry contents — every
//! counter, gauge, histogram bucket, and sampled time-series point. Only
//! the `host.` namespace (wall-clock derived) is exempt, and
//! `deterministic_text` excludes it by construction.

use emp_bench::stat;

#[test]
fn same_seed_runs_produce_identical_registries() {
    let a = stat::run_standard_workload();
    let b = stat::run_standard_workload();
    let ta = a.snapshot.deterministic_text();
    let tb = b.snapshot.deterministic_text();
    assert!(!ta.is_empty(), "registry captured nothing");
    assert_eq!(
        ta, tb,
        "two identical runs diverged in telemetry (non-host namespaces)"
    );
    // The sim-time results are bit-equal too, not merely close.
    assert_eq!(a.pingpong_us.to_bits(), b.pingpong_us.to_bits());
    assert_eq!(a.web.requests, b.web.requests);
    assert_eq!(a.web.elapsed_us.to_bits(), b.web.elapsed_us.to_bits());
    assert_eq!(a.web_completion.requests, b.web_completion.requests);
    assert_eq!(
        a.web_completion.elapsed_us.to_bits(),
        b.web_completion.elapsed_us.to_bits()
    );
}

#[test]
fn completion_model_runs_are_deterministic() {
    // The completion model's own determinism guard: two same-seed
    // ring-served webserver runs on fresh sims produce byte-identical
    // telemetry (ring depth series included) and bit-equal results.
    use emp_apps::webserver;
    use emp_apps::ServerModel;
    use emp_apps::Testbed;
    use simnet::{Sim, SimAccess};

    let run = || {
        let sim = Sim::new();
        let tb = Testbed::emp_default(3);
        let r = webserver::concurrent_throughput_on(&sim, &tb, ServerModel::Completion, 8, 6, 512);
        let reg = sim.telemetry();
        reg.sample_now(sim.now().nanos());
        (r, reg.snapshot().deterministic_text())
    };
    let (ra, ta) = run();
    let (rb, tb) = run();
    assert!(
        ta.contains("series ring."),
        "ring depth series missing from the registry"
    );
    assert_eq!(ta, tb, "completion-model telemetry diverged");
    assert_eq!(ra.requests, rb.requests);
    assert_eq!(ra.elapsed_us.to_bits(), rb.elapsed_us.to_bits());
}

#[test]
fn deterministic_text_covers_all_sections() {
    let run = stat::run_standard_workload();
    let text = run.snapshot.deterministic_text();
    assert!(text.contains("hist app.rtt_ns "), "missing RTT histogram");
    assert!(
        text.contains("hist emp.msg_latency_ns "),
        "missing per-message latency histogram"
    );
    assert!(text.contains("series "), "missing sampled series");
    assert!(
        !text.contains("host."),
        "wall-clock namespace leaked into the deterministic rendering"
    );
    // The host namespace is still present in the full snapshot.
    assert!(run.snapshot.series.contains_key("host.wall_us_per_sim_s"));
}

//! The traced run: the workload's own replay with a span around every call
//! into a public function, then the per-layer probes. Every traced run
//! reports every per-layer metric, each with the end-to-end metric (and
//! workload) it should move.

use crate::spans::Tracer;
use crate::util::{median, median_secs, percentile, RamFile, Tally};
use crate::{factorize, serve, simgrid, Report};
use hetchol::job::JobSpec;
use hetchol_analyze::{Linter, QueueDiscipline};
use hetchol_bounds::BoundSet;
use hetchol_core::fault::IoFaultPlan;
use hetchol_core::json::parse_json;
use hetchol_core::obs::ObsSink;
use hetchol_core::platform::Platform;
use hetchol_core::profiles::TimingProfile;
use hetchol_core::TaskGraph;
use hetchol_sched::registry;
use hetchol_serve::pool::{ServerState, StateOptions};
use hetchol_serve::store::StoredJob;
use hetchol_serve::wal::{JobLog, WalRecord};
use hetchol_sim::{simulate_with, SimOptions};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Every per-layer metric: name, unit, and what it should move.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    (
        "core.dag.build_ms",
        "ms",
        "ops_per_s, latency_p50_ms on sim-grid",
    ),
    (
        "core.dag.tasks",
        "count",
        "ops_per_s, latency_p50_ms on sim-grid",
    ),
    ("sim.ns_per_task", "ns", "ops_per_s on sim-grid"),
    ("sched.scan_ns_per_task", "ns", "ops_per_s on sim-grid"),
    (
        "core.exec.dmdas_tax",
        "ratio",
        "ops_per_s, latency_p99_ms on sim-grid; none on serve",
    ),
    (
        "core.exec.queue_depth_max",
        "count",
        "ops_per_s, latency_p99_ms on sim-grid; none on serve",
    ),
    ("sim.comm_ns_per_task", "ns", "ops_per_s on sim-grid"),
    ("sim.transfers", "count", "ops_per_s on sim-grid"),
    (
        "core.obs.overhead_pct",
        "%",
        "ops_per_s on serve; none on sim-grid",
    ),
    (
        "core.obs.render_us_per_kb",
        "us/KB",
        "ops_per_s on serve; none on sim-grid",
    ),
    (
        "bounds.lp_ms",
        "ms",
        "setup_s on sim-grid, latency_p50_ms on serve",
    ),
    ("bounds.certify_ms", "ms", "latency_p99_ms on serve"),
    ("bounds.verify_ms", "ms", "latency_p99_ms on serve"),
    ("analyze.lint_ms", "ms", "latency_p99_ms on serve"),
    ("job.parse_us", "us", "latency_p50_ms on serve"),
    ("job.render_us", "us", "latency_p50_ms on serve"),
    (
        "core.json.parse_us_per_kb_8k",
        "us/KB",
        "setup_s, latency_p99_ms on serve",
    ),
    (
        "core.json.parse_us_per_kb_50k",
        "us/KB",
        "setup_s, latency_p99_ms on serve",
    ),
    ("serve.hit_p50_ms", "ms", "latency_p50_ms on serve"),
    ("serve.oneshot_extra_ms", "ms", "latency_p50_ms on serve"),
    (
        "serve.cache.results_hit_ratio",
        "ratio",
        "ops_per_s, ok_frac on serve",
    ),
    (
        "serve.cache.bounds_hit_ratio",
        "ratio",
        "ops_per_s, ok_frac on serve",
    ),
    (
        "serve.pool.batched_frac",
        "ratio",
        "ops_per_s, ok_frac on serve",
    ),
    ("serve.pool.sheds", "count", "ops_per_s, ok_frac on serve"),
    ("serve.wal.append_us", "us", "ops_per_s on serve"),
    (
        "serve.wal.append_disk_us",
        "us",
        "informational (disk fsync; never gated)",
    ),
    (
        "serve.store.reloads",
        "count",
        "latency_p99_ms, ops_per_s on serve",
    ),
    (
        "serve.wal.reload_ms",
        "ms",
        "latency_p99_ms, ops_per_s on serve",
    ),
    ("serve.wal.replay_s", "s", "setup_s on serve"),
    ("serve.wal.replay_records", "count", "setup_s on serve"),
    ("serve.wal.replay_mb", "MB", "setup_s on serve"),
    (
        "linalg.gemm_gflops",
        "GFLOP/s",
        "time of a real factorization (probe)",
    ),
    (
        "linalg.syrk_gflops",
        "GFLOP/s",
        "time of a real factorization (probe)",
    ),
    (
        "linalg.trsm_gflops",
        "GFLOP/s",
        "time of a real factorization (probe)",
    ),
    (
        "linalg.potrf_gflops",
        "GFLOP/s",
        "time of a real factorization (probe)",
    ),
    (
        "linalg.gemm_flops_per_byte",
        "flop/B",
        "time of a real factorization (probe; computed, not measured)",
    ),
    (
        "rt.idle_share",
        "ratio",
        "time and tail of a real factorization (probe)",
    ),
    (
        "rt.wakeups",
        "count",
        "time and tail of a real factorization (probe)",
    ),
    (
        "rt.speedup",
        "ratio",
        "time and tail of a real factorization (probe)",
    ),
    (
        "trace.ops_per_s",
        "1/s",
        "the traced replay's rate (beside the untraced ops_per_s)",
    ),
    (
        "trace.overhead_pct",
        "%",
        "span cost over the same replay with spans off",
    ),
];

pub fn moves(name: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, _, m)| *m)
}

type Metrics = Vec<(String, f64)>;

/// One traced run of `workload`: about a third of `seconds` of replay with
/// spans on and the same again with spans off, then every probe.
pub fn traced(workload: &str, seed: u64, seconds: f64) -> Report {
    let mut tally = Tally::default();
    let mut m: Metrics = Vec::new();
    let mut notes = Vec::new();
    let grid = simgrid::generate(seed);
    let serve_inputs = serve::generate(seed);
    let fact_inputs = factorize::generate(seed);
    notes.push(format!(
        "inputs: grid_hash={} serve_hash={} spd_hash={}",
        grid.hash, serve_inputs.hash, fact_inputs.hash
    ));
    // Four legs in ABBA order — traced, plain, plain, traced — over the
    // same ops, so a drift in machine speed cancels out of the overhead.
    let leg = seconds / 6.0;
    let mut t = Tracer::new();
    let replay = |t: &mut Tracer, ops: Option<usize>, tally: &mut Tally| match workload {
        "sim-grid" => simgrid::traced(t, &grid, leg, ops, tally),
        _ => serve::replay(t, &serve_inputs, leg, ops, tally),
    };
    let (done, ok_a, took_a) = replay(&mut t, None, &mut tally);
    let (_, _, plain_a) = replay(&mut Tracer::disabled(), Some(done), &mut tally);
    let (_, _, plain_b) = replay(&mut Tracer::disabled(), Some(done), &mut tally);
    let (_, ok_b, took_b) = replay(&mut t, Some(done), &mut tally);
    let (took, plain) = (took_a + took_b, plain_a + plain_b);
    m.push(("trace.ops_per_s".into(), (ok_a + ok_b) as f64 / took));
    m.push(("trace.overhead_pct".into(), (took / plain - 1.0) * 100.0));
    notes.push(format!(
        "traced replay: ops=2x{done} traced_s={took:.4} untraced_s={plain:.4} spans={}",
        t.spans().len()
    ));
    // Per-layer self time and calls of this workload's replay. Notes, not
    // metrics: a layer the workload never calls would read 0 every run.
    for (layer, (self_s, calls)) in t.per_layer() {
        notes.push(format!(
            "span {layer}: self_ms={:.3} calls={calls}",
            self_s * 1e3
        ));
    }
    let dump = crate::util::run_dir().join(format!("spans-{workload}-{seed}.tsv"));
    if let Err(e) = t.write_to(&dump) {
        tally.record(Err(format!("writing {}: {e}", dump.display())));
    } else {
        notes.push(format!("spans written to {}", dump.display()));
    }
    drop(t);

    dag_probe(&grid, &mut m);
    engine_probe(&mut m);
    obs_probe(&mut m);
    bounds_probe(&grid, &serve_inputs, &mut m);
    job_probe(&serve_inputs, &mut m);
    json_probe(&mut m);
    serve_probe(&serve_inputs, &mut m, &mut tally, &mut notes);
    match factorize::setup(&fact_inputs) {
        Ok(prep) => factorize::probe(&fact_inputs, &prep, &mut m, &mut tally),
        Err(e) => tally.record(Err(e)),
    }

    let mut metrics = Vec::new();
    for &(name, unit, _) in PER_LAYER {
        match m.iter().find(|(n, _)| n == name) {
            Some(&(_, v)) => metrics.push((name.to_string(), v, unit)),
            None => tally.record(Err(format!("per-layer metric {name} was not measured"))),
        }
    }
    Report {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        metrics,
        notes,
    }
}

/// `Algorithm::graph` for every grid cell.
fn dag_probe(grid: &simgrid::Inputs, m: &mut Metrics) {
    let secs = median_secs(5, || {
        for spec in &grid.cells {
            black_box(spec.workload.graph(spec.n));
        }
    });
    let tasks: usize = grid.cells.iter().map(|s| s.workload.graph(s.n).len()).sum();
    m.push(("core.dag.build_ms".into(), secs * 1e3));
    m.push(("core.dag.tasks".into(), tasks as f64));
}

fn sim_once(graph: &TaskGraph, platform: &Platform, profile: &TimingProfile, sched: &str) -> f64 {
    let mut s = registry::build(sched, 0).expect("known scheduler");
    let t = Instant::now();
    black_box(simulate_with(
        graph,
        platform,
        profile,
        s.as_mut(),
        &SimOptions::default(),
        ObsSink::disabled(),
    ));
    t.elapsed().as_secs_f64()
}

/// Differential engine timings on one graph at the grid's largest size,
/// comm-free except for the comm leg; counts from obs-enabled passes.
fn engine_probe(m: &mut Metrics) {
    let graph = TaskGraph::cholesky(simgrid::LARGEST);
    let tasks = graph.len() as f64;
    let profile = TimingProfile::mirage();
    let nocomm = Platform::mirage().without_comm();
    let mirage = Platform::mirage();
    // Interleaved rounds, so a drift in machine speed hits every variant
    // alike; each figure is the median over rounds.
    let variants = [
        (&nocomm, "eager"),
        (&nocomm, "dmda"),
        (&nocomm, "dmdas"),
        (&mirage, "dmda"),
    ];
    let mut times = [const { Vec::new() }; 4];
    for _ in 0..7 {
        for (v, &(platform, sched)) in variants.iter().enumerate() {
            times[v].push(sim_once(&graph, platform, &profile, sched));
        }
    }
    let [eager, dmda, dmdas, dmda_comm] = times.map(|t| median(&t));
    m.push(("sim.ns_per_task".into(), eager / tasks * 1e9));
    m.push((
        "sched.scan_ns_per_task".into(),
        (dmda - eager) / tasks * 1e9,
    ));
    m.push(("core.exec.dmdas_tax".into(), dmdas / dmda));
    m.push((
        "sim.comm_ns_per_task".into(),
        (dmda_comm - dmda) / tasks * 1e9,
    ));
    let counters = |platform: &Platform, sched: &str| {
        let mut s = registry::build(sched, 0).expect("known scheduler");
        simulate_with(
            &graph,
            platform,
            &profile,
            s.as_mut(),
            &SimOptions::default(),
            ObsSink::enabled(),
        )
        .obs
        .counters
    };
    let depth = counters(&nocomm, "dmdas")
        .max_queue_depth
        .into_iter()
        .max()
        .unwrap_or(0);
    m.push(("core.exec.queue_depth_max".into(), depth as f64));
    m.push((
        "sim.transfers".into(),
        counters(&mirage, "dmda").transfers as f64,
    ));
}

/// Obs enabled vs disabled at n = 32 dmdas, and Chrome-trace rendering.
fn obs_probe(m: &mut Metrics) {
    let graph = TaskGraph::cholesky(32);
    let platform = Platform::mirage();
    let profile = TimingProfile::mirage();
    let run = |obs: bool| {
        let mut s = registry::build("dmdas", 0).expect("known scheduler");
        let sink = if obs {
            ObsSink::enabled()
        } else {
            ObsSink::disabled()
        };
        simulate_with(
            &graph,
            &platform,
            &profile,
            s.as_mut(),
            &SimOptions::default(),
            sink,
        )
    };
    let mut off = Vec::new();
    let mut on = Vec::new();
    for _ in 0..9 {
        let t = Instant::now();
        black_box(run(false));
        off.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(run(true));
        on.push(t.elapsed().as_secs_f64());
    }
    m.push((
        "core.obs.overhead_pct".into(),
        (median(&on) / median(&off) - 1.0) * 100.0,
    ));
    let report = run(true).obs;
    let kb = report.to_chrome_trace().len() as f64 / 1024.0;
    let secs = median_secs(5, || {
        black_box(report.to_chrome_trace());
    });
    m.push(("core.obs.render_us_per_kb".into(), secs * 1e6 / kb));
}

/// The f64 bound table per entry, and exact certification + checking at
/// the serve workload's certify sizes.
fn bounds_probe(grid: &simgrid::Inputs, serve_inputs: &serve::Inputs, m: &mut Metrics) {
    let entries = simgrid::bound_table(&grid.cells).len();
    let secs = median_secs(5, || {
        black_box(simgrid::bound_table(&grid.cells));
    });
    m.push(("bounds.lp_ms".into(), secs * 1e3 / entries as f64));
    let mut certify = Vec::new();
    let mut verify = Vec::new();
    for (class, shape) in &serve_inputs.shapes {
        if *class != serve::Class::Certify {
            continue;
        }
        let spec = &shape.spec;
        let (platform, profile) = (spec.platform.build(), spec.profile.build());
        let set = BoundSet::compute_algo(spec.workload, spec.n, &platform, &profile);
        let cert = set
            .certify(&platform, &profile)
            .expect("certifiable at serve sizes");
        certify.push(median_secs(3, || {
            black_box(set.certify(&platform, &profile).expect("certifiable"));
        }));
        verify.push(median_secs(3, || {
            black_box(cert.verify(&platform, &profile).expect("verifies"));
        }));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    m.push(("bounds.certify_ms".into(), mean(&certify) * 1e3));
    m.push(("bounds.verify_ms".into(), mean(&verify) * 1e3));
}

/// Lint of a serve lint-class result, spec parsing and outcome rendering.
fn job_probe(serve_inputs: &serve::Inputs, m: &mut Metrics) {
    let shapes: Vec<&serve::Shape> = serve_inputs
        .shapes
        .iter()
        .filter(|(c, _)| *c == serve::Class::Lint)
        .map(|(_, s)| s)
        .collect();
    let mut lint = Vec::new();
    for shape in &shapes {
        let spec = &shape.spec;
        let run = spec.run().expect("valid lint spec");
        let sim = run.sim.as_ref().expect("lint jobs simulate");
        let set = run.bounds.clone().expect("lint jobs compute bounds");
        let (platform, profile) = (spec.platform.build(), spec.profile.build());
        let graph = spec.workload.graph(spec.n);
        let sorted = registry::build(&spec.scheduler, spec.seed)
            .expect("known")
            .sorted_queues();
        lint.push(median_secs(5, || {
            let discipline = if sorted {
                QueueDiscipline::Sorted
            } else {
                QueueDiscipline::Fifo
            };
            let linter = Linter::new(&graph, &platform, &profile)
                .with_queue_discipline(discipline)
                .with_bounds(set.clone())
                .with_obs(&sim.obs);
            black_box(linter.lint_trace(&sim.trace));
        }));
    }
    m.push(("analyze.lint_ms".into(), median(&lint) * 1e3));

    let bodies: Vec<String> = serve_inputs
        .ops
        .iter()
        .filter(|op| {
            !matches!(
                op.class,
                serve::Class::TraceResident | serve::Class::TraceReload
            )
        })
        .take(2000)
        .map(|op| match op.class {
            serve::Class::Hit | serve::Class::HitOneShot => serve_inputs.hit_pool[op.arg].clone(),
            _ => serve_inputs.shapes[op.arg].1.with_seed(op.seed).to_json(),
        })
        .collect();
    let parse = median_secs(5, || {
        for b in &bodies {
            black_box(JobSpec::from_json(b).expect("parses"));
        }
    });
    m.push(("job.parse_us".into(), parse * 1e6 / bodies.len() as f64));
    let outcomes: Vec<_> = serve_inputs
        .shapes
        .iter()
        .map(|(_, s)| s.outcome.clone())
        .collect();
    let render = median_secs(5, || {
        for _ in 0..20 {
            for o in &outcomes {
                black_box(o.to_json());
            }
        }
    });
    m.push((
        "job.render_us".into(),
        render * 1e6 / (20 * outcomes.len()) as f64,
    ));
}

/// A job-log record payload whose size is nearest `target` bytes: an obs
/// Cholesky trace at the size in tiles that gets closest.
fn payload_near(target: usize) -> String {
    (2..=12)
        .map(|n| {
            let mut spec = JobSpec::new("cholesky", n)
                .expect("known")
                .scheduler("dmdas");
            spec.obs = true;
            let run = spec.run().expect("valid");
            let job = StoredJob::fresh(1, spec, run.outcome, run.sim);
            job.wal_record().to_payload()
        })
        .min_by_key(|p| p.len().abs_diff(target))
        .expect("non-empty range")
}

/// `core::json` parse cost per KB at about 8 KB and about 50 KB.
fn json_probe(m: &mut Metrics) {
    for (name, target) in [
        ("core.json.parse_us_per_kb_8k", 8 * 1024),
        ("core.json.parse_us_per_kb_50k", 50 * 1024),
    ] {
        let payload = payload_near(target);
        let secs = median_secs(5, || {
            black_box(parse_json(&payload).expect("payload parses"));
        });
        m.push((name.into(), secs * 1e6 / (payload.len() as f64 / 1024.0)));
    }
}

/// The job log and a short live run of the serve workload's closed loop.
fn serve_probe(
    inputs: &serve::Inputs,
    m: &mut Metrics,
    tally: &mut Tally,
    notes: &mut Vec<String>,
) {
    let restart =
        RamFile::with_bytes("restart.wal", &inputs.restart_log).expect("a RAM-backed log");
    let t = Instant::now();
    let (log, records, report) =
        JobLog::open(restart.path(), &IoFaultPlan::none()).expect("open the restart log");
    m.push(("serve.wal.replay_s".into(), t.elapsed().as_secs_f64()));
    m.push(("serve.wal.replay_records".into(), report.recovered as f64));
    m.push((
        "serve.wal.replay_mb".into(),
        report.valid_bytes as f64 / (1024.0 * 1024.0),
    ));
    // `JobStore::get` of recovered ids: each first fetch reloads from the log.
    let ids: Vec<u64> = records.iter().take(200).map(|r| r.record.id).collect();
    let state = ServerState::with_options(StateOptions {
        log: Some(Arc::new(log)),
        ..StateOptions::default()
    });
    state.store.recover(&records);
    drop(records);
    let mut reloads = Vec::new();
    for &id in &ids {
        let t = Instant::now();
        black_box(state.store.get(id).expect("recovered ids reload"));
        reloads.push(t.elapsed().as_secs_f64());
    }
    m.push(("serve.wal.reload_ms".into(), median(&reloads) * 1e3));
    drop(state);

    // One commit-class record, appended to a RAM-backed log and to a log
    // file on disk.
    let shape = &inputs.shapes[0].1;
    let spec = shape.with_seed(7);
    let run = spec.run().expect("valid");
    let record: WalRecord = StoredJob::fresh(1, spec, run.outcome, run.sim).wal_record();
    let append_us = |path: &std::path::Path| {
        let (log, _, _) = JobLog::open(path, &IoFaultPlan::none()).expect("open a fresh log");
        let times: Vec<f64> = (0..100)
            .map(|_| {
                let t = Instant::now();
                log.append(&record).expect("append");
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&times) * 1e6
    };
    let ram = RamFile::with_bytes("append.wal", &[]).expect("a RAM-backed log");
    m.push(("serve.wal.append_us".into(), append_us(ram.path())));
    let disk = crate::util::run_dir().join(format!("append-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&disk);
    m.push(("serve.wal.append_disk_us".into(), append_us(&disk)));
    let _ = std::fs::remove_file(&disk);

    // The live closed loop, briefly: class latencies and server counters.
    let out = serve::run_with(inputs, 1.5, 1);
    tally.merge(out.tally);
    let class_p50 = |c: serve::Class| {
        out.by_class
            .iter()
            .find(|(k, _)| *k == c)
            .filter(|(_, v)| !v.is_empty())
            .map_or(0.0, |(_, v)| {
                let mut v = v.clone();
                v.sort_by(f64::total_cmp);
                percentile(&v, 50.0)
            })
    };
    let hit = class_p50(serve::Class::Hit);
    m.push(("serve.hit_p50_ms".into(), hit * 1e3));
    m.push((
        "serve.oneshot_extra_ms".into(),
        (class_p50(serve::Class::HitOneShot) - hit) * 1e3,
    ));
    let s = out.stats.expect("the probe server ran");
    let ratio = |hits: u64, gets: u64| hits as f64 / gets.max(1) as f64;
    m.push((
        "serve.cache.results_hit_ratio".into(),
        ratio(s.results_hits, s.results_gets),
    ));
    m.push((
        "serve.cache.bounds_hit_ratio".into(),
        ratio(s.bounds_hits, s.bounds_gets),
    ));
    m.push((
        "serve.pool.batched_frac".into(),
        ratio(s.batched, s.submitted),
    ));
    m.push(("serve.pool.sheds".into(), s.sheds as f64));
    m.push(("serve.store.reloads".into(), s.reloads as f64));
    notes.push(format!(
        "serve probe: ops={} results {}/{} bounds {}/{} batched {}/{} reloads {}",
        out.latencies.len(),
        s.results_hits,
        s.results_gets,
        s.bounds_hits,
        s.bounds_gets,
        s.batched,
        s.submitted,
        s.reloads
    ));
}

//! `repro bench`: the committed performance baseline of the data-oriented
//! execution core (DESIGN.md §13).
//!
//! The harness times three engines over the same Cholesky DAGs:
//!
//! * `sim` — the arena engine ([`hetchol_sim::simulate_with`]): SoA task
//!   arena, ring-buffer worker queues, calendar event queue;
//! * `sim-reference` — the frozen pre-refactor engine
//!   ([`hetchol_sim::reference::simulate_reference`]), kept in-tree as the
//!   *before* leg so both legs of the committed baseline come from the
//!   same harness on the same machine;
//! * `rt` — the threaded runtime retiring no-op tasks, which inherits the
//!   arena layout through the shared `core::exec` structures.
//!
//! Output is the `hetchol-bench/v1` JSON committed as
//! `BENCH_sim_throughput.json`; `repro bench-check` re-validates that file
//! against a fresh run and fails CI when sim tasks/sec regresses by more
//! than 30%.

use std::fmt::Write as _;
use std::time::Instant;

use hetchol_core::dag::TaskGraph;
use hetchol_core::json::{parse_json, JsonValue};
use hetchol_core::obs::ObsSink;
use hetchol_core::platform::Platform;
use hetchol_core::profiles::TimingProfile;
use hetchol_sim::reference::simulate_reference;
use hetchol_sim::{simulate_with, SimOptions};

use crate::{SchedKind, PAPER_SIZES};

/// Schema tag of the benchmark JSON (validated by [`bench_check`]).
pub const BENCH_SCHEMA: &str = "hetchol-bench/v1";

/// CI regression gate: fail when fresh tasks/sec drops below this fraction
/// of the committed value (ISSUE: "regresses more than 30%").
pub const REGRESSION_FLOOR: f64 = 0.7;

/// One measured (engine, scheduler, size) cell.
#[derive(Clone, Debug)]
pub struct BenchLeg {
    /// `"sim"`, `"sim-reference"` or `"rt"`.
    pub engine: &'static str,
    /// Scheduler label (`"dmda"` / `"dmdas"`).
    pub scheduler: String,
    /// Matrix size in tiles.
    pub n: usize,
    /// Tasks in the DAG (retired once per repetition).
    pub tasks: usize,
    /// Repetitions timed (fresh scheduler per repetition), after one
    /// untimed warm-up run.
    pub reps: u32,
    /// Total wall time over all timed repetitions, seconds.
    pub wall_s: f64,
    /// `tasks / best_rep_s` — the headline metric, computed from the
    /// fastest repetition so scheduler noise and cold caches on a shared
    /// machine don't masquerade as engine regressions.
    pub tasks_per_sec: f64,
    /// Simulated makespan in ns; `None` for the wall-clock `rt` engine.
    /// `sim` and `sim-reference` must agree bit-for-bit — the harness
    /// panics otherwise rather than publish numbers from diverged engines.
    pub makespan_ns: Option<u64>,
}

/// Arena-vs-reference throughput ratio at one (scheduler, n) cell.
#[derive(Clone, Debug)]
pub struct Speedup {
    /// Scheduler label.
    pub scheduler: String,
    /// Matrix size in tiles.
    pub n: usize,
    /// `sim` tasks/sec over `sim-reference` tasks/sec.
    pub factor: f64,
}

/// Wall time of the full paper sweep (every size × dmda/dmdas) per engine.
#[derive(Clone, Debug)]
pub struct SweepTiming {
    /// Sizes swept.
    pub sizes: Vec<usize>,
    /// Arena engine wall time, seconds.
    pub arena_s: f64,
    /// Reference engine wall time, seconds.
    pub reference_s: f64,
}

/// Observability overhead: the same run with hooks disabled vs enabled.
#[derive(Clone, Debug)]
pub struct ObsOverhead {
    /// Matrix size in tiles.
    pub n: usize,
    /// Repetitions per arm.
    pub reps: u32,
    /// Fastest repetition with `ObsSink::disabled()`, seconds.
    pub disabled_s: f64,
    /// Fastest repetition with `ObsSink::enabled()`, seconds.
    pub enabled_s: f64,
    /// `(enabled - disabled) / disabled * 100`.
    pub overhead_pct: f64,
}

/// Everything `repro bench` measures.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Whether this was the CI smoke leg (`--quick`).
    pub quick: bool,
    /// The (engine, scheduler, n) matrix.
    pub legs: Vec<BenchLeg>,
    /// Arena-vs-reference ratios derived from `legs`.
    pub speedups: Vec<Speedup>,
    /// Paper-sweep wall time per engine.
    pub sweep: SweepTiming,
    /// Hook-elision cost at the largest sim size.
    pub obs: ObsOverhead,
}

/// Run `f` once untimed (warm-up), then `reps` timed repetitions.
/// Returns `(total_s, best_s)`: the summed wall time and the fastest
/// single repetition.
fn time_reps<F: FnMut()>(reps: u32, mut f: F) -> (f64, f64) {
    f();
    let mut total_s = 0.0;
    let mut best_s = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        let dt = t0.elapsed().as_secs_f64();
        total_s += dt;
        best_s = best_s.min(dt);
    }
    (total_s, best_s)
}

/// Repetition counts scale down with DAG size so the full matrix stays
/// under a minute while every cell still runs long enough to time.
fn reps_for(engine: &str, n: usize, quick: bool) -> u32 {
    let base: u32 = match (engine, n) {
        ("rt", _) => 3,
        (_, 16) => 40,
        (_, 32) => 20,
        (_, 64) => 5,
        _ => 3,
    };
    if quick {
        base.div_ceil(4).max(1)
    } else {
        base
    }
}

fn sim_leg(
    engine: &'static str,
    kind: SchedKind,
    n: usize,
    platform: &Platform,
    profile: &TimingProfile,
    quick: bool,
) -> BenchLeg {
    let graph = TaskGraph::cholesky(n);
    let opts = SimOptions::default();
    let reps = reps_for(engine, n, quick);
    let mut makespan = None;
    let (wall_s, best_s) = time_reps(reps, || {
        let mut scheduler = kind.build(opts.seed);
        let r = if engine == "sim" {
            simulate_with(
                &graph,
                platform,
                profile,
                scheduler.as_mut(),
                &opts,
                ObsSink::disabled(),
            )
        } else {
            simulate_reference(
                &graph,
                platform,
                profile,
                scheduler.as_mut(),
                &opts,
                ObsSink::disabled(),
            )
        };
        makespan = Some(r.makespan.as_nanos());
    });
    BenchLeg {
        engine,
        scheduler: kind.label(),
        n,
        tasks: graph.len(),
        reps,
        wall_s,
        tasks_per_sec: graph.len() as f64 / best_s,
        makespan_ns: makespan,
    }
}

fn rt_leg(kind: SchedKind, n: usize, quick: bool) -> BenchLeg {
    let graph = TaskGraph::cholesky(n);
    let profile = TimingProfile::mirage_homogeneous();
    let n_workers = 4;
    let reps = reps_for("rt", n, quick);
    let workload = hetchol_rt::FnWorkload(|_| Ok::<(), std::convert::Infallible>(()));
    let (wall_s, best_s) = time_reps(reps, || {
        let mut scheduler = kind.build(0);
        hetchol_rt::execute_workload(
            &workload,
            &graph,
            scheduler.as_mut(),
            &profile,
            n_workers,
            ObsSink::disabled(),
        )
        .expect("no-op tasks cannot fail");
    });
    BenchLeg {
        engine: "rt",
        scheduler: kind.label(),
        n,
        tasks: graph.len(),
        reps,
        wall_s,
        tasks_per_sec: graph.len() as f64 / best_s,
        makespan_ns: None,
    }
}

fn sweep_wall(arena: bool, sizes: &[usize], platform: &Platform, profile: &TimingProfile) -> f64 {
    let (total_s, _) = time_reps(1, || {
        for &n in sizes {
            let graph = TaskGraph::cholesky(n);
            for kind in [SchedKind::Dmda, SchedKind::Dmdas] {
                let mut scheduler = kind.build(0);
                if arena {
                    simulate_with(
                        &graph,
                        platform,
                        profile,
                        scheduler.as_mut(),
                        &SimOptions::default(),
                        ObsSink::disabled(),
                    );
                } else {
                    simulate_reference(
                        &graph,
                        platform,
                        profile,
                        scheduler.as_mut(),
                        &SimOptions::default(),
                        ObsSink::disabled(),
                    );
                }
            }
        }
    });
    total_s
}

/// Run the full measurement matrix. `quick` is the CI smoke leg: fewer
/// repetitions and the small sizes only, but the same schema, so
/// [`bench_check`] can compare it leg-by-leg against the committed file.
pub fn bench_report(quick: bool) -> BenchReport {
    let platform = Platform::mirage().without_comm();
    let profile = TimingProfile::mirage();
    let sim_sizes: &[usize] = if quick { &[16, 32] } else { &[16, 32, 64, 96] };
    let rt_sizes: &[usize] = if quick { &[16] } else { &[16, 32] };

    let mut legs = Vec::new();
    for &n in sim_sizes {
        for kind in [SchedKind::Dmda, SchedKind::Dmdas] {
            let arena = sim_leg("sim", kind, n, &platform, &profile, quick);
            let reference = sim_leg("sim-reference", kind, n, &platform, &profile, quick);
            assert_eq!(
                arena.makespan_ns,
                reference.makespan_ns,
                "arena and reference engines diverged at {} n={n}",
                kind.label()
            );
            legs.push(arena);
            legs.push(reference);
        }
    }
    for &n in rt_sizes {
        legs.push(rt_leg(SchedKind::Dmda, n, quick));
    }

    let speedups = derive_speedups(&legs);

    let sweep_sizes: Vec<usize> = if quick {
        PAPER_SIZES.iter().copied().filter(|&n| n <= 16).collect()
    } else {
        PAPER_SIZES.to_vec()
    };
    let sweep = SweepTiming {
        arena_s: sweep_wall(true, &sweep_sizes, &platform, &profile),
        reference_s: sweep_wall(false, &sweep_sizes, &platform, &profile),
        sizes: sweep_sizes,
    };

    let obs_n = if quick { 16 } else { 32 };
    let obs_reps = if quick { 3 } else { 10 };
    let graph = TaskGraph::cholesky(obs_n);
    let arm = |enabled: bool| {
        let (_, best_s) = time_reps(obs_reps, || {
            let mut scheduler = SchedKind::Dmdas.build(0);
            simulate_with(
                &graph,
                &platform,
                &profile,
                scheduler.as_mut(),
                &SimOptions::default(),
                if enabled {
                    ObsSink::enabled()
                } else {
                    ObsSink::disabled()
                },
            );
        });
        best_s
    };
    let disabled_s = arm(false);
    let enabled_s = arm(true);
    let obs = ObsOverhead {
        n: obs_n,
        reps: obs_reps,
        disabled_s,
        enabled_s,
        overhead_pct: (enabled_s - disabled_s) / disabled_s * 100.0,
    };

    BenchReport {
        quick,
        legs,
        speedups,
        sweep,
        obs,
    }
}

fn derive_speedups(legs: &[BenchLeg]) -> Vec<Speedup> {
    legs.iter()
        .filter(|l| l.engine == "sim")
        .filter_map(|a| {
            legs.iter()
                .find(|r| r.engine == "sim-reference" && r.scheduler == a.scheduler && r.n == a.n)
                .map(|r| Speedup {
                    scheduler: a.scheduler.clone(),
                    n: a.n,
                    factor: a.tasks_per_sec / r.tasks_per_sec,
                })
        })
        .collect()
}

impl BenchReport {
    /// Render as the committed `hetchol-bench/v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"{BENCH_SCHEMA}\",");
        let _ = writeln!(out, "  \"quick\": {},", self.quick);
        let _ = writeln!(out, "  \"legs\": [");
        for (i, l) in self.legs.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"engine\": \"{}\", \"scheduler\": \"{}\", \"n\": {}, \"tasks\": {}, \
                 \"reps\": {}, \"wall_s\": {:.6}, \"tasks_per_sec\": {:.1}, \"makespan_ns\": {}}}{}",
                l.engine,
                l.scheduler,
                l.n,
                l.tasks,
                l.reps,
                l.wall_s,
                l.tasks_per_sec,
                l.makespan_ns
                    .map_or("null".to_string(), |m| m.to_string()),
                if i + 1 < self.legs.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"speedups\": [");
        for (i, s) in self.speedups.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"scheduler\": \"{}\", \"n\": {}, \"factor\": {:.2}}}{}",
                s.scheduler,
                s.n,
                s.factor,
                if i + 1 < self.speedups.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(
            out,
            "  \"sweep\": {{\"sizes\": [{}], \"arena_wall_s\": {:.6}, \"reference_wall_s\": {:.6}}},",
            self.sweep
                .sizes
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            self.sweep.arena_s,
            self.sweep.reference_s
        );
        let _ = writeln!(
            out,
            "  \"obs\": {{\"n\": {}, \"reps\": {}, \"disabled_s\": {:.6}, \"enabled_s\": {:.6}, \
             \"overhead_pct\": {:.2}}}",
            self.obs.n,
            self.obs.reps,
            self.obs.disabled_s,
            self.obs.enabled_s,
            self.obs.overhead_pct
        );
        out.push_str("}\n");
        out
    }

    /// Render as an aligned human-readable table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# Execution-core throughput ({})",
            if self.quick {
                "quick smoke leg"
            } else {
                "full matrix"
            }
        );
        let _ = writeln!(
            out,
            "{:>14} {:>6} {:>4} {:>8} {:>5} {:>10} {:>14}",
            "engine", "sched", "n", "tasks", "reps", "wall (s)", "tasks/sec"
        );
        for l in &self.legs {
            let _ = writeln!(
                out,
                "{:>14} {:>6} {:>4} {:>8} {:>5} {:>10.4} {:>14.0}",
                l.engine, l.scheduler, l.n, l.tasks, l.reps, l.wall_s, l.tasks_per_sec
            );
        }
        let _ = writeln!(out, "\n# Arena vs reference speedup (tasks/sec ratio)");
        for s in &self.speedups {
            let _ = writeln!(out, "{:>6} n={:<3} {:>6.1}x", s.scheduler, s.n, s.factor);
        }
        let _ = writeln!(
            out,
            "\n# Paper sweep (sizes {:?} x dmda/dmdas): arena {:.3}s, reference {:.3}s",
            self.sweep.sizes, self.sweep.arena_s, self.sweep.reference_s
        );
        let _ = writeln!(
            out,
            "# Obs overhead at n={}: disabled {:.4}s, enabled {:.4}s ({:+.1}%)",
            self.obs.n, self.obs.disabled_s, self.obs.enabled_s, self.obs.overhead_pct
        );
        out
    }
}

// ---------------------------------------------------------------------------
// bench-check: schema validation + regression gate
// ---------------------------------------------------------------------------

/// A leg as read back from a benchmark JSON file.
#[derive(Clone, Debug, PartialEq)]
pub struct LegView {
    /// Engine tag.
    pub engine: String,
    /// Scheduler label.
    pub scheduler: String,
    /// Matrix size in tiles.
    pub n: usize,
    /// Measured throughput.
    pub tasks_per_sec: f64,
}

fn num(v: &JsonValue, key: &str, ctx: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(JsonValue::Num(x)) => Ok(*x),
        Some(other) => Err(format!("{ctx}: `{key}` is not a number: {other:?}")),
        None => Err(format!("{ctx}: missing `{key}`")),
    }
}

fn string(v: &JsonValue, key: &str, ctx: &str) -> Result<String, String> {
    match v.get(key) {
        Some(JsonValue::Str(s)) => Ok(s.clone()),
        Some(other) => Err(format!("{ctx}: `{key}` is not a string: {other:?}")),
        None => Err(format!("{ctx}: missing `{key}`")),
    }
}

/// Parse and schema-validate a `hetchol-bench/v1` document, returning its
/// legs. Rejects wrong schema tags, missing fields, and wrong field types.
pub fn validate_bench_json(text: &str) -> Result<Vec<LegView>, String> {
    let doc = parse_json(text)?;
    let schema = string(&doc, "schema", "document")?;
    if schema != BENCH_SCHEMA {
        return Err(format!("schema is `{schema}`, expected `{BENCH_SCHEMA}`"));
    }
    let legs = match doc.get("legs") {
        Some(JsonValue::Arr(legs)) => legs,
        _ => return Err("document: missing `legs` array".to_string()),
    };
    if legs.is_empty() {
        return Err("document: `legs` is empty".to_string());
    }
    let mut out = Vec::new();
    for (i, leg) in legs.iter().enumerate() {
        let ctx = format!("legs[{i}]");
        let engine = string(leg, "engine", &ctx)?;
        if !matches!(engine.as_str(), "sim" | "sim-reference" | "rt") {
            return Err(format!("{ctx}: unknown engine `{engine}`"));
        }
        let tps = num(leg, "tasks_per_sec", &ctx)?;
        if !tps.is_finite() || tps <= 0.0 {
            return Err(format!("{ctx}: tasks_per_sec {tps} is not positive"));
        }
        // Required by the schema even though the gate doesn't use them.
        num(leg, "tasks", &ctx)?;
        num(leg, "reps", &ctx)?;
        num(leg, "wall_s", &ctx)?;
        out.push(LegView {
            engine,
            scheduler: string(leg, "scheduler", &ctx)?,
            n: num(leg, "n", &ctx)? as usize,
            tasks_per_sec: tps,
        });
    }
    // The committed baseline must carry both legs of the before/after story.
    for required in ["sim", "sim-reference"] {
        if !out.iter().any(|l| l.engine == required) {
            return Err(format!("document: no `{required}` legs"));
        }
    }
    Ok(out)
}

/// `repro bench-check <fresh> <committed>`: validate both documents
/// against the schema and fail any arena-engine cell whose fresh tasks/sec
/// fell below [`REGRESSION_FLOOR`] of the committed value. Returns the
/// rendered report and the failure count (the binary's exit code).
pub fn bench_check(fresh_text: &str, committed_text: &str) -> (String, usize) {
    let mut out = String::new();
    let fresh = match validate_bench_json(fresh_text) {
        Ok(legs) => legs,
        Err(e) => return (format!("fresh run: INVALID: {e}\n"), 1),
    };
    let committed = match validate_bench_json(committed_text) {
        Ok(legs) => legs,
        Err(e) => return (format!("committed baseline: INVALID: {e}\n"), 1),
    };
    let _ = writeln!(
        out,
        "schema ok: {} fresh leg(s), {} committed leg(s)",
        fresh.len(),
        committed.len()
    );
    let mut failures = 0usize;
    let mut compared = 0usize;
    for f in fresh.iter().filter(|l| l.engine == "sim") {
        let Some(c) = committed
            .iter()
            .find(|c| c.engine == f.engine && c.scheduler == f.scheduler && c.n == f.n)
        else {
            continue;
        };
        compared += 1;
        let ratio = f.tasks_per_sec / c.tasks_per_sec;
        let ok = ratio >= REGRESSION_FLOOR;
        if !ok {
            failures += 1;
        }
        let _ = writeln!(
            out,
            "{:>6} n={:<3} fresh {:>12.0} vs committed {:>12.0} tasks/sec ({:>5.2}x) {}",
            f.scheduler,
            f.n,
            f.tasks_per_sec,
            c.tasks_per_sec,
            ratio,
            if ok { "ok" } else { "REGRESSION" }
        );
    }
    if compared == 0 {
        let _ = writeln!(out, "no comparable sim legs between the two files");
        failures += 1;
    }
    let _ = writeln!(out, "{compared} cell(s) compared, {failures} failure(s)");
    (out, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_round_trips_schema() {
        let report = bench_report(true);
        let json = report.to_json();
        let legs = validate_bench_json(&json).expect("fresh JSON validates");
        assert_eq!(legs.len(), report.legs.len());
        assert!(legs.iter().any(|l| l.engine == "sim" && l.n == 32));
        assert!(legs.iter().any(|l| l.engine == "rt"));
        assert!(!report.to_table().is_empty());
        // The harness itself asserts makespan equality per cell; the
        // derived speedups must cover every sim leg.
        assert_eq!(
            report.speedups.len(),
            report.legs.iter().filter(|l| l.engine == "sim").count()
        );
    }

    #[test]
    fn bench_check_flags_regressions_and_bad_schema() {
        let report = bench_report(true);
        let json = report.to_json();
        let (_, failures) = bench_check(&json, &json);
        assert_eq!(failures, 0, "a file never regresses against itself");

        // A committed baseline 10x faster than the fresh run must fail.
        let inflated = json.replace("\"tasks_per_sec\": ", "\"tasks_per_sec\": 1");
        let (out, failures) = bench_check(&json, &inflated);
        assert!(failures > 0, "10x inflation must trip the gate:\n{out}");

        let (_, failures) = bench_check("{\"schema\": \"wrong\"}", &json);
        assert_eq!(failures, 1);
        assert!(validate_bench_json("{}").is_err());
        assert!(validate_bench_json("not json").is_err());
    }
}

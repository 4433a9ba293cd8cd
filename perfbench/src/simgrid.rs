//! `sim-grid`: the paper's grid as a researcher regenerates its figures —
//! one `JobSpec::run` per cell, in-process, on one thread, obs off.

use crate::spans::Tracer;
use crate::util::{median, setup_note, CpuTicks, Rng, Tally};
use hetchol::job::{dispatch_simulate, JobSpec, PlatformSpec};
use hetchol_bounds::BoundSet;
use hetchol_core::algorithm::Algorithm;
use hetchol_core::hash::{hash_hex, ContentHasher};
use hetchol_core::obs::ObsSink;
use hetchol_core::time::Time;
use hetchol_sched::registry;
use hetchol_sim::SimOptions;
use std::hint::black_box;
use std::time::Instant;

/// The paper's matrix sizes in tiles.
pub const PAPER_SIZES: [usize; 8] = [4, 8, 12, 16, 20, 24, 28, 32];

/// The grid's largest size (its scale tail).
pub const LARGEST: usize = 64;

/// The scale tail (cells above the paper's sizes) runs on every
/// `TAIL_EVERY`-th pass only: the p99 rank then falls inside the paper's
/// grid, not on the two largest cells, whose latencies spread twice as
/// much from run to run as the rest of the grid's.
pub const TAIL_EVERY: usize = 8;

/// How many times a run sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 9;

pub struct Inputs {
    pub cells: Vec<JobSpec>,
    pub hash: String,
}

/// The grid for one seed: the seed picks each cell's RNG seed (random
/// scheduler, jitter), each triangle cell's `k`, and the cell order.
pub fn generate(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let mut cells = Vec::new();
    let cell = |workload: &str, n: usize, sched: String, platform: PlatformSpec, jitter| {
        let mut spec = JobSpec::new(workload, n)
            .expect("known workload")
            .scheduler(sched);
        spec.platform = platform;
        spec.jitter = jitter;
        spec
    };
    for &n in &PAPER_SIZES {
        for platform in [PlatformSpec::Mirage, PlatformSpec::MirageNoComm] {
            for sched in ["random", "dmda", "dmdas", "triangle"] {
                let name = if sched == "triangle" {
                    format!("triangle:{}", 1 + rng.below(n / 2))
                } else {
                    sched.to_string()
                };
                cells.push(cell("cholesky", n, name, platform, false));
            }
        }
    }
    for n in [8, 16, 24, 32] {
        for sched in ["dmda", "dmdas"] {
            cells.push(cell(
                "cholesky",
                n,
                sched.into(),
                PlatformSpec::Mirage,
                true,
            ));
        }
    }
    for workload in ["lu", "qr"] {
        for n in [8, 12] {
            cells.push(cell(
                workload,
                n,
                "dmdas".into(),
                PlatformSpec::Mirage,
                false,
            ));
        }
    }
    for n in [48, LARGEST] {
        cells.push(cell(
            "cholesky",
            n,
            "dmdas".into(),
            PlatformSpec::Mirage,
            false,
        ));
    }
    for spec in &mut cells {
        spec.seed = rng.next_u64() >> 11;
    }
    rng.shuffle(&mut cells);
    let mut hash = ContentHasher::new();
    for spec in &cells {
        hash.write_str(&spec.to_json());
    }
    Inputs {
        cells,
        hash: hash_hex(hash.finish()),
    }
}

/// What set-up produces: one bound set per distinct (algorithm, n,
/// platform), and each cell's warm-up makespan.
pub struct Prepared {
    pub bounds: Vec<((Algorithm, usize, PlatformSpec), BoundSet)>,
    pub warm: Vec<Time>,
}

impl Prepared {
    pub fn bound_for(&self, spec: &JobSpec) -> &BoundSet {
        let key = (spec.workload, spec.n, spec.platform);
        &self
            .bounds
            .iter()
            .find(|(k, _)| *k == key)
            .expect("every cell has a bound entry")
            .1
    }
}

pub fn bound_table(cells: &[JobSpec]) -> Vec<((Algorithm, usize, PlatformSpec), BoundSet)> {
    let mut table: Vec<((Algorithm, usize, PlatformSpec), BoundSet)> = Vec::new();
    for spec in cells {
        let key = (spec.workload, spec.n, spec.platform);
        if table.iter().all(|(k, _)| *k != key) {
            let set = BoundSet::compute_algo(
                spec.workload,
                spec.n,
                &spec.platform.build(),
                &spec.profile.build(),
            );
            table.push((key, set));
        }
    }
    table
}

fn run_cell(spec: &JobSpec) -> Result<Time, String> {
    let run = spec.run().map_err(|e| format!("{}: {e}", spec.to_json()))?;
    run.outcome
        .makespan
        .ok_or_else(|| format!("{}: no makespan", spec.to_json()))
}

/// Set up once: the bound table plus a warm-up pass over every cell.
pub fn setup(cells: &[JobSpec]) -> Result<Prepared, String> {
    let bounds = bound_table(cells);
    let warm = cells.iter().map(run_cell).collect::<Result<Vec<_>, _>>()?;
    Ok(Prepared { bounds, warm })
}

/// The oracle for one cell: its makespan equals the warm-up value, and a
/// deterministic cell is never below its lower bound.
pub fn check_cell(spec: &JobSpec, got: Time, warm: Time, bound: &BoundSet) -> Result<(), String> {
    if got != warm {
        return Err(format!(
            "makespan {} ns differs from warm-up {} ns for {}",
            got.as_nanos(),
            warm.as_nanos(),
            spec.to_json()
        ));
    }
    if !spec.jitter && got < bound.best() {
        return Err(format!(
            "makespan {} ns below the lower bound {} ns for {}",
            got.as_nanos(),
            bound.best().as_nanos(),
            spec.to_json()
        ));
    }
    Ok(())
}

/// Mean over cells of the best lower bound over the simulated makespan.
pub fn bound_ratio(cells: &[JobSpec], prep: &Prepared) -> f64 {
    let sum: f64 = cells
        .iter()
        .zip(&prep.warm)
        .map(|(spec, m)| prep.bound_for(spec).best().as_secs_f64() / m.as_secs_f64())
        .sum();
    sum / cells.len() as f64
}

pub struct Outcome {
    pub tally: Tally,
    pub latencies: Vec<f64>,
    pub phase_s: f64,
    pub setup_s: f64,
    pub bound_ratio: f64,
    pub passes: usize,
    pub notes: Vec<String>,
}

/// One timed set-up; a failure or a warm-up that disagrees with `first`
/// is a failed check.
fn timed_setup(
    cells: &[JobSpec],
    first: Option<&Prepared>,
    tally: &mut Tally,
) -> (f64, Option<Prepared>) {
    let t = Instant::now();
    let p = setup(cells);
    let secs = t.elapsed().as_secs_f64();
    match (p, first) {
        (Err(e), _) => {
            tally.record(Err(format!("set-up failed: {e}")));
            (secs, None)
        }
        (Ok(p), Some(first)) if p.warm != first.warm => {
            tally.record(Err("two warm-up passes disagree".into()));
            (secs, None)
        }
        (Ok(p), _) => (secs, Some(p)),
    }
}

/// The untraced run: set up, then whole groups of `TAIL_EVERY` passes
/// over the grid until `seconds` of op time have gone by. The machine's
/// speed drifts over seconds, so the other `SETUP_REPS - 1` set-ups are
/// spread evenly through the timed phase (outside its clock) and
/// `setup_s` is the median of all of them.
pub fn run(inputs: &Inputs, seconds: f64) -> Outcome {
    let mut tally = Tally::default();
    let ticks = CpuTicks::now();
    let (first_s, prep) = timed_setup(&inputs.cells, None, &mut tally);
    let mut setup_times = vec![first_s];
    let Some(prep) = prep else {
        return Outcome {
            tally,
            latencies: Vec::new(),
            phase_s: 1.0,
            setup_s: first_s,
            bound_ratio: 0.0,
            passes: 0,
            notes: Vec::new(),
        };
    };

    let mut latencies = Vec::new();
    let mut phase = 0.0;
    let mut passes = 0;
    let largest_paper_size = PAPER_SIZES[PAPER_SIZES.len() - 1];
    let setup_every = seconds / (SETUP_REPS - 1) as f64;
    while phase < seconds || passes % TAIL_EVERY != 0 {
        let with_tail = passes % TAIL_EVERY == 0;
        for (spec, &warm) in inputs.cells.iter().zip(&prep.warm) {
            if spec.n > largest_paper_size && !with_tail {
                continue;
            }
            let t = Instant::now();
            let got = run_cell(spec);
            let dt = t.elapsed().as_secs_f64();
            phase += dt;
            latencies.push(dt);
            tally.record(got.and_then(|m| check_cell(spec, m, warm, prep.bound_for(spec))));
        }
        passes += 1;
        if setup_times.len() < SETUP_REPS && phase >= setup_every * setup_times.len() as f64 {
            setup_times.push(timed_setup(&inputs.cells, Some(&prep), &mut tally).0);
        }
    }
    while setup_times.len() < SETUP_REPS {
        setup_times.push(timed_setup(&inputs.cells, Some(&prep), &mut tally).0);
    }
    let notes = vec![setup_note(&setup_times), ticks.steal_note()];
    Outcome {
        tally,
        latencies,
        phase_s: phase,
        setup_s: median(&setup_times),
        bound_ratio: bound_ratio(&inputs.cells, &prep),
        passes,
        notes,
    }
}

pub fn report(seed: u64, seconds: f64) -> crate::Report {
    let inputs = generate(seed);
    let out = run(&inputs, seconds);
    let e2e = crate::util::EndToEnd {
        ok_ops: out.tally.ok(),
        phase_s: out.phase_s,
        latencies: out.latencies,
        ok_frac: out.tally.ok_frac(),
        setup_s: out.setup_s,
        bound_ratio: out.bound_ratio,
    };
    let mut notes = vec![format!(
        "inputs: hash={} cells={}",
        inputs.hash,
        inputs.cells.len()
    )];
    notes.extend(out.notes);
    notes.push(format!(
        "phase: passes={} ops={} samples_beyond_p99={}",
        out.passes,
        e2e.latencies.len(),
        crate::util::beyond(e2e.latencies.len(), 99.0)
    ));
    crate::Report {
        attempted: out.tally.attempted,
        failed: out.tally.failed,
        failures: out.tally.failures,
        metrics: e2e.metrics(),
        notes,
    }
}

/// One cell through the public functions `JobSpec::run` composes, each in
/// its own span.
pub fn traced_cell(t: &mut Tracer, op: u64, spec: &JobSpec) -> Result<Time, String> {
    t.span("job.run", op, |t| {
        let mut sched = t
            .span("sched.registry", op, |_| {
                registry::build(&spec.scheduler, spec.seed)
            })
            .map_err(|e| e.to_string())?;
        let (platform, profile) = t.span("core.platform", op, |_| {
            (spec.platform.build(), spec.profile.build())
        });
        let graph = t.span("core.dag", op, |_| spec.workload.graph(spec.n));
        let opts = if spec.jitter {
            SimOptions::actual(spec.seed)
        } else {
            SimOptions {
                seed: spec.seed,
                ..SimOptions::default()
            }
        };
        let result = t
            .span("sim.dispatch", op, |_| {
                dispatch_simulate(
                    &graph,
                    &platform,
                    &profile,
                    sched.as_mut(),
                    &opts,
                    ObsSink::disabled(),
                    &spec.faults,
                    &spec.retry,
                )
            })
            .map_err(|e| e.to_string())?;
        Ok(black_box(result.makespan))
    })
}

/// The traced replay: whole passes through [`traced_cell`] for about
/// `seconds` (or exactly `ops` cells), checked against a warm-up pass.
/// Returns (cells done, cells ok, seconds taken).
pub fn traced(
    t: &mut Tracer,
    inputs: &Inputs,
    seconds: f64,
    ops: Option<usize>,
    tally: &mut Tally,
) -> (usize, u64, f64) {
    let prep = match setup(&inputs.cells) {
        Ok(p) => p,
        Err(e) => {
            tally.record(Err(e));
            return (0, 0, 1.0);
        }
    };
    let start = Instant::now();
    let mut done = 0;
    let mut ok = 0;
    while ops.map_or(start.elapsed().as_secs_f64() < seconds, |n| done < n) {
        for (spec, &warm) in inputs.cells.iter().zip(&prep.warm) {
            let r = traced_cell(t, done as u64, spec)
                .and_then(|m| check_cell(spec, m, warm, prep.bound_for(spec)));
            ok += u64::from(r.is_ok());
            tally.record(r);
            done += 1;
        }
    }
    (done, ok, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_grid() {
        let a = generate(11);
        let b = generate(11);
        assert_eq!(a.hash, b.hash);
        assert_eq!(a.cells, b.cells);
        assert_ne!(generate(12).hash, a.hash);
        assert_eq!(a.cells.len(), 8 * 2 * 4 + 8 + 4 + 2);
    }

    #[test]
    fn oracle_rejects_a_perturbed_makespan() {
        let spec = JobSpec::new("cholesky", 4).unwrap().scheduler("dmda");
        let prep = setup(std::slice::from_ref(&spec)).unwrap();
        let bound = prep.bound_for(&spec);
        let warm = prep.warm[0];
        assert!(check_cell(&spec, warm, warm, bound).is_ok());
        let nudged = Time::from_nanos(warm.as_nanos() + 1);
        assert!(check_cell(&spec, nudged, warm, bound).is_err());
        // A makespan that matches a (corrupted) warm-up value but sits
        // below the lower bound is rejected too.
        let low = Time::from_nanos(bound.best().as_nanos() - 1);
        assert!(check_cell(&spec, low, low, bound)
            .unwrap_err()
            .contains("below"));
    }
}

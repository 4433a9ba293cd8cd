//! The kernel and runtime probe of every traced run: real tiled Cholesky
//! on host cores — `rt::execute_workload` with two worker threads and
//! dmdas over `CholeskyWorkload`, real `linalg` kernels, a seeded SPD
//! matrix whose factors are checked against a residual bound.
//!
//! (Timed end to end, the two-thread factorization's p99 latency swung
//! between 1.5x and 3.4x its median from run to run on a 2-vCPU VM, so it
//! is not a gated workload; its layers are measured here instead.)

use crate::util::{median, median_secs, Rng, Tally};
use hetchol_core::dag::TaskGraph;
use hetchol_core::hash::{hash_hex, ContentHasher};
use hetchol_core::kernel::Kernel;
use hetchol_core::obs::ObsSink;
use hetchol_core::profiles::TimingProfile;
use hetchol_core::task::TaskCoords;
use hetchol_linalg::matrix::{Matrix, TiledMatrix};
use hetchol_linalg::{factorization_residual, random_spd, tiled_cholesky_in_place};
use hetchol_rt::{execute_workload, CholeskyWorkload, RtResult, Workload};
use hetchol_sched::Dmdas;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Matrix order in tiles.
pub const N_TILES: usize = 6;
/// Tile size.
pub const NB: usize = 64;
/// Runtime worker threads (one per core).
pub const WORKERS: usize = 2;
/// The residual every factor must stay below.
pub const MAX_RESIDUAL: f64 = 1e-10;

pub struct Inputs {
    pub matrix: Matrix,
    pub hash: String,
}

pub fn generate(seed: u64) -> Inputs {
    let matrix = random_spd(N_TILES * NB, Rng::new(seed).next_u64());
    let mut hash = ContentHasher::new();
    for v in matrix.data() {
        hash.write_u64(v.to_bits());
    }
    Inputs {
        matrix,
        hash: hash_hex(hash.finish()),
    }
}

/// The tiled input, its DAG, the profile dmdas estimates with, and a
/// reference factor whose residual is checked.
pub struct Prepared {
    pub tiled: TiledMatrix,
    pub graph: TaskGraph,
    pub profile: TimingProfile,
    pub reference: TiledMatrix,
}

/// One factorization through the threaded runtime; returns its wall time.
pub fn factorize_once<W: Workload>(
    workload: &W,
    graph: &TaskGraph,
    profile: &TimingProfile,
    obs: ObsSink,
) -> Result<(f64, RtResult), String> {
    let t = Instant::now();
    let r = execute_workload(workload, graph, &mut Dmdas::new(), profile, WORKERS, obs)
        .map_err(|e| format!("factorization failed: {e:?}"))?;
    Ok((t.elapsed().as_secs_f64(), r))
}

pub fn setup(inputs: &Inputs) -> Result<Prepared, String> {
    let tiled = TiledMatrix::from_dense(&inputs.matrix, NB);
    let graph = TaskGraph::cholesky(N_TILES);
    let profile = TimingProfile::mirage_homogeneous();
    let w = CholeskyWorkload::new(&tiled);
    factorize_once(&w, &graph, &profile, ObsSink::disabled())?;
    let reference = w.into_matrix();
    let residual = factorization_residual(&inputs.matrix, &reference);
    if residual >= MAX_RESIDUAL {
        return Err(format!(
            "reference residual {residual:e} is not below {MAX_RESIDUAL:e}"
        ));
    }
    Ok(Prepared {
        tiled,
        graph,
        profile,
        reference,
    })
}

fn same_bits(a: &TiledMatrix, b: &TiledMatrix) -> bool {
    let n = a.n_tiles();
    n == b.n_tiles()
        && (0..n).all(|i| {
            (0..=i).all(|j| {
                a.tile(i, j)
                    .iter()
                    .zip(b.tile(i, j))
                    .all(|(x, y)| x.to_bits() == y.to_bits())
            })
        })
}

/// The oracle: a factor bit-identical to the verified reference passes
/// (per-tile update order is fixed by the DAG, so thread interleaving does
/// not change a bit); any other factor must have a residual below
/// [`MAX_RESIDUAL`].
pub fn check_factor(
    original: &Matrix,
    reference: &TiledMatrix,
    got: &TiledMatrix,
) -> Result<(), String> {
    if same_bits(reference, got) {
        return Ok(());
    }
    let r = factorization_residual(original, got);
    if r < MAX_RESIDUAL {
        Ok(())
    } else {
        Err(format!("residual {r:e} is not below {MAX_RESIDUAL:e}"))
    }
}

/// The timing wrapper: every kernel call `execute_workload` makes, with
/// its kernel and wall-clock interval.
pub struct Timed<'a, W> {
    inner: &'a W,
    calls: Mutex<Vec<(Kernel, Instant, Instant)>>,
}

impl<'a, W> Timed<'a, W> {
    pub fn new(inner: &'a W) -> Timed<'a, W> {
        Timed {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    pub fn take(&self) -> Vec<(Kernel, Instant, Instant)> {
        std::mem::take(&mut *self.calls.lock().expect("kernel log lock"))
    }
}

impl<W: Workload> Workload for Timed<'_, W> {
    type Error = W::Error;

    fn apply(&self, coords: TaskCoords) -> Result<(), W::Error> {
        let start = Instant::now();
        let r = self.inner.apply(coords);
        let end = Instant::now();
        self.calls
            .lock()
            .expect("kernel log lock")
            .push((coords.kernel(), start, end));
        r
    }
}

/// Factorizations per probe leg.
const PROBE_REPS: usize = 20;

/// The kernel and runtime probe: per-kernel rates through the timing
/// wrapper, idle share and wake-ups from obs-enabled runs, and the
/// speed-up over single-threaded `tiled_cholesky_in_place`. Every factor
/// is checked.
pub fn probe(inputs: &Inputs, prep: &Prepared, out: &mut Vec<(String, f64)>, tally: &mut Tally) {
    let mut check = |w: CholeskyWorkload, r: Result<(f64, RtResult), String>| {
        tally.record(
            r.and_then(|_| check_factor(&inputs.matrix, &prep.reference, &w.into_matrix())),
        );
    };
    let mut busy = [0.0f64; Kernel::COUNT];
    let mut calls = [0u64; Kernel::COUNT];
    for _ in 0..PROBE_REPS {
        let w = CholeskyWorkload::new(&prep.tiled);
        let timed = Timed::new(&w);
        let r = factorize_once(&timed, &prep.graph, &prep.profile, ObsSink::disabled());
        for (k, s, e) in timed.take() {
            busy[k.index()] += e.duration_since(s).as_secs_f64();
            calls[k.index()] += 1;
        }
        check(w, r);
    }
    let gflops = |k: Kernel| calls[k.index()] as f64 * k.flops(NB) / busy[k.index()] / 1e9;
    out.push(("linalg.gemm_gflops".into(), gflops(Kernel::Gemm)));
    out.push(("linalg.syrk_gflops".into(), gflops(Kernel::Syrk)));
    out.push(("linalg.trsm_gflops".into(), gflops(Kernel::Trsm)));
    out.push(("linalg.potrf_gflops".into(), gflops(Kernel::Potrf)));
    // Computed, not measured: GEMM reads three nb×nb f64 tiles and writes one.
    out.push((
        "linalg.gemm_flops_per_byte".into(),
        Kernel::Gemm.flops(NB) / (4 * NB * NB * 8) as f64,
    ));

    let mut idle = 0.0;
    let mut total = 0.0;
    let mut wakeups = 0u64;
    for _ in 0..PROBE_REPS {
        let w = CholeskyWorkload::new(&prep.tiled);
        let r = factorize_once(&w, &prep.graph, &prep.profile, ObsSink::enabled());
        if let Ok((_, rt)) = &r {
            for p in rt.obs.worker_phases() {
                idle += (p.total() - p.exec).as_secs_f64();
                total += p.total().as_secs_f64();
            }
            wakeups += rt.obs.counters.wakeups.iter().sum::<u64>();
        }
        check(w, r);
    }
    // Share of worker time not spent in a kernel.
    out.push(("rt.idle_share".into(), idle / total.max(1e-12)));
    out.push(("rt.wakeups".into(), wakeups as f64 / PROBE_REPS as f64));

    let single = median_secs(PROBE_REPS, || {
        let mut m = prep.tiled.clone();
        tiled_cholesky_in_place(&mut m).expect("SPD input");
        black_box(m);
    });
    let mut threaded = Vec::new();
    for _ in 0..PROBE_REPS {
        let w = CholeskyWorkload::new(&prep.tiled);
        let r = factorize_once(&w, &prep.graph, &prep.profile, ObsSink::disabled());
        if let Ok((secs, _)) = &r {
            threaded.push(*secs);
        }
        check(w, r);
    }
    out.push(("rt.speedup".into(), single / median(&threaded)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_rejects_a_non_spd_input() {
        let nb = 8;
        let good = random_spd(2 * nb, 3);
        // A negative pivot: no Cholesky factor exists.
        let bad = Matrix::from_fn(2 * nb, 2 * nb, |r, c| {
            if r == c && r == nb {
                -1.0
            } else {
                good[(r, c)]
            }
        });
        let graph = TaskGraph::cholesky(2);
        let profile = TimingProfile::mirage_homogeneous();
        let w = CholeskyWorkload::new(&TiledMatrix::from_dense(&bad, nb));
        assert!(factorize_once(&w, &graph, &profile, ObsSink::disabled()).is_err());

        // A factor that completes but is wrong fails the residual.
        let ok = CholeskyWorkload::new(&TiledMatrix::from_dense(&good, nb));
        factorize_once(&ok, &graph, &profile, ObsSink::disabled()).unwrap();
        let reference = ok.into_matrix();
        assert!(check_factor(&good, &reference, &reference).is_ok());
        let mut wrong = reference.clone();
        wrong.tile_mut(1, 1)[0] += 1e-3;
        assert!(check_factor(&good, &reference, &wrong).is_err());
    }
}

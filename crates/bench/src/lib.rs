//! # hetchol-bench
//!
//! The reproduction harness behind the `repro` binary: one function per
//! table/figure of the paper, plus the ablation tables of its design
//! choices. Each figure function returns a [`Figure`] (labelled series
//! over matrix sizes) that the binary renders as an aligned table or CSV
//! — the textual equivalent of the paper's plots; tables come back as
//! plain text.

pub mod perf;
pub mod storm;

pub use perf::{bench_check, bench_report, BenchReport};
pub use storm::{storm, StormOptions};

use hetchol_bounds::BoundSet;
use hetchol_core::algorithm::Algorithm;
use hetchol_core::dag::TaskGraph;
use hetchol_core::metrics::{Figure, Series};
use hetchol_core::obs::ObsSink;
use hetchol_core::platform::Platform;
use hetchol_core::profiles::TimingProfile;
use hetchol_core::scheduler::Scheduler;
use hetchol_cp::{optimize_from, CpOptions};
use hetchol_sched::{Dmda, Dmdas, MappingInjector, ScheduleInjector};
use hetchol_sim::{simulate_with, SimOptions, SimResult};

/// The matrix sizes (in 960-tiles) of every plot in the paper.
pub const PAPER_SIZES: [usize; 8] = [4, 8, 12, 16, 20, 24, 28, 32];

/// Number of repetitions behind every "actual execution" data point
/// (paper: "we provide the average and standard deviation of 10 runs").
pub const ACTUAL_RUNS: u64 = 10;

/// Scheduler selector used across the harness.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SchedKind {
    /// StarPU's `random`.
    Random,
    /// StarPU's `eager` (model-free greedy baseline).
    Eager,
    /// StarPU's `dmda`.
    Dmda,
    /// StarPU's `dmdas` (HEFT-like).
    Dmdas,
    /// `dmdas` + GEMM/SYRK forced on GPUs.
    GemmSyrkGpu,
    /// `dmdas` + TRSMs ≥ `k` tiles below the diagonal forced on CPUs.
    TriangleTrsm(u32),
}

impl SchedKind {
    /// Display label matching the paper's legends.
    pub fn label(self) -> String {
        match self {
            SchedKind::Random => "random".into(),
            SchedKind::Eager => "eager".into(),
            SchedKind::Dmda => "dmda".into(),
            SchedKind::Dmdas => "dmdas".into(),
            SchedKind::GemmSyrkGpu => "gemm+syrk on gpu".into(),
            SchedKind::TriangleTrsm(k) => format!("triangle trsms on cpu (k={k})"),
        }
    }

    /// The [`hetchol_sched::registry`] name of this policy — the string a
    /// serialized `JobSpec` would carry for the same scheduler.
    pub fn registry_name(self) -> String {
        match self {
            SchedKind::Random => "random".into(),
            SchedKind::Eager => "eager".into(),
            SchedKind::Dmda => "dmda".into(),
            SchedKind::Dmdas => "dmdas".into(),
            SchedKind::GemmSyrkGpu => "gemmsyrk-gpu".into(),
            SchedKind::TriangleTrsm(k) => format!("triangle:{k}"),
        }
    }

    /// Instantiate the scheduler; `seed` only matters for `random`.
    ///
    /// Delegates to [`hetchol_sched::registry`] so the harness and the
    /// serving layer cannot drift apart.
    pub fn build(self, seed: u64) -> Box<dyn Scheduler + Send> {
        hetchol_sched::registry::build(&self.registry_name(), seed)
            .expect("every SchedKind has a registry entry")
    }

    /// Whether the scheduler itself is stochastic (needs averaging even in
    /// deterministic simulation mode).
    pub fn stochastic(self) -> bool {
        hetchol_sched::registry::is_stochastic(&self.registry_name())
    }
}

/// Run one simulation and return achieved GFLOP/s.
pub fn sim_gflops(
    n: usize,
    platform: &Platform,
    profile: &TimingProfile,
    kind: SchedKind,
    opts: &SimOptions,
) -> f64 {
    sim_result(n, platform, profile, kind, opts).gflops(n, profile.nb())
}

/// Run one simulation and return the full result.
pub fn sim_result(
    n: usize,
    platform: &Platform,
    profile: &TimingProfile,
    kind: SchedKind,
    opts: &SimOptions,
) -> SimResult {
    let graph = TaskGraph::cholesky(n);
    let mut scheduler = kind.build(opts.seed);
    simulate_with(
        &graph,
        platform,
        profile,
        scheduler.as_mut(),
        opts,
        ObsSink::disabled(),
    )
}

/// Run one simulation of any supported factorization.
pub fn sim_result_algo(
    algo: Algorithm,
    n: usize,
    platform: &Platform,
    profile: &TimingProfile,
    kind: SchedKind,
    opts: &SimOptions,
) -> SimResult {
    let graph = algo.graph(n);
    let mut scheduler = kind.build(opts.seed);
    simulate_with(
        &graph,
        platform,
        profile,
        scheduler.as_mut(),
        opts,
        ObsSink::disabled(),
    )
}

/// The paper's methodology applied to another factorization (its stated
/// future work): scheduler comparison against the generalised mixed bound
/// and kernel peak, simulated on the comm-free Mirage platform.
pub fn figure_algo(algo: Algorithm) -> Figure {
    let platform = Platform::mirage().without_comm();
    let profile = TimingProfile::mirage();
    let mut fig = Figure::new(
        format!(
            "Extension: {} factorization, simulated Mirage (comm-free)",
            algo.label()
        ),
        "tiles",
        "GFLOP/s",
    );
    for kind in [
        SchedKind::Random,
        SchedKind::Eager,
        SchedKind::Dmda,
        SchedKind::Dmdas,
    ] {
        let mut s = Series::new(kind.label());
        for &n in &PAPER_SIZES {
            if kind.stochastic() {
                let samples: Vec<f64> = (0..ACTUAL_RUNS)
                    .map(|seed| {
                        let opts = SimOptions {
                            seed,
                            ..SimOptions::default()
                        };
                        let r = sim_result_algo(algo, n, &platform, &profile, kind, &opts);
                        algo.gflops(n, profile.nb(), r.makespan)
                    })
                    .collect();
                s.push_samples(n as f64, &samples);
            } else {
                let r = sim_result_algo(algo, n, &platform, &profile, kind, &SimOptions::default());
                s.push(n as f64, algo.gflops(n, profile.nb(), r.makespan));
            }
        }
        fig.add(s);
    }
    let mut mixed = Series::new("mixed bound");
    let mut peak = Series::new("kernel peak");
    for &n in &PAPER_SIZES {
        let set = BoundSet::compute_algo(algo, n, &platform, &profile);
        mixed.push(n as f64, set.mixed_gflops());
        peak.push(n as f64, set.gemm_peak);
    }
    fig.add(mixed);
    fig.add(peak);
    fig
}

/// Mean ± std GFLOP/s over `runs` seeds (seeds feed both the jitter and
/// stochastic schedulers).
pub fn sim_gflops_samples(
    n: usize,
    platform: &Platform,
    profile: &TimingProfile,
    kind: SchedKind,
    actual_mode: bool,
    runs: u64,
) -> Vec<f64> {
    (0..runs)
        .map(|seed| {
            let opts = if actual_mode {
                SimOptions::actual(seed)
            } else {
                SimOptions {
                    seed,
                    ..SimOptions::default()
                }
            };
            sim_gflops(n, platform, profile, kind, &opts)
        })
        .collect()
}

/// One scheduler curve over the paper's sizes. Deterministic schedulers in
/// simulation mode get a single run per size; stochastic schedulers and
/// actual mode get [`ACTUAL_RUNS`] seeds with mean ± std, exactly like the
/// paper's methodology.
pub fn scheduler_series(
    platform: &Platform,
    profile_for: &dyn Fn(usize) -> TimingProfile,
    kind: SchedKind,
    actual_mode: bool,
    sizes: &[usize],
) -> Series {
    let mut s = Series::new(kind.label());
    for &n in sizes {
        let profile = profile_for(n);
        if actual_mode || kind.stochastic() {
            let samples = sim_gflops_samples(n, platform, &profile, kind, actual_mode, ACTUAL_RUNS);
            s.push_samples(n as f64, &samples);
        } else {
            s.push(
                n as f64,
                sim_gflops(n, platform, &profile, kind, &SimOptions::default()),
            );
        }
    }
    s
}

/// Mixed-bound performance curve.
pub fn mixed_bound_series(
    platform: &Platform,
    profile_for: &dyn Fn(usize) -> TimingProfile,
    sizes: &[usize],
) -> Series {
    let mut s = Series::new("mixed bound");
    for &n in sizes {
        let profile = profile_for(n);
        let set = BoundSet::compute(n, platform, &profile);
        s.push(n as f64, set.mixed_gflops());
    }
    s
}

// ---------------------------------------------------------------------------
// Figures
// ---------------------------------------------------------------------------

/// Figure 2: the four theoretical performance upper bounds on Mirage.
pub fn figure2() -> Figure {
    let platform = Platform::mirage();
    let profile = TimingProfile::mirage();
    let mut fig = Figure::new(
        "Figure 2: Heterogeneous theoretical performance upper bounds",
        "tiles",
        "GFLOP/s",
    );
    let mut cp = Series::new("critical path");
    let mut area = Series::new("area bound");
    let mut mixed = Series::new("mixed bound");
    let mut peak = Series::new("gemm peak");
    for &n in &PAPER_SIZES {
        let set = BoundSet::compute(n, &platform, &profile);
        cp.push(n as f64, set.critical_path_gflops());
        area.push(n as f64, set.area_gflops());
        mixed.push(n as f64, set.mixed_gflops());
        peak.push(n as f64, set.gemm_peak);
    }
    fig.add(cp);
    fig.add(area);
    fig.add(mixed);
    fig.add(peak);
    fig
}

/// Figure 3: homogeneous *actual* performance (random/dmda/dmdas on
/// 9 CPU cores, 10 jittered runs with runtime overhead).
pub fn figure3() -> Figure {
    let platform = Platform::homogeneous(9);
    let prof = |_n: usize| TimingProfile::mirage_homogeneous();
    let mut fig = Figure::new(
        "Figure 3: Homogeneous actual performance (9 CPUs)",
        "tiles",
        "GFLOP/s",
    );
    for kind in [SchedKind::Random, SchedKind::Dmda, SchedKind::Dmdas] {
        fig.add(scheduler_series(&platform, &prof, kind, true, &PAPER_SIZES));
    }
    fig
}

/// Figure 4: homogeneous *simulated* performance + mixed bound.
pub fn figure4() -> Figure {
    let platform = Platform::homogeneous(9);
    let prof = |_n: usize| TimingProfile::mirage_homogeneous();
    let mut fig = Figure::new(
        "Figure 4: Homogeneous simulated performance (9 CPUs)",
        "tiles",
        "GFLOP/s",
    );
    for kind in [SchedKind::Random, SchedKind::Dmda, SchedKind::Dmdas] {
        fig.add(scheduler_series(
            &platform,
            &prof,
            kind,
            false,
            &PAPER_SIZES,
        ));
    }
    fig.add(mixed_bound_series(&platform, &prof, &PAPER_SIZES));
    fig
}

/// Figure 5: heterogeneous *related* simulated performance + mixed bound
/// (fictitious platform where every kernel is `K(n)`× faster on GPU).
pub fn figure5() -> Figure {
    let platform = Platform::mirage().without_comm();
    let prof = |n: usize| TimingProfile::mirage_related(n);
    let mut fig = Figure::new(
        "Figure 5: Heterogeneous related simulated performance",
        "tiles",
        "GFLOP/s",
    );
    for kind in [SchedKind::Random, SchedKind::Dmda, SchedKind::Dmdas] {
        fig.add(scheduler_series(
            &platform,
            &prof,
            kind,
            false,
            &PAPER_SIZES,
        ));
    }
    fig.add(mixed_bound_series(&platform, &prof, &PAPER_SIZES));
    fig
}

/// Figure 6: heterogeneous unrelated *actual* performance (PCI transfers
/// on, runtime overhead + jitter, 10 runs).
pub fn figure6() -> Figure {
    let platform = Platform::mirage();
    let prof = |_n: usize| TimingProfile::mirage();
    let mut fig = Figure::new(
        "Figure 6: Heterogeneous unrelated actual performance",
        "tiles",
        "GFLOP/s",
    );
    for kind in [SchedKind::Random, SchedKind::Dmda, SchedKind::Dmdas] {
        fig.add(scheduler_series(&platform, &prof, kind, true, &PAPER_SIZES));
    }
    fig
}

/// Figure 7: heterogeneous unrelated *simulated* performance + mixed bound
/// (communications removed for a fair comparison with the bound, as in
/// the paper).
pub fn figure7() -> Figure {
    let platform = Platform::mirage().without_comm();
    let prof = |_n: usize| TimingProfile::mirage();
    let mut fig = Figure::new(
        "Figure 7: Heterogeneous unrelated simulated performance",
        "tiles",
        "GFLOP/s",
    );
    for kind in [SchedKind::Random, SchedKind::Dmda, SchedKind::Dmdas] {
        fig.add(scheduler_series(
            &platform,
            &prof,
            kind,
            false,
            &PAPER_SIZES,
        ));
    }
    fig.add(mixed_bound_series(&platform, &prof, &PAPER_SIZES));
    fig
}

/// Figure 8: the related case rescaled so its mixed bound matches the
/// unrelated mixed bound (the paper's apples-to-apples comparison of the
/// two heterogeneity models).
pub fn figure8() -> Figure {
    let related = figure5();
    let platform = Platform::mirage().without_comm();
    let unrelated_prof = TimingProfile::mirage();
    let mut fig = Figure::new(
        "Figure 8: Heterogeneous related simulated performance, scaled to the unrelated mixed bound",
        "tiles",
        "GFLOP/s",
    );
    // Per-size scale factor: mixed_unrelated(n) / mixed_related(n).
    let mixed_related = related
        .series
        .iter()
        .find(|s| s.label == "mixed bound")
        .expect("figure 5 has a mixed bound")
        .clone();
    let mut scaled_series: Vec<Series> = related
        .series
        .iter()
        .filter(|s| s.label != "mixed bound")
        .cloned()
        .collect();
    let mut mixed_unrelated = Series::new("mixed bound");
    for &n in &PAPER_SIZES {
        let set = BoundSet::compute(n, &platform, &unrelated_prof);
        let target = set.mixed_gflops();
        mixed_unrelated.push(n as f64, target);
        let source = mixed_related
            .at(n as f64)
            .expect("related bound covers all sizes")
            .mean;
        let factor = target / source;
        for s in &mut scaled_series {
            if let Some(p) = s.points.iter_mut().find(|p| p.x == n as f64) {
                p.mean *= factor;
                p.std *= factor;
            }
        }
    }
    for s in scaled_series {
        fig.add(s);
    }
    fig.add(mixed_unrelated);
    fig
}

/// Figure 10: heterogeneous simulated performance with static knowledge:
/// dmdas baseline, mixed bound, the CP solution (its theoretical makespan),
/// the CP schedule replayed in simulation, and the best triangle-TRSM hint.
///
/// `cp_opts` bounds the CP effort (the paper used 23 hours; pass a budget
/// appropriate to your patience — shapes are stable from modest budgets).
pub fn figure10(cp_opts: &CpOptions, cp_max_size: usize) -> Figure {
    let platform = Platform::mirage().without_comm();
    let profile = TimingProfile::mirage();
    let prof = |_n: usize| TimingProfile::mirage();
    let mut fig = Figure::new(
        "Figure 10: Heterogeneous unrelated simulated performance with static knowledge",
        "tiles",
        "GFLOP/s",
    );
    fig.add(scheduler_series(
        &platform,
        &prof,
        SchedKind::Dmdas,
        false,
        &PAPER_SIZES,
    ));
    fig.add(mixed_bound_series(&platform, &prof, &PAPER_SIZES));

    let mut cp_theory = Series::new("CP solution");
    let mut cp_sim = Series::new("CP solution in simulation");
    for &n in PAPER_SIZES.iter().filter(|&&n| n <= cp_max_size) {
        let graph = TaskGraph::cholesky(n);
        // Seed the search with the schedules the dynamic runtime actually
        // produces (dmdas and the best triangle hint) — the analogue of the
        // paper seeding CP Optimizer with a HEFT solution.
        let dmdas_seed = sim_result(
            n,
            &platform,
            &profile,
            SchedKind::Dmdas,
            &SimOptions::default(),
        )
        .trace
        .to_schedule();
        let (_, best_k) = best_triangle_k(n, &platform, &profile, false);
        let tri_seed = sim_result(
            n,
            &platform,
            &profile,
            SchedKind::TriangleTrsm(best_k),
            &SimOptions::default(),
        )
        .trace
        .to_schedule();
        let sol = optimize_from(
            &graph,
            &platform,
            &profile,
            &[&dmdas_seed, &tri_seed],
            cp_opts,
        );
        cp_theory.push(
            n as f64,
            hetchol_core::metrics::gflops(n, profile.nb(), sol.makespan),
        );
        let mut inj = ScheduleInjector::new(&sol.schedule);
        let replay = simulate_with(
            &graph,
            &platform,
            &profile,
            &mut inj,
            &SimOptions::default(),
            ObsSink::disabled(),
        );
        cp_sim.push(n as f64, replay.gflops(n, profile.nb()));
    }
    fig.add(cp_theory);
    fig.add(cp_sim);

    let mut triangle = Series::new("triangle trsms on cpu (best k)");
    for &n in &PAPER_SIZES {
        let (g, _k) = best_triangle_k(n, &platform, &profile, false);
        triangle.push(n as f64, g);
    }
    fig.add(triangle);
    fig
}

/// Figure 11: heterogeneous *actual* performance with static knowledge —
/// dmdas vs the best triangle-TRSM offset, 10 jittered runs each.
pub fn figure11() -> Figure {
    let platform = Platform::mirage();
    let profile = TimingProfile::mirage();
    let prof = |_n: usize| TimingProfile::mirage();
    let mut fig = Figure::new(
        "Figure 11: Heterogeneous actual performance with static knowledge",
        "tiles",
        "GFLOP/s",
    );
    fig.add(scheduler_series(
        &platform,
        &prof,
        SchedKind::Dmdas,
        true,
        &PAPER_SIZES,
    ));
    let mut triangle = Series::new("triangle trsms on cpu (best k)");
    for &n in &PAPER_SIZES {
        // Pick k on the deterministic model, then report jittered runs —
        // mirroring the paper's "best obtained performance over all k".
        let (_, k) = best_triangle_k(n, &platform.without_comm(), &profile, false);
        let samples = sim_gflops_samples(
            n,
            &platform,
            &profile,
            SchedKind::TriangleTrsm(k),
            true,
            ACTUAL_RUNS,
        );
        triangle.push_samples(n as f64, &samples);
    }
    fig.add(triangle);
    fig
}

/// Section V-C3, first experiment: forcing GEMM/SYRK on GPUs barely helps.
pub fn figure_hint_gemmsyrk() -> Figure {
    let platform = Platform::mirage().without_comm();
    let prof = |_n: usize| TimingProfile::mirage();
    let mut fig = Figure::new(
        "Hint: GEMM+SYRK forced on GPUs vs plain dmdas (simulated)",
        "tiles",
        "GFLOP/s",
    );
    for kind in [SchedKind::Dmdas, SchedKind::GemmSyrkGpu] {
        fig.add(scheduler_series(
            &platform,
            &prof,
            kind,
            false,
            &PAPER_SIZES,
        ));
    }
    fig
}

/// Section VI-B: mapping-only injection of the CP solution vs full
/// injection vs plain dmda/dmdas.
pub fn figure_mapping_only(cp_opts: &CpOptions, sizes: &[usize]) -> Figure {
    let platform = Platform::mirage().without_comm();
    let profile = TimingProfile::mirage();
    let prof = |_n: usize| TimingProfile::mirage();
    let mut fig = Figure::new(
        "Section VI-B: injecting the CP mapping only vs the full CP schedule",
        "tiles",
        "GFLOP/s",
    );
    for kind in [SchedKind::Dmda, SchedKind::Dmdas] {
        fig.add(scheduler_series(&platform, &prof, kind, false, sizes));
    }
    let mut full = Series::new("CP full injection");
    let mut mapping = Series::new("CP mapping only");
    for &n in sizes {
        let graph = TaskGraph::cholesky(n);
        // Same seeding as Figure 10: the CP search starts from the dmdas
        // schedule, so its solution never loses to the dynamic scheduler.
        let dmdas_seed = sim_result(
            n,
            &platform,
            &profile,
            SchedKind::Dmdas,
            &SimOptions::default(),
        )
        .trace
        .to_schedule();
        let sol = optimize_from(&graph, &platform, &profile, &[&dmdas_seed], cp_opts);
        let ctx = hetchol_core::scheduler::SchedContext {
            graph: &graph,
            platform: &platform,
            profile: &profile,
        };
        let mut inj = ScheduleInjector::new(&sol.schedule);
        let r = simulate_with(
            &graph,
            &platform,
            &profile,
            &mut inj,
            &SimOptions::default(),
            ObsSink::disabled(),
        );
        full.push(n as f64, r.gflops(n, profile.nb()));
        let mut map = MappingInjector::new(&sol.schedule, &ctx);
        let r = simulate_with(
            &graph,
            &platform,
            &profile,
            &mut map,
            &SimOptions::default(),
            ObsSink::disabled(),
        );
        mapping.push(n as f64, r.gflops(n, profile.nb()));
    }
    fig.add(full);
    fig.add(mapping);
    fig
}

/// Sweep the triangle-TRSM offset `k` and return `(best GFLOP/s, best k)`
/// for one size (Figures 10/11; the paper reports best performance around
/// `k = 6–8`).
pub fn best_triangle_k(
    n: usize,
    platform: &Platform,
    profile: &TimingProfile,
    actual_mode: bool,
) -> (f64, u32) {
    let mut best = (f64::MIN, 1u32);
    // k = n forces nothing (max offset is n-1), so the sweep always
    // contains plain dmdas as a fallback.
    for k in 1..=n.max(1) as u32 {
        let g = if actual_mode {
            let samples = sim_gflops_samples(
                n,
                platform,
                profile,
                SchedKind::TriangleTrsm(k),
                true,
                ACTUAL_RUNS,
            );
            samples.iter().sum::<f64>() / samples.len() as f64
        } else {
            sim_gflops(
                n,
                platform,
                profile,
                SchedKind::TriangleTrsm(k),
                &SimOptions::default(),
            )
        };
        if g > best.0 {
            best = (g, k);
        }
    }
    best
}

/// Table I: GPU relative performance per kernel.
pub fn table1() -> String {
    use std::fmt::Write as _;
    let profile = TimingProfile::mirage();
    let mut out = String::new();
    let _ = writeln!(out, "# Table I: GPUs relative performance (Mirage profile)");
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>12} {:>10}",
        "kernel", "CPU time", "GPU time", "speedup"
    );
    for k in hetchol_core::kernel::Kernel::ALL {
        let cpu = profile.time(k, 0);
        let gpu = profile.time(k, 1);
        let _ = writeln!(
            out,
            "{:>8} {:>12} {:>12} {:>9.1}x",
            k.label(),
            format!("{cpu}"),
            format!("{gpu}"),
            profile.speedup(k, 1, 0)
        );
    }
    out
}

/// Section V-C2: the acceleration factors `K(n)` of the related platform.
pub fn kfactors() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "# Acceleration factors K(n) for the related platform");
    let _ = writeln!(out, "{:>8} {:>8}", "tiles", "K");
    for &n in &PAPER_SIZES {
        let _ = writeln!(
            out,
            "{:>8} {:>8.2}",
            n,
            TimingProfile::acceleration_factor(n)
        );
    }
    out
}

/// Figure 12: GPU Gantt traces at 8×8 tiles, dmda vs dmdas, plus idle
/// fractions — the textual version of the paper's trace comparison.
pub fn figure12() -> String {
    use std::fmt::Write as _;
    let platform = Platform::mirage().without_comm();
    let profile = TimingProfile::mirage();
    let n = 8;
    let mut out = String::new();
    for kind in [SchedKind::Dmda, SchedKind::Dmdas] {
        let r = sim_result(n, &platform, &profile, kind, &SimOptions::default());
        let _ = writeln!(
            out,
            "## GPU trace with {} scheduler ({n}x{n} tiles, makespan {})",
            kind.label(),
            r.makespan
        );
        // Show only GPU rows (workers 9..12), as in the paper's figure.
        let gantt = r.trace.gantt_ascii(&platform, 96);
        for line in gantt.lines() {
            if line.trim_start().starts_with("GPU") || line.trim_start().starts_with('0') {
                let _ = writeln!(out, "{line}");
            }
        }
        let idle = r.trace.idle_fraction(9..12);
        let _ = writeln!(out, "GPU idle fraction: {:.1}%\n", idle * 100.0);
    }
    out.push_str("(P = POTRF, T = TRSM, S = SYRK, G = GEMM, . = idle)\n");
    out
}

/// Ablation: dmda at n = 16 against the PCI bandwidth — when do
/// communications start to hurt? Justifies the paper's comm-free bound
/// comparisons ("data transfers are largely overlapped with kernel
/// computation").
pub fn ablation_comm() -> String {
    use hetchol_core::platform::CommModel;
    use hetchol_core::time::Time;
    use std::fmt::Write as _;
    let profile = TimingProfile::mirage();
    let n = 16;
    let gflops = |platform: &Platform| {
        sim_gflops(
            n,
            platform,
            &profile,
            SchedKind::Dmda,
            &SimOptions::default(),
        )
    };
    let mut out = String::new();
    let _ = writeln!(out, "# Ablation: dmda GFLOP/s at n = 16 vs PCI bandwidth");
    let _ = writeln!(out, "{:>12} {:>10}", "bandwidth", "GFLOP/s");
    let free = gflops(&Platform::mirage().without_comm());
    let _ = writeln!(out, "{:>12} {free:>10.2}", "infinite");
    for gbps in [16.0f64, 8.0, 4.0, 2.0, 1.0, 0.5] {
        let g = gflops(&Platform::mirage().with_comm(CommModel {
            latency: Time::from_micros(10),
            bandwidth: gbps * 1e9,
        }));
        let _ = writeln!(out, "{gbps:>10.1}GB {g:>10.2}");
    }
    out
}

/// Ablation: what the HEFT priorities of `dmdas` buy over plain FIFO
/// `dmda` — the Figure 12 idle-time defect quantified across sizes.
pub fn ablation_priorities() -> String {
    use std::fmt::Write as _;
    let platform = Platform::mirage().without_comm();
    let profile = TimingProfile::mirage();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Ablation: dmda (FIFO) vs dmdas (priority-sorted), GPU idle %"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>12} {:>10} {:>10}",
        "tiles", "dmda GF/s", "dmdas GF/s", "idle dmda", "idle dmdas"
    );
    for n in [4usize, 8, 12, 16, 24, 32] {
        let [a, b] = [SchedKind::Dmda, SchedKind::Dmdas]
            .map(|kind| sim_result(n, &platform, &profile, kind, &SimOptions::default()));
        let _ = writeln!(
            out,
            "{:>6} {:>12.2} {:>12.2} {:>9.1}% {:>9.1}%",
            n,
            a.gflops(n, profile.nb()),
            b.gflops(n, profile.nb()),
            a.trace.idle_fraction(9..12) * 100.0,
            b.trace.idle_fraction(9..12) * 100.0,
        );
    }
    out
}

/// Figure 1: the 5×5-tile Cholesky DAG in DOT format.
pub fn figure1() -> String {
    TaskGraph::cholesky(5).to_dot()
}

/// Figure 9: which TRSMs the triangle hint forces on CPUs.
pub fn figure9(n: usize, k: u32) -> String {
    format!(
        "# Figure 9: TRSMs forced on CPUs (n={n}, offset k={k})\n{}\
         (P = diagonal POTRF tile, g = TRSM left to the dynamic scheduler, C = TRSM forced on CPU)\n",
        hetchol_sched::hints::render_forced_triangle(n, k)
    )
}

/// `repro --analyze`: lint traces from both engines and report.
///
/// Simulated `dmda`/`dmdas` traces are held to the strictest contract —
/// exact durations, bound consistency, and their queue discipline; the
/// threaded runtime's wall-clock traces get the structural rules under
/// [`DurationCheck::Loose`](hetchol_core::schedule::DurationCheck) with a
/// generous idle-gap threshold. Returns
/// the rendered report and the number of error-severity findings (the
/// binary's exit code).
pub fn analyze(json: bool) -> (String, usize) {
    use hetchol_analyze::{Linter, QueueDiscipline};
    use hetchol_core::schedule::DurationCheck;
    use hetchol_core::time::Time;

    let mut out = String::new();
    let mut errors = 0;
    let mut emit = |label: String, report: &hetchol_analyze::Report| {
        errors += report.n_errors();
        if json {
            out.push_str(&format!(
                "{{\"run\":\"{label}\",\"report\":{}}}\n",
                report.to_json()
            ));
        } else {
            out.push_str(&format!(
                "{label}: {} error(s), {} warning(s)\n",
                report.n_errors(),
                report.n_warnings()
            ));
            for d in &report.diagnostics {
                out.push_str(&format!("  {d}\n"));
            }
        }
    };

    // Simulated engine, paper platform. Runs are obs-instrumented so the
    // linter reads its task records from the structured spans and the
    // span-consistency rule is armed. Bounds are armed with their exact
    // certificates, so any bound verdict is CONFIRMED rather than f64-only
    // (certification failure falls back to the float bounds).
    let platform = Platform::mirage().without_comm();
    let profile = TimingProfile::mirage();
    for n in [4usize, 8] {
        let graph = TaskGraph::cholesky(n);
        let bounds = BoundSet::compute(n, &platform, &profile);
        let certified = bounds.certify(&platform, &profile).ok();
        for (kind, discipline) in [
            (SchedKind::Dmda, QueueDiscipline::Fifo),
            (SchedKind::Dmdas, QueueDiscipline::Sorted),
        ] {
            let mut scheduler = kind.build(0);
            let r = simulate_with(
                &graph,
                &platform,
                &profile,
                scheduler.as_mut(),
                &SimOptions::default(),
                ObsSink::enabled(),
            );
            let linter = Linter::new(&graph, &platform, &profile);
            let linter = match &certified {
                Some(c) => linter.with_certified_bounds(c.clone()),
                None => linter.with_bounds(bounds.clone()),
            };
            let report = linter
                .with_queue_discipline(discipline)
                .with_obs(&r.obs)
                .lint_trace(&r.trace);
            emit(format!("sim/{}/n={n}", kind.label()), &report);
        }
    }

    // Threaded runtime, wall-clock timing: structural rules only.
    for n in [2usize, 4] {
        let graph = TaskGraph::cholesky(n);
        let n_workers = 4;
        let rt_platform = Platform::homogeneous(n_workers).without_comm();
        let rt_profile = TimingProfile::mirage_homogeneous();
        let mut scheduler = Dmda::new();
        let workload = hetchol_rt::FnWorkload(|_| Ok::<(), std::convert::Infallible>(()));
        let r = hetchol_rt::execute_workload(
            &workload,
            &graph,
            &mut scheduler,
            &rt_profile,
            n_workers,
            ObsSink::enabled(),
        )
        .expect("no-op tasks cannot fail");
        let report = Linter::new(&graph, &rt_platform, &rt_profile)
            .duration_check(DurationCheck::Loose)
            .idle_gap_threshold(Time::from_millis(50))
            .with_obs(&r.obs)
            .lint_trace(&r.trace);
        emit(format!("rt/dmda/n={n}"), &report);
    }

    (out, errors)
}

/// `repro chaos`: the seeded fault-injection matrix over both engines.
///
/// Every scenario runs a fault plan through the resilient entry points and
/// checks three things:
///
/// 1. **classification** — the [`hetchol_core::fault::RunOutcome`] matches
///    the scenario's expectation (a killed worker degrades, an exhausted
///    retry budget fails);
/// 2. **consistency** — the trace passes the linter with zero
///    error-severity findings, which in particular arms rule 17
///    (`recovery-consistency`: nothing executes on a dead worker, every
///    failure is answered);
/// 3. **numerics** — for recovered runs, replaying the trace's kernel
///    sequence against a real SPD matrix factorizes it correctly
///    (residual < 1e-10), and the rt legs verify their own factor.
///
/// Cross-engine legs run the *identical* plan through the simulator and
/// the threaded runtime and require the same outcome classification.
/// Returns the rendered report and the number of failed scenarios.
pub fn chaos(seed: u64, json: bool) -> (String, usize) {
    use hetchol_analyze::Linter;
    use hetchol_core::fault::{FailureCause, FaultPlan, RetryPolicy, RunOutcome};
    use hetchol_core::schedule::DurationCheck;
    use hetchol_linalg::matrix::TiledMatrix;
    use hetchol_linalg::{factorization_residual, random_spd};
    use hetchol_rt::LockedTiledMatrix;
    use hetchol_sim::simulate_resilient;
    use std::fmt::Write as _;

    /// Replay a recovered trace's kernel sequence (by start time — the
    /// order the engine actually committed work) on a real SPD matrix.
    fn replay_residual(n: usize, graph: &TaskGraph, trace: &hetchol_core::trace::Trace) -> f64 {
        let nb = 8;
        let a = random_spd(n * nb, 4242);
        let locked = LockedTiledMatrix::from_tiled(&TiledMatrix::from_dense(&a, nb));
        let mut events = trace.events.clone();
        events.sort_by_key(|e| (e.start, e.end));
        for e in &events {
            locked
                .apply_task(graph.task(e.task).coords)
                .expect("a recovered trace replays cleanly on an SPD matrix");
        }
        factorization_residual(&a, &locked.to_tiled())
    }

    struct Leg {
        name: String,
        outcome: String,
        residual: Option<f64>,
        lint_errors: usize,
        ok: bool,
        detail: String,
    }
    let mut legs: Vec<Leg> = Vec::new();

    // --- Simulated engine: seeded plans over the paper platform --------
    let platform = Platform::mirage().without_comm();
    let profile = TimingProfile::mirage();
    for n in 4usize..=8 {
        let graph = TaskGraph::cholesky(n);
        for kind in [SchedKind::Dmda, SchedKind::Dmdas] {
            let leg_seed = seed
                .wrapping_mul(31)
                .wrapping_add(n as u64)
                .wrapping_add(if kind == SchedKind::Dmdas { 1 << 32 } else { 0 });
            let plan = FaultPlan::seeded(leg_seed, graph.len(), platform.n_workers());
            let mut scheduler = kind.build(0);
            let r = simulate_resilient(
                &graph,
                &platform,
                &profile,
                scheduler.as_mut(),
                &SimOptions::default(),
                ObsSink::disabled(),
                &plan,
                &RetryPolicy::default(),
            )
            .expect("the seeded plan never kills all workers");
            let report = Linter::new(&graph, &platform, &profile)
                .duration_check(DurationCheck::Loose)
                .lint_trace(&r.trace);
            let residual = replay_residual(n, &graph, &r.trace);
            let ok = r.outcome.is_success() && report.n_errors() == 0 && residual < 1e-10;
            legs.push(Leg {
                name: format!("sim/seeded/{}/n={n}", kind.label()),
                outcome: r.outcome.label().to_string(),
                residual: Some(residual),
                lint_errors: report.n_errors(),
                ok,
                detail: if ok {
                    String::new()
                } else {
                    format!("outcome {:?}, {}", r.outcome, report.to_json())
                },
            });
        }
    }

    // --- Simulated engine: a targeted GPU death on Mirage --------------
    {
        let n = 6;
        let graph = TaskGraph::cholesky(n);
        let plan = FaultPlan::new().kill_worker(9, 6);
        let r = simulate_resilient(
            &graph,
            &platform,
            &profile,
            &mut Dmdas::new(),
            &SimOptions::default(),
            ObsSink::disabled(),
            &plan,
            &RetryPolicy::default(),
        )
        .expect("one death out of twelve workers is survivable");
        let report = Linter::new(&graph, &platform, &profile)
            .duration_check(DurationCheck::Loose)
            .lint_trace(&r.trace);
        let residual = replay_residual(n, &graph, &r.trace);
        let degraded_right = matches!(
            &r.outcome,
            RunOutcome::Degraded { lost_workers, .. } if lost_workers == &[9]
        );
        let ok = degraded_right && report.n_errors() == 0 && residual < 1e-10;
        legs.push(Leg {
            name: "sim/gpu-death/dmdas/n=6".to_string(),
            outcome: r.outcome.label().to_string(),
            residual: Some(residual),
            lint_errors: report.n_errors(),
            ok,
            detail: if ok {
                String::new()
            } else {
                format!("outcome {:?}, {}", r.outcome, report.to_json())
            },
        });
    }

    // --- Simulated engine: a straggler is slow, not wrong ---------------
    {
        let n = 5;
        let graph = TaskGraph::cholesky(n);
        let plan = FaultPlan::new().straggler(0, 4.0);
        let r = simulate_resilient(
            &graph,
            &platform,
            &profile,
            &mut Dmdas::new(),
            &SimOptions::default(),
            ObsSink::disabled(),
            &plan,
            &RetryPolicy::default(),
        )
        .expect("a straggler kills nobody");
        let report = Linter::new(&graph, &platform, &profile)
            .duration_check(DurationCheck::Loose)
            .lint_trace(&r.trace);
        let residual = replay_residual(n, &graph, &r.trace);
        let ok = r.outcome == RunOutcome::Completed && report.n_errors() == 0 && residual < 1e-10;
        legs.push(Leg {
            name: "sim/straggler/dmdas/n=5".to_string(),
            outcome: r.outcome.label().to_string(),
            residual: Some(residual),
            lint_errors: report.n_errors(),
            ok,
            detail: if ok {
                String::new()
            } else {
                format!("outcome {:?}, {}", r.outcome, report.to_json())
            },
        });
    }

    // --- Cross-engine: the identical plan through sim and rt ------------
    // Same platform shape (the rt is homogeneous by construction), same
    // plan, same retry policy: the outcome *classification* must agree.
    {
        let n = 4;
        let n_workers = 3;
        let graph = TaskGraph::cholesky(n);
        let rt_profile = TimingProfile::mirage_homogeneous();
        let rt_platform = Platform::homogeneous(n_workers).without_comm();
        let cases: [(&str, FaultPlan, RetryPolicy); 2] = [
            (
                "kill-worker",
                FaultPlan::new().kill_worker(1, 6),
                RetryPolicy::default(),
            ),
            (
                "retry-exhaustion",
                FaultPlan::new().transient(graph.entry_tasks()[0], 99),
                RetryPolicy {
                    max_attempts: 3,
                    ..RetryPolicy::default()
                },
            ),
        ];
        for (case, plan, policy) in cases {
            let sim = simulate_resilient(
                &graph,
                &rt_platform,
                &rt_profile,
                &mut Dmdas::new(),
                &SimOptions::default(),
                ObsSink::disabled(),
                &plan,
                &policy,
            )
            .expect("two of three workers survive");

            let nb = 8;
            let a = random_spd(n * nb, 77);
            let workload = hetchol_rt::CholeskyWorkload::new(&TiledMatrix::from_dense(&a, nb));
            let rt = hetchol_rt::execute_resilient(
                &workload,
                &graph,
                &mut Dmdas::new(),
                &rt_profile,
                n_workers,
                ObsSink::disabled(),
                &plan,
                &policy,
            )
            .expect("two of three workers survive");

            let classification_agrees = sim.outcome.label() == rt.outcome.label();
            let (expect_label, residual, numerics_ok) = match case {
                "kill-worker" => {
                    let res = factorization_residual(&a, &workload.into_matrix());
                    ("degraded", Some(res), res < 1e-10)
                }
                _ => {
                    let failed_right = matches!(
                        &rt.outcome,
                        RunOutcome::Failed {
                            cause: FailureCause::RetriesExhausted { .. }
                        }
                    );
                    ("failed", None, failed_right)
                }
            };
            let ok = classification_agrees && sim.outcome.label() == expect_label && numerics_ok;
            legs.push(Leg {
                name: format!("cross/{case}/n={n}"),
                outcome: format!("sim={} rt={}", sim.outcome.label(), rt.outcome.label()),
                residual,
                lint_errors: 0,
                ok,
                detail: if ok {
                    String::new()
                } else {
                    format!("sim {:?}, rt {:?}", sim.outcome, rt.outcome)
                },
            });
        }
    }

    // --- Render ----------------------------------------------------------
    let mut out = String::new();
    let failures = legs.iter().filter(|l| !l.ok).count();
    if json {
        for l in &legs {
            let _ = writeln!(
                out,
                "{{\"scenario\":\"{}\",\"outcome\":\"{}\",\"residual\":{},\
                 \"lint_errors\":{},\"ok\":{}}}",
                l.name,
                l.outcome,
                l.residual
                    .map_or("null".to_string(), |r| format!("{r:.3e}")),
                l.lint_errors,
                l.ok
            );
        }
    } else {
        let _ = writeln!(out, "# Chaos matrix (seed {seed})");
        let _ = writeln!(
            out,
            "{:<28} {:>22} {:>10} {:>6} {:>6}",
            "scenario", "outcome", "residual", "lint", "status"
        );
        for l in &legs {
            let _ = writeln!(
                out,
                "{:<28} {:>22} {:>10} {:>6} {:>6}",
                l.name,
                l.outcome,
                l.residual.map_or("-".to_string(), |r| format!("{r:.1e}")),
                l.lint_errors,
                if l.ok { "ok" } else { "FAIL" }
            );
            if !l.ok {
                let _ = writeln!(out, "    {}", l.detail);
            }
        }
        let _ = writeln!(out, "{} scenario(s), {failures} failure(s)", legs.len());
    }
    (out, failures)
}

/// The `repro certify` grid: both reference platforms × all three
/// factorizations × the paper sizes.
pub const CERTIFY_SIZES: [usize; 4] = [4, 8, 12, 16];

/// `repro certify`: certify the LP/ILP bounds of the paper grid in exact
/// rational arithmetic and run every certificate through the independent
/// checker. Returns the rendered report (JSON lines or aligned text) and
/// the number of failures (the binary's exit code): a failure is a bound
/// whose certificate could not be built or was rejected by the checker.
pub fn certify_report(json: bool) -> (String, usize) {
    use std::fmt::Write as _;

    let grids: [(&str, Platform, TimingProfile); 2] = [
        (
            "mirage",
            Platform::mirage().without_comm(),
            TimingProfile::mirage(),
        ),
        (
            "cpu-only",
            Platform::homogeneous(9),
            TimingProfile::mirage_homogeneous(),
        ),
    ];
    let mut out = String::new();
    if !json {
        let _ = writeln!(
            out,
            "# Exact bound certification (area + mixed, independent checker)"
        );
        let _ = writeln!(
            out,
            "{:>9} {:>9} {:>4} {:>9} {:>13} {:>13} {:>7} {:>9}",
            "platform", "algo", "n", "status", "area (s)", "mixed (s)", "leaves", "tree"
        );
    }
    let mut failures = 0;
    for (pname, platform, profile) in &grids {
        for algo in [Algorithm::Cholesky, Algorithm::Lu, Algorithm::Qr] {
            for n in CERTIFY_SIZES {
                let set = BoundSet::compute_algo(algo, n, platform, profile);
                let outcome = set
                    .certify(platform, profile)
                    .map_err(|e| e.to_string())
                    .and_then(|cert| {
                        cert.verify(platform, profile)
                            .map(|v| (cert, v))
                            .map_err(|e| e.to_string())
                    });
                let algo_name = algo.label().to_lowercase();
                match outcome {
                    Ok((cert, verified)) => {
                        let n_leaves = cert.area.leaves.len() + cert.mixed.leaves.len();
                        let complete = cert.area.tree_complete && cert.mixed.tree_complete;
                        if json {
                            let _ = writeln!(
                                out,
                                "{{\"platform\":\"{pname}\",\"algo\":\"{algo_name}\",\"n\":{n},\
                                 \"status\":\"verified\",\"area\":\"{}\",\"mixed\":\"{}\",\
                                 \"area_secs\":{},\"mixed_secs\":{},\"leaves\":{n_leaves},\
                                 \"tree_complete\":{complete}}}",
                                verified.area,
                                verified.mixed,
                                verified.area.to_f64(),
                                verified.mixed.to_f64(),
                            );
                        } else {
                            let _ = writeln!(
                                out,
                                "{pname:>9} {algo_name:>9} {n:>4} {:>9} {:>13.6} {:>13.6} \
                                 {n_leaves:>7} {:>9}",
                                "verified",
                                verified.area.to_f64(),
                                verified.mixed.to_f64(),
                                if complete { "complete" } else { "root-only" },
                            );
                        }
                    }
                    Err(why) => {
                        failures += 1;
                        if json {
                            let _ = writeln!(
                                out,
                                "{{\"platform\":\"{pname}\",\"algo\":\"{algo_name}\",\"n\":{n},\
                                 \"status\":\"failed\",\"reason\":\"{why}\"}}",
                            );
                        } else {
                            let _ = writeln!(
                                out,
                                "{pname:>9} {algo_name:>9} {n:>4} {:>9}  {why}",
                                "FAILED"
                            );
                        }
                    }
                }
            }
        }
    }
    (out, failures)
}

/// `repro --obs-out <dir>`: run one instrumented reference workload per
/// engine and write the observability artifacts — Chrome-trace JSON
/// (`chrome://tracing` / Perfetto), a per-worker utilization report, and
/// the machine-readable summary — into `dir`. Every Chrome trace is
/// schema-validated before being reported. Returns the written paths.
pub fn obs_dump(dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
    use hetchol_core::obs::{validate_chrome_trace, ObsReport};

    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let mut dump = |stem: &str, obs: &ObsReport| -> std::io::Result<()> {
        let chrome = obs.to_chrome_trace();
        validate_chrome_trace(&chrome).map_err(std::io::Error::other)?;
        for (ext, body) in [
            ("trace.json", chrome),
            ("util.txt", obs.utilization_report()),
            ("summary.json", obs.summary_json()),
        ] {
            let path = dir.join(format!("{stem}.{ext}"));
            std::fs::write(&path, body)?;
            written.push(path);
        }
        Ok(())
    };

    // Simulated engine on the full Mirage platform (with communication,
    // so the traces carry transfer segments).
    let platform = Platform::mirage();
    let profile = TimingProfile::mirage();
    let graph = TaskGraph::cholesky(8);
    for kind in [SchedKind::Dmda, SchedKind::Dmdas] {
        let mut scheduler = kind.build(0);
        let r = simulate_with(
            &graph,
            &platform,
            &profile,
            scheduler.as_mut(),
            &SimOptions::default(),
            ObsSink::enabled(),
        );
        dump(
            &format!("sim_{}_n8", kind.label().replace(' ', "_")),
            &r.obs,
        )?;
    }

    // Threaded runtime: a no-op Cholesky DAG on 4 host threads.
    let graph = TaskGraph::cholesky(4);
    let mut scheduler = Dmdas::new();
    let workload = hetchol_rt::FnWorkload(|_| Ok::<(), std::convert::Infallible>(()));
    let r = hetchol_rt::execute_workload(
        &workload,
        &graph,
        &mut scheduler,
        &TimingProfile::mirage_homogeneous(),
        4,
        ObsSink::enabled(),
    )
    .expect("no-op tasks cannot fail");
    dump("rt_dmdas_n4", &r.obs)?;

    Ok(written)
}

/// Options for `repro mc` (see [`mc`]).
#[derive(Clone, Debug)]
pub struct McOptions {
    /// Cholesky tile count of the model-checked scenario.
    pub n_tiles: usize,
    /// Runtime worker-thread count.
    pub n_workers: usize,
    /// Also explore the fault-decision space: every single worker death
    /// and every single transient, each under every interleaving.
    pub faults: bool,
    /// Seeded-bug runner (`skip-dead-requeue` or `drop-release-notify`);
    /// `None` model-checks the stock runtime.
    pub mutate: Option<String>,
    /// Write a found witness (replayable JSON) to this path.
    pub witness_out: Option<std::path::PathBuf>,
    /// Emit machine-readable JSON instead of text.
    pub json: bool,
}

impl Default for McOptions {
    fn default() -> McOptions {
        McOptions {
            n_tiles: 2,
            n_workers: 2,
            faults: false,
            mutate: None,
            witness_out: None,
            json: false,
        }
    }
}

/// A boxed scenario runner for [`mc`]: one deterministic resilient run
/// under a given fault plan.
type McRunner = Box<
    dyn FnMut(
        &hetchol_core::fault::FaultPlan,
    ) -> Result<hetchol_rt::RtResult, hetchol_core::fault::ConfigError>,
>;

/// Build the runner `repro mc` model-checks: the stock resilient runtime,
/// or one of the seeded-bug variants when `mutation` names one.
fn mc_runner(n_tiles: usize, n_workers: usize, mutation: Option<&str>) -> Result<McRunner, String> {
    use hetchol_core::fault::RetryPolicy;
    use hetchol_rt::runtime::{execute_resilient_mutated, Mutations};
    let mutations = match mutation {
        None => {
            return Ok(Box::new(hetchol_analyze::resilient_runner(
                n_tiles, n_workers,
            )))
        }
        Some("skip-dead-requeue") => Mutations {
            skip_dead_requeue: true,
            ..Default::default()
        },
        Some("drop-release-notify") => Mutations {
            drop_release_notify: true,
            ..Default::default()
        },
        Some(other) => {
            return Err(format!(
                "unknown mutation `{other}` (try `skip-dead-requeue` or `drop-release-notify`)"
            ))
        }
    };
    let graph = TaskGraph::cholesky(n_tiles);
    let profile = TimingProfile::mirage_homogeneous();
    let policy = RetryPolicy::default();
    Ok(Box::new(move |plan| {
        let mut sched = hetchol_analyze::RoundRobin;
        let workload = hetchol_rt::FnWorkload(|_| Ok::<(), std::convert::Infallible>(()));
        execute_resilient_mutated(
            &workload, &graph, &mut sched, &profile, n_workers, plan, &policy, mutations,
        )
    }))
}

/// `repro mc`: exhaustively model-check the resilient runtime with the
/// DPOR explorer — every thread interleaving, and with `--faults` every
/// single-fault plan — checking the recovery invariant catalog at every
/// quiescent state (DESIGN.md §14).
///
/// A found violation is minimized into a replayable witness, immediately
/// replayed to confirm determinism, fed to the linter (rule 18,
/// `mc-witness`) when the replay yields a trace, and optionally written
/// to `--witness-out`. Returns the rendered report and the exit code
/// (nonzero on violations or runner failures).
pub fn mc(opts: &McOptions) -> (String, usize) {
    use hetchol_analyze::{check_recovery, ExploreConfig, RecoveryScenario};
    use hetchol_core::fault::FaultPlan;
    use std::fmt::Write as _;

    let mut out = String::new();
    let mut errors = 0usize;
    let graph = TaskGraph::cholesky(opts.n_tiles);
    let cfg = ExploreConfig::default();

    if !opts.json {
        let _ = writeln!(
            out,
            "# Model checking: cholesky({}) ({} tasks) on {} workers{}{}",
            opts.n_tiles,
            graph.len(),
            opts.n_workers,
            if opts.faults {
                ", fault space armed"
            } else {
                ""
            },
            match &opts.mutate {
                Some(m) => format!(", seeded mutation `{m}`"),
                None => String::new(),
            },
        );
    }

    let scenario = RecoveryScenario {
        n_tiles: opts.n_tiles,
        n_workers: opts.n_workers,
        mutation: opts.mutate.clone(),
    };
    let space = if opts.faults {
        FaultPlan::choice_space(graph.len(), opts.n_workers)
    } else {
        vec![FaultPlan::none()]
    };
    let runner = match mc_runner(opts.n_tiles, opts.n_workers, opts.mutate.as_deref()) {
        Ok(r) => r,
        Err(e) => return (format!("error: {e}\n"), 2),
    };
    let report = check_recovery(&scenario, &space, cfg, runner);
    if !report.is_clean() {
        errors += 1;
    }

    // A found witness must replay deterministically; when the replay
    // completes with a trace, rule 18 re-checks it through the linter.
    let mut replay_line = String::new();
    if let Some(w) = &report.witness {
        let runner = mc_runner(opts.n_tiles, opts.n_workers, w.mutation.as_deref())
            .expect("witness mutation label was validated above");
        let replay = hetchol_analyze::replay_witness(w, cfg, runner);
        let _ = write!(
            replay_line,
            "replay: {}",
            if replay.reproduced {
                "reproduced deterministically"
            } else {
                "DID NOT reproduce"
            }
        );
        if !replay.reproduced {
            errors += 1;
        }
        if let Some(r) = &replay.result {
            let platform = Platform::homogeneous(opts.n_workers).without_comm();
            let profile = TimingProfile::mirage_homogeneous();
            let lint = hetchol_analyze::Linter::new(&graph, &platform, &profile)
                .duration_check(hetchol_core::schedule::DurationCheck::Loose)
                .with_mc_witness(w.invariant, r.outcome.clone())
                .lint_trace(&r.trace);
            let confirmed = lint
                .by_rule(hetchol_analyze::Rule::McWitness)
                .iter()
                .any(|d| d.message.starts_with("CONFIRMED"));
            let _ = write!(
                replay_line,
                "; linter rule 18: {}",
                if confirmed {
                    "CONFIRMED"
                } else {
                    "not confirmed"
                }
            );
        }
        if let Some(path) = &opts.witness_out {
            match std::fs::write(path, w.to_json()) {
                Ok(()) => {
                    let _ = write!(replay_line, "; witness written to {}", path.display());
                }
                Err(e) => {
                    errors += 1;
                    let _ = write!(replay_line, "; FAILED to write {}: {e}", path.display());
                }
            }
        }
    }

    if opts.json {
        let _ = write!(
            out,
            "{{\"tiles\":{},\"workers\":{},\"plans\":{},\"schedules_run\":{},\"exhausted\":{}",
            opts.n_tiles, opts.n_workers, report.plans, report.schedules_run, report.exhausted
        );
        match &report.witness {
            Some(w) => {
                let _ = write!(out, ",\"witness\":{}", w.to_json());
            }
            None => {
                let _ = write!(out, ",\"witness\":null");
            }
        }
        let _ = writeln!(out, ",\"failures\":{}}}", report.failures.len());
    } else {
        let _ = writeln!(
            out,
            "explored {} fault plan(s), {} branch(es) total, exhausted: {}",
            report.plans, report.schedules_run, report.exhausted
        );
        for f in &report.failures {
            let _ = writeln!(out, "FAILURE: {f}");
        }
        match &report.witness {
            Some(w) => {
                let plan = if w.plan.is_empty() {
                    "no faults".to_string()
                } else {
                    w.plan
                        .faults()
                        .iter()
                        .map(|f| f.to_string())
                        .collect::<Vec<_>>()
                        .join(" + ")
                };
                let _ = writeln!(
                    out,
                    "VIOLATION: {} under [{plan}]\n  {}\n  minimized choice prefix: {:?}",
                    w.invariant, w.detail, w.choices
                );
                let _ = writeln!(out, "{replay_line}");
            }
            None => {
                let _ = writeln!(out, "no invariant violations");
            }
        }
    }
    (out, errors)
}

/// `repro mc --replay <witness.json>`: deterministically re-run a stored
/// witness and verify it still reproduces its recorded invariant
/// violation. Returns the rendered report and the exit code (nonzero when
/// the witness fails to reproduce). Dispatches on the witness's `model`
/// tag: the resilient runtime (the default) or the serve pool
/// (`"serve-pool"`, produced by `repro race --mutate leak-killed-batch`).
pub fn mc_replay(text: &str, json: bool) -> (String, usize) {
    use hetchol_analyze::{ExploreConfig, Witness};
    use std::fmt::Write as _;

    let witness = match Witness::from_json(text) {
        Ok(w) => w,
        Err(e) => return (format!("error: bad witness: {e}\n"), 2),
    };
    if witness.model == "serve-pool" {
        return serve_pool_replay(&witness, json);
    }
    let runner = match mc_runner(
        witness.n_tiles,
        witness.n_workers,
        witness.mutation.as_deref(),
    ) {
        Ok(r) => r,
        Err(e) => return (format!("error: {e}\n"), 2),
    };
    let replay = hetchol_analyze::replay_witness(&witness, ExploreConfig::default(), runner);
    let mut out = String::new();
    if json {
        let _ = writeln!(
            out,
            "{{\"invariant\":\"{}\",\"reproduced\":{},\"observed\":{}}}",
            witness.invariant,
            replay.reproduced,
            match &replay.observed {
                Some(v) => format!("\"{}\"", v.invariant),
                None => "null".to_string(),
            }
        );
    } else {
        let _ = writeln!(
            out,
            "witness: {} on cholesky({}) × {} workers{}",
            witness.invariant,
            witness.n_tiles,
            witness.n_workers,
            match &witness.mutation {
                Some(m) => format!(" (mutation `{m}`)"),
                None => String::new(),
            }
        );
        match (&replay.observed, &replay.error) {
            (Some(v), _) => {
                let _ = writeln!(out, "replay observed: {}\n  {}", v.invariant, v.detail);
            }
            (None, Some(e)) => {
                let _ = writeln!(out, "replay errored: {e}");
            }
            (None, None) => {
                let _ = writeln!(out, "replay observed: clean run");
            }
        }
        let _ = writeln!(
            out,
            "{}",
            if replay.reproduced {
                "REPRODUCED: the recorded violation is real in this build"
            } else {
                "NOT reproduced (fixed bug, or a stale/divergent witness)"
            }
        );
    }
    (out, usize::from(!replay.reproduced))
}

/// Replay a `"serve-pool"` witness through the serve-layer model
/// ([`hetchol_serve::model::replay_pool`]).
fn serve_pool_replay(witness: &hetchol_analyze::Witness, json: bool) -> (String, usize) {
    use std::fmt::Write as _;

    let replay = match hetchol_serve::model::replay_pool(witness, serve_model_config()) {
        Ok(r) => r,
        Err(e) => return (format!("error: {e}\n"), 2),
    };
    let reproduced = replay
        .observed
        .as_ref()
        .is_some_and(|v| v.invariant == witness.invariant);
    let mut out = String::new();
    if json {
        let _ = writeln!(
            out,
            "{{\"model\":\"serve-pool\",\"invariant\":\"{}\",\"reproduced\":{},\"observed\":{}}}",
            witness.invariant,
            reproduced,
            match &replay.observed {
                Some(v) => format!("\"{}\"", v.invariant),
                None => "null".to_string(),
            }
        );
    } else {
        let _ = writeln!(
            out,
            "witness: {} on the serve pool ({} controlled threads){}",
            witness.invariant,
            witness.n_workers,
            match &witness.mutation {
                Some(m) => format!(" (mutation `{m}`)"),
                None => String::new(),
            }
        );
        match (&replay.observed, &replay.error) {
            (Some(v), _) => {
                let _ = writeln!(out, "replay observed: {}\n  {}", v.invariant, v.detail);
            }
            (None, Some(e)) => {
                let _ = writeln!(out, "replay errored: {e}");
            }
            (None, None) => {
                let _ = writeln!(out, "replay observed: clean run");
            }
        }
        let _ = writeln!(
            out,
            "{}",
            if reproduced {
                "REPRODUCED: the recorded violation is real in this build"
            } else {
                "NOT reproduced (fixed bug, or a stale/divergent witness)"
            }
        );
    }
    (out, usize::from(!reproduced))
}

/// Options for `repro race` (see [`race`]).
#[derive(Clone, Debug, Default)]
pub struct RaceOptions {
    /// Skip the threaded-runtime recording leg; analyze the serve layer
    /// only.
    pub serve_only: bool,
    /// Seeded bug to arm (`drop-store-lock`, `invert-commit-order` or
    /// `leak-killed-batch`); `None` analyzes the stock stack.
    pub mutate: Option<String>,
    /// Write the found model-checker witness (`leak-killed-batch`) to
    /// this path.
    pub witness_out: Option<std::path::PathBuf>,
    /// Emit machine-readable JSON instead of text.
    pub json: bool,
}

/// The exploration budget the serve-pool model runs under: the stock tree
/// is ~59k schedules, well inside this cap, so `exhausted: false` is a
/// real finding rather than a budget artifact.
fn serve_model_config() -> hetchol_analyze::ExploreConfig {
    hetchol_analyze::ExploreConfig {
        max_schedules: 200_000,
        max_steps: 20_000,
        sleep_sets: true,
    }
}

/// A tiny finished job for driving the serve commit path directly: runs
/// a `cholesky(2)` spec once (deterministic, milliseconds) and wraps the
/// result the way a pool worker would.
fn race_job(id: u64, seed: u64) -> (u64, std::sync::Arc<hetchol_serve::store::StoredJob>) {
    let mut spec = hetchol::job::JobSpec::new("cholesky", 2).expect("cholesky is a known workload");
    spec.seed = seed;
    let hash = spec.content_hash();
    let run = spec
        .run_with_bounds(None)
        .expect("a stock cholesky(2) simulation cannot fail");
    let job = std::sync::Arc::new(hetchol_serve::store::StoredJob::fresh(
        id,
        spec,
        run.outcome,
        run.sim,
    ));
    (hash, job)
}

/// Exercise the real serve submission path at real speed: a fresh state
/// (built inside the recording, so its lock labels are captured), a pool
/// over it, four concurrent clients submitting overlapping specs (so the
/// result cache sees both hits and misses), then one `/stats` snapshot.
/// Returns that snapshot and the total number of counted submissions.
fn serve_exercise() -> (hetchol_serve::pool::StatsSnapshot, u64) {
    const CLIENTS: u64 = 4;
    const JOBS_PER_CLIENT: u64 = 3;
    let state = std::sync::Arc::new(hetchol_serve::pool::ServerState::new());
    state.label_locks();
    let pool = hetchol_serve::pool::Pool::start(2, 8, 4, state.clone());
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let state = &*state;
            let pool = &pool;
            s.spawn(move || {
                for j in 0..JOBS_PER_CLIENT {
                    let mut spec = hetchol::job::JobSpec::new("cholesky", 2)
                        .expect("cholesky is a known workload");
                    // Clients 0/2 and 1/3 submit the same specs, so the
                    // second of each pair hits the result cache.
                    spec.seed = (client % 2) * 100 + j;
                    let _ = hetchol_serve::submit_job(state, pool, spec, 30_000);
                }
            });
        }
    });
    let snap = state.consistent_stats();
    pool.shutdown();
    (snap, CLIENTS * JOBS_PER_CLIENT)
}

/// `repro race`: the concurrency-analysis battery (DESIGN.md §16).
///
/// Stock (no `--mutate`): record the threaded runtime and the serve
/// submission path under the passive happens-before recorder (data races
/// over declared touchpoints, lock-order cycles), then exhaust the
/// serve-pool model under DPOR. Exit 1 on any finding.
///
/// With `--mutate <bug>`, arm exactly one seeded concurrency bug and run
/// the analyzer that must catch it — exit 1 *when detected* (so CI
/// asserts stock ⇒ 0 and each mutation ⇒ 1):
///
/// * `drop-store-lock` — store commits touch outside the lock; the
///   happens-before recorder reports the race under every real timing,
///   surfaced through linter rule 19 (`race-witness`);
/// * `invert-commit-order` — the commit path pins the result cache
///   before the store; lockdep closes the cycle against the stats path,
///   deterministically, with no concurrency needed at all;
/// * `leak-killed-batch` — a killed worker leaks its drained batch; the
///   model checker produces a minimized deadlock witness, which is
///   immediately replayed (and optionally written via `--witness-out`).
pub fn race(opts: &RaceOptions) -> (String, usize) {
    use std::fmt::Write as _;

    match opts.mutate.as_deref() {
        None => race_stock(opts),
        Some("drop-store-lock") => race_hb_mutation(
            opts,
            "drop-store-lock",
            hetchol_serve::pool::PoolMutations {
                unsynced_store_touch: true,
                ..Default::default()
            },
        ),
        Some("invert-commit-order") => race_hb_mutation(
            opts,
            "invert-commit-order",
            hetchol_serve::pool::PoolMutations {
                invert_commit_order: true,
                ..Default::default()
            },
        ),
        Some("leak-killed-batch") => race_model_mutation(opts),
        Some(other) => {
            let mut out = String::new();
            let _ = writeln!(
                out,
                "error: unknown mutation `{other}` (try `drop-store-lock`, \
                 `invert-commit-order` or `leak-killed-batch`)"
            );
            (out, 2)
        }
    }
}

/// The stock `repro race` pass: both passive recordings plus the model
/// exhaustion; any finding is an error.
fn race_stock(opts: &RaceOptions) -> (String, usize) {
    use hetchol_analyze::hb;
    use std::fmt::Write as _;

    let mut out = String::new();
    let mut errors = 0usize;
    if !opts.json {
        let _ = writeln!(
            out,
            "# Race analysis: passive happens-before + lockdep, then the serve-pool model (DPOR)"
        );
    }

    // Leg 1: the threaded runtime, recorded passively at real speed.
    let mut rt_json = "null".to_string();
    if !opts.serve_only {
        let graph = TaskGraph::cholesky(4);
        let ((), rt) = hb::record(|| {
            let mut scheduler = Dmdas::new();
            let workload = hetchol_rt::FnWorkload(|_| Ok::<(), std::convert::Infallible>(()));
            let r = hetchol_rt::execute_workload(
                &workload,
                &graph,
                &mut scheduler,
                &TimingProfile::mirage_homogeneous(),
                4,
                ObsSink::enabled(),
            )
            .expect("no-op tasks cannot fail");
            drop(r);
        });
        if !rt.is_clean() {
            errors += 1;
        }
        rt_json = format!(
            "{{\"threads\":{},\"events\":{},\"races\":{},\"cycles\":{}}}",
            rt.threads,
            rt.events,
            rt.races.len(),
            rt.cycles.len()
        );
        if !opts.json {
            let _ = writeln!(
                out,
                "rt: {} threads, {} sync events, {} race(s), {} lock-order cycle(s)",
                rt.threads,
                rt.events,
                rt.races.len(),
                rt.cycles.len()
            );
            for d in hetchol_analyze::race_report(&rt).diagnostics {
                let _ = writeln!(out, "  {d}");
            }
        }
    }

    // Leg 2: the serve submission path, recorded passively at real speed.
    let ((snap, gets), serve) = hb::record(serve_exercise);
    let coherent =
        snap.results.hits + snap.results.misses == snap.results.gets && snap.results.gets == gets;
    if !serve.is_clean() || !coherent {
        errors += 1;
    }
    if !opts.json {
        let _ = writeln!(
            out,
            "serve: {} threads, {} sync events, {} race(s), {} lock-order cycle(s); \
             stats coherent: {} (hits {} + misses {} == gets {})",
            serve.threads,
            serve.events,
            serve.races.len(),
            serve.cycles.len(),
            coherent,
            snap.results.hits,
            snap.results.misses,
            snap.results.gets
        );
        for d in hetchol_analyze::race_report(&serve).diagnostics {
            let _ = writeln!(out, "  {d}");
        }
    }

    // Leg 3: exhaust the serve-pool model under DPOR.
    let report = match hetchol_serve::model::check_pool(serve_model_config(), None) {
        Ok(r) => r,
        Err(e) => return (format!("error: {e}\n"), 2),
    };
    if !report.is_clean() || !report.exhausted {
        errors += 1;
    }
    if opts.json {
        let _ = writeln!(
            out,
            "{{\"mutation\":null,\"rt\":{rt_json},\"serve\":{{\"threads\":{},\"events\":{},\
             \"races\":{},\"cycles\":{},\"stats_coherent\":{}}},\
             \"model\":{{\"schedules_run\":{},\"exhausted\":{},\"clean\":{}}},\"detected\":{}}}",
            serve.threads,
            serve.events,
            serve.races.len(),
            serve.cycles.len(),
            coherent,
            report.schedules_run,
            report.exhausted,
            report.is_clean(),
            errors > 0
        );
    } else {
        let _ = writeln!(
            out,
            "model: {} schedule(s), exhausted: {}, clean: {}",
            report.schedules_run,
            report.exhausted,
            report.is_clean()
        );
        if let Some(v) = &report.violation {
            let _ = writeln!(out, "VIOLATION: {} — {}", v.invariant, v.detail);
        }
        for f in &report.failures {
            let _ = writeln!(out, "FAILURE: {f}");
        }
        let _ = writeln!(
            out,
            "{}",
            if errors == 0 {
                "no races, no lock-order cycles, model clean"
            } else {
                "FINDINGS: the stock stack is not clean"
            }
        );
    }
    (out, usize::from(errors > 0))
}

/// One happens-before-detected mutation (`drop-store-lock` or
/// `invert-commit-order`): arm it, drive the commit path the minimal
/// deterministic way, and report through linter rule 19.
fn race_hb_mutation(
    opts: &RaceOptions,
    name: &str,
    muts: hetchol_serve::pool::PoolMutations,
) -> (String, usize) {
    use hetchol_analyze::hb;
    use std::fmt::Write as _;

    let (h1, j1) = race_job(1, 0);
    let (h2, j2) = race_job(2, 1);
    // The state is built inside the recording so its lock labels land in
    // the event stream and the report names locks, not raw ids.
    let ((), report) = hb::record(|| {
        let state = hetchol_serve::pool::ServerState::with_mutations(muts);
        state.label_locks();
        if muts.invert_commit_order {
            // The inversion needs no concurrency: one commit (results →
            // store) plus one stats snapshot (store → results) closes the
            // cycle.
            state.commit_job(h1, j1.clone());
            let _ = state.consistent_stats();
        } else {
            // Two threads each committing exactly once: with the touch
            // outside the store lock, the only inter-thread edges both
            // predate the touches, so the vector clocks leave the pair
            // unordered under every real timing — detection is
            // deterministic.
            std::thread::scope(|s| {
                s.spawn(|| state.commit_job(h1, j1.clone()));
                s.spawn(|| state.commit_job(h2, j2.clone()));
            });
        }
    });

    let lint = hetchol_analyze::race_report(&report);
    let detected = !report.is_clean();
    let mut out = String::new();
    if opts.json {
        let _ = writeln!(
            out,
            "{{\"mutation\":\"{name}\",\"detected\":{detected},\"races\":{},\"cycles\":{},\
             \"lint\":{}}}",
            report.races.len(),
            report.cycles.len(),
            lint.to_json()
        );
    } else {
        let _ = writeln!(out, "# Race analysis: seeded mutation `{name}`");
        let _ = writeln!(
            out,
            "recorded {} threads, {} sync events: {} race(s), {} lock-order cycle(s)",
            report.threads,
            report.events,
            report.races.len(),
            report.cycles.len()
        );
        for d in &lint.diagnostics {
            let _ = writeln!(out, "  {d}");
        }
        let _ = writeln!(
            out,
            "{}",
            if detected {
                "DETECTED: the seeded bug was caught (linter rule 19, race-witness)"
            } else {
                "NOT DETECTED: the seeded bug escaped the analyzer"
            }
        );
    }
    (out, usize::from(detected))
}

/// The model-checked mutation (`leak-killed-batch`): the DPOR engine must
/// produce a deadlock witness, which is replayed on the spot and
/// optionally written out for `repro mc --replay`.
fn race_model_mutation(opts: &RaceOptions) -> (String, usize) {
    use std::fmt::Write as _;

    let report =
        match hetchol_serve::model::check_pool(serve_model_config(), Some("leak-killed-batch")) {
            Ok(r) => r,
            Err(e) => return (format!("error: {e}\n"), 2),
        };
    let witness = hetchol_serve::model::pool_witness(&report, Some("leak-killed-batch"));
    let detected = witness.is_some();
    let mut out = String::new();
    let mut replay_line = String::new();
    let mut reproduced = false;
    if let Some(w) = &witness {
        match hetchol_serve::model::replay_pool(w, serve_model_config()) {
            Ok(replay) => {
                reproduced = replay
                    .observed
                    .as_ref()
                    .is_some_and(|v| v.invariant == w.invariant);
                let _ = write!(
                    replay_line,
                    "replay: {}",
                    if reproduced {
                        "reproduced deterministically"
                    } else {
                        "DID NOT reproduce"
                    }
                );
            }
            Err(e) => {
                let _ = write!(replay_line, "replay errored: {e}");
            }
        }
        if let Some(path) = &opts.witness_out {
            match std::fs::write(path, w.to_json()) {
                Ok(()) => {
                    let _ = write!(replay_line, "; witness written to {}", path.display());
                }
                Err(e) => {
                    let _ = write!(replay_line, "; FAILED to write {}: {e}", path.display());
                }
            }
        }
    }
    if opts.json {
        let _ = writeln!(
            out,
            "{{\"mutation\":\"leak-killed-batch\",\"detected\":{detected},\
             \"schedules_run\":{},\"replay_reproduced\":{reproduced},\"witness\":{}}}",
            report.schedules_run,
            match &witness {
                Some(w) => w.to_json(),
                None => "null".to_string(),
            }
        );
    } else {
        let _ = writeln!(out, "# Race analysis: seeded mutation `leak-killed-batch`");
        let _ = writeln!(
            out,
            "model: {} schedule(s) before the verdict",
            report.schedules_run
        );
        match &witness {
            Some(w) => {
                let _ = writeln!(
                    out,
                    "VIOLATION: {}\n  {}\n  minimized choice prefix: {:?}",
                    w.invariant, w.detail, w.choices
                );
                let _ = writeln!(out, "{replay_line}");
                let _ = writeln!(
                    out,
                    "DETECTED: the seeded bug was caught (deadlock witness)"
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "NOT DETECTED: the seeded bug escaped the model checker"
                );
            }
        }
    }
    (out, usize::from(detected))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sched_kind_labels_and_builders() {
        for kind in [
            SchedKind::Random,
            SchedKind::Dmda,
            SchedKind::Dmdas,
            SchedKind::GemmSyrkGpu,
            SchedKind::TriangleTrsm(6),
        ] {
            let s = kind.build(0);
            assert!(!s.name().is_empty());
            assert!(!kind.label().is_empty());
        }
        assert!(SchedKind::Random.stochastic());
        assert!(!SchedKind::Dmdas.stochastic());
    }

    #[test]
    fn small_figure7_shape() {
        // Miniature of Figure 7 at two sizes: dmda/dmdas beat random, and
        // the mixed bound dominates everything.
        let platform = Platform::mirage().without_comm();
        let profile = TimingProfile::mirage();
        let sizes = [4usize, 8];
        for &n in &sizes {
            let rand_g = {
                let samples =
                    sim_gflops_samples(n, &platform, &profile, SchedKind::Random, false, 5);
                samples.iter().sum::<f64>() / samples.len() as f64
            };
            let dmda_g = sim_gflops(
                n,
                &platform,
                &profile,
                SchedKind::Dmda,
                &SimOptions::default(),
            );
            let set = BoundSet::compute(n, &platform, &profile);
            assert!(dmda_g > rand_g, "n={n}: dmda {dmda_g} vs random {rand_g}");
            assert!(
                dmda_g <= set.mixed_gflops() * 1.0001,
                "n={n}: dmda {dmda_g} exceeds bound {}",
                set.mixed_gflops()
            );
        }
    }

    #[test]
    fn triangle_sweep_beats_or_matches_dmdas_on_medium() {
        let platform = Platform::mirage().without_comm();
        let profile = TimingProfile::mirage();
        let n = 10;
        let dmdas = sim_gflops(
            n,
            &platform,
            &profile,
            SchedKind::Dmdas,
            &SimOptions::default(),
        );
        let (best, k) = best_triangle_k(n, &platform, &profile, false);
        assert!(
            best >= dmdas * 0.98,
            "triangle best {best} (k={k}) vs dmdas {dmdas}"
        );
    }

    #[test]
    fn table_and_dot_outputs() {
        assert!(table1().contains("GEMM"));
        assert!(kfactors().contains("17.30"));
        assert!(figure1().contains("POTRF_0"));
        let f9 = figure9(6, 2);
        assert!(f9.contains('C') && f9.contains('g'));
    }

    #[test]
    fn figure12_reports_idle() {
        let out = figure12();
        assert!(out.contains("dmda"));
        assert!(out.contains("dmdas"));
        assert!(out.contains("GPU idle fraction"));
    }
}

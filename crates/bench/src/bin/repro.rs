//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//! ```text
//! repro all                  # everything below, in order
//! repro table1               # Table I: GPU/CPU kernel speedups
//! repro kfactors             # Section V-C2 acceleration factors K(n)
//! repro fig1                 # 5x5 Cholesky DAG (DOT)
//! repro fig2                 # theoretical upper bounds
//! repro fig3 .. fig8         # scheduler curves (see DESIGN.md)
//! repro fig9 [n] [k]         # TRSMs forced on CPUs (ASCII triangle)
//! repro fig10 [--cp-budget N]  # static knowledge vs bounds (CP inside)
//! repro fig11                # actual mode with static knowledge
//! repro fig12                # GPU Gantt traces, dmda vs dmdas
//! repro hint-gemmsyrk        # Section V-C3 first experiment
//! repro mapping-only         # Section VI-B experiment
//! repro sweep-k [n]          # makespan vs triangle offset k
//!
//! repro analyze              # lint both engines' traces (exit 1 on errors)
//! repro chaos [--seed N]     # seeded fault-injection matrix over both engines (exit 1 on failures)
//! repro mc [--workers N] [--tiles N] [--faults] [--mutate <bug>]
//!          [--witness-out <file>] [--replay <witness.json>]
//!                            # DPOR model checking of the resilient runtime (exit 1 on violations)
//! repro race [--serve] [--mutate <bug>] [--witness-out <file>]
//!                            # happens-before + lockdep recording and the serve-pool model;
//!                            # stock: exit 1 on findings; --mutate: exit 1 when the bug is caught
//! repro certify              # exact-certify the paper grid's bounds (exit 1 on failures)
//! repro obs-check <file...>  # validate Chrome-trace JSON files (exit 1 on invalid)
//! repro bench [--quick]      # execution-core throughput matrix (BENCH_sim_throughput.json)
//! repro bench-check <fresh> <committed>  # schema + >30% regression gate (exit 1 on failures)
//! repro serve [--addr A] [--shards N] [--log FILE]
//!                            # run the hetchol-serve job API in the foreground; --log makes
//!                            # commits durable (crash recovery + `POST /admin/drain` exits cleanly)
//! repro storm [--addr A] [--jobs N] [--p99-limit MS] [--quick]
//!             [--keep-alive] [--disk-fault] [--kill-restart]
//!                            # load/cache/chaos harness against the job API (exit 1 on failures);
//!                            # the three flags add the durability legs of DESIGN.md §17
//!
//! Add `--csv` to print figures as CSV instead of aligned tables.
//! Add `--obs-out <dir>` to any subcommand to also run one instrumented
//! reference workload per engine and write observability artifacts
//! (Chrome trace, utilization report, summary JSON) into `<dir>`.
//! ```

use hetchol_bench as bench;
use hetchol_core::metrics::Figure;
use hetchol_cp::CpOptions;

struct Args {
    csv: bool,
    json: bool,
    analyze: bool,
    quick: bool,
    cp_budget: usize,
    seed: u64,
    obs_out: Option<std::path::PathBuf>,
    mc: bench::McOptions,
    race: bench::RaceOptions,
    replay: Option<std::path::PathBuf>,
    addr: Option<String>,
    shards: usize,
    jobs: Option<usize>,
    p99_limit_ms: Option<u64>,
    log: Option<std::path::PathBuf>,
    keep_alive: bool,
    disk_fault: bool,
    kill_restart: bool,
    rest: Vec<String>,
}

fn parse_args() -> Args {
    let mut csv = false;
    let mut json = false;
    let mut analyze = false;
    let mut quick = false;
    let mut cp_budget = 30_000usize;
    let mut seed = 42u64;
    let mut obs_out = None;
    let mut mc = bench::McOptions::default();
    let mut race = bench::RaceOptions::default();
    let mut replay = None;
    let mut addr = None;
    let mut shards = 4usize;
    let mut jobs = None;
    let mut p99_limit_ms = None;
    let mut log = None;
    let mut keep_alive = false;
    let mut disk_fault = false;
    let mut kill_restart = false;
    let mut rest = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--csv" => csv = true,
            "--json" => json = true,
            "--analyze" => analyze = true,
            "--quick" => quick = true,
            "--cp-budget" => {
                cp_budget = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--cp-budget needs an integer"));
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--obs-out" => {
                obs_out = Some(std::path::PathBuf::from(
                    it.next()
                        .unwrap_or_else(|| die("--obs-out needs a directory")),
                ));
            }
            "--workers" => {
                mc.n_workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--workers needs an integer"));
            }
            "--tiles" => {
                mc.n_tiles = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--tiles needs an integer"));
            }
            "--faults" => mc.faults = true,
            "--serve" => race.serve_only = true,
            "--mutate" => {
                let name = it.next().unwrap_or_else(|| die("--mutate needs a name"));
                mc.mutate = Some(name.clone());
                race.mutate = Some(name);
            }
            "--witness-out" => {
                let path = std::path::PathBuf::from(
                    it.next()
                        .unwrap_or_else(|| die("--witness-out needs a file")),
                );
                mc.witness_out = Some(path.clone());
                race.witness_out = Some(path);
            }
            "--replay" => {
                replay = Some(std::path::PathBuf::from(
                    it.next().unwrap_or_else(|| die("--replay needs a file")),
                ));
            }
            "--addr" => {
                addr = Some(it.next().unwrap_or_else(|| die("--addr needs host:port")));
            }
            "--shards" => {
                shards = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--shards needs an integer"));
            }
            "--jobs" => {
                jobs = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--jobs needs an integer")),
                );
            }
            "--p99-limit" => {
                p99_limit_ms = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--p99-limit needs milliseconds")),
                );
            }
            "--log" => {
                log = Some(std::path::PathBuf::from(
                    it.next().unwrap_or_else(|| die("--log needs a file path")),
                ));
            }
            "--keep-alive" => keep_alive = true,
            "--disk-fault" => disk_fault = true,
            "--kill-restart" => kill_restart = true,
            flag if flag.starts_with("--") && flag != "--help" => {
                die(&format!("unknown flag `{flag}`; try `repro help`"))
            }
            _ => rest.push(a),
        }
    }
    mc.json = json;
    race.json = json;
    Args {
        csv,
        json,
        analyze,
        quick,
        cp_budget,
        seed,
        obs_out,
        mc,
        race,
        replay,
        addr,
        shards,
        jobs,
        p99_limit_ms,
        log,
        keep_alive,
        disk_fault,
        kill_restart,
        rest,
    }
}

/// `repro serve`: run the job API in the foreground until killed or
/// drained. With `--log` every commit is durable: startup recovers the
/// longest checksummed prefix (a torn tail is a structured warning, not
/// a crash) and `POST /admin/drain` fsyncs the log and exits cleanly.
fn run_serve(args: &Args) -> ! {
    let addr = args.addr.clone().unwrap_or_else(|| "127.0.0.1:8790".into());
    let mut config = bench::storm::serve_config(&addr, args.shards);
    config.log_path = args.log.clone();
    match hetchol_serve::Server::start(config) {
        Ok(server) => {
            if let Some(report) = server.recovery() {
                if !report.is_clean() {
                    eprintln!("serve: WARNING torn job log tail truncated");
                }
                eprintln!("serve: recovery {}", report.to_json_value().render());
            }
            println!("serve: listening on http://{}", server.addr());
            println!(
                "serve: POST /jobs  GET /jobs/<id>[/trace|/lint]  GET /health  GET /stats  POST /admin/drain"
            );
            server.wait_drained();
            println!("serve: drained; exiting");
            std::process::exit(0)
        }
        Err(e) => die(&format!("serve: cannot bind {addr}: {e}")),
    }
}

/// `repro storm [--quick]`: the load/cache/chaos harness; exit 1 when any
/// assertion fails.
fn run_storm(args: &Args) -> ! {
    let mut opts = if args.quick {
        bench::StormOptions::quick()
    } else {
        bench::StormOptions::full()
    };
    opts.addr = args.addr.clone();
    opts.json = args.json;
    opts.keep_alive = args.keep_alive;
    opts.disk_fault = args.disk_fault;
    opts.kill_restart = args.kill_restart;
    if let Some(jobs) = args.jobs {
        opts.jobs = jobs;
    }
    if let Some(limit) = args.p99_limit_ms {
        opts.p99_limit_ms = limit;
    }
    let (report, failures) = bench::storm(&opts);
    print!("{report}");
    if failures > 0 {
        eprintln!("storm: {failures} failed assertion(s)");
        std::process::exit(1);
    }
    std::process::exit(0)
}

/// `repro --analyze` / `repro analyze`: lint both engines' traces with
/// `hetchol-analyze` and exit nonzero on any error-severity finding.
fn run_analyze(json: bool) -> ! {
    let (report, errors) = bench::analyze(json);
    print!("{report}");
    if errors > 0 {
        eprintln!("analyze: {errors} error-severity finding(s)");
        std::process::exit(1);
    }
    std::process::exit(0)
}

/// `repro chaos`: run the seeded fault-injection matrix through both
/// engines — outcome classification, recovery lint (rule 17) and numeric
/// verification per scenario — and exit nonzero if any scenario fails.
fn run_chaos(seed: u64, json: bool) -> ! {
    let (report, failures) = bench::chaos(seed, json);
    print!("{report}");
    if failures > 0 {
        eprintln!("chaos: {failures} failed scenario(s)");
        std::process::exit(1);
    }
    std::process::exit(0)
}

/// `repro mc`: exhaustively model-check the resilient runtime with the
/// DPOR explorer (DESIGN.md §14) and exit nonzero on any invariant
/// violation; `--replay <witness.json>` re-runs a stored witness instead
/// and exits nonzero when it no longer reproduces.
fn run_mc(opts: &bench::McOptions, replay: Option<&std::path::Path>, json: bool) -> ! {
    let (report, code) = match replay {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("{}: unreadable: {e}", path.display())));
            bench::mc_replay(&text, json)
        }
        None => bench::mc(opts),
    };
    print!("{report}");
    if code > 0 {
        eprintln!("mc: verification failed");
    }
    std::process::exit(i32::try_from(code.min(2)).expect("code ≤ 2"))
}

/// `repro race`: the concurrency-analysis battery (DESIGN.md §16) —
/// passive happens-before + lockdep recordings over the runtime and the
/// serve layer, then exhaustive DPOR of the serve-pool model. Stock exits
/// 0 when clean; `--mutate <bug>` arms one seeded concurrency bug and
/// exits 1 when the corresponding analyzer catches it.
fn run_race(opts: &bench::RaceOptions) -> ! {
    let (report, code) = bench::race(opts);
    print!("{report}");
    if code == 2 {
        eprintln!("race: usage error");
    }
    std::process::exit(i32::try_from(code.min(2)).expect("code ≤ 2"))
}

/// `repro certify`: build exact rational certificates for every LP/ILP
/// bound on the paper grid, run them through the independent checker, and
/// exit nonzero if any bound could not be certified.
fn run_certify(json: bool) -> ! {
    let (report, failures) = bench::certify_report(json);
    print!("{report}");
    if failures > 0 {
        eprintln!("certify: {failures} bound(s) failed certification");
        std::process::exit(1);
    }
    std::process::exit(0)
}

/// `repro obs-check <file...>`: schema-validate Chrome-trace JSON files
/// (the golden checker CI runs against `--obs-out` artifacts).
fn run_obs_check(files: &[String]) -> ! {
    if files.is_empty() {
        die("obs-check needs at least one trace file");
    }
    let mut bad = 0usize;
    for f in files {
        let text = match std::fs::read_to_string(f) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{f}: unreadable: {e}");
                bad += 1;
                continue;
            }
        };
        match hetchol_core::obs::validate_chrome_trace(&text) {
            Ok(n) => println!("{f}: ok ({n} events)"),
            Err(e) => {
                eprintln!("{f}: INVALID: {e}");
                bad += 1;
            }
        }
    }
    std::process::exit(if bad > 0 { 1 } else { 0 })
}

/// `repro bench [--quick] [--json]`: run the execution-core throughput
/// matrix (DESIGN.md §13). `--json` emits the `hetchol-bench/v1` document
/// committed as `BENCH_sim_throughput.json`.
fn run_bench(json: bool, quick: bool) -> ! {
    let report = bench::bench_report(quick);
    if json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.to_table());
    }
    std::process::exit(0)
}

/// `repro bench-check <fresh.json> <committed.json>`: schema-validate both
/// documents and exit nonzero if any arena-engine cell regressed by more
/// than 30% against the committed baseline.
fn run_bench_check(files: &[String]) -> ! {
    let [fresh, committed] = files else {
        die("bench-check needs exactly two files: <fresh.json> <committed.json>");
    };
    let read = |path: &String| {
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: unreadable: {e}")))
    };
    let (report, failures) = bench::bench_check(&read(fresh), &read(committed));
    print!("{report}");
    if failures > 0 {
        eprintln!("bench-check: {failures} failure(s)");
        std::process::exit(1);
    }
    std::process::exit(0)
}

fn run_obs_dump(dir: &std::path::Path) {
    match bench::obs_dump(dir) {
        Ok(paths) => {
            for p in paths {
                println!("obs: wrote {}", p.display());
            }
        }
        Err(e) => die(&format!("--obs-out {}: {e}", dir.display())),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

fn emit(fig: &Figure, args: &Args) {
    if args.json {
        println!("{}", fig.to_json());
    } else if args.csv {
        print!("{}", fig.to_csv());
        println!();
    } else {
        print!("{}", fig.to_table());
        println!();
    }
}

fn main() {
    let args = parse_args();
    let cmd = args.rest.first().map(String::as_str).unwrap_or("help");
    if cmd == "obs-check" {
        run_obs_check(&args.rest[1..]);
    }
    // Observability artifacts ride along with any subcommand.
    if let Some(dir) = &args.obs_out {
        run_obs_dump(dir);
    }
    if args.analyze || cmd == "analyze" {
        run_analyze(args.json);
    }
    if cmd == "certify" {
        run_certify(args.json);
    }
    if cmd == "chaos" {
        run_chaos(args.seed, args.json);
    }
    if cmd == "mc" {
        run_mc(&args.mc, args.replay.as_deref(), args.json);
    }
    if cmd == "race" {
        run_race(&args.race);
    }
    if cmd == "bench" {
        run_bench(args.json, args.quick);
    }
    if cmd == "bench-check" {
        run_bench_check(&args.rest[1..]);
    }
    if cmd == "serve" {
        run_serve(&args);
    }
    if cmd == "storm" {
        run_storm(&args);
    }
    let cp_opts = CpOptions {
        anneal_iters: args.cp_budget,
        node_limit: args.cp_budget,
        seed: 0,
    };

    let run_one = |name: &str| match name {
        "table1" => print!("{}", bench::table1()),
        "kfactors" => print!("{}", bench::kfactors()),
        "fig1" => print!("{}", bench::figure1()),
        "fig2" => emit(&bench::figure2(), &args),
        "fig3" => emit(&bench::figure3(), &args),
        "fig4" => emit(&bench::figure4(), &args),
        "fig5" => emit(&bench::figure5(), &args),
        "fig6" => emit(&bench::figure6(), &args),
        "fig7" => emit(&bench::figure7(), &args),
        "fig8" => emit(&bench::figure8(), &args),
        "fig9" => {
            let n = args
                .rest
                .get(1)
                .and_then(|v| v.parse().ok())
                .unwrap_or(10usize);
            let k = args
                .rest
                .get(2)
                .and_then(|v| v.parse().ok())
                .unwrap_or(3u32);
            print!("{}", bench::figure9(n, k));
        }
        "fig10" => emit(&bench::figure10(&cp_opts, 16), &args),
        "fig11" => emit(&bench::figure11(), &args),
        "fig12" => print!("{}", bench::figure12()),
        "hint-gemmsyrk" => emit(&bench::figure_hint_gemmsyrk(), &args),
        "mapping-only" => emit(&bench::figure_mapping_only(&cp_opts, &[4, 8, 12]), &args),
        "lu" => emit(
            &bench::figure_algo(hetchol_core::algorithm::Algorithm::Lu),
            &args,
        ),
        "qr" => emit(
            &bench::figure_algo(hetchol_core::algorithm::Algorithm::Qr),
            &args,
        ),
        "sweep-k" => {
            let n = args
                .rest
                .get(1)
                .and_then(|v| v.parse().ok())
                .unwrap_or(16usize);
            let platform = hetchol_core::platform::Platform::mirage().without_comm();
            let profile = hetchol_core::profiles::TimingProfile::mirage();
            println!("# Triangle hint sweep at n={n} (simulated, GFLOP/s)");
            println!("{:>6} {:>10}", "k", "GFLOP/s");
            for k in 1..n as u32 {
                let g = bench::sim_gflops(
                    n,
                    &platform,
                    &profile,
                    bench::SchedKind::TriangleTrsm(k),
                    &hetchol_sim::SimOptions::default(),
                );
                println!("{k:>6} {g:>10.2}");
            }
        }
        other => die(&format!("unknown subcommand `{other}`; try `repro help`")),
    };

    match cmd {
        "help" | "--help" | "-h" => {
            println!(
                "repro — regenerate the paper's tables and figures\n\
                 subcommands: all table1 kfactors fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8\n\
                 \u{20}            fig9 [n k]  fig10  fig11  fig12  hint-gemmsyrk  mapping-only  sweep-k [n]\n\
                 \u{20}            lu  qr   (extension: same methodology on LU / QR)\n\
                 \u{20}            analyze  (lint both engines' traces; exit 1 on errors)\n\
                 \u{20}            chaos [--seed N]  (fault-injection matrix over both engines; exit 1 on failures)\n\
                 \u{20}            mc [--workers N] [--tiles N] [--faults] [--mutate <bug>]\n\
                 \u{20}               [--witness-out <file>] [--replay <witness.json>]\n\
                 \u{20}               (DPOR model checking of the resilient runtime; exit 1 on violations)\n\
                 \u{20}            race [--serve] [--mutate <bug>] [--witness-out <file>]\n\
                 \u{20}               (happens-before + lockdep + serve-pool model; stock exits 1 on\n\
                 \u{20}                findings, --mutate exits 1 when the seeded bug is caught)\n\
                 \u{20}            certify  (exact-certify the paper grid's bounds; exit 1 on failures)\n\
                 \u{20}            obs-check <file...>  (validate Chrome-trace JSON; exit 1 on invalid)\n\
                 \u{20}            bench [--quick]  (execution-core throughput matrix; --json for the committed schema)\n\
                 \u{20}            bench-check <fresh> <committed>  (schema + regression gate; exit 1 on failures)\n\
                 \u{20}            serve [--addr A] [--shards N] [--log FILE]\n\
                 \u{20}               (run the hetchol-serve job API in the foreground; --log makes commits\n\
                 \u{20}                durable with crash recovery, and POST /admin/drain exits cleanly)\n\
                 \u{20}            storm [--addr A] [--jobs N] [--p99-limit MS] [--quick]\n\
                 \u{20}                  [--keep-alive] [--disk-fault] [--kill-restart]\n\
                 \u{20}               (load/cache/chaos harness against the job API; exit 1 on failed\n\
                 \u{20}                assertions; the three flags add the durability legs of DESIGN.md §17)\n\
                 flags: --csv  --json  --analyze  --quick  --cp-budget <iters>  --seed <n>  --obs-out <dir>\n\
                 \u{20}      --addr <host:port>  --shards <n>  --jobs <n>  --p99-limit <ms>  --log <file>\n\
                 conventions:\n\
                 \u{20} exit codes: 0 = success, 1 = findings/failures (analyze, chaos, mc, race,\n\
                 \u{20}             certify, obs-check, bench-check, storm), 2 = usage error\n\
                 \u{20} --json: structured output on every figure/report subcommand (fig2..fig8, fig10,\n\
                 \u{20}         fig11, hint-gemmsyrk, mapping-only, lu, qr, analyze, chaos, mc, certify,\n\
                 \u{20}         bench, storm); fig1, fig9, fig12, table1, kfactors and sweep-k render\n\
                 \u{20}         ASCII art / plain tables only"
            );
        }
        "all" => {
            for name in [
                "table1",
                "kfactors",
                "fig2",
                "fig3",
                "fig4",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "fig9",
                "fig10",
                "fig11",
                "fig12",
                "hint-gemmsyrk",
                "mapping-only",
                "lu",
                "qr",
            ] {
                println!("================================================================");
                run_one(name);
                println!();
            }
        }
        name => run_one(name),
    }
}

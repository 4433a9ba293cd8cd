//! hetchol's benchmark: one entry point for every workload, untraced or
//! traced.
//!
//! ```text
//! perfbench --workload <sim-grid|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced runs print every end-to-end metric; traced runs print every
//! per-layer metric with the end-to-end metric it should move. The last
//! line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.

mod factorize;
mod layers;
mod serve;
mod simgrid;
mod spans;
mod util;

use std::process::ExitCode;

pub const WORKLOADS: [&str; 2] = ["sim-grid", "serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// One run's result: what was attempted, what failed and why, and the
/// metrics to print.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Lines printed before the metrics (input hash, class breakdowns).
    pub notes: Vec<String>,
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn emit(args: &Args, report: &Report) {
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("{note}");
    }
    for why in &report.failures {
        println!("FAILED CHECK: {why}");
    }
    for (name, value, unit) in &report.metrics {
        match layers::moves(name) {
            Some(moves) if args.trace => println!("layer {name} = {value} {unit}  -> {moves}"),
            _ => println!("metric {name} = {value} {unit}"),
        }
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        layers::traced(&args.workload, args.seed, args.seconds)
    } else {
        match args.workload.as_str() {
            "sim-grid" => simgrid::report(args.seed, args.seconds),
            _ => serve::report(args.seed, args.seconds),
        }
    };
    emit(&args, &report);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use hetchol_core::json::parse_json;

    fn bench_json() -> hetchol_core::json::JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn names(v: &hetchol_core::json::JsonValue, key: &str) -> Vec<(String, String)> {
        v.field(key)
            .and_then(|a| a.as_arr().map(<[_]>::to_vec))
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.field("name").unwrap().as_str().unwrap().to_string(),
                    m.field("unit").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn runs_report_exactly_the_metrics_benchmark_json_lists() {
        let bench = bench_json();
        let e2e = crate::util::EndToEnd {
            ok_ops: 1,
            phase_s: 1.0,
            latencies: vec![1.0],
            ok_frac: 1.0,
            setup_s: 1.0,
            bound_ratio: 1.0,
        };
        let printed: Vec<(String, String)> = e2e
            .metrics()
            .into_iter()
            .map(|(n, _, u)| (n, u.to_string()))
            .collect();
        assert_eq!(printed, names(&bench, "end_to_end"));
        let layers: Vec<(String, String)> = crate::layers::PER_LAYER
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(layers, names(&bench, "per_layer"));
        let workloads: Vec<String> = bench
            .field("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.field("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}

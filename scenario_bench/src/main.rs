//! One repetition of one workload, in a process of its own so that its
//! peak RSS is that workload's alone. Prints one JSON line.
//!
//! ```text
//! an2-scenario-bench --workload src_mixed --seed 1 [--trace 0|1]
//!     [--shards N] [--expect-digest HEX] [--spans FILE]
//! ```
//!
//! With `--trace 1 --spans FILE`, the spans recorded around every call
//! into the simulator are written once, at exit, to FILE as a Chrome
//! trace.

use an2_scenario_bench::scenario::{self, Outcome};
use an2_scenario_bench::workload::{Size, Workload, NAMES};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(name) = arg("--workload") else {
        eprintln!("usage: --workload <{}> --seed N", NAMES.join("|"));
        return ExitCode::from(2);
    };
    let seed = arg("--seed").and_then(|s| s.parse().ok()).unwrap_or(0);
    let traced = arg("--trace") == Some("1");
    let shards = arg("--shards").and_then(|s| s.parse().ok()).unwrap_or(1);
    let expect = arg("--expect-digest").and_then(|s| u64::from_str_radix(s, 16).ok());
    let Some(w) = Workload::generate(name, Size::Full, seed) else {
        eprintln!("unknown workload {name}; known: {}", NAMES.join(", "));
        return ExitCode::from(2);
    };
    let out = scenario::run(&w, traced, shards, expect);
    if let (Some(path), true) = (arg("--spans"), traced) {
        if let Err(e) = std::fs::write(path, &out.spans_trace) {
            eprintln!("cannot write spans to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", to_json(&w, traced, &out, scenario::rss_mb("VmHWM")));
    ExitCode::SUCCESS
}

fn to_json(w: &Workload, traced: bool, o: &Outcome, peak_rss_mb: f64) -> String {
    let num = |x: f64| {
        if x.is_finite() {
            format!("{x}")
        } else {
            "null".into()
        }
    };
    let mut fields = vec![
        format!("\"workload\":\"{}\"", w.name),
        format!("\"seed\":{}", w.seed),
        format!("\"traced\":{traced}"),
        format!("\"digest\":\"{:016x}\"", o.digest),
        format!("\"attempted\":{}", o.attempted()),
        format!("\"failed\":{}", o.failed()),
        format!("\"packets\":{}", o.packets),
        format!("\"packets_ok\":{}", o.packets_ok),
        format!("\"cells_expected\":{}", w.cells()),
        format!("\"cells_delivered\":{}", o.cells_delivered),
        format!("\"setup_s\":{}", num(o.setup_s)),
        format!("\"run_s\":{}", num(o.run_s)),
        format!("\"total_s\":{}", num(o.total_s)),
        format!("\"peak_rss_mb\":{}", num(peak_rss_mb)),
        format!("\"latency_samples\":{}", o.latency_samples),
        format!("\"latency_p50_slots\":{}", o.latency_p50_slots),
        format!("\"latency_p999_slots\":{}", o.latency_p999_slots),
    ];
    let rc: Vec<String> = o.reconverge_ms.iter().map(|&x| num(x)).collect();
    fields.push(format!("\"reconverge_ms\":[{}]", rc.join(",")));
    let errs: Vec<String> = o.errors.iter().map(|e| format!("{e:?}")).collect();
    fields.push(format!("\"errors\":[{}]", errs.join(",")));
    let layers: Vec<String> = o
        .layers
        .iter()
        .map(|(k, unit, v)| format!("\"{k}\":{{\"value\":{},\"unit\":\"{unit}\"}}", num(*v)))
        .collect();
    fields.push(format!("\"layers\":{{{}}}", layers.join(",")));
    format!("{{{}}}", fields.join(","))
}

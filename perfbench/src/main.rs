//! The repository's benchmark: three workloads that drive the public APIs
//! of `conquer-core`, `conquer-engine` and `conquer-server` from outside,
//! on data `conquer-datagen` generates from `--seed`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload analytic|serve|views --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run is untraced and reports the end-to-end metrics.
//! With `--trace 1` it runs the workload untraced (a `--trace 0` run of
//! this program in a child process) and then traced, and reports the
//! per-layer metrics, the tracing overhead on every end-to-end metric, and
//! the time no span covers. Every answer is checked; the last
//! line of standard output is one JSON object.

mod analytic;
mod check;
mod durable;
mod layers;
mod load;
mod report;
mod serve;
mod stats;
mod trace;
mod views;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use report::{line, Metric, Outcome};
use trace::Tracer;

/// Where runs keep their scratch directories and traced runs their spans,
/// relative to the directory the benchmark runs in.
const OUT_DIR: &str = ".bench_out";

/// Set-ups per untraced run before the measured interval (the last one is
/// measured on) and after it (each torn down again). `setup_s` is the
/// median of all of them: set-ups at both ends of the run sample the host
/// at two moments rather than one.
const SETUP_BEFORE: usize = 3;
const SETUP_AFTER: usize = 2;

/// The end-to-end metrics every workload reports in its result line, and
/// the metric of each workload's own vocabulary (analytic, serve, views)
/// that it stands for.
const E2E: [(&str, &str, [&str; 3]); 5] = [
    ("setup_s", "s", ["setup_s", "setup_s", "setup_s"]),
    (
        "peak_rss_mb",
        "MiB",
        ["peak_rss_mb", "peak_rss_mb", "peak_rss_mb"],
    ),
    (
        "main_p50_ms",
        "ms",
        ["clean_pass_ms", "read_p50_ms", "commit_p50_ms"],
    ),
    (
        "main_per_s",
        "1/s",
        ["queries_per_s", "read_qps", "commits_per_s"],
    ),
    (
        "side_p50_ms",
        "ms",
        ["dirty_pass_ms", "commit_p50_ms", "view_read_p50_ms"],
    ),
];

const WORKLOADS: [&str; 3] = ["analytic", "serve", "views"];

/// The per-layer metrics of a traced run, in output order. A workload
/// that does not exercise a layer reports it as 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("datagen.generate_ms", "ms"),
    ("datagen.propagate_ms", "ms"),
    ("prob.assign_ms", "ms"),
    ("sql.parse_us", "us"),
    ("core.rewrite_us", "us"),
    ("engine.bind_us", "us"),
    ("engine.validate_us", "us"),
    ("engine.plan_us", "us"),
    ("core.overhead_ratio", "ratio"),
    ("exec.execute_ms", "ms"),
    ("exec.dispatch_us", "us"),
    ("exec.self_ms.scan", "ms"),
    ("exec.self_ms.hash_join", "ms"),
    ("exec.self_ms.hash_aggregate", "ms"),
    ("exec.self_ms.sort", "ms"),
    ("exec.self_ms.gather", "ms"),
    ("exec.self_ms.project", "ms"),
    ("exec.rows_examined_per_row", "ratio"),
    ("exec.peak_mem_mb", "MiB"),
    ("exec.spill_bytes", "bytes"),
    ("shared.result_hit_ratio", "ratio"),
    ("shared.plan_hit_ratio", "ratio"),
    ("shared.repeat_share", "ratio"),
    ("shared.evictions", "count"),
    ("shared.shed", "count"),
    ("shared.clone_ms", "ms"),
    ("shared.apply_ms", "ms"),
    ("view.delta_ms", "ms"),
    ("view.rows", "count"),
    ("view.deltas_applied", "count"),
    ("wal.bytes_per_commit", "bytes"),
    ("wal.commit_ms", "ms"),
    ("wal.fsync_floor_us", "us"),
    ("persist.checkpoints", "count"),
    ("persist.checkpoint_ms", "ms"),
    ("server.ping_rtt_us", "us"),
    ("server.encode_us", "us"),
    ("server.residual_us", "us"),
    ("loadgen.write_lateness_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead.setup_s", "s"),
    ("trace.overhead.peak_rss_mb", "MiB"),
    ("trace.overhead.main_p50_ms", "ms"),
    ("trace.overhead.main_per_s", "1/s"),
    ("trace.overhead.side_p50_ms", "ms"),
];

/// Per-call medians of these spans' self times become per-layer metrics.
const SPAN_LAYERS: [(&str, &str); 5] = [
    ("sql.parse", "sql.parse_us"),
    ("core.rewrite", "core.rewrite_us"),
    ("engine.bind", "engine.bind_us"),
    ("engine.validate", "engine.validate_us"),
    ("engine.plan", "engine.plan_us"),
];

/// Settings of one run.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    /// Scratch space inside the checkout (durable directories, traces).
    pub scratch: PathBuf,
}

/// What one untraced or traced pass over a workload produced.
pub struct Phase {
    pub workload: &'static str,
    pub outcome: Outcome,
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Each thread's spans with its window `[lo, hi]` in ns.
    pub traces: Vec<(Tracer, u64, u64)>,
}

impl Phase {
    pub fn new(workload: &'static str) -> Phase {
        Phase {
            workload,
            outcome: Outcome::default(),
            setup_s: Vec::new(),
            traces: Vec::new(),
        }
    }
}

struct Args {
    workload: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| map.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?;
    let workload = WORKLOADS
        .iter()
        .position(|w| *w == workload)
        .ok_or_else(|| format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set of this process, in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit the checkout was made from, read from `.git` when there is
/// one (a plain source tree has none).
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l.split(' ').next().unwrap_or("").to_string())
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let sha = sha.trim();
    if sha.is_empty() {
        "unknown (not a git checkout)".to_string()
    } else {
        sha.to_string()
    }
}

/// Run one workload with `before` set-ups ahead of it and `after` set-ups
/// behind it; the process's peak resident set is read before the latter.
fn run_phase(workload: usize, cfg: &RunCfg, traced: bool, before: usize, after: usize) -> Phase {
    let mut phase = match workload {
        0 => analytic::phase(cfg, traced, before),
        1 => serve::phase(cfg, traced, before),
        _ => views::phase(cfg, traced, before),
    };
    phase
        .outcome
        .e2e
        .push(Metric::new("peak_rss_mb", "MiB", peak_rss_mb(), 1).note("VmHWM of this process"));
    for i in 0..after {
        let rep = before + i;
        phase.setup_s.push(match workload {
            0 => analytic::setup_once(cfg, rep),
            1 => serve::setup_once(cfg, rep),
            _ => views::setup_once(cfg, rep),
        });
    }
    phase.outcome.e2e.push(
        report::median_metric("setup_s", "s", &phase.setup_s).note(format!(
            "median; {before} set-ups before the run, {after} after"
        )),
    );
    let o = &phase.outcome;
    let ratio = o.failed as f64 / o.attempted.max(1) as f64;
    phase.outcome.e2e.push(Metric::new(
        "failed_ops_ratio",
        "ratio",
        ratio,
        o.attempted as usize,
    ));
    phase
}

/// The result-line metrics of `o`, under the shared names.
fn e2e_slots(workload: usize, o: &Outcome) -> Vec<Metric> {
    E2E.iter()
        .map(|(name, unit, names)| {
            let m = o.e2e(names[workload]);
            let value = m.map_or(f64::NAN, |m| m.value);
            let samples = m.map_or(0, |m| m.samples);
            Metric::new(*name, unit, value, samples).note(names[workload])
        })
        .collect()
}

/// Span-derived per-layer metrics, the attribution check, and the span file.
fn span_metrics(phase: &Phase, cfg: &RunCfg, layers: &mut Vec<Metric>) {
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut wall = 0u64;
    let mut unattributed = 0u64;
    for (t, lo, hi) in &phase.traces {
        for (name, v) in trace::self_by_name(t.spans()) {
            by_name.entry(name).or_default().extend(v);
        }
        wall += hi - lo;
        unattributed += trace::unattributed(t.spans(), *lo, *hi);
    }
    let scaled = |span: &str, per: f64| -> Vec<f64> {
        by_name
            .get(span)
            .map(|v| v.iter().map(|&ns| ns as f64 / per).collect())
            .unwrap_or_default()
    };
    for (span, metric) in SPAN_LAYERS {
        let us = scaled(span, 1e3);
        layers.push(report::median_metric(metric, "us", &us).note("median self time per call"));
    }
    // Set-up layers: total per set-up.
    for (span, metric) in [
        ("datagen.generate", "datagen.generate_ms"),
        ("datagen.propagate", "datagen.propagate_ms"),
        ("prob.assign", "prob.assign_ms"),
    ] {
        let ms = scaled(span, 1e6);
        layers.push(Metric::new(metric, "ms", ms.iter().sum(), ms.len()).note("one set-up"));
    }
    let total_self: u64 = by_name.values().flatten().sum();
    layers.push(
        Metric::new(
            "trace.unattributed_ms",
            "ms",
            unattributed as f64 / 1e6,
            phase.traces.len(),
        )
        .note("summed over traced threads"),
    );
    println!(
        "self time by span over {:.3} s of traced wall time:",
        wall as f64 / 1e9
    );
    for (name, v) in &by_name {
        let total: u64 = v.iter().sum();
        println!(
            "  {name:<28} {:>12.3} ms  {:>6.2}%  calls={}",
            total as f64 / 1e6,
            100.0 * total as f64 / wall.max(1) as f64,
            v.len()
        );
    }
    println!(
        "  {:<28} {:>12.3} ms  {:>6.2}%",
        "(unattributed)",
        unattributed as f64 / 1e6,
        100.0 * unattributed as f64 / wall.max(1) as f64
    );
    println!(
        "attribution: span self times {:.3} ms + unattributed {:.3} ms = {:.3} ms of {:.3} ms wall",
        total_self as f64 / 1e6,
        unattributed as f64 / 1e6,
        (total_self + unattributed) as f64 / 1e6,
        wall as f64 / 1e6
    );
    let path =
        PathBuf::from(OUT_DIR).join(format!("trace-{}-seed{}.jsonl", phase.workload, cfg.seed));
    let tracers: Vec<&Tracer> = phase.traces.iter().map(|(t, _, _)| t).collect();
    match trace::write_spans(&path, &tracers) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

/// The result line of the untraced run a traced run is compared with.
struct Untraced {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The [`E2E`] metrics, in order.
    slots: Vec<f64>,
}

/// Run this program again with `--trace 0`, in a process of its own so its
/// peak resident set is its own, echoing its output.
fn run_untraced(args: &Args) -> Result<Untraced, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", WORKLOADS[args.workload], "--trace", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for l in stdout.lines() {
        println!("untraced| {l}");
    }
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    parse_result(stdout.lines().last().unwrap_or_default())
}

/// Read back a result line written by [`report::json`].
fn parse_result(line: &str) -> Result<Untraced, String> {
    let field = |key: &str| -> Result<&str, String> {
        let at = line
            .find(key)
            .ok_or_else(|| format!("no {key} in {line:?}"))?;
        let rest = &line[at + key.len()..];
        Ok(rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim())
    };
    let number = |key: &str| -> Result<u64, String> {
        field(key)?.parse().map_err(|e| format!("{key}: {e}"))
    };
    let slots = E2E
        .iter()
        .map(|(name, _, _)| {
            let v = field(&format!("\"{name}\": {{\"value\":"))?;
            Ok(v.parse().unwrap_or(f64::NAN))
        })
        .collect::<Result<_, String>>()?;
    Ok(Untraced {
        correct: field("\"correct\":")? == "true",
        attempted: number("\"attempted\":")?,
        failed: number("\"failed\":")?,
        slots,
    })
}

fn print_outcome(title: &str, o: &Outcome) {
    println!("{title}:");
    for m in &o.e2e {
        println!("{}", line(m));
    }
    for f in &o.failures {
        println!("  FAILED: {f}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload analytic|serve|views --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let scratch = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        scratch: scratch.clone(),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.scratch) {
        eprintln!("error: cannot create {}: {e}", cfg.scratch.display());
        return ExitCode::FAILURE;
    }
    let workload = WORKLOADS[args.workload];
    let threads = conquer_engine::ExecContext::default().threads();
    println!("workload: {workload}");
    println!("seed: {}", args.seed);
    println!("git sha: {}", git_sha());
    println!(
        "nproc: {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!("engine threads: {threads}");
    println!("measured seconds: {}", args.seconds);
    println!(
        "flush policy: fsync on every commit; automatic checkpoint at the default 16 MiB WAL limit"
    );

    let (correct, attempted, failed, metrics) = if !args.trace {
        let phase = run_phase(args.workload, &cfg, false, SETUP_BEFORE, SETUP_AFTER);
        let o = &phase.outcome;
        for (k, v) in &o.facts {
            println!("{k}: {v}");
        }
        print_outcome("end-to-end (untraced)", o);
        let slots = e2e_slots(args.workload, o);
        println!("result line (shared names):");
        for m in &slots {
            println!("{}", line(m));
        }
        let complete = slots.iter().all(|m| m.value.is_finite());
        (o.failed == 0 && complete, o.attempted, o.failed, slots)
    } else {
        let untraced = match run_untraced(&args) {
            Ok(u) => u,
            Err(e) => {
                eprintln!("error: the untraced run failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let traced = run_phase(args.workload, &cfg, true, 1, 0);
        for (k, v) in &traced.outcome.facts {
            println!("{k}: {v}");
        }
        print_outcome("end-to-end (traced)", &traced.outcome);
        let mut layers = traced.outcome.layers.clone();
        span_metrics(&traced, &cfg, &mut layers);
        let t = e2e_slots(args.workload, &traced.outcome);
        for (t, u) in t.iter().zip(&untraced.slots) {
            layers.push(
                Metric::new(format!("trace.overhead.{}", t.name), t.unit, t.value - u, 2)
                    .note(format!("traced minus untraced {}", t.note)),
            );
        }
        let metrics: Vec<Metric> = PER_LAYER
            .iter()
            .map(
                |(name, unit)| match layers.iter().find(|m| m.name == *name) {
                    Some(m) => m.clone(),
                    None => Metric::new(*name, unit, 0.0, 0)
                        .note("layer not exercised by this workload"),
                },
            )
            .collect();
        println!("per-layer (traced):");
        for m in &metrics {
            println!("{}", line(m));
        }
        let o = &traced.outcome;
        let failed = untraced.failed + o.failed;
        let complete = metrics.iter().all(|m| m.value.is_finite());
        (
            untraced.correct && failed == 0 && complete,
            untraced.attempted + o.attempted,
            failed,
            metrics,
        )
    };
    if let Err(e) = std::fs::remove_dir_all(&scratch) {
        eprintln!("could not remove {}: {e}", scratch.display());
    }
    println!("{}", report::json(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_reads_back() {
        let metrics: Vec<Metric> = E2E
            .iter()
            .enumerate()
            .map(|(i, (name, unit, _))| Metric::new(*name, unit, i as f64 + 0.25, 1))
            .collect();
        let mut line = report::json(true, 12, 3, &metrics);
        let u = parse_result(&line).expect("a result line");
        assert!(u.correct);
        assert_eq!((u.attempted, u.failed), (12, 3));
        assert_eq!(u.slots, vec![0.25, 1.25, 2.25, 3.25, 4.25]);
        line = line.replace("2.25", "null");
        assert!(parse_result(&line).expect("a result line").slots[2].is_nan());
        assert!(parse_result("error").is_err());
    }

    /// The metric lists here and in the repository's `BENCHMARK.json` name
    /// the same metrics with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let listed = |name: &str, unit: &str| {
            spec.contains(&format!(
                "\"name\": \"{name}\",\n      \"unit\": \"{unit}\""
            ))
        };
        for (name, unit, _) in E2E {
            assert!(
                listed(name, unit),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        for (name, unit) in PER_LAYER {
            assert!(
                listed(name, unit),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let entries = spec.matches("\"name\":").count();
        assert_eq!(entries, WORKLOADS.len() + E2E.len() + PER_LAYER.len());
        for w in WORKLOADS {
            assert!(spec.contains(&format!("\"name\": \"{w}\"")), "{w} missing");
        }
    }
}

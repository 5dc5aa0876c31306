//! `calloc-perfbench`: the repository's end-to-end benchmark with
//! per-layer attribution. See `README.md` beside this package.
//!
//! ```text
//! calloc-perfbench --workload W [--seed N] [--seconds S] [--trace 0|1]
//! calloc-perfbench collect --out FILE [--seeds 1-10] [--seconds S]
//! calloc-perfbench compare PARENT.json CHANGE.json
//! ```
//!
//! A run prints every metric as `workload metric value unit`, then one
//! JSON result line, and writes its full record (machine, run, phases,
//! digests) beside the build output. It exits non-zero when any output
//! check failed.

mod catalog;
mod compare;
mod json;
mod loadgen;
mod machine;
mod probe;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use catalog::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use machine::Machine;
use workloads::{Ctx, Measured};

const USAGE: &str = "usage:
  calloc-perfbench --workload W [--seed N] [--seconds S] [--trace 0|1]
  calloc-perfbench collect --out FILE [--seeds 1-10] [--seconds S]
  calloc-perfbench compare PARENT.json CHANGE.json";

/// Output digests committed for the hold-in and hold-out seeds.
const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.json");

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("collect") => collect(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => run(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("calloc-perfbench: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

/// `--name value` pairs, each name one of `known`.
fn flags(args: &[String], known: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|name| known.contains(name))
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn parse_flag<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    flags.get(name).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("--{name}: cannot parse {v:?}"))
    })
}

/// Where results, traces and scratch files go: under the build output
/// directory, so a run writes nothing else in the tree.
fn out_dir() -> Result<PathBuf, String> {
    let dir = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(target) => PathBuf::from(target).join("perfbench"),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("target/perfbench"),
    };
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// The committed digests of `seed`.
fn expected_digests(seed: u64) -> Result<BTreeMap<String, u64>, String> {
    let doc = json::parse(EXPECTED_DIGESTS).map_err(|e| format!("expected_digests.json: {e}"))?;
    let Some(entries) = doc.get(&seed.to_string()).and_then(json::Value::as_obj) else {
        return Ok(BTreeMap::new());
    };
    entries
        .iter()
        .map(|(key, v)| {
            let hex = v.as_str().ok_or_else(|| format!("{key}: not a string"))?;
            let value = u64::from_str_radix(hex, 16).map_err(|e| format!("{key}: {e}"))?;
            Ok((key.clone(), value))
        })
        .collect()
}

/// One workload run, as the benchmark contract defines it.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args, &["workload", "seed", "seconds", "trace"])?;
    let workload = flags
        .get("workload")
        .ok_or("--workload is required")?
        .clone();
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed: u64 = parse_flag(&flags, "seed", 1)?;
    let seconds: f64 = parse_flag(&flags, "seconds", 10.0)?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], not {seconds}"));
    }
    let traced = match flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    // Pin the thread budget to the machine unless the caller chose one.
    if std::env::var_os("CALLOC_THREADS").is_none() {
        calloc_tensor::par::set_threads(machine::available_parallelism());
    }
    calloc_tensor::par::silence_injected_panics();
    trace::name_thread("main");

    let out = out_dir()?;
    let scratch = out.join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let ctx = Ctx {
        seed,
        budget: Duration::from_secs_f64(seconds),
        trace: traced,
        scratch,
        expected: expected_digests(seed)?,
    };
    let measured = workloads::run(&workload, &ctx);
    let report = measured.and_then(|m| report(&workload, &ctx, &out, m));
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    let report = report?;

    for (metric, value) in &report.metrics {
        println!("{workload} {} {value} {}", metric.name, metric.unit);
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                json::num(*v),
                json::quote(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// A run's printed result.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static Metric, f64)>,
}

/// Computes the run's metrics, runs the layer probe on a traced run, and
/// writes the result record (and the trace) under `out`. A traced run's
/// per-layer metrics come from its spans: those the workload recorded in
/// its traced half, and the probe's.
fn report(workload: &str, ctx: &Ctx, out: &Path, measured: Measured) -> Result<Report, String> {
    let Measured {
        setup_s,
        sink,
        window,
    } = measured;
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let ops = stats::sorted(&sink.op_ms);
    let mut speedup = None;
    let stem = format!("{workload}-seed{}", ctx.seed);
    if let Some(window) = window {
        trace::set_enabled(true);
        let covered = trace::names();
        let probed = probe::run(ctx, &|name| covered.contains(name));
        trace::set_enabled(false);
        let records = trace::take();
        probed?;
        let spans = out.join(format!("trace-{stem}.json"));
        std::fs::write(&spans, trace::chrome_json(&records))
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        let summary: Vec<String> = trace::by_name(&records)
            .iter()
            .map(|(name, t)| {
                format!(
                    "{}: {{\"count\": {}, \"units\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                    json::quote(name),
                    t.count,
                    t.units,
                    json::num(t.total_ns as f64 / 1e6),
                    json::num(t.self_ns as f64 / 1e6)
                )
            })
            .collect();
        let summary_path = out.join(format!("trace-{stem}-spans.json"));
        std::fs::write(&summary_path, format!("{{\n{}\n}}\n", summary.join(",\n")))
            .map_err(|e| format!("{}: {e}", summary_path.display()))?;
        eprintln!(
            "trace: {} (open in https://ui.perfetto.dev)",
            spans.display()
        );
        let layers = probe::layer_metrics(&records);
        speedup = Some(probe::speedup(&layers));
        values.extend(layers);
        values.insert(
            "trace.coverage",
            trace::coverage(&records, window.tid, window.from_ns, window.to_ns),
        );
        values.insert("trace.overhead_ratio", window.overhead_ratio);
    } else {
        values.insert("setup_s", stats::median(&setup_s));
        if let Some(rate) = sink.work_per_s() {
            values.insert("work_per_s", rate);
        }
        if !ops.is_empty() {
            values.insert("op_p50_ms", stats::nearest_rank(&ops, 50.0));
        }
        if let Some(p90) = sink.op_p90_ms() {
            values.insert("op_p90_ms", p90);
        }
    }
    let catalog: &'static [Metric] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let mut failures = sink.failures.clone();
    let mut metrics = Vec::new();
    for metric in catalog {
        match values.get(metric.name) {
            Some(&v) if v.is_finite() => metrics.push((metric, v)),
            _ => failures.push(format!("{} was not measured", metric.name)),
        }
    }
    let correct = sink.failed == 0 && metrics.len() == catalog.len();

    let machine = Machine::current();
    let record = record_json(
        workload, ctx, &machine, &setup_s, &sink, &ops, &metrics, &failures, correct, speedup,
    );
    let path = out.join(format!("result-{stem}-trace{}.json", u8::from(ctx.trace)));
    std::fs::write(&path, record).map_err(|e| format!("{}: {e}", path.display()))?;
    for f in &failures {
        eprintln!("check failed: {f}");
    }
    Ok(Report {
        correct,
        attempted: sink.attempted,
        failed: sink.failed,
        metrics,
    })
}

/// The full result record of one run.
#[allow(clippy::too_many_arguments)]
fn record_json(
    workload: &str,
    ctx: &Ctx,
    machine: &Machine,
    setup_s: &[f64],
    sink: &workloads::Sink,
    ops: &[f64],
    metrics: &[(&Metric, f64)],
    failures: &[String],
    correct: bool,
    speedup: Option<Result<f64, String>>,
) -> String {
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| json::num(*x))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let ops_json = if ops.is_empty() {
        "null".to_string()
    } else {
        let tail = stats::tail(ops).map_or("null".to_string(), |(p, v)| {
            format!(
                "{{\"percentile\": {}, \"value\": {}}}",
                json::num(p),
                json::num(v)
            )
        });
        format!(
            "{{\"unit\": \"ms\", \"n\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"tail\": {tail}}}",
            ops.len(),
            json::num(stats::nearest_rank(ops, 50.0)),
            json::num(stats::nearest_rank(ops, 90.0)),
            json::num(stats::nearest_rank(ops, 99.0)),
        )
    };
    let phases: Vec<String> = sink
        .phases
        .iter()
        .map(|p| {
            format!(
                "{{\"name\": {}, \"sent\": {}, \"succeeded\": {}, \"failed\": {}, \"slo_miss_ratio\": {}, \"degraded_ratio\": {}, \"mean_batch\": {}}}",
                json::quote(p.name),
                p.tally.sent,
                p.tally.correct,
                p.tally.unsuccessful(),
                json::num(p.tally.slo_miss_ratio()),
                json::num(p.tally.degraded_ratio()),
                p.mean_batch().map_or("null".to_string(), json::num),
            )
        })
        .collect();
    let late = stats::sorted(&sink.late_ms);
    let late_json = late.last().map_or("null".to_string(), |&max| {
        format!(
            "{{\"p99\": {}, \"max\": {}}}",
            json::num(stats::nearest_rank(&late, 99.0)),
            json::num(max)
        )
    });
    let digests: Vec<String> = sink
        .digests
        .iter()
        .map(|(k, v)| format!("{}: \"{v:016x}\"", json::quote(k)))
        .collect();
    let side: Vec<String> = sink
        .side
        .iter()
        .map(|(k, v)| format!("{}: {}", json::quote(k), json::num(*v)))
        .collect();
    let metric_json: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                json::num(*v),
                json::quote(m.unit)
            )
        })
        .collect();
    let failure_json: Vec<String> = failures.iter().map(|f| json::quote(f)).collect();
    let speedup_json = match speedup {
        None => "null".to_string(),
        Some(Ok(v)) => format!("{{\"value\": {}}}", json::num(v)),
        Some(Err(reason)) => format!("{{\"value\": null, \"reason\": {}}}", json::quote(&reason)),
    };
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"machine\": {},\n  \
         \"correct\": {correct},\n  \"attempted\": {},\n  \"failed\": {},\n  \"fail_ratio\": {},\n  \
         \"failures\": [{}],\n  \"setup_s\": [{}],\n  \"ops\": {ops_json},\n  \
         \"work_per_s\": {{\"samples\": {}, \"median\": {}}},\n  \"peak_rss_mb\": {},\n  \"phases\": [{}],\n  \"generator_late_ms\": {late_json},\n  \"digests\": {{{}}},\n  \
         \"side\": {{{}}},\n  \"par_sweep_speedup\": {speedup_json},\n  \"metrics\": {{{}}}\n}}\n",
        json::quote(workload),
        ctx.seed,
        json::num(ctx.budget.as_secs_f64()),
        u8::from(ctx.trace),
        machine.to_json(),
        sink.attempted,
        sink.failed,
        json::num(sink.failed as f64 / sink.attempted.max(1) as f64),
        failure_json.join(", "),
        list(setup_s),
        sink.rates.len(),
        sink.work_per_s().map_or("null".to_string(), json::num),
        machine::peak_rss_mb().map_or("null".to_string(), json::num),
        phases.join(", "),
        digests.join(", "),
        side.join(", "),
        metric_json.join(", "),
    )
}

/// `1-10` or `1,2,5`.
fn parse_seeds(spec: &str) -> Result<Vec<u64>, String> {
    let bad = || format!("--seeds: cannot parse {spec:?}");
    if let Some((a, b)) = spec.split_once('-') {
        let (a, b): (u64, u64) = (a.parse().map_err(|_| bad())?, b.parse().map_err(|_| bad())?);
        return if a <= b {
            Ok((a..=b).collect())
        } else {
            Err(bad())
        };
    }
    spec.split(',')
        .map(|s| s.parse().map_err(|_| bad()))
        .collect()
}

/// Runs every workload untraced for each seed, each run in a fresh child
/// process, and writes the run set: the machine record, every run's
/// end-to-end metrics, and each (workload, metric)'s median, quartiles and
/// count. Prints each metric's spread against its bound.
fn collect(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args, &["out", "seeds", "seconds"])?;
    let path = flags.get("out").ok_or("--out FILE is required")?.clone();
    let seeds = parse_seeds(flags.get("seeds").map_or("1-10", String::as_str))?;
    let seconds: f64 = parse_flag(&flags, "seconds", 10.0)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let machine = Machine::current();
    let write_doc = |runs: &[String], summary: &[String]| {
        let doc = format!(
            "{{\n  \"machine\": {},\n  \"seconds\": {},\n  \"trace\": 0,\n  \"runs\": [\n{}\n  ],\n  \"summary\": [\n{}\n  ]\n}}\n",
            machine.to_json(),
            json::num(seconds),
            runs.join(",\n"),
            summary.join(",\n")
        );
        std::fs::write(&path, doc).map_err(|e| format!("{path}: {e}"))
    };
    let mut runs: Vec<String> = Vec::new();
    let mut all_correct = true;
    for &seed in &seeds {
        for (workload, _) in WORKLOADS {
            let child = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let line = stdout.lines().last().unwrap_or("");
            let result = json::parse(line)
                .map_err(|e| format!("{workload} seed {seed}: no result line ({e})"))?;
            let correct =
                child.status.success() && result.get("correct") == Some(&json::Value::Bool(true));
            all_correct &= correct;
            let metrics: Vec<String> = END_TO_END
                .iter()
                .filter_map(|m| {
                    let v = result.get("metrics")?.get(m.name)?.get("value")?.as_f64()?;
                    Some(format!("{}: {}", json::quote(m.name), json::num(v)))
                })
                .collect();
            let count = |key: &str| result.get(key).and_then(json::Value::as_f64).unwrap_or(0.0);
            eprintln!(
                "collect: {workload} seed {seed}: correct {correct}, {} attempted, {} failed",
                count("attempted"),
                count("failed")
            );
            runs.push(format!(
                "    {{\"workload\": {}, \"seed\": {seed}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                json::quote(workload),
                count("attempted"),
                count("failed"),
                metrics.join(", ")
            ));
            // Rewritten after every run, so an interrupted collection
            // keeps the runs it finished.
            write_doc(&runs, &[])?;
        }
    }
    let set = compare::load(&path)?;
    let mut summary: Vec<String> = Vec::new();
    println!("workload metric median q1 q3 n iqr/median bound");
    for (workload, runs) in &set {
        for metric in &END_TO_END {
            let vals: Vec<f64> = compare::values(runs, metric.name)
                .iter()
                .map(|&(_, v)| v)
                .collect();
            if vals.is_empty() {
                continue;
            }
            let s = stats::Spread::of(&vals);
            let flag = if metric.bound > 0.0 && s.iqr_share() > metric.bound / 3.0 {
                "  <-- above a third of the bound"
            } else {
                ""
            };
            println!(
                "{workload} {} {} {} {} {} {:.4} {}{flag}",
                metric.name,
                s.median,
                s.q1,
                s.q3,
                s.n,
                s.iqr_share(),
                metric.bound
            );
            summary.push(format!(
                "    {{\"workload\": {}, \"metric\": {}, \"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                json::quote(workload),
                json::quote(metric.name),
                json::quote(metric.unit),
                json::num(s.median),
                json::num(s.q1),
                json::num(s.q3),
                s.n
            ));
        }
    }
    write_doc(&runs, &summary)?;
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Compares two run sets metric by metric; exits non-zero on any
/// regression beyond a bound and on any defect of the change set (an
/// incorrect run, more failed operations, a missing row).
fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [parent, change] = args else {
        return Err("compare needs PARENT.json CHANGE.json".to_string());
    };
    let (parent, change) = (compare::load(parent)?, compare::load(change)?);
    println!(
        "workload metric parent_median [q1 q3] change_median [q1 q3] change_vs_parent verdict"
    );
    let mut worse = false;
    for (workload, parent_runs) in &parent {
        // A workload or metric the change lacks is one of its defects.
        let Some(change_runs) = change.get(workload) else {
            continue;
        };
        for metric in &END_TO_END {
            let (a, b) = (
                compare::values(parent_runs, metric.name),
                compare::values(change_runs, metric.name),
            );
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let verdict = compare::verdict(metric, &a, &b);
            worse |= verdict == compare::Verdict::Worse;
            let only = |v: &[(u64, f64)]| v.iter().map(|&(_, x)| x).collect::<Vec<f64>>();
            let (p, c) = (stats::Spread::of(&only(&a)), stats::Spread::of(&only(&b)));
            println!(
                "{workload} {} {:.6} [{:.6} {:.6}] {:.6} [{:.6} {:.6}] {:+.2}% {}",
                metric.name,
                p.median,
                p.q1,
                p.q3,
                c.median,
                c.q1,
                c.q3,
                (c.median / p.median - 1.0) * 100.0,
                verdict.name()
            );
        }
    }
    let defects = compare::defects(&parent, &change, &END_TO_END);
    for defect in &defects {
        println!("defect: {defect}");
    }
    Ok(if worse || !defects.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

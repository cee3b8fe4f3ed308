//! `perf` — the repository's benchmark: four fixed-work workloads, their
//! end-to-end metrics and an outside-in layer trace. See `README.md`.
//!
//! ```text
//! perf <lb_read|lb_mixed|lb_remote|trav|all> [--seed N] [--seconds S] [--trace] [--smoke]
//! perf aa [--sets 2] [--runs 5] [--seconds S]
//! perf --workload <name> --seed N --seconds S --trace <0|1>     (BENCHMARK.json's form)
//! ```

mod aa;
mod countfs;
mod host;
mod inputs;
mod linkbench;
mod measure;
mod stats;
mod trace;
mod trav;

use measure::{drive, Cfg, Metric, Run, Workload};
use sqlgraph_json::{Json, JsonObject};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// `run_seconds` of `BENCHMARK.json`: the nominal timed window.
pub const DEFAULT_SECONDS: u32 = 15;

pub const WORKLOADS: [&str; 4] = ["lb_read", "lb_mixed", "lb_remote", "trav"];

/// The gated end-to-end metrics, the same on every workload: name, unit,
/// whether higher is better, and the share of the parent's median by
/// which it may get worse. Mirrors `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str, bool, f64); 4] = [
    ("ops_per_s", "1/s", true, 0.25),
    ("p50_us", "us", false, 0.25),
    ("setup_s", "s", false, 0.25),
    ("peak_rss_mb", "MiB", false, 0.05),
];

/// Every per-layer metric, with its unit. A traced run prints all of
/// them; one that belongs to another workload reads 0.
pub const PER_LAYER: [(&str, &str); 74] = [
    // lb_read → ops_per_s, p50_us
    ("rel.db.execute.get_node_us", "us"),
    ("rel.db.execute.count_link_us", "us"),
    ("rel.db.execute.multiget_link_us", "us"),
    ("rel.db.execute.get_link_list_us", "us"),
    ("rel.db.rows_per_get_link_list", "rows"),
    ("rel.db.stmt_cache_len", "count"),
    ("rel.txn.snapshot_pair_ns", "ns"),
    ("rel.db.stmt_cache_hit_ns", "ns"),
    ("rel.sql.parse_us", "us"),
    ("rel.txn.active_snapshots", "count"),
    // lb_mixed → ops_per_s, p95_us, cpu_us_per_op
    ("core.store.add_node_us", "us"),
    ("core.store.update_node_us", "us"),
    ("core.store.delete_node_us", "us"),
    ("core.store.add_link_us", "us"),
    ("core.store.delete_link_us", "us"),
    ("core.store.update_link_us", "us"),
    ("core.store.txn_begin_us", "us"),
    ("core.store.txn_stmts_us", "us"),
    ("core.store.txn_commit_us", "us"),
    ("core.store.noop_frac", "ratio"),
    ("core.store.rate_decay", "ratio"),
    ("rel.io.write_calls_per_commit", "count"),
    ("rel.io.bytes_per_commit", "B"),
    ("rel.io.write_us_per_commit", "us"),
    ("rel.io.sync_calls", "count"),
    ("rel.wal.bytes_per_user_byte", "ratio"),
    ("rel.txn.vacuum_ms", "ms"),
    ("rel.txn.vacuum_reclaimed", "count"),
    ("rel.checkpoint.write_ms", "ms"),
    ("rel.checkpoint.bytes", "B"),
    ("rel.checkpoint.reopen_ms", "ms"),
    ("rel.db.estimated_bytes_mb", "MiB"),
    // lb_remote → p50_us, ops_per_s, cpu_us_per_op
    ("server.ping_rtt_us", "us"),
    ("server.query_rtt_us", "us"),
    ("server.overhead_us", "us"),
    ("server.protocol.req_encode_ns", "ns"),
    ("server.protocol.req_decode_ns", "ns"),
    ("server.protocol.resp_encode_ns", "ns"),
    ("server.protocol.resp_decode_ns", "ns"),
    ("server.resp_bytes_per_op", "B"),
    ("server.frames_processed", "count"),
    ("server.protocol_errors", "count"),
    ("server.worker_panics", "count"),
    ("server.worker_count", "count"),
    // trav → point lines move p50_us; set lines move ops_per_s, p95_us
    ("gremlin.parse_us.point", "us"),
    ("core.translate_us.point", "us"),
    ("core.translate.sql_bytes.point", "B"),
    ("rel.sql.parse_us.point", "us"),
    ("rel.db.execute_us.point", "us"),
    ("gremlin.parse_us.set", "us"),
    ("core.translate_us.set", "us"),
    ("core.translate.sql_bytes.set", "B"),
    ("rel.sql.parse_us.set", "us"),
    ("rel.db.execute_us.set", "us"),
    ("rel.db.execute_ms.lq1", "ms"),
    ("rel.db.execute_ms.lq2", "ms"),
    ("rel.db.execute_ms.lq3", "ms"),
    ("rel.db.execute_ms.lq4", "ms"),
    ("rel.db.execute_ms.lq5", "ms"),
    ("rel.db.execute_ms.lq6", "ms"),
    ("rel.db.execute_ms.lq8", "ms"),
    ("rel.db.execute_ms.lq9", "ms"),
    ("rel.db.execute_ms.lq10", "ms"),
    ("rel.db.execute_ms.lq11", "ms"),
    ("rel.db.execute_ms.dq15", "ms"),
    ("rel.csr.builds", "count"),
    ("rel.csr.cache_len", "count"),
    ("rel.csr.rebuild_ms", "ms"),
    ("rel.parallel.cpu_wall_ratio", "ratio"),
    ("core.store.fallbacks", "count"),
    // every workload
    ("trace.overhead_frac", "ratio"),
    ("untraced.p95_us", "us"),
    ("untraced.p99_us", "us"),
    ("untraced.cpu_us_per_op", "us"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// A workload, `all` or `aa`.
    pub command: String,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
    pub smoke: bool,
    pub sets: usize,
    pub runs: usize,
}

const USAGE: &str = "usage: perf <lb_read|lb_mixed|lb_remote|trav|all|aa> \
[--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--sets K] [--runs R]\n       \
perf --workload <name> --seed N --seconds S --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        seed: inputs::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        sets: 2,
        runs: 5,
    };
    let mut it = argv.iter().peekable();
    fn number<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse()
            .map_err(|_| format!("{flag}: {v:?} is not a number"))
    }
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                args.command = it.next().ok_or("--workload needs a name")?.clone();
            }
            "--seed" => args.seed = number("--seed", it.next())?,
            "--seconds" => args.seconds = number("--seconds", it.next())?,
            "--sets" => args.sets = number("--sets", it.next())?,
            "--runs" => args.runs = number("--runs", it.next())?,
            "--smoke" => args.smoke = true,
            "--trace" => {
                // `--trace` alone turns tracing on; `--trace 0|1` sets it.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            name if !name.starts_with('-') && args.command.is_empty() => {
                args.command = name.to_string();
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let known =
        WORKLOADS.contains(&args.command.as_str()) || args.command == "all" || args.command == "aa";
    if !known {
        return Err(format!("unknown workload {:?}", args.command));
    }
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    if args.sets < 2 || args.runs < 1 {
        return Err("aa needs --sets >= 2 and --runs >= 1".into());
    }
    Ok(args)
}

/// Build files (span files, the durable store's directory) go beside the
/// executable, inside the target directory.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("."));
    let profile_dir = exe.parent().unwrap_or(&exe);
    profile_dir.parent().unwrap_or(profile_dir).join("perf")
}

fn metrics_json(metrics: &[Metric]) -> Json {
    let mut obj = JsonObject::new();
    for m in metrics {
        let mut v = JsonObject::new();
        v.insert("value", Json::float(m.value));
        v.insert("unit", Json::str(m.unit));
        obj.insert(m.name.as_str(), Json::Object(v));
    }
    Json::Object(obj)
}

fn pairs_json<'a>(pairs: impl Iterator<Item = (&'a str, &'a str)>) -> Json {
    let mut obj = JsonObject::new();
    for (k, v) in pairs {
        obj.insert(k, Json::str(v));
    }
    Json::Object(obj)
}

/// The metrics the contract line carries: the gated end-to-end metrics, or
/// every per-layer metric (0 where it belongs to another workload).
fn contract_metrics(run: &Run, traced: bool) -> Result<Vec<Metric>, String> {
    let listed: Vec<(&str, &str)> = if traced {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    };
    if let Some(stray) = run
        .metrics
        .iter()
        .find(|m| !listed.contains(&(m.name.as_str(), m.unit)))
    {
        return Err(format!(
            "metric {} [{}] is not in the benchmark's list",
            stray.name, stray.unit
        ));
    }
    Ok(listed
        .into_iter()
        .map(|(name, unit)| {
            let value = run
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            measure::metric(name, value, unit)
        })
        .collect())
}

/// Run one workload in this process and print its report. The last line
/// is the contract's result object; the one before it the full summary.
fn run_workload(args: &Args) -> Result<bool, String> {
    let cfg = Cfg {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        out_dir: out_dir(),
    };
    let name = args.command.as_str();
    let mut facts: Vec<(String, String)> = host::facts()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    facts.extend([
        ("seed".to_string(), cfg.seed.to_string()),
        ("seconds".to_string(), cfg.seconds.to_string()),
        (
            "scale_factor".to_string(),
            format!(
                "{:.4} of the 30 s op counts{}",
                f64::from(cfg.seconds) / 30.0 / if cfg.smoke { 50.0 } else { 1.0 },
                if cfg.smoke { " (--smoke)" } else { "" }
            ),
        ),
        (
            "server_worker_count".to_string(),
            sqlgraph_server::ServerConfig::default().workers.to_string(),
        ),
        ("clients".to_string(), "1, closed loop".to_string()),
        (
            "rel_parallelism".to_string(),
            "1, forced: rel::parallel's latch can hang the caller (README, Findings)".to_string(),
        ),
    ]);

    fn go<W: Workload>(w: Result<W, String>, cfg: &Cfg, traced: bool) -> Result<Run, String> {
        drive(&w?, cfg, traced)
    }
    let run = match name {
        "lb_read" => go(linkbench::LbRead::new(&cfg), &cfg, args.trace),
        "lb_mixed" => go(linkbench::LbMixed::new(&cfg), &cfg, args.trace),
        "lb_remote" => go(linkbench::LbRemote::new(&cfg), &cfg, args.trace),
        "trav" => go(trav::Trav::new(&cfg), &cfg, args.trace),
        other => unreachable!("{other} was validated"),
    }?;
    facts.extend(run.facts.iter().cloned());
    let metrics = contract_metrics(&run, args.trace)?;
    let correct = run.failed == 0 && run.checks.iter().all(|c| c.ok);

    println!(
        "perf {name} trace={} — {}",
        u8::from(args.trace),
        if args.trace {
            "per-layer metrics"
        } else {
            "end-to-end metrics"
        }
    );
    for (k, v) in &facts {
        println!("  fact    {k} = {v}");
    }
    for m in metrics.iter().filter(|m| {
        // A traced run lists only its own workload's layers here.
        !args.trace || run.metrics.iter().any(|r| r.name == m.name)
    }) {
        println!("  metric  {name}/{} = {} {}", m.name, m.value, m.unit);
    }
    for m in &run.notes {
        println!("  note    {name}/{} = {} {}", m.name, m.value, m.unit);
    }
    for c in &run.checks {
        let verdict = if c.ok { "ok" } else { "FAILED" };
        println!("  check   {name}/{} {verdict}: {}", c.name, c.detail);
    }
    println!(
        "  ops     attempted = {}, failed = {}",
        run.attempted, run.failed
    );

    let mut checks = JsonObject::new();
    for c in &run.checks {
        let mut v = JsonObject::new();
        v.insert("ok", Json::Bool(c.ok));
        v.insert("detail", Json::str(c.detail.as_str()));
        checks.insert(c.name.as_str(), Json::Object(v));
    }
    let mut summary = JsonObject::new();
    summary.insert("workload", Json::str(name));
    summary.insert("traced", Json::Bool(args.trace));
    summary.insert(
        "facts",
        pairs_json(facts.iter().map(|(k, v)| (k.as_str(), v.as_str()))),
    );
    summary.insert("metrics", metrics_json(&run.metrics));
    summary.insert("notes", metrics_json(&run.notes));
    summary.insert("checks", Json::Object(checks));
    summary.insert("attempted", Json::int(run.attempted as i64));
    summary.insert("failed", Json::int(run.failed as i64));
    summary.insert("correct", Json::Bool(correct));
    summary.insert("claim", Json::Null);
    println!("summary {}", Json::Object(summary));

    let mut result = JsonObject::new();
    result.insert("correct", Json::Bool(correct));
    result.insert("attempted", Json::int(run.attempted as i64));
    result.insert("failed", Json::int(run.failed as i64));
    result.insert("metrics", metrics_json(&metrics));
    println!("{}", Json::Object(result));
    Ok(correct)
}

/// The output of one workload run in a process of its own.
pub struct ChildRun {
    pub ok: bool,
    pub summary: Json,
    pub result: Json,
}

/// Run one workload in a fresh process, so that `peak_rss_mb`, CPU
/// pinning and allocator state never leak from one workload to the next.
pub fn spawn_workload(name: &str, args: &Args, seed: u64, echo: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg(name)
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{stdout}");
    }
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let mut lines = stdout.lines().rev();
    let result = lines.next().and_then(|l| sqlgraph_json::parse(l).ok());
    let summary = lines
        .next()
        .and_then(|l| l.strip_prefix("summary "))
        .and_then(|l| sqlgraph_json::parse(l).ok());
    match (result, summary) {
        (Some(result), Some(summary)) => Ok(ChildRun {
            ok: out.status.success(),
            summary,
            result,
        }),
        _ => Err(format!("{name} printed no result (exit {})", out.status)),
    }
}

/// Every workload, each in a fresh process; one summary at the end.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    let mut workloads = JsonObject::new();
    for name in WORKLOADS {
        let child = spawn_workload(name, args, args.seed, true)?;
        all_ok &= child.ok;
        workloads.insert(name, child.summary);
        println!();
    }
    let mut summary = JsonObject::new();
    summary.insert("workloads", Json::Object(workloads));
    summary.insert("correct", Json::Bool(all_ok));
    summary.insert("claim", Json::Null);
    println!("summary {}", Json::Object(summary));
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.command.as_str() {
        "all" => run_all(&args),
        "aa" => aa::run(&args),
        _ => run_workload(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perf: a check or an operation failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn both_command_line_forms_parse() {
        let contract = parse_args(&argv("--workload trav --seed 7 --seconds 10 --trace 1"))
            .expect("contract form");
        assert_eq!(contract.command, "trav");
        assert_eq!((contract.seed, contract.seconds), (7, 10));
        assert!(contract.trace);
        let off = parse_args(&argv("--workload trav --seed 7 --seconds 10 --trace 0")).unwrap();
        assert!(!off.trace);

        let short = parse_args(&argv("lb_read --trace --smoke")).expect("short form");
        assert!(short.trace && short.smoke);
        assert_eq!(short.seed, inputs::DEFAULT_SEED);
        assert_eq!(short.seconds, DEFAULT_SECONDS);
        let aa = parse_args(&argv("aa --sets 3 --runs 4")).expect("aa");
        assert_eq!((aa.sets, aa.runs), (3, 4));

        assert!(parse_args(&argv("nonsense")).is_err());
        assert!(parse_args(&argv("")).is_err());
        assert!(parse_args(&argv("trav --seconds 0")).is_err());
        assert!(parse_args(&argv("trav --seed x")).is_err());
        assert!(parse_args(&argv("trav --frobnicate")).is_err());
    }

    #[test]
    fn contract_metrics_fill_other_workloads_layers_with_zero() {
        let run = Run {
            metrics: vec![measure::metric("rel.csr.builds", 7.0, "count")],
            ..Run::default()
        };
        let all = contract_metrics(&run, true).expect("listed");
        assert_eq!(all.len(), PER_LAYER.len());
        let value = |n: &str| all.iter().find(|m| m.name == n).expect("listed").value;
        assert_eq!(value("rel.csr.builds"), 7.0);
        assert_eq!(value("server.ping_rtt_us"), 0.0);
        let stray = Run {
            metrics: vec![measure::metric("made.up", 1.0, "us")],
            ..Run::default()
        };
        assert!(contract_metrics(&stray, true).is_err());
        assert!(contract_metrics(&run, false).is_err());
    }

    /// `BENCHMARK.json` at the repository root and the tables above must
    /// say the same thing. Skipped where the file is not there.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc = sqlgraph_json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(Json::as_array).expect(key).to_vec();
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).expect(k).to_string();

        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_i64),
            Some(i64::from(DEFAULT_SECONDS))
        );
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, (name, unit, higher, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(j, "name"), name);
            assert_eq!(field(j, "unit"), unit);
            assert_eq!(field(j, "better"), if higher { "higher" } else { "lower" });
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(bound), "{name}");
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, (name, unit)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name"), name);
            assert_eq!(field(j, "unit"), unit);
        }
    }
}

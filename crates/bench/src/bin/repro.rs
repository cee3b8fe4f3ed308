//! `repro` — regenerate the SQLGraph paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--scale F] [--runs N] [--quick]
//!
//! experiments:
//!   fig3     Table 1 + Figure 3 (adjacency micro-benchmark)
//!   fig4     Table 2 + Figure 4 (attribute lookups)
//!   table3   Table 3 (hash table characteristics)
//!   table4   Table 4 (EA vs IPA+ISA neighbor lookups)
//!   fig6     Figure 6 (long paths: OPA+OSA vs EA)
//!   longpath CSR + factorized lists vs the row templates (Table 1 queries + dq15)
//!   fig8     Figures 8a/8b/8d (DBpedia benchmark, 3 systems)
//!   fig8c    Figure 8c substitute (scale sweep)
//!   fig9     Figure 9 + §5.2 concurrency (LinkBench throughput, scaling, tails)
//!   throughput-mixed  mixed read/write over the wire protocol: MVCC vs lock
//!   conn-sweep  wire protocol: ops/sec + tails at 1/8/64/256/1024 sockets
//!   table6   Table 6 (per-op latency, mid scale)
//!   table7   Table 7 (per-op latency, largest scale)
//!   sizes    §5.1 storage footprints + the heap by table and structure
//!   recovery Durability: cold WAL replay vs snapshot + tail reopen latency
//!   all      everything above
//! ```

use sqlgraph_bench::experiments::{self, ReproConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return;
    }
    let mut config = ReproConfig::default();
    let mut experiment = String::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => config = ReproConfig::quick(),
            "--scale" => {
                i += 1;
                config.scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a number"));
            }
            "--runs" => {
                i += 1;
                config.runs = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--runs needs an integer"));
            }
            "--lb-ops" => {
                i += 1;
                config.lb_ops = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--lb-ops needs an integer"));
            }
            name if !name.starts_with('-') => experiment = name.to_string(),
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }
    if experiment.is_empty() {
        print_usage();
        return;
    }

    let run = |name: &str, config: &ReproConfig| {
        let report = match name {
            "fig3" => experiments::fig3(config),
            "fig4" => experiments::fig4(config),
            "table3" => experiments::table3(config),
            "table4" => experiments::table4(config),
            "fig6" => experiments::fig6(config),
            "longpath" => experiments::longpath(config),
            "fig8" => experiments::fig8(config),
            "fig8c" => experiments::fig8c(config),
            "fig9" => experiments::fig9(config),
            "throughput-mixed" => experiments::throughput_mixed(config),
            "conn-sweep" => experiments::conn_sweep(config),
            "table6" => experiments::table67(config, false),
            "table7" => experiments::table67(config, true),
            "sizes" => experiments::sizes(config),
            "recovery" => experiments::recovery(config),
            other => die(&format!("unknown experiment '{other}'")),
        };
        println!("{report}");
    };

    if experiment == "all" {
        for name in [
            "fig3",
            "fig4",
            "table3",
            "table4",
            "fig6",
            "longpath",
            "fig8",
            "fig8c",
            "fig9",
            "throughput-mixed",
            "conn-sweep",
            "table6",
            "table7",
            "sizes",
            "recovery",
        ] {
            println!("==================================================================");
            run(name, &config);
        }
    } else {
        run(&experiment, &config);
    }
}

fn print_usage() {
    eprintln!(
        "usage: repro <fig3|fig4|table3|table4|fig6|longpath|fig8|fig8c|fig9|throughput-mixed|conn-sweep|table6|table7|sizes|recovery|all> \
         [--scale F] [--runs N] [--lb-ops N] [--quick]"
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

//! Social-network scenario: a LinkBench-style workload (the paper's §5.2)
//! against SQLGraph — concurrent requesters running the Facebook operation
//! mix, with per-operation latency reporting.
//!
//! ```sh
//! cargo run --release --example social_network
//! ```

use sqlgraph::core::{GraphData, SqlGraph};
use sqlgraph::datagen::linkbench::{self, LinkBenchConfig, Op, Workload};
use sqlgraph::gremlin::Blueprints;
use sqlgraph::rel::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

fn main() {
    let config = LinkBenchConfig::with_nodes(5_000);
    println!("generating LinkBench graph ({} nodes)...", config.nodes);
    let data = linkbench::generate(&config);
    println!(
        "  {} nodes, {} associations",
        data.vertex_count(),
        data.edge_count()
    );

    let g = SqlGraph::new_in_memory();
    g.bulk_load(&GraphData {
        vertices: data.vertices.clone(),
        edges: data.edges.clone(),
    })
    .unwrap();

    // A few single requests, the Gremlin way.
    println!("\nsample requests:");
    for q in [
        "g.v(3).outE('assoc_0').count()", // count_link
        "g.v(3).out('assoc_0')[0..9]",    // get_link_list page
        "g.v(7).values('data')",          // get_node
    ] {
        let out = g.query(q).unwrap();
        println!("  {q:<40} -> {} rows", out.rows.len());
    }

    // Concurrent operation mix (Table 6 distribution) from 8 requesters.
    let requesters = 8;
    let ops_per_requester = 2_000;
    let done = AtomicU64::new(0);
    println!("\nrunning {requesters} requesters x {ops_per_requester} ops...");
    let t0 = Instant::now();
    let all_latencies = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for r in 0..requesters {
            let g = &g;
            let done = &done;
            handles.push(scope.spawn(move || {
                let mut wl = Workload::new(42, r, config.nodes, 32);
                let mut lat: HashMap<&'static str, (f64, usize)> = HashMap::new();
                for _ in 0..ops_per_requester {
                    let op = wl.next_op();
                    let t = Instant::now();
                    apply(g, &op);
                    let entry = lat.entry(op.name()).or_default();
                    entry.0 += t.elapsed().as_secs_f64();
                    entry.1 += 1;
                    done.fetch_add(1, Ordering::Relaxed);
                }
                lat
            }));
        }
        let mut merged: HashMap<&'static str, (f64, usize)> = HashMap::new();
        for h in handles {
            for (name, (total, n)) in h.join().unwrap() {
                let e = merged.entry(name).or_default();
                e.0 += total;
                e.1 += n;
            }
        }
        merged
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let total = done.load(Ordering::Relaxed);
    println!(
        "  {total} ops in {elapsed:.2}s = {:.0} op/sec",
        total as f64 / elapsed
    );
    println!("\nper-operation mean latency:");
    let mut rows: Vec<_> = all_latencies.into_iter().collect();
    rows.sort_by_key(|(name, _)| *name);
    for (name, (total_s, n)) in rows {
        println!(
            "  {:<16} {:>10.3} ms  ({n} ops)",
            name,
            1e3 * total_s / n as f64
        );
    }

    // Consistency check after the storm: EA and the adjacency tables agree.
    let ea_edges = g.database().table_len("ea").unwrap();
    let rel = g.database().execute("SELECT COUNT(*) FROM osa").unwrap();
    println!(
        "\nfinal state: {} edges in EA, {} secondary adjacency rows",
        ea_edges,
        rel.scalar().and_then(Value::as_int).unwrap_or(0)
    );
}

/// Apply one LinkBench operation through the Blueprints API (errors from
/// racing deletes are expected and ignored).
fn apply(g: &SqlGraph, op: &Op) {
    match op {
        Op::AddNode { props } => {
            let _ = g.add_vertex(props.iter().map(|(k, v)| (k.as_str(), v.clone())));
        }
        Op::UpdateNode { id } => {
            let _ = Blueprints::set_vertex_property(g, *id, "version", &2i64.into());
        }
        Op::DeleteNode { id } => {
            let _ = Blueprints::remove_vertex(g, *id);
        }
        Op::GetNode { id } => {
            let _ = Blueprints::vertex_property(g, *id, "data");
        }
        Op::AddLink { src, dst, ltype } => {
            let _ = g.add_edge(*src, *dst, ltype, [("visibility", 1i64.into())]);
        }
        Op::DeleteLink { src, dst, ltype } => {
            let edges = g.database().execute_with_params(
                "SELECT eid FROM ea WHERE inv = ? AND lbl = ? AND outv = ?",
                &[Value::Int(*src), Value::str(*ltype), Value::Int(*dst)],
            );
            if let Ok(rel) = edges {
                if let Some(eid) = rel.int_column().first() {
                    let _ = Blueprints::remove_edge(g, *eid);
                }
            }
        }
        Op::UpdateLink { src, dst, ltype } => {
            let edges = g.database().execute_with_params(
                "SELECT eid FROM ea WHERE inv = ? AND lbl = ? AND outv = ?",
                &[Value::Int(*src), Value::str(*ltype), Value::Int(*dst)],
            );
            if let Ok(rel) = edges {
                if let Some(eid) = rel.int_column().first() {
                    let _ = Blueprints::set_edge_property(g, *eid, "timestamp", &1i64.into());
                }
            }
        }
        Op::CountLink { id, ltype } => {
            let _ = g.database().execute_with_params(
                "SELECT COUNT(*) FROM ea WHERE inv = ? AND lbl = ?",
                &[Value::Int(*id), Value::str(*ltype)],
            );
        }
        Op::MultigetLink { src, dsts, ltype } => {
            let list: Vec<String> = dsts.iter().map(i64::to_string).collect();
            let _ = g.database().execute_with_params(
                &format!(
                    "SELECT eid FROM ea WHERE inv = ? AND lbl = ? AND outv IN ({})",
                    list.join(", ")
                ),
                &[Value::Int(*src), Value::str(*ltype)],
            );
        }
        Op::GetLinkList { id, ltype } => {
            let _ = g.database().execute_with_params(
                "SELECT eid, outv, attr FROM ea WHERE inv = ? AND lbl = ?",
                &[Value::Int(*id), Value::str(*ltype)],
            );
        }
    }
}

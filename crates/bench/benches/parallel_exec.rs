//! Criterion bench: morsel-driven intra-query parallelism. A large
//! scan-and-aggregate and a join-heavy query run serial (DOP pinned to 1)
//! and parallel (DOP 4); on a multi-core host the parallel side should win
//! by roughly the core count (the acceptance target is ≥2× at DOP 4).

use criterion::{criterion_group, criterion_main, Criterion};
use sqlgraph_rel::{Database, Value};

const FACT_ROWS: i64 = 120_000;
const DIM_ROWS: i64 = 600;

fn build_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE fact (id INTEGER PRIMARY KEY, k INTEGER, v DOUBLE)")
        .unwrap();
    db.execute("CREATE TABLE dim (k INTEGER PRIMARY KEY, tag INTEGER)")
        .unwrap();
    for i in 0..FACT_ROWS {
        db.execute_with_params(
            "INSERT INTO fact VALUES (?, ?, ?)",
            &[
                Value::Int(i),
                Value::Int((i * 17) % DIM_ROWS),
                Value::Double(i as f64 * 0.003),
            ],
        )
        .unwrap();
    }
    for k in 0..DIM_ROWS {
        db.execute_with_params(
            "INSERT INTO dim VALUES (?, ?)",
            &[Value::Int(k), Value::Int(k % 3)],
        )
        .unwrap();
    }
    db.execute("ANALYZE").unwrap();
    db
}

// A predicate-heavy scan + grouped aggregation over the whole fact table.
const SCAN_AGG: &str = "SELECT fact.k, COUNT(*), SUM(fact.v) FROM fact \
                        WHERE fact.v > 1.0 AND fact.id % 3 = 0 GROUP BY fact.k";
// A hash join with no usable index: build over dim, probe over fact.
const JOIN: &str = "SELECT COUNT(*) FROM fact, dim \
                    WHERE fact.k = dim.k AND dim.tag = 1 AND fact.v > 10.0";

fn bench_parallel_exec(c: &mut Criterion) {
    let db = build_db();

    // Serial and DOP 4 must agree row-for-row before anything is timed, and
    // both must match counts recomputed from the generating formulas. At
    // 120k rows this exercises scales the unit-test corpora never reach.
    let fact = |i: i64| ((i * 17) % DIM_ROWS, i as f64 * 0.003);
    let scanned: Vec<i64> = (0..FACT_ROWS)
        .filter(|&i| fact(i).1 > 1.0 && i % 3 == 0)
        .map(|i| fact(i).0)
        .collect();
    let groups = scanned
        .iter()
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let joined = (0..FACT_ROWS)
        .filter(|&i| fact(i).0 % 3 == 1 && fact(i).1 > 10.0)
        .count();
    let agreed = |query: &str| {
        db.set_parallelism(1);
        let serial = db.execute(query).unwrap();
        db.set_parallelism(4);
        let parallel = db.execute(query).unwrap();
        assert_eq!(
            serial.rows, parallel.rows,
            "parallelism changed the answer: {query}"
        );
        serial
    };
    let by_k = agreed(SCAN_AGG);
    assert_eq!(by_k.rows.len(), groups);
    let counted: i64 = by_k.rows.iter().map(|r| r[1].as_int().unwrap()).sum();
    assert_eq!(counted, scanned.len() as i64);
    assert_eq!(agreed(JOIN).scalar(), Some(&Value::Int(joined as i64)));

    let mut group = c.benchmark_group("parallel_exec");
    group.sample_size(15);
    for (name, query) in [("scan_agg", SCAN_AGG), ("hash_join", JOIN)] {
        db.set_parallelism(1);
        group.bench_function(format!("{name}/serial"), |b| {
            b.iter(|| db.execute(query).unwrap())
        });
        db.set_parallelism(4);
        group.bench_function(format!("{name}/dop4"), |b| {
            b.iter(|| db.execute(query).unwrap())
        });
    }
    group.finish();
    db.set_parallelism(0);
}

criterion_group!(benches, bench_parallel_exec);
criterion_main!(benches);

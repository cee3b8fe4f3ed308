//! LEFT OUTER JOIN semantics, pinned by explicit expected rows.
//!
//! Every query runs at DOP 1 and DOP 4 and must return exactly the listed
//! rows in the listed order: left rows in their input order, each followed
//! by its matches in the right side's own order, or by one NULL-padded row
//! when nothing matched. The cases cover each way the planner can reach
//! the null-supplying side (index probe, hash build, nested loop; base
//! table, CTE, derived table) and each place a predicate can sit (ON key,
//! ON residue, WHERE).

use sqlgraph_rel::{Database, Value};

/// Fixture. `a.x` and `b.y` both carry a NULL and a duplicate key; `b.y` is
/// indexed, `c.w` is not; `osa` is the overflow table of the paper's hop
/// template.
///
/// ```text
/// a(id, x)      b(id, y, z)     c(id, w)    osa(valid, val)
/// 1  10         1  10   1       1  10       20  201
/// 2  20         2  20   1       2  25       20  202
/// 3  NULL       3  20   2       3  NULL     40  401
/// 4  40         4  NULL 1
/// 5  20         5  50   1
/// ```
fn fixture() -> Database {
    let db = Database::new();
    for ddl in [
        "CREATE TABLE a (id INTEGER PRIMARY KEY, x INTEGER)",
        "CREATE TABLE b (id INTEGER PRIMARY KEY, y INTEGER, z INTEGER)",
        "CREATE INDEX b_y ON b (y)",
        "CREATE TABLE c (id INTEGER PRIMARY KEY, w INTEGER)",
        "CREATE TABLE osa (valid INTEGER, val INTEGER)",
        "CREATE INDEX osa_valid ON osa (valid)",
        "INSERT INTO a VALUES (1, 10), (2, 20), (3, NULL), (4, 40), (5, 20)",
        "INSERT INTO b VALUES (1, 10, 1), (2, 20, 1), (3, 20, 2), (4, NULL, 1), (5, 50, 1)",
        "INSERT INTO c VALUES (1, 10), (2, 25), (3, NULL)",
        "INSERT INTO osa VALUES (20, 201), (20, 202), (40, 401)",
    ] {
        db.execute(ddl).unwrap();
    }
    db
}

const NULL: Option<i64> = None;

fn row(vals: &[Option<i64>]) -> Vec<Value> {
    vals.iter()
        .map(|v| v.map_or(Value::Null, Value::Int))
        .collect()
}

/// Run `sql` at DOP 1 and 4 and require exactly `want`, in order.
fn check(sql: &str, want: &[&[Option<i64>]]) {
    let db = fixture();
    let want: Vec<Vec<Value>> = want.iter().map(|r| row(r)).collect();
    for dop in [1, 4] {
        db.set_parallelism(dop);
        let got = db
            .execute(sql)
            .unwrap_or_else(|e| panic!("dop {dop}: {e}\nSQL: {sql}"));
        assert_eq!(got.rows, want, "dop {dop}\nSQL: {sql}");
    }
}

fn s(v: i64) -> Option<i64> {
    Some(v)
}

#[test]
fn indexed_base_table_with_null_keys_on_both_sides() {
    // a.x = NULL (a3) matches nothing, not even b4's NULL y; b4 and b5
    // never appear. Duplicate keys fan out in posting order.
    check(
        "SELECT a.id, b.id FROM a LEFT OUTER JOIN b ON a.x = b.y",
        &[
            &[s(1), s(1)],
            &[s(2), s(2)],
            &[s(2), s(3)],
            &[s(3), NULL],
            &[s(4), NULL],
            &[s(5), s(2)],
            &[s(5), s(3)],
        ],
    );
}

#[test]
fn unindexed_base_table_hash_join() {
    check(
        "SELECT a.id, c.id FROM a LEFT JOIN c ON a.x = c.w",
        &[
            &[s(1), s(1)],
            &[s(2), NULL],
            &[s(3), NULL],
            &[s(4), NULL],
            &[s(5), NULL],
        ],
    );
    // The indexed table on the left, probing nothing: same shape reversed.
    check(
        "SELECT c.id, a.id FROM c LEFT JOIN a ON c.w = a.x",
        &[&[s(1), s(1)], &[s(2), NULL], &[s(3), NULL]],
    );
}

#[test]
fn cte_on_the_right() {
    check(
        "WITH big AS (SELECT b.id AS id, b.y AS y FROM b WHERE b.z = 1) \
         SELECT a.id, r.id FROM a LEFT JOIN big r ON a.x = r.y",
        &[
            &[s(1), s(1)],
            &[s(2), s(2)],
            &[s(3), NULL],
            &[s(4), NULL],
            &[s(5), s(2)],
        ],
    );
}

#[test]
fn derived_table_on_the_right() {
    check(
        "SELECT a.id, r.id FROM a LEFT JOIN (SELECT b.id AS id, b.y AS y FROM b WHERE b.z = 2) r \
         ON a.x = r.y",
        &[
            &[s(1), NULL],
            &[s(2), s(3)],
            &[s(3), NULL],
            &[s(4), NULL],
            &[s(5), s(3)],
        ],
    );
}

#[test]
fn on_conjunct_over_the_right_side_only_is_not_a_where() {
    // `b.z = 1` in ON narrows the matches; a left row whose only matches
    // fail it is padded, not dropped.
    check(
        "SELECT a.id, b.id FROM a LEFT JOIN b ON a.x = b.y AND b.z = 1",
        &[
            &[s(1), s(1)],
            &[s(2), s(2)],
            &[s(3), NULL],
            &[s(4), NULL],
            &[s(5), s(2)],
        ],
    );
    check(
        "SELECT a.id, b.id FROM a LEFT JOIN b ON a.x = b.y AND b.z = 2",
        &[
            &[s(1), NULL],
            &[s(2), s(3)],
            &[s(3), NULL],
            &[s(4), NULL],
            &[s(5), s(3)],
        ],
    );
    // The same conjunct in WHERE drops the padded rows.
    check(
        "SELECT a.id, b.id FROM a LEFT JOIN b ON a.x = b.y WHERE b.z = 2",
        &[&[s(2), s(3)], &[s(5), s(3)]],
    );
}

#[test]
fn on_conjunct_over_the_left_side_only_pads_instead_of_dropping() {
    check(
        "SELECT a.id, b.id FROM a LEFT JOIN b ON a.x = b.y AND a.id > 2",
        &[
            &[s(1), NULL],
            &[s(2), NULL],
            &[s(3), NULL],
            &[s(4), NULL],
            &[s(5), s(2)],
            &[s(5), s(3)],
        ],
    );
}

#[test]
fn non_equi_on_is_a_nested_loop() {
    check(
        "SELECT a.id, c.id FROM a LEFT JOIN c ON a.x < c.w",
        &[
            &[s(1), s(2)],
            &[s(2), s(2)],
            &[s(3), NULL],
            &[s(4), NULL],
            &[s(5), s(2)],
        ],
    );
}

#[test]
fn anti_join_through_where_is_null() {
    check(
        "SELECT a.id FROM a LEFT JOIN b ON a.x = b.y WHERE b.y IS NULL",
        &[&[s(3)], &[s(4)]],
    );
    check(
        "SELECT a.id FROM a LEFT JOIN c ON a.x = c.w WHERE c.id IS NULL",
        &[&[s(2)], &[s(3)], &[s(4)], &[s(5)]],
    );
}

#[test]
fn where_equi_conjunct_across_both_sides_is_a_filter_not_the_join_key() {
    // Were `a.x = b.z * 10` taken as the outer join's key, a2 and a4 would
    // come back NULL-padded; as a WHERE it removes them.
    check(
        "SELECT a.id, b.id FROM a LEFT JOIN b ON a.x = b.y WHERE a.x = b.z * 10",
        &[&[s(1), s(1)], &[s(2), s(3)], &[s(5), s(3)]],
    );
    // With no ON key at all (ON over the right side only), the same WHERE
    // still filters after the join.
    check(
        "SELECT a.id, b.id FROM a LEFT JOIN b ON b.z = 2 WHERE a.x = b.y",
        &[&[s(2), s(3)], &[s(5), s(3)]],
    );
}

#[test]
fn outer_then_inner_and_inner_then_outer_chains() {
    // (a LOJ b) JOIN c: the inner join's ON reads the null-supplied b.y, so
    // padded rows fall out.
    check(
        "SELECT a.id, b.id, c.id FROM a LEFT JOIN b ON a.x = b.y JOIN c ON b.y = c.w",
        &[&[s(1), s(1), s(1)]],
    );
    // (a LOJ b) JOIN c on the preserved side keeps the padding.
    check(
        "SELECT a.id, b.id, c.id FROM a LEFT JOIN b ON a.x = b.y AND b.z = 2 \
         JOIN c ON a.id = c.id",
        &[
            &[s(1), NULL, s(1)],
            &[s(2), s(3), s(2)],
            &[s(3), NULL, s(3)],
        ],
    );
    // (a JOIN c) LOJ b.
    check(
        "SELECT a.id, c.id, b.id FROM a JOIN c ON a.id = c.id LEFT JOIN b ON a.x = b.y \
         ORDER BY a.id, b.id",
        &[
            &[s(1), s(1), s(1)],
            &[s(2), s(2), s(2)],
            &[s(2), s(2), s(3)],
            &[s(3), s(3), NULL],
        ],
    );
    // Two outer joins in a row; the second keys on the first's padded side.
    check(
        "SELECT a.id, b.id, c.id FROM a LEFT JOIN b ON a.x = b.y AND b.z = 1 \
         LEFT JOIN c ON b.y = c.w",
        &[
            &[s(1), s(1), s(1)],
            &[s(2), s(2), NULL],
            &[s(3), NULL, NULL],
            &[s(4), NULL, NULL],
            &[s(5), s(2), NULL],
        ],
    );
}

#[test]
fn comma_item_before_the_chain_crosses_with_it() {
    check(
        "SELECT c.id, a.id, b.id FROM c, a LEFT JOIN b ON a.x = b.y AND b.z = 2 \
         WHERE c.id < 3 AND a.id < 3 ORDER BY c.id, a.id",
        &[
            &[s(1), s(1), NULL],
            &[s(1), s(2), s(3)],
            &[s(2), s(1), NULL],
            &[s(2), s(2), s(3)],
        ],
    );
}

#[test]
fn unqualified_columns_and_select_star_keep_full_width_in_textual_order() {
    let db = fixture();
    for dop in [1, 4] {
        db.set_parallelism(dop);
        let got = db
            .execute("SELECT * FROM a LEFT JOIN b ON x = y WHERE z IS NULL OR z = 2")
            .unwrap();
        assert_eq!(got.columns, ["id", "x", "id", "y", "z"], "dop {dop}");
        assert_eq!(
            got.rows,
            [
                row(&[s(2), s(20), s(3), s(20), s(2)]),
                row(&[s(3), NULL, NULL, NULL, NULL]),
                row(&[s(4), s(40), NULL, NULL, NULL]),
                row(&[s(5), s(20), s(3), s(20), s(2)]),
            ],
            "dop {dop}"
        );
        let got = db
            .execute("SELECT b.*, a.* FROM a LEFT JOIN b ON x = y AND z = 2 WHERE x = 10")
            .unwrap();
        assert_eq!(got.columns, ["id", "y", "z", "id", "x"], "dop {dop}");
        assert_eq!(got.rows, [row(&[NULL, NULL, NULL, s(1), s(10)])]);
    }
}

#[test]
fn lateral_values_after_the_chain_reads_both_sides() {
    check(
        "SELECT a.id, t.v FROM a LEFT JOIN b ON a.x = b.y AND b.z = 2, \
         TABLE(VALUES (b.z), (a.x)) AS t(v) WHERE a.id < 4",
        &[
            &[s(1), NULL],
            &[s(1), s(10)],
            &[s(2), s(2)],
            &[s(2), s(20)],
            &[s(3), NULL],
            &[s(3), NULL],
        ],
    );
}

#[test]
fn count_star_counts_padded_rows() {
    check(
        "SELECT COUNT(*), COUNT(b.id) FROM a LEFT JOIN b ON a.x = b.y",
        &[&[s(7), s(5)]],
    );
    check(
        "SELECT a.x, COUNT(*) FROM a LEFT JOIN b ON a.x = b.y GROUP BY a.x ORDER BY a.x",
        &[
            &[NULL, s(1)],
            &[s(10), s(1)],
            &[s(20), s(4)],
            &[s(40), s(1)],
        ],
    );
}

#[test]
fn hop_template_takes_the_overflow_value_or_keeps_its_own() {
    // Table 8's hop ending: a primary-adjacency value is either a vertex id
    // (kept by COALESCE) or a list id resolved through OSA.
    check(
        "WITH t AS (SELECT a.x AS val FROM a WHERE a.x IS NOT NULL) \
         SELECT COALESCE(s.val, p.val) AS val FROM t p LEFT OUTER JOIN osa s ON p.val = s.valid",
        &[
            &[s(10)],
            &[s(201)],
            &[s(202)],
            &[s(401)],
            &[s(201)],
            &[s(202)],
        ],
    );
}

#[test]
fn table_function_cannot_be_a_join_operand() {
    let db = fixture();
    let err = db
        .execute("SELECT a.id FROM a LEFT JOIN TABLE(VALUES (1)) AS t(v) ON a.id = t.v")
        .unwrap_err();
    assert!(err.to_string().contains("JOIN operand"), "{err}");
}

//! ORDER BY totality and the NULL-ordering convention.
//!
//! The engine sorts with `Value::total_cmp`, a total order even over inputs
//! SQL comparison treats as *unknown*: NULLs, mixed type classes, and NaN.
//! The user-visible convention under test:
//!
//! * `ASC` (default): NULLs first, then booleans, numbers (NaN last among
//!   them), strings.
//! * `DESC`: the whole ordering reverses, so NULLs come last.
//! * Ties are stable, so output is deterministic at every DOP.

use proptest::prelude::*;
use sqlgraph_rel::{Database, Value};

fn db_with_mixed() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v DOUBLE)")
        .unwrap();
    for (id, v) in [
        (1, Value::Double(2.5)),
        (2, Value::Null),
        (3, Value::Double(-1.0)),
        (4, Value::Double(f64::NAN)),
        (5, Value::Null),
        (6, Value::Double(0.0)),
    ] {
        db.execute_with_params("INSERT INTO t VALUES (?, ?)", &[Value::Int(id), v])
            .unwrap();
    }
    db
}

fn ids(db: &Database, sql: &str) -> Vec<i64> {
    db.execute(sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_int().unwrap())
        .collect()
}

#[test]
fn nulls_first_ascending() {
    let db = db_with_mixed();
    // NULLs (ids 2, 5 in insert order) first, then -1.0, 0.0, 2.5, NaN last.
    assert_eq!(
        ids(&db, "SELECT id FROM t ORDER BY v"),
        vec![2, 5, 3, 6, 1, 4]
    );
}

#[test]
fn nulls_last_descending() {
    let db = db_with_mixed();
    // DESC reverses the total order; stable sort keeps the NULL tie (2, 5)
    // in input order.
    assert_eq!(
        ids(&db, "SELECT id FROM t ORDER BY v DESC"),
        vec![4, 1, 6, 3, 2, 5]
    );
}

#[test]
fn mixed_type_classes_rank() {
    let db = Database::new();
    db.execute("CREATE TABLE m (id INTEGER PRIMARY KEY, attr JSON)")
        .unwrap();
    // JSON_VAL yields heterogeneous values — the property-graph store sorts
    // attribute values of mixed type all the time. Exercise the cross-class
    // ranking NULL < BOOLEAN < numbers < TEXT end to end.
    for (id, doc) in [
        (1, r#"{"v":"abc"}"#),
        (2, r#"{"v":7}"#),
        (3, r#"{"v":true}"#),
        (4, r#"{}"#),
        (5, r#"{"v":6.5}"#),
    ] {
        db.execute_with_params(
            "INSERT INTO m VALUES (?, ?)",
            &[
                Value::Int(id),
                Value::json(sqlgraph_json::parse(doc).unwrap()),
            ],
        )
        .unwrap();
    }
    assert_eq!(
        ids(&db, "SELECT id FROM m ORDER BY JSON_VAL(attr, 'v')"),
        vec![4, 3, 5, 2, 1]
    );
}

#[test]
fn order_by_identical_at_every_dop() {
    let db = db_with_mixed();
    for dop in [1, 2, 4, 8] {
        db.set_parallelism(dop);
        let got = db
            .execute("SELECT id, v FROM t ORDER BY v, id DESC")
            .unwrap();
        // NULLs first (ties broken by id DESC), then -1.0, 0.0, 2.5, NaN.
        let ids: Vec<i64> = got.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![5, 2, 3, 6, 1, 4], "dop={dop}");
    }
}

/// Arbitrary values spanning every class `total_cmp` ranks, including the
/// awkward numbers (NaN, infinities, signed zero).
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        prop_oneof![
            any::<f64>(),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.0),
        ]
        .prop_map(Value::Double),
        "[a-z]{0,4}".prop_map(Value::str),
    ]
}

proptest! {
    /// `total_cmp` is a genuine total order: antisymmetric and transitive
    /// on arbitrary value triples. `Vec::sort_by` requires this; a lapse
    /// would be a logic error (nondeterministic ORDER BY output).
    #[test]
    fn total_cmp_is_total(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering;
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        prop_assert_eq!(a.total_cmp(&a), Ordering::Equal);
        // Transitivity: sort the triple with total_cmp, then check every
        // adjacent and skip pair is consistent.
        let mut v = [a, b, c];
        v.sort_by(|x, y| x.total_cmp(y));
        prop_assert!(v[0].total_cmp(&v[1]) != Ordering::Greater);
        prop_assert!(v[1].total_cmp(&v[2]) != Ordering::Greater);
        prop_assert!(v[0].total_cmp(&v[2]) != Ordering::Greater);
    }

    /// Equal values hash identically (hash joins and DISTINCT group by
    /// hash; ordering and hashing must agree on equality).
    #[test]
    fn equality_implies_hash_equality(a in arb_value(), b in arb_value()) {
        use std::hash::{Hash, Hasher};
        fn h(v: &Value) -> u64 {
            let mut s = std::collections::hash_map::DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        if a == b {
            prop_assert_eq!(h(&a), h(&b));
        }
    }
}

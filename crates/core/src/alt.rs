//! Alternative physical schemas used by the paper's micro-benchmarks
//! (§3.2/§3.3): the roads *not* taken by the final design.
//!
//! * [`JsonAdjacency`] — adjacency stored as one JSON document per vertex
//!   (Figure 2c). Traversals unnest the document with the engine's lateral
//!   `TABLE(JSON_EDGES(...))` function. Figure 3 compares this against the
//!   hash-table shredding and finds it ~5× slower for traversal.
//! * [`ShreddedAttrs`] — vertex attributes shredded into a relational hash
//!   table by coloring attribute keys (Figure 2d), with the long-string and
//!   multi-value overflow tables whose row counts appear in Table 3.
//!   Figure 4 compares this against the JSON attribute table and finds JSON
//!   faster for value lookups (casts and overflow joins disappear).

use crate::layout::{color_labels, ColorMap, LayoutStats};
use crate::store::GraphData;
use sqlgraph_json::Json;
use sqlgraph_rel::storage::Table;
use sqlgraph_rel::{Database, Relation, Result, Value};
use std::collections::BTreeMap;

/// Per-vertex adjacency grouped by label: vid → label → [(eid, other)].
type AdjacencyMap<'a> = BTreeMap<i64, BTreeMap<&'a str, Vec<(i64, i64)>>>;

/// Strings longer than this spill into the long-string table, mirroring the
/// paper's observation that DBpedia attribute values often exceed row-width
/// budgets.
pub const LONG_STRING_LIMIT: usize = 64;

// ---------------------------------------------------------------------------
// JSON adjacency (Figure 2c)
// ---------------------------------------------------------------------------

/// Adjacency-as-JSON storage: `jout(vid, edges)` / `jin(vid, edges)` with
/// `edges = {"label": [{"eid": e, "val": v}, ...], ...}`.
#[derive(Debug)]
pub struct JsonAdjacency {
    db: Database,
}

impl JsonAdjacency {
    /// Create the two tables in a fresh database.
    pub fn new() -> Result<JsonAdjacency> {
        let db = Database::new();
        // Documents are stored serialized (TEXT): 2015-era engines held
        // JSON columns as serialized BSON/VARCHAR, so adjacency access pays
        // a per-row decode — the cost Figure 3 measures.
        db.execute("CREATE TABLE jout (vid INTEGER PRIMARY KEY, edges TEXT)")?;
        db.execute("CREATE TABLE jin (vid INTEGER PRIMARY KEY, edges TEXT)")?;
        db.execute("CREATE TABLE va (vid INTEGER PRIMARY KEY, attr JSON)")?;
        Ok(JsonAdjacency { db })
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Load a graph: one adjacency document per vertex per direction.
    pub fn load(&self, data: &GraphData) -> Result<()> {
        let mut out_adj: AdjacencyMap<'_> = AdjacencyMap::new();
        let mut in_adj: AdjacencyMap<'_> = AdjacencyMap::new();
        for (eid, src, dst, label, _) in &data.edges {
            out_adj
                .entry(*src)
                .or_default()
                .entry(label)
                .or_default()
                .push((*eid, *dst));
            in_adj
                .entry(*dst)
                .or_default()
                .entry(label)
                .or_default()
                .push((*eid, *src));
        }
        for (table, adj) in [("jout", &out_adj), ("jin", &in_adj)] {
            self.db.write_table(table, |t| {
                for (vid, labels) in adj {
                    let mut doc = sqlgraph_json::JsonObject::new();
                    for (label, entries) in labels {
                        let items: Vec<Json> = entries
                            .iter()
                            .map(|(eid, val)| {
                                let mut o = sqlgraph_json::JsonObject::new();
                                o.insert("eid", Json::int(*eid));
                                o.insert("val", Json::int(*val));
                                Json::Object(o)
                            })
                            .collect();
                        doc.insert(label.to_string(), Json::Array(items));
                    }
                    t.insert(vec![
                        Value::Int(*vid),
                        Value::str(Json::Object(doc).to_string()),
                    ])?;
                }
                Ok(())
            })?;
        }
        self.db.write_table("va", |va| {
            for (vid, props) in &data.vertices {
                va.insert(vec![
                    Value::Int(*vid),
                    Value::json(crate::store::props_to_json(props)),
                ])?;
            }
            Ok(())
        })
    }

    /// SQL for a k-hop traversal from the vertices matched by
    /// `seed_filter` (a WHERE condition over `va`, e.g.
    /// `JSON_VAL(attr, 'kind') = 'place'`), following `label` edges
    /// (`None` = all labels), counting the result. `both` traverses each
    /// hop in both directions (the paper's `team` queries).
    pub fn khop_sql(
        &self,
        seed_filter: &str,
        label: Option<&str>,
        hops: usize,
        both: bool,
    ) -> String {
        let mut sql = format!("WITH t0 AS (SELECT vid AS val FROM va WHERE {seed_filter})");
        let label_arg = match label {
            Some(l) => format!(", '{}'", l.replace('\'', "''")),
            None => String::new(),
        };
        let mut counter = 0usize;
        let mut prev = "t0".to_string();
        for _ in 1..=hops {
            if both {
                counter += 1;
                let a = format!("t{counter}");
                sql.push_str(&format!(
                    ", {a} AS (SELECT t.val AS val FROM {prev} v, jout p, \
                     TABLE(JSON_EDGES(p.edges{label_arg})) AS t(lbl, eid, val) \
                     WHERE v.val = p.vid)"
                ));
                counter += 1;
                let b = format!("t{counter}");
                sql.push_str(&format!(
                    ", {b} AS (SELECT t.val AS val FROM {prev} v, jin p, \
                     TABLE(JSON_EDGES(p.edges{label_arg})) AS t(lbl, eid, val) \
                     WHERE v.val = p.vid)"
                ));
                counter += 1;
                let u = format!("t{counter}");
                sql.push_str(&format!(
                    ", {u} AS (SELECT * FROM {a} UNION ALL SELECT * FROM {b})"
                ));
                prev = u;
            } else {
                counter += 1;
                let next = format!("t{counter}");
                sql.push_str(&format!(
                    ", {next} AS (SELECT t.val AS val FROM {prev} v, jout p, \
                     TABLE(JSON_EDGES(p.edges{label_arg})) AS t(lbl, eid, val) \
                     WHERE v.val = p.vid)"
                ));
                prev = next;
            }
        }
        sql.push_str(&format!(" SELECT COUNT(*) FROM {prev}"));
        sql
    }

    /// Run a k-hop count query.
    pub fn khop(&self, seed_filter: &str, label: Option<&str>, hops: usize) -> Result<Relation> {
        self.db
            .execute(&self.khop_sql(seed_filter, label, hops, false))
    }

    /// Run a k-hop count query traversing both directions per hop.
    pub fn khop_both(
        &self,
        seed_filter: &str,
        label: Option<&str>,
        hops: usize,
    ) -> Result<Relation> {
        self.db
            .execute(&self.khop_sql(seed_filter, label, hops, true))
    }
}

// ---------------------------------------------------------------------------
// Shredded relational attributes (Figure 2d)
// ---------------------------------------------------------------------------

/// Vertex attributes shredded into a colored hash table:
/// `vah(rowno, vid, spill, attr0, type0, val0, …)` plus the `lst`
/// (long-string) and `mvt` (multi-value) overflow tables.
#[derive(Debug)]
pub struct ShreddedAttrs {
    db: Database,
    colors: ColorMap,
    buckets: usize,
    stats: LayoutStats,
}

impl ShreddedAttrs {
    /// Shred `vertices` into a fresh database with `buckets` column triads.
    pub fn build(vertices: &[crate::store::VertexSpec], buckets: usize) -> Result<ShreddedAttrs> {
        let db = Database::new();
        let mut cols = String::from("rowno INTEGER, vid INTEGER, spill INTEGER");
        for i in 0..buckets {
            cols.push_str(&format!(", attr{i} TEXT, type{i} TEXT, val{i} TEXT"));
        }
        db.execute(&format!("CREATE TABLE vah ({cols})"))?;
        db.execute("CREATE INDEX vah_vid ON vah (vid) USING HASH")?;
        // Per-bucket lookup indexes (the paper indexed queried keys for
        // both storage layouts). Note numeric lookups still cannot use
        // these: the stored value is TEXT, so the CAST defeats the index —
        // exactly the shredded layout's disadvantage.
        for i in 0..buckets {
            db.execute(&format!(
                "CREATE INDEX vah_attr{i} ON vah (attr{i}) USING HASH"
            ))?;
            db.execute(&format!(
                "CREATE INDEX vah_attr{i}_val{i} ON vah (attr{i}, val{i}) USING HASH"
            ))?;
        }
        db.execute("CREATE TABLE lst (ref TEXT PRIMARY KEY, txt TEXT)")?;
        db.execute("CREATE TABLE mvt (mvref TEXT, typ TEXT, val TEXT)")?;
        db.execute("CREATE INDEX mvt_ref ON mvt (mvref) USING HASH")?;
        db.execute("CREATE INDEX mvt_val ON mvt (val) USING HASH")?;

        // Color attribute keys by co-occurrence, exactly like edge labels.
        let key_lists = vertices
            .iter()
            .map(|(_, props)| props.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>());
        let colors = color_labels(key_lists, buckets);

        let mut stats = LayoutStats {
            hashed_labels: colors.labels(),
            max_bucket_size: colors.bucket_sizes().into_iter().max().unwrap_or(0),
            ..LayoutStats::default()
        };

        let mut next_rowno = 1i64;
        let mut next_ref = 1i64;
        let arity = 3 + 3 * buckets;
        let mut shred = |vah: &mut Table, lst: &mut Table, mvt: &mut Table| {
            for (vid, props) in vertices {
                let mut rows: Vec<Vec<Value>> = vec![new_row(arity, next_rowno, *vid, false)];
                next_rowno += 1;
                for (key, value) in props {
                    let col = colors.column(key) % buckets;
                    let (a_i, t_i, v_i) = (3 + 3 * col, 4 + 3 * col, 5 + 3 * col);
                    let row_idx = match rows.iter().position(|r| r[a_i].is_null()) {
                        Some(i) => i,
                        None => {
                            rows.push(new_row(arity, next_rowno, *vid, true));
                            next_rowno += 1;
                            rows.len() - 1
                        }
                    };
                    let (ty, rendered) = render_attr(value);
                    let stored: Value = match value {
                        Json::Array(items) => {
                            // Multi-valued attribute → overflow rows.
                            let mvref = format!("@mv:{next_ref}");
                            next_ref += 1;
                            for item in items {
                                let (ity, irep) = render_attr(item);
                                mvt.insert(vec![
                                    Value::str(&mvref),
                                    Value::str(ity),
                                    Value::str(irep),
                                ])?;
                                stats.multi_value_rows += 1;
                            }
                            Value::str(&mvref)
                        }
                        Json::Str(s) if s.len() > LONG_STRING_LIMIT => {
                            let sref = format!("@lst:{next_ref}");
                            next_ref += 1;
                            lst.insert(vec![Value::str(&sref), Value::str(s)])?;
                            stats.long_string_rows += 1;
                            Value::str(&sref)
                        }
                        _ => Value::str(rendered),
                    };
                    let row = &mut rows[row_idx];
                    row[a_i] = Value::str(key);
                    row[t_i] = Value::str(ty);
                    row[v_i] = stored;
                }
                stats.primary_rows += 1;
                stats.spill_rows += rows.len() - 1;
                for row in rows {
                    vah.insert(row)?;
                }
            }
            Ok(())
        };
        // All three tables are written under their locks at once.
        db.write_table("vah", |vah| {
            db.write_table("lst", |lst| {
                db.write_table("mvt", |mvt| shred(vah, lst, mvt))
            })
        })?;
        Ok(ShreddedAttrs {
            db,
            colors,
            buckets,
            stats,
        })
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Layout statistics (Table 3 rows for the attribute hash table).
    pub fn stats(&self) -> &LayoutStats {
        &self.stats
    }

    /// Count vertices where `key` exists — the `not null` queries of
    /// Table 2.
    pub fn count_not_null_sql(&self, key: &str) -> String {
        let c = self.colors.column(key) % self.buckets;
        format!(
            "SELECT COUNT(*) FROM vah WHERE attr{c} = '{}'",
            key.replace('\'', "''")
        )
    }

    /// Count vertices where `key`'s value matches `LIKE pattern` — handles
    /// long-string indirection with an outer join, as the paper describes.
    pub fn count_like_sql(&self, key: &str, pattern: &str) -> String {
        let c = self.colors.column(key) % self.buckets;
        format!(
            "SELECT COUNT(*) FROM vah p LEFT OUTER JOIN lst s ON p.val{c} = s.ref \
             WHERE p.attr{c} = '{key_esc}' AND COALESCE(s.txt, p.val{c}) LIKE '{pat}'",
            key_esc = key.replace('\'', "''"),
            pat = pattern.replace('\'', "''"),
        )
    }

    /// Count vertices where `key = value` numerically — requires the CAST
    /// the paper calls out, plus the multi-value subquery.
    pub fn count_numeric_eq_sql(&self, key: &str, value: f64) -> String {
        let c = self.colors.column(key) % self.buckets;
        format!(
            "SELECT COUNT(*) FROM vah p WHERE p.attr{c} = '{key_esc}' AND \
             ((p.type{c} <> 'STRING' AND CAST(p.val{c} AS DOUBLE) = {value}) OR \
              p.val{c} IN (SELECT mvref FROM mvt WHERE val = '{value}'))",
            key_esc = key.replace('\'', "''"),
        )
    }

    /// Count vertices where `key = value` as a string (multi-value aware).
    pub fn count_string_eq_sql(&self, key: &str, value: &str) -> String {
        let c = self.colors.column(key) % self.buckets;
        let v = value.replace('\'', "''");
        format!(
            "SELECT COUNT(*) FROM vah p WHERE p.attr{c} = '{key_esc}' AND \
             (p.val{c} = '{v}' OR p.val{c} IN (SELECT mvref FROM mvt WHERE val = '{v}'))",
            key_esc = key.replace('\'', "''"),
        )
    }

    /// Execute one of the generated queries.
    pub fn run(&self, sql: &str) -> Result<Relation> {
        self.db.execute(sql)
    }
}

fn new_row(arity: usize, rowno: i64, vid: i64, spill: bool) -> Vec<Value> {
    let mut row = vec![Value::Null; arity];
    row[0] = Value::Int(rowno);
    row[1] = Value::Int(vid);
    row[2] = Value::Int(spill as i64);
    row
}

/// Render an attribute value for TEXT storage with its declared type.
fn render_attr(value: &Json) -> (&'static str, String) {
    match value {
        Json::Num(n) if n.is_int() => ("INTEGER", n.to_string()),
        Json::Num(n) => ("DOUBLE", n.to_string()),
        Json::Bool(b) => ("BOOLEAN", b.to_string()),
        Json::Null => ("NULL", "null".into()),
        Json::Str(s) => ("STRING", s.clone()),
        other => ("JSON", other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> GraphData {
        GraphData {
            vertices: vec![
                (
                    1,
                    vec![("name".into(), "a".into()), ("age".into(), Json::int(10))],
                ),
                (
                    2,
                    vec![("name".into(), "b".into()), ("age".into(), Json::int(20))],
                ),
                (3, vec![("name".into(), "c".into())]),
            ],
            edges: vec![
                (1, 1, 2, "next".into(), vec![]),
                (2, 2, 3, "next".into(), vec![]),
                (3, 1, 3, "skip".into(), vec![]),
            ],
        }
    }

    #[test]
    fn json_adjacency_khop() {
        let ja = JsonAdjacency::new().unwrap();
        ja.load(&graph()).unwrap();
        let rel = ja.khop("vid = 1", Some("next"), 2).unwrap();
        assert_eq!(rel.scalar().and_then(Value::as_int), Some(1)); // 1→2→3
        let rel = ja.khop("vid = 1", None, 1).unwrap();
        assert_eq!(rel.scalar().and_then(Value::as_int), Some(2)); // 2 and 3
        let rel = ja
            .khop("JSON_VAL(attr, 'name') = 'a'", Some("next"), 1)
            .unwrap();
        assert_eq!(rel.scalar().and_then(Value::as_int), Some(1));
    }

    #[test]
    fn shredded_attrs_lookups() {
        let long = "x".repeat(LONG_STRING_LIMIT + 10) + "@en";
        let vertices: Vec<(i64, Vec<(String, Json)>)> = vec![
            (
                1,
                vec![
                    ("label".into(), Json::str("short@en")),
                    ("pop".into(), Json::float(12.5)),
                ],
            ),
            (
                2,
                vec![
                    ("label".into(), Json::str(long)),
                    ("pop".into(), Json::int(7)),
                ],
            ),
            (
                3,
                vec![
                    ("label".into(), Json::str("plain")),
                    (
                        "alias".into(),
                        Json::Array(vec![Json::str("x"), Json::str("y")]),
                    ),
                ],
            ),
        ];
        let sh = ShreddedAttrs::build(&vertices, 4).unwrap();
        // Existence.
        let n = sh.run(&sh.count_not_null_sql("label")).unwrap();
        assert_eq!(n.scalar().and_then(Value::as_int), Some(3));
        let n = sh.run(&sh.count_not_null_sql("pop")).unwrap();
        assert_eq!(n.scalar().and_then(Value::as_int), Some(2));
        // LIKE across the long-string table.
        let n = sh.run(&sh.count_like_sql("label", "%@en")).unwrap();
        assert_eq!(n.scalar().and_then(Value::as_int), Some(2));
        // Numeric equality with cast.
        let n = sh.run(&sh.count_numeric_eq_sql("pop", 12.5)).unwrap();
        assert_eq!(n.scalar().and_then(Value::as_int), Some(1));
        // Multi-value membership.
        let n = sh.run(&sh.count_string_eq_sql("alias", "y")).unwrap();
        assert_eq!(n.scalar().and_then(Value::as_int), Some(1));
        // Stats counted the overflow rows.
        assert_eq!(sh.stats().long_string_rows, 1);
        assert_eq!(sh.stats().multi_value_rows, 2);
        assert_eq!(sh.stats().primary_rows, 3);
    }

    #[test]
    fn shredded_attrs_spill_when_narrow() {
        let vertices: Vec<(i64, Vec<(String, Json)>)> = vec![(
            1,
            vec![
                ("a".into(), Json::int(1)),
                ("b".into(), Json::int(2)),
                ("c".into(), Json::int(3)),
            ],
        )];
        let sh = ShreddedAttrs::build(&vertices, 2).unwrap();
        assert!(sh.stats().spill_rows >= 1);
        // All three keys still findable.
        for key in ["a", "b", "c"] {
            let n = sh.run(&sh.count_not_null_sql(key)).unwrap();
            assert_eq!(n.scalar().and_then(Value::as_int), Some(1), "key {key}");
        }
    }
}

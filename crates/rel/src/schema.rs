//! Table schemas and column metadata.

use crate::codec::MAX_DEPTH;
use crate::error::{Error, Result};
use crate::value::Value;

/// Declared column type. The engine is dynamically typed at runtime (any
/// `Value` can be stored), but declared types drive `INSERT` coercions and
/// catalog introspection, mirroring how the paper's schema declares
/// `INTEGER` id columns next to `JSON` attribute columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit integer.
    Integer,
    /// 64-bit float.
    Double,
    /// UTF-8 text.
    Text,
    /// JSON document.
    Json,
    /// Boolean.
    Boolean,
    /// Any value (used by temporary/CTE tables).
    Any,
}

impl ColumnType {
    /// Parse a type name from SQL DDL.
    pub fn parse(name: &str) -> Result<ColumnType> {
        match name.to_ascii_uppercase().as_str() {
            "INTEGER" | "INT" | "BIGINT" => Ok(ColumnType::Integer),
            "DOUBLE" | "FLOAT" | "REAL" => Ok(ColumnType::Double),
            "TEXT" | "VARCHAR" | "STRING" | "CLOB" => Ok(ColumnType::Text),
            "JSON" => Ok(ColumnType::Json),
            "BOOLEAN" | "BOOL" => Ok(ColumnType::Boolean),
            "ANY" => Ok(ColumnType::Any),
            other => Err(Error::Schema(format!("unknown column type '{other}'"))),
        }
    }

    /// True if `value` may be stored in a column of this type. NULL is
    /// always accepted (no NOT NULL constraints in this engine).
    pub fn admits(self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (ColumnType::Any, _)
                | (ColumnType::Integer, Value::Int(_))
                | (ColumnType::Double, Value::Double(_))
                | (ColumnType::Double, Value::Int(_))
                | (ColumnType::Text, Value::Str(_))
                | (ColumnType::Json, Value::Json(_))
                | (ColumnType::Boolean, Value::Bool(_))
        )
    }
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Lower-cased column name (the engine is case-insensitive).
    pub name: String,
    /// Declared type.
    pub ty: ColumnType,
}

/// A table definition: name plus ordered columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Lower-cased table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<Column>,
}

impl TableSchema {
    /// Create a schema, validating that column names are unique.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Result<TableSchema> {
        let name = name.into().to_ascii_lowercase();
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|p| p.name == c.name) {
                return Err(Error::Schema(format!(
                    "duplicate column '{}' in table '{name}'",
                    c.name
                )));
            }
        }
        Ok(TableSchema { name, columns })
    }

    /// Index of a column by (case-insensitive) name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        let lower = name.to_ascii_lowercase();
        self.columns.iter().position(|c| c.name == lower)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Validate and lightly coerce a row before insert: arity must match;
    /// `Int` widens to `Double` in double columns; anything else that the
    /// declared type does not admit is an error.
    pub fn check_row(&self, row: &mut [Value]) -> Result<()> {
        if row.len() != self.arity() {
            return Err(Error::Schema(format!(
                "table '{}' expects {} values, got {}",
                self.name,
                self.arity(),
                row.len()
            )));
        }
        for (value, col) in row.iter_mut().zip(&self.columns) {
            if col.ty == ColumnType::Double {
                if let Value::Int(v) = value {
                    *value = Value::Double(*v as f64);
                }
            }
            if !col.ty.admits(value) {
                return Err(Error::Type(format!(
                    "column '{}.{}' ({ty:?}) cannot store a {}",
                    self.name,
                    col.name,
                    value.type_name(),
                    ty = col.ty,
                )));
            }
            // A row the WAL could not decode would end replay at its commit.
            if value.depth() > MAX_DEPTH {
                return Err(Error::Type(format!(
                    "column '{}.{}' cannot store arrays nested past {MAX_DEPTH}",
                    self.name, col.name
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::new(
            "T",
            vec![
                Column {
                    name: "id".into(),
                    ty: ColumnType::Integer,
                },
                Column {
                    name: "w".into(),
                    ty: ColumnType::Double,
                },
                Column {
                    name: "name".into(),
                    ty: ColumnType::Text,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn names_are_case_insensitive() {
        let s = schema();
        assert_eq!(s.name, "t");
        assert_eq!(s.column_index("ID"), Some(0));
        assert_eq!(s.column_index("Name"), Some(2));
        assert_eq!(s.column_index("missing"), None);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let r = TableSchema::new(
            "t",
            vec![
                Column {
                    name: "a".into(),
                    ty: ColumnType::Any,
                },
                Column {
                    name: "a".into(),
                    ty: ColumnType::Any,
                },
            ],
        );
        assert!(r.is_err());
    }

    #[test]
    fn check_row_coerces_and_rejects() {
        let s = schema();
        let mut ok = vec![Value::Int(1), Value::Int(2), Value::str("x")];
        s.check_row(&mut ok).unwrap();
        assert_eq!(ok[1], Value::Double(2.0));

        let mut bad_arity = vec![Value::Int(1)];
        assert!(s.check_row(&mut bad_arity).is_err());

        let mut bad_type = vec![Value::str("no"), Value::Null, Value::Null];
        assert!(s.check_row(&mut bad_type).is_err());

        let mut nulls = vec![Value::Null, Value::Null, Value::Null];
        s.check_row(&mut nulls).unwrap();
    }

    #[test]
    fn check_row_rejects_arrays_the_wal_cannot_decode() {
        let mut any = schema();
        any.columns.iter_mut().for_each(|c| c.ty = ColumnType::Any);
        let nested = |depth| (0..depth).fold(Value::Int(1), |v, _| Value::array(vec![v]));
        any.check_row(&mut [Value::Null, Value::Null, nested(MAX_DEPTH)])
            .unwrap();
        let err = any.check_row(&mut [Value::Null, Value::Null, nested(MAX_DEPTH + 1)]);
        assert!(matches!(err, Err(Error::Type(_))), "{err:?}");
    }

    #[test]
    fn type_parse() {
        assert_eq!(ColumnType::parse("int").unwrap(), ColumnType::Integer);
        assert_eq!(ColumnType::parse("VARCHAR").unwrap(), ColumnType::Text);
        assert!(ColumnType::parse("blob").is_err());
    }
}

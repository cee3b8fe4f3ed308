//! Tokenizer for the Gremlin pipe dialect.

use std::fmt;

/// Lex/parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GremlinError {
    /// Byte offset in the query text.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for GremlinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gremlin error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for GremlinError {}

/// A token.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Byte offset.
    pub offset: usize,
    /// Kind/payload.
    pub kind: Tok,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier (`g`, `V`, `out`, `it`, `T`, property names...).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single- or double-quoted string.
    Str(String),
    /// `.`
    Dot,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `..`
    DotDot,
    /// `==`
    EqEq,
    /// `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Lte,
    /// `>`
    Gt,
    /// `>=`
    Gte,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// `_` (anonymous pipeline starter `_()`)
    Underscore,
    /// `;` statement separator (accepted, ignored at end)
    Semicolon,
    /// End of input.
    Eof,
}

/// Canonical text of a token: the same token always prints the same way
/// whatever quotes, escapes or spacing the source used, and no two
/// different tokens print alike (strings keep their quotes, floats their
/// point). The shape key of a prepared traversal is built from these.
impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Tok::Ident(s) => return f.write_str(s),
            Tok::Int(v) => return write!(f, "{v}"),
            Tok::Float(v) => return write!(f, "{v:?}"),
            Tok::Str(s) => return write!(f, "{s:?}"),
            Tok::Dot => ".",
            Tok::LParen => "(",
            Tok::RParen => ")",
            Tok::LBrace => "{",
            Tok::RBrace => "}",
            Tok::LBracket => "[",
            Tok::RBracket => "]",
            Tok::Comma => ",",
            Tok::Colon => ":",
            Tok::DotDot => "..",
            Tok::EqEq => "==",
            Tok::Neq => "!=",
            Tok::Lt => "<",
            Tok::Lte => "<=",
            Tok::Gt => ">",
            Tok::Gte => ">=",
            Tok::AndAnd => "&&",
            Tok::OrOr => "||",
            Tok::Bang => "!",
            Tok::Underscore => "_",
            Tok::Semicolon => ";",
            Tok::Eof => "",
        })
    }
}

/// Tokenize a Gremlin query.
pub fn tokenize(src: &str) -> Result<Vec<Token>, GremlinError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => {
                i += 1;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'\'' | b'"' => {
                let quote = b;
                i += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(i) {
                        Some(&c) if c == quote => {
                            i += 1;
                            break;
                        }
                        Some(b'\\') => {
                            // `i` points at ASCII '\', so `i + 1` is a char
                            // boundary; consume one full character after it.
                            let esc = src[i + 1..].chars().next().ok_or(GremlinError {
                                offset: i,
                                message: "truncated escape".into(),
                            })?;
                            s.push(match esc {
                                'n' => '\n',
                                't' => '\t',
                                'r' => '\r',
                                other => other,
                            });
                            i += 1 + esc.len_utf8();
                        }
                        Some(_) => {
                            let c = src[i..].chars().next().expect("non-empty");
                            s.push(c);
                            i += c.len_utf8();
                        }
                        None => {
                            return Err(GremlinError {
                                offset: start,
                                message: "unterminated string".into(),
                            })
                        }
                    }
                }
                out.push(Token {
                    offset: start,
                    kind: Tok::Str(s),
                });
            }
            b'0'..=b'9' => {
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                // Take care not to eat the `..` of a range literal.
                let is_float = i < bytes.len()
                    && bytes[i] == b'.'
                    && bytes.get(i + 1).is_some_and(u8::is_ascii_digit);
                if is_float {
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let text = &src[start..i];
                    out.push(Token {
                        offset: start,
                        kind: Tok::Float(text.parse().map_err(|_| GremlinError {
                            offset: start,
                            message: format!("bad float '{text}'"),
                        })?),
                    });
                } else {
                    let text = &src[start..i];
                    out.push(Token {
                        offset: start,
                        kind: Tok::Int(text.parse().map_err(|_| GremlinError {
                            offset: start,
                            message: format!("bad integer '{text}'"),
                        })?),
                    });
                }
            }
            b'_' if !bytes
                .get(i + 1)
                .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_') =>
            {
                out.push(Token {
                    offset: start,
                    kind: Tok::Underscore,
                });
                i += 1;
            }
            _ if b == b'_' || b.is_ascii_alphabetic() => {
                while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                out.push(Token {
                    offset: start,
                    kind: Tok::Ident(src[start..i].to_string()),
                });
            }
            _ => {
                let two = bytes.get(i + 1).copied();
                let (kind, len) = match (b, two) {
                    (b'.', Some(b'.')) => (Tok::DotDot, 2),
                    (b'=', Some(b'=')) => (Tok::EqEq, 2),
                    (b'!', Some(b'=')) => (Tok::Neq, 2),
                    (b'<', Some(b'=')) => (Tok::Lte, 2),
                    (b'>', Some(b'=')) => (Tok::Gte, 2),
                    (b'&', Some(b'&')) => (Tok::AndAnd, 2),
                    (b'|', Some(b'|')) => (Tok::OrOr, 2),
                    (b'.', _) => (Tok::Dot, 1),
                    (b'(', _) => (Tok::LParen, 1),
                    (b')', _) => (Tok::RParen, 1),
                    (b'{', _) => (Tok::LBrace, 1),
                    (b'}', _) => (Tok::RBrace, 1),
                    (b'[', _) => (Tok::LBracket, 1),
                    (b']', _) => (Tok::RBracket, 1),
                    (b',', _) => (Tok::Comma, 1),
                    (b':', _) => (Tok::Colon, 1),
                    (b'<', _) => (Tok::Lt, 1),
                    (b'>', _) => (Tok::Gt, 1),
                    (b'!', _) => (Tok::Bang, 1),
                    (b';', _) => (Tok::Semicolon, 1),
                    (b'-', Some(c)) if c.is_ascii_digit() => {
                        // Negative number literal.
                        let mut j = i + 1;
                        while j < bytes.len() && bytes[j].is_ascii_digit() {
                            j += 1;
                        }
                        let is_float = j < bytes.len()
                            && bytes[j] == b'.'
                            && bytes.get(j + 1).is_some_and(u8::is_ascii_digit);
                        if is_float {
                            j += 1;
                            while j < bytes.len() && bytes[j].is_ascii_digit() {
                                j += 1;
                            }
                            let text = &src[i..j];
                            out.push(Token {
                                offset: start,
                                kind: Tok::Float(text.parse().map_err(|_| GremlinError {
                                    offset: start,
                                    message: format!("bad float '{text}'"),
                                })?),
                            });
                        } else {
                            let text = &src[i..j];
                            out.push(Token {
                                offset: start,
                                kind: Tok::Int(text.parse().map_err(|_| GremlinError {
                                    offset: start,
                                    message: format!("bad integer '{text}'"),
                                })?),
                            });
                        }
                        i = j;
                        continue;
                    }
                    _ => {
                        return Err(GremlinError {
                            offset: i,
                            message: format!("unexpected character '{}'", b as char),
                        })
                    }
                };
                out.push(Token {
                    offset: start,
                    kind,
                });
                i += len;
            }
        }
    }
    out.push(Token {
        offset: src.len(),
        kind: Tok::Eof,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn tokenizes_typical_query() {
        let ks = kinds("g.V.filter{it.tag=='w'}.both.dedup().count()");
        assert!(ks.contains(&Tok::Ident("filter".into())));
        assert!(ks.contains(&Tok::LBrace));
        assert!(ks.contains(&Tok::EqEq));
        assert!(ks.contains(&Tok::Str("w".into())));
    }

    #[test]
    fn range_literal_does_not_eat_dots() {
        let ks = kinds("[0..10]");
        assert_eq!(
            ks,
            vec![
                Tok::LBracket,
                Tok::Int(0),
                Tok::DotDot,
                Tok::Int(10),
                Tok::RBracket,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn floats_and_negatives() {
        assert_eq!(kinds("0.5")[0], Tok::Float(0.5));
        assert_eq!(kinds("-3")[0], Tok::Int(-3));
        assert_eq!(kinds("-2.5")[0], Tok::Float(-2.5));
    }

    #[test]
    fn underscore_pipeline_marker() {
        let ks = kinds("_().out('a')");
        assert_eq!(ks[0], Tok::Underscore);
        // but identifiers with underscores stay identifiers
        assert_eq!(kinds("my_var")[0], Tok::Ident("my_var".into()));
    }

    #[test]
    fn strings_with_escapes_and_quotes() {
        assert_eq!(kinds(r#"'it\'s'"#)[0], Tok::Str("it's".into()));
        assert_eq!(kinds(r#""double""#)[0], Tok::Str("double".into()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(tokenize("'open").is_err());
        assert!(tokenize("#").is_err());
    }
}

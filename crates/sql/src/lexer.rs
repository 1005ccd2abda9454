//! Tokenizer for the SQL subset.
//!
//! Keywords are case-insensitive; identifiers keep their original case.
//! Named parameters are written `:name` (the paper's `:minsupport`).

use crate::error::{Result, SqlError};

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// Keyword (uppercased) — SELECT, FROM, WHERE, ...
    Keyword(String),
    /// Identifier (table, alias, or column name; original case).
    Ident(String),
    /// Unsigned integer literal.
    Number(u64),
    /// Named parameter without the leading colon.
    Param(String),
    /// `,`
    Comma,
    /// `(` and `)`
    LParen,
    RParen,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `;`
    Semicolon,
    /// Comparison operators.
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "AND", "GROUP", "BY", "HAVING", "ORDER", "INSERT", "INTO", "VALUES",
    "CREATE", "TABLE", "DROP", "COUNT", "SUM", "AS", "INT", "INTEGER", "ASC", "DESC", "IN", "NOT",
];

/// Tokenize a statement.
pub fn lex(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    tokens.push(Token::Ne);
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token::Le);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token::Ge);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token::Ne);
                    i += 2;
                } else {
                    return Err(SqlError::Lex { offset: i, message: "lone '!'".into() });
                }
            }
            ':' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                if j == start {
                    return Err(SqlError::Lex {
                        offset: i,
                        message: "empty parameter name".into(),
                    });
                }
                tokens.push(Token::Param(input[start..j].to_string()));
                i = j;
            }
            '0'..='9' => {
                let start = i;
                let mut j = i;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                let n: u64 = input[start..j].parse().map_err(|_| SqlError::Lex {
                    offset: start,
                    message: "integer literal out of range".into(),
                })?;
                tokens.push(Token::Number(n));
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                let word = &input[start..j];
                let upper = word.to_ascii_uppercase();
                if KEYWORDS.contains(&upper.as_str()) {
                    tokens.push(Token::Keyword(upper));
                } else {
                    tokens.push(Token::Ident(word.to_string()));
                }
                i = j;
            }
            '-' => {
                // SQL comment `-- ...` runs to end of line.
                if i + 1 < bytes.len() && bytes[i + 1] == b'-' {
                    while i < bytes.len() && bytes[i] != b'\n' {
                        i += 1;
                    }
                } else {
                    return Err(SqlError::Lex { offset: i, message: "unexpected '-'".into() });
                }
            }
            other => {
                return Err(SqlError::Lex {
                    offset: i,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_the_paper_c1_query() {
        let toks = lex("INSERT INTO C1 SELECT r1.item, COUNT(*) FROM SALES r1 \
             GROUP BY r1.item HAVING COUNT(*) >= :minsupport")
        .unwrap();
        assert_eq!(toks[0], Token::Keyword("INSERT".into()));
        assert!(toks.contains(&Token::Param("minsupport".into())));
        assert!(toks.contains(&Token::Ge));
        assert!(toks.contains(&Token::Star));
    }

    #[test]
    fn keywords_are_case_insensitive_identifiers_keep_case() {
        let toks = lex("select Item from Sales").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Keyword("SELECT".into()),
                Token::Ident("Item".into()),
                Token::Keyword("FROM".into()),
                Token::Ident("Sales".into()),
            ]
        );
    }

    #[test]
    fn operators() {
        let toks = lex("= <> != < <= > >=").unwrap();
        assert_eq!(
            toks,
            vec![Token::Eq, Token::Ne, Token::Ne, Token::Lt, Token::Le, Token::Gt, Token::Ge]
        );
    }

    #[test]
    fn comments_are_skipped() {
        let toks = lex("SELECT a -- comment here\nFROM t").unwrap();
        assert_eq!(toks.len(), 4);
    }

    #[test]
    fn in_and_not_are_keywords() {
        let toks = lex("WHERE item NOT IN (3, 7)").unwrap();
        assert_eq!(toks[2], Token::Keyword("NOT".into()));
        assert_eq!(toks[3], Token::Keyword("IN".into()));
        assert_eq!(toks[1], Token::Ident("item".into()));
    }

    #[test]
    fn numbers_and_params() {
        let toks = lex("42 :min_sup").unwrap();
        assert_eq!(toks, vec![Token::Number(42), Token::Param("min_sup".into())]);
    }

    #[test]
    fn bad_characters_error_with_offset() {
        let err = lex("SELECT @").unwrap_err();
        assert!(matches!(err, SqlError::Lex { offset: 7, .. }));
        assert!(lex(":").is_err());
        assert!(lex("a - b").is_err());
    }
}

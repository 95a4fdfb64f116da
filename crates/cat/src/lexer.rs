//! Tokeniser for the `.cat` subset.

use std::fmt;

/// A token of the `.cat` language subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Token {
    /// An identifier (`po`, `rfe`, `W`, ...).
    Ident(String),
    /// `let`.
    Let,
    /// `rec` (recursive definitions).
    Rec,
    /// `and` (between recursive bindings).
    And,
    /// `acyclic`.
    Acyclic,
    /// `irreflexive`.
    Irreflexive,
    /// `empty`.
    Empty,
    /// `as` (names a check).
    As,
    /// `|`.
    Bar,
    /// `&`.
    Amp,
    /// `\`.
    Backslash,
    /// `;`.
    Semi,
    /// `+`.
    Plus,
    /// `*`.
    Star,
    /// `?`.
    Question,
    /// `~`.
    Tilde,
    /// `^-1`.
    Inverse,
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `[`.
    LBracket,
    /// `]`.
    RBracket,
    /// `,`.
    Comma,
    /// `=`.
    Eq,
    /// `_` (the universal set).
    Underscore,
    /// A `"..."` string literal (herd `include` arguments and friends;
    /// lexed so the parser can name the unsupported construct instead
    /// of choking on the quote character).
    Str(String),
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Str(s) => write!(f, "{s:?}"),
            t => write!(f, "{t:?}"),
        }
    }
}

/// A lexical error with its byte offset and 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LexError {
    /// Byte position in the source.
    pub pos: usize,
    /// 1-based source line.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at line {}", self.message, self.line)
    }
}

impl std::error::Error for LexError {}

/// Tokenise `.cat` source into `(token, 1-based line)` pairs. Comments
/// run `//` to end of line and `(*  *)` blocks (as in herd).
pub(crate) fn lex(src: &str) -> Result<Vec<(Token, u32)>, LexError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let mut push = |t: Token, len: usize| {
            out.push((t, line));
            len
        };
        i += match c {
            '\n' => {
                line += 1;
                1
            }
            ' ' | '\t' | '\r' => 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                let mut j = i;
                while j < bytes.len() && bytes[j] != b'\n' {
                    j += 1;
                }
                j - i
            }
            '(' if bytes.get(i + 1) == Some(&b'*') => {
                let (start, start_line) = (i, line);
                let mut j = i + 2;
                loop {
                    if j + 1 >= bytes.len() {
                        return Err(LexError {
                            pos: start,
                            line: start_line,
                            message: "unterminated comment".into(),
                        });
                    }
                    if bytes[j] == b'*' && bytes[j + 1] == b')' {
                        j += 2;
                        break;
                    }
                    if bytes[j] == b'\n' {
                        line += 1;
                    }
                    j += 1;
                }
                j - i
            }
            '"' => {
                let (start, start_line) = (i, line);
                let mut j = i + 1;
                while j < bytes.len() && bytes[j] != b'"' && bytes[j] != b'\n' {
                    j += 1;
                }
                if bytes.get(j) != Some(&b'"') {
                    return Err(LexError {
                        pos: start,
                        line: start_line,
                        message: "unterminated string literal".into(),
                    });
                }
                let s = src[start + 1..j].to_string();
                push(Token::Str(s), j + 1 - i)
            }
            '|' => push(Token::Bar, 1),
            '&' => push(Token::Amp, 1),
            '\\' => push(Token::Backslash, 1),
            ';' => push(Token::Semi, 1),
            '+' => push(Token::Plus, 1),
            '*' => push(Token::Star, 1),
            '?' => push(Token::Question, 1),
            '~' => push(Token::Tilde, 1),
            '(' => push(Token::LParen, 1),
            ')' => push(Token::RParen, 1),
            '[' => push(Token::LBracket, 1),
            ']' => push(Token::RBracket, 1),
            ',' => push(Token::Comma, 1),
            '=' => push(Token::Eq, 1),
            '_' if !bytes
                .get(i + 1)
                .is_some_and(|b| (*b as char).is_alphanumeric() || *b == b'_') =>
            {
                push(Token::Underscore, 1)
            }
            '^' => {
                if src[i..].starts_with("^-1") {
                    push(Token::Inverse, 3)
                } else {
                    return Err(LexError {
                        pos: i,
                        line,
                        message: "unsupported operator '^' (only ^-1 is supported)".into(),
                    });
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i;
                while j < bytes.len() {
                    let c = bytes[j] as char;
                    if c.is_alphanumeric() || c == '_' {
                        j += 1;
                    } else {
                        break;
                    }
                }
                let word = &src[start..j];
                let t = match word {
                    "let" => Token::Let,
                    "rec" => Token::Rec,
                    "and" => Token::And,
                    "acyclic" => Token::Acyclic,
                    "irreflexive" => Token::Irreflexive,
                    "empty" => Token::Empty,
                    "as" => Token::As,
                    w => Token::Ident(w.to_string()),
                };
                push(t, j - i)
            }
            _ => {
                return Err(LexError {
                    pos: i,
                    line,
                    message: format!("unsupported character {c:?}"),
                })
            }
        };
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(src: &str) -> Vec<Token> {
        lex(src).unwrap().into_iter().map(|(t, _)| t).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            tokens("let hb = po | rfe ; co^-1"),
            vec![
                Token::Let,
                Token::Ident("hb".into()),
                Token::Eq,
                Token::Ident("po".into()),
                Token::Bar,
                Token::Ident("rfe".into()),
                Token::Semi,
                Token::Ident("co".into()),
                Token::Inverse,
            ]
        );
    }

    #[test]
    fn comments() {
        assert_eq!(
            tokens("po // trailing\n(* block \n comment *) rf"),
            vec![Token::Ident("po".into()), Token::Ident("rf".into())]
        );
    }

    #[test]
    fn line_numbers_tracked() {
        let ts = lex("po\n(* two\nlines *) rf\nco").unwrap();
        assert_eq!(
            ts,
            vec![
                (Token::Ident("po".into()), 1),
                (Token::Ident("rf".into()), 3),
                (Token::Ident("co".into()), 4),
            ]
        );
    }

    #[test]
    fn checks_and_brackets() {
        let ts = tokens("acyclic [W] ; po as Order");
        assert_eq!(ts[0], Token::Acyclic);
        assert!(ts.contains(&Token::As));
        assert!(ts.contains(&Token::LBracket));
    }

    #[test]
    fn underscore_universe() {
        assert_eq!(tokens("_ \\ W")[0], Token::Underscore);
        assert_eq!(tokens("_foo")[0], Token::Ident("_foo".into()));
    }

    #[test]
    fn string_literals() {
        let ts = lex("include \"x86fences.cat\"").unwrap();
        assert_eq!(ts[1], (Token::Str("x86fences.cat".into()), 1));
        assert!(lex("\"unterminated").is_err());
    }

    #[test]
    fn unterminated_comment_errors() {
        assert!(lex("(* oops").is_err());
    }

    #[test]
    fn unsupported_character_reports_line() {
        let e = lex("po | rf\nfr -> co\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e
            .to_string()
            .contains("unsupported character '-' at line 2"));
    }

    #[test]
    fn stray_caret_errors() {
        let e = lex("po ^ rf").unwrap_err();
        assert!(e.to_string().contains("unsupported operator '^'"));
    }
}

//! Parser for the `.cat` subset.
//!
//! Grammar (binding tightest to loosest):
//!
//! ```text
//! model    ::= decl*
//! decl     ::= "let" "rec"? binding ("and" binding)*
//!            | ("acyclic" | "irreflexive" | "empty") expr ("as" IDENT)?
//! binding  ::= IDENT "=" expr
//! expr     ::= alt
//! alt      ::= diff ("|" diff)*
//! diff     ::= inter ("\" inter)*
//! inter    ::= seq ("&" seq)*
//! seq      ::= cross (";" cross)*
//! cross    ::= postfix ("*" postfix)*        // set cross-product
//! postfix  ::= prefix ("+" | "*" | "?" | "^-1")*
//! prefix   ::= "~" prefix | primary
//! primary  ::= IDENT | IDENT "(" expr ("," expr)* ")"
//!            | "[" expr "]" | "(" expr ")" | "_"
//! ```
//!
//! The infix/postfix `*` ambiguity resolves by lookahead: `*` followed
//! by a primary-start token is the cross product.
//!
//! Every later pass (lowering, the reference interpreter, dropping the
//! tree) recurses once per tree level, so the parser refuses trees
//! deeper than [`MAX_DEPTH`]: a name is one level, and every operator,
//! bracket and parenthesis adds one, so a chain `a | a | ... | a` of
//! `k` terms is `k` levels deep, and so is `k - 1` parentheses around a
//! name.

use crate::lexer::{lex, LexError, Token};
use std::fmt;

/// An expression of the `.cat` subset.
///
/// Name references ([`Expr::Ident`]) and operator applications
/// ([`Expr::Call`]) carry their 1-based source line, so evaluation
/// errors — the place unsupported constructs surface — can point back
/// into the user's `.cat` file.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A name (set or relation) and its source line.
    Ident(String, u32),
    /// `e1 | e2`.
    Union(Box<Expr>, Box<Expr>),
    /// `e1 & e2`.
    Inter(Box<Expr>, Box<Expr>),
    /// `e1 \ e2`.
    Diff(Box<Expr>, Box<Expr>),
    /// `e1 ; e2`.
    Seq(Box<Expr>, Box<Expr>),
    /// `e1 * e2` (set cross product).
    Cross(Box<Expr>, Box<Expr>),
    /// `e+`.
    Plus(Box<Expr>),
    /// `e*`.
    Star(Box<Expr>),
    /// `e?`.
    Opt(Box<Expr>),
    /// `e^-1`.
    Inverse(Box<Expr>),
    /// `~e`.
    Complement(Box<Expr>),
    /// `[e]`.
    IdOn(Box<Expr>),
    /// `_`.
    Universe,
    /// `f(e1, ..., en)` and its source line.
    Call(String, Vec<Expr>, u32),
}

/// What a check asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// `acyclic e`.
    Acyclic,
    /// `irreflexive e`.
    Irreflexive,
    /// `empty e`.
    Empty,
}

/// A top-level declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum Decl {
    /// `let x = e` (or a `let rec` group).
    Let {
        recursive: bool,
        bindings: Vec<(String, Expr)>,
    },
    /// A consistency check.
    Check {
        kind: CheckKind,
        expr: Expr,
        name: String,
    },
}

/// A parsed model.
#[derive(Debug, Clone, PartialEq)]
pub struct CatFile {
    /// Declarations in order.
    pub decls: Vec<Decl>,
}

/// A parse error with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: u32,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at line {}", self.message, self.line)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            line: e.line,
            message: e.message,
        }
    }
}

/// Herd-language declaration keywords outside our subset; recognised so
/// the error can name the construct rather than calling it garbage.
const UNSUPPORTED_DECLS: &[&str] = &[
    "include",
    "procedure",
    "call",
    "flag",
    "show",
    "unshow",
    "with",
    "forall",
    "enum",
    "instructions",
    "deadness",
];

/// The deepest expression tree [`parse`] builds, parentheses included.
/// The deepest shipped model's tree is 10 levels deep; the bound leaves
/// room for hand-written models while keeping the parser's own
/// recursion (about fifteen frames per parenthesis) inside a 2 MiB
/// thread stack in unoptimised builds.
pub(crate) const MAX_DEPTH: usize = 128;

/// An expression and the depth of its tree.
type Tree = (Expr, usize);

struct Parser {
    tokens: Vec<(Token, u32)>,
    pos: usize,
    /// Brackets, parentheses and prefix operators open around the
    /// current token: the parser's own recursion depth.
    nesting: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    /// The line of the current token (or of the last one at EOF).
    fn line(&self) -> u32 {
        self.tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|&(_, l)| l)
            .unwrap_or(1)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            line: self.line(),
            message: message.into(),
        })
    }

    fn expect(&mut self, t: &Token) -> Result<(), ParseError> {
        let line = self.line();
        match self.next() {
            Some(got) if got == *t => Ok(()),
            got => Err(ParseError {
                line,
                message: format!("expected {t}, got {got:?}"),
            }),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        let line = self.line();
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            got => Err(ParseError {
                line,
                message: format!("expected identifier, got {got:?}"),
            }),
        }
    }

    fn model(&mut self) -> Result<CatFile, ParseError> {
        let mut decls = Vec::new();
        let mut anon = 0usize;
        while let Some(t) = self.peek() {
            match t {
                Token::Let => {
                    self.next();
                    let recursive = matches!(self.peek(), Some(Token::Rec));
                    if recursive {
                        self.next();
                    }
                    let mut bindings = vec![self.binding()?];
                    while matches!(self.peek(), Some(Token::And)) {
                        self.next();
                        bindings.push(self.binding()?);
                    }
                    decls.push(Decl::Let {
                        recursive,
                        bindings,
                    });
                }
                Token::Acyclic | Token::Irreflexive | Token::Empty => {
                    let kind = match self.next() {
                        Some(Token::Acyclic) => CheckKind::Acyclic,
                        Some(Token::Irreflexive) => CheckKind::Irreflexive,
                        _ => CheckKind::Empty,
                    };
                    let (expr, _) = self.expr()?;
                    let name = if matches!(self.peek(), Some(Token::As)) {
                        self.next();
                        self.ident()?
                    } else {
                        anon += 1;
                        format!("check{anon}")
                    };
                    decls.push(Decl::Check { kind, expr, name });
                }
                Token::Ident(w) if UNSUPPORTED_DECLS.contains(&w.as_str()) => {
                    return self.err(format!("unsupported declaration '{w}'"));
                }
                other => {
                    let msg = format!("unexpected token {other}");
                    return self.err(msg);
                }
            }
        }
        Ok(CatFile { decls })
    }

    fn binding(&mut self) -> Result<(String, Expr), ParseError> {
        let name = self.ident()?;
        self.expect(&Token::Eq)?;
        let (e, _) = self.expr()?;
        Ok((name, e))
    }

    /// The depth of a node over children at most `below` deep.
    fn node(&self, below: usize) -> Result<usize, ParseError> {
        if below >= MAX_DEPTH {
            return self.err(format!("expression nests deeper than {MAX_DEPTH}"));
        }
        Ok(below + 1)
    }

    /// Parse with `f` one level further in, refusing before the
    /// recursion could outgrow [`MAX_DEPTH`].
    fn nested(&mut self, f: fn(&mut Self) -> Result<Tree, ParseError>) -> Result<Tree, ParseError> {
        if self.nesting >= MAX_DEPTH {
            return self.err(format!("expression nests deeper than {MAX_DEPTH}"));
        }
        self.nesting += 1;
        let t = f(self);
        self.nesting -= 1;
        t
    }

    fn expr(&mut self) -> Result<Tree, ParseError> {
        self.alt()
    }

    /// A left-associative chain of `next` operands joined by `op`.
    fn chain(
        &mut self,
        op: Token,
        next: fn(&mut Self) -> Result<Tree, ParseError>,
        join: fn(Box<Expr>, Box<Expr>) -> Expr,
    ) -> Result<Tree, ParseError> {
        let (mut e, mut d) = next(self)?;
        while self.peek() == Some(&op) {
            self.next();
            let (r, rd) = next(self)?;
            d = self.node(d.max(rd))?;
            e = join(Box::new(e), Box::new(r));
        }
        Ok((e, d))
    }

    fn alt(&mut self) -> Result<Tree, ParseError> {
        self.chain(Token::Bar, Self::diff, Expr::Union)
    }

    fn diff(&mut self) -> Result<Tree, ParseError> {
        self.chain(Token::Backslash, Self::inter, Expr::Diff)
    }

    fn inter(&mut self) -> Result<Tree, ParseError> {
        self.chain(Token::Amp, Self::seq, Expr::Inter)
    }

    fn seq(&mut self) -> Result<Tree, ParseError> {
        self.chain(Token::Semi, Self::cross, Expr::Seq)
    }

    fn starts_primary(t: Option<&Token>) -> bool {
        matches!(
            t,
            Some(Token::Ident(_))
                | Some(Token::LBracket)
                | Some(Token::LParen)
                | Some(Token::Tilde)
                | Some(Token::Underscore)
        )
    }

    /// Is the token after the current one the start of a primary?
    fn primary_follows(&self) -> bool {
        Self::starts_primary(self.tokens.get(self.pos + 1).map(|(t, _)| t))
    }

    fn cross(&mut self) -> Result<Tree, ParseError> {
        let (mut e, mut d) = self.postfix()?;
        while matches!(self.peek(), Some(Token::Star)) && self.primary_follows() {
            self.next();
            let (r, rd) = self.postfix()?;
            d = self.node(d.max(rd))?;
            e = Expr::Cross(Box::new(e), Box::new(r));
        }
        Ok((e, d))
    }

    fn postfix(&mut self) -> Result<Tree, ParseError> {
        let (mut e, mut d) = self.prefix()?;
        loop {
            let wrap: fn(Box<Expr>) -> Expr = match self.peek() {
                Some(Token::Plus) => Expr::Plus,
                Some(Token::Star) if !self.primary_follows() => Expr::Star,
                Some(Token::Question) => Expr::Opt,
                Some(Token::Inverse) => Expr::Inverse,
                _ => break,
            };
            self.next();
            d = self.node(d)?;
            e = wrap(Box::new(e));
        }
        Ok((e, d))
    }

    fn prefix(&mut self) -> Result<Tree, ParseError> {
        if matches!(self.peek(), Some(Token::Tilde)) {
            self.next();
            let (e, d) = self.nested(Self::prefix)?;
            return Ok((Expr::Complement(Box::new(e)), self.node(d)?));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Tree, ParseError> {
        let line = self.line();
        match self.next() {
            Some(Token::Ident(name)) => {
                if matches!(self.peek(), Some(Token::LParen)) {
                    self.next();
                    let (first, mut d) = self.nested(Self::expr)?;
                    let mut args = vec![first];
                    while matches!(self.peek(), Some(Token::Comma)) {
                        self.next();
                        let (arg, ad) = self.nested(Self::expr)?;
                        d = d.max(ad);
                        args.push(arg);
                    }
                    self.expect(&Token::RParen)?;
                    Ok((Expr::Call(name, args, line), self.node(d)?))
                } else {
                    Ok((Expr::Ident(name, line), 1))
                }
            }
            Some(Token::LBracket) => {
                let (e, d) = self.nested(Self::expr)?;
                self.expect(&Token::RBracket)?;
                Ok((Expr::IdOn(Box::new(e)), self.node(d)?))
            }
            Some(Token::LParen) => {
                let (e, d) = self.nested(Self::expr)?;
                self.expect(&Token::RParen)?;
                Ok((e, self.node(d)?))
            }
            Some(Token::Underscore) => Ok((Expr::Universe, 1)),
            Some(Token::Str(_)) => Err(ParseError {
                line,
                message: "unsupported construct: string literal in expression".into(),
            }),
            got => Err(ParseError {
                line,
                message: format!("expected expression, got {got:?}"),
            }),
        }
    }
}

/// Parse `.cat` source into a model file.
pub fn parse(src: &str) -> Result<CatFile, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        nesting: 0,
    };
    p.model()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence() {
        // `a | b ; c` parses as `a | (b ; c)`.
        let f = parse("let x = a | b ; c").unwrap();
        let Decl::Let { bindings, .. } = &f.decls[0] else {
            panic!()
        };
        match &bindings[0].1 {
            Expr::Union(l, r) => {
                assert_eq!(**l, Expr::Ident("a".into(), 1));
                assert!(matches!(**r, Expr::Seq(_, _)));
            }
            e => panic!("{e:?}"),
        }
    }

    #[test]
    fn cross_vs_star() {
        let f = parse("let x = W * W let y = po*").unwrap();
        let Decl::Let { bindings, .. } = &f.decls[0] else {
            panic!()
        };
        assert!(matches!(bindings[0].1, Expr::Cross(_, _)));
        let Decl::Let { bindings, .. } = &f.decls[1] else {
            panic!()
        };
        assert!(matches!(bindings[0].1, Expr::Star(_)));
    }

    #[test]
    fn checks() {
        let f = parse("acyclic po | rf as Order irreflexive fr empty rmw as R").unwrap();
        assert_eq!(f.decls.len(), 3);
        assert!(matches!(
            &f.decls[0],
            Decl::Check { kind: CheckKind::Acyclic, name, .. } if name == "Order"
        ));
        assert!(matches!(
            &f.decls[1],
            Decl::Check { kind: CheckKind::Irreflexive, name, .. } if name == "check1"
        ));
    }

    #[test]
    fn let_rec_group() {
        let f = parse("let rec ii = a | ci and ci = b | ii ; ii").unwrap();
        let Decl::Let {
            recursive,
            bindings,
        } = &f.decls[0]
        else {
            panic!()
        };
        assert!(recursive);
        assert_eq!(bindings.len(), 2);
    }

    #[test]
    fn calls_and_brackets() {
        let f = parse("let x = stronglift(com, stxn) let y = [W] ; po ; [R]").unwrap();
        let Decl::Let { bindings, .. } = &f.decls[0] else {
            panic!()
        };
        assert!(
            matches!(&bindings[0].1, Expr::Call(n, args, _) if n == "stronglift" && args.len() == 2)
        );
    }

    #[test]
    fn unsupported_declarations_named_with_line() {
        let e =
            parse("let hb = po | com\nacyclic hb as Order\ninclude \"x86fences.cat\"").unwrap_err();
        assert_eq!(e.line, 3);
        assert_eq!(e.to_string(), "unsupported declaration 'include' at line 3");
        let e = parse("procedure f(x) = x end").unwrap_err();
        assert!(e
            .to_string()
            .contains("unsupported declaration 'procedure' at line 1"));
    }

    #[test]
    fn idents_and_calls_carry_lines() {
        let f = parse("let a = po\nlet b = stronglift(com, stxn)").unwrap();
        let Decl::Let { bindings, .. } = &f.decls[0] else {
            panic!()
        };
        assert_eq!(bindings[0].1, Expr::Ident("po".into(), 1));
        let Decl::Let { bindings, .. } = &f.decls[1] else {
            panic!()
        };
        assert!(matches!(&bindings[0].1, Expr::Call(_, _, 2)));
    }

    #[test]
    fn inverse_and_complement() {
        let f = parse("let x = ~(rf^-1 ; co)").unwrap();
        let Decl::Let { bindings, .. } = &f.decls[0] else {
            panic!()
        };
        assert!(matches!(bindings[0].1, Expr::Complement(_)));
    }

    /// The deepest tree of a parsed file, computed independently.
    fn file_depth(f: &CatFile) -> usize {
        fn depth(e: &Expr) -> usize {
            1 + match e {
                Expr::Ident(..) | Expr::Universe => 0,
                Expr::Union(a, b)
                | Expr::Inter(a, b)
                | Expr::Diff(a, b)
                | Expr::Seq(a, b)
                | Expr::Cross(a, b) => depth(a).max(depth(b)),
                Expr::Plus(a)
                | Expr::Star(a)
                | Expr::Opt(a)
                | Expr::Inverse(a)
                | Expr::Complement(a)
                | Expr::IdOn(a) => depth(a),
                Expr::Call(_, args, _) => args.iter().map(depth).max().unwrap_or(0),
            }
        }
        f.decls
            .iter()
            .flat_map(|d| match d {
                Decl::Let { bindings, .. } => bindings.iter().map(|(_, e)| e).collect(),
                Decl::Check { expr, .. } => vec![expr],
            })
            .map(depth)
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn depth_is_bounded_for_nesting_and_chains() {
        // Parentheses build no node, but count as a level each.
        let nested = |d: usize| {
            let open = "(".repeat(d - 1);
            let close = ")".repeat(d - 1);
            format!("acyclic {open}po{close} as Deep")
        };
        let chain = |d: usize| format!("acyclic {} as Long", vec!["po"; d].join(" | "));
        let complements = |d: usize| format!("let x = {}po", "~".repeat(d - 1));
        let bounded = |make: fn(usize) -> String, tree: usize| {
            let at = parse(&make(MAX_DEPTH)).expect("a tree at the bound parses");
            assert_eq!(file_depth(&at), tree);
            let past = parse(&make(MAX_DEPTH + 1)).unwrap_err();
            assert_eq!(
                past.message,
                format!("expression nests deeper than {MAX_DEPTH}")
            );
        };
        bounded(nested, 1);
        bounded(chain, MAX_DEPTH);
        bounded(complements, MAX_DEPTH);
        // Far past the bound, the parser refuses instead of recursing.
        assert!(parse(&nested(200_000)).is_err());
        assert!(parse(&chain(200_000)).is_err());
    }

    #[test]
    fn shipped_models_sit_well_inside_the_bound() {
        let deepest = crate::SOURCES
            .iter()
            .map(|(_, src)| file_depth(&parse(src).expect("shipped model parses")))
            .max()
            .expect("shipped models");
        assert_eq!(deepest, 10);
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse("let = po").is_err());
        assert!(parse("acyclic").is_err());
        assert!(parse("po rf").is_err());
    }
}

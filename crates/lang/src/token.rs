//! Tokens of the query language.

use std::fmt;

/// A lexical token with its source position.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    /// Byte offset in the source text (for error messages).
    pub pos: usize,
    /// The token kind.
    pub kind: TokenKind,
}

/// Token kinds. Keywords are recognized case-insensitively by the parser;
/// the lexer only distinguishes identifiers, numbers and punctuation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TokenKind {
    /// Identifier or keyword.
    Ident(String),
    /// Numeric literal.
    Number(f64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Equals,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::Number(n) => write!(f, "{n}"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::LBracket => write!(f, "["),
            TokenKind::RBracket => write!(f, "]"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Dot => write!(f, "."),
            TokenKind::Equals => write!(f, "="),
            TokenKind::Eof => write!(f, "<end of input>"),
        }
    }
}

//! Tokenizer.

use crate::error::LangError;
use crate::token::{Token, TokenKind};

/// Tokenizes a query string.
///
/// # Errors
/// [`LangError::Lex`] on unexpected characters or malformed numbers.
pub(crate) fn tokenize(src: &str) -> Result<Vec<Token>, LangError> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                tokens.push(Token {
                    pos: i,
                    kind: TokenKind::LParen,
                });
                i += 1;
            }
            ')' => {
                tokens.push(Token {
                    pos: i,
                    kind: TokenKind::RParen,
                });
                i += 1;
            }
            '[' => {
                tokens.push(Token {
                    pos: i,
                    kind: TokenKind::LBracket,
                });
                i += 1;
            }
            ']' => {
                tokens.push(Token {
                    pos: i,
                    kind: TokenKind::RBracket,
                });
                i += 1;
            }
            ',' => {
                tokens.push(Token {
                    pos: i,
                    kind: TokenKind::Comma,
                });
                i += 1;
            }
            '=' => {
                tokens.push(Token {
                    pos: i,
                    kind: TokenKind::Equals,
                });
                i += 1;
            }
            '.' if i + 1 < bytes.len() && !(bytes[i + 1] as char).is_ascii_digit() => {
                tokens.push(Token {
                    pos: i,
                    kind: TokenKind::Dot,
                });
                i += 1;
            }
            '-' | '+' | '.' | '0'..='9' => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    let d = bytes[i] as char;
                    let exp_sign =
                        (d == '-' || d == '+') && matches!(bytes[i - 1] as char, 'e' | 'E');
                    if d.is_ascii_digit() || d == '.' || d == 'e' || d == 'E' || exp_sign {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let text = &src[start..i];
                let value: f64 = text.parse().map_err(|_| LangError::Lex {
                    pos: start,
                    message: format!("malformed number {text:?}"),
                })?;
                // Overflowing literals (1e999) parse to ±∞, which would
                // flow into thresholds and series values as a non-finite
                // number the engine must then reject anyway — fail at the
                // first boundary instead.
                if !value.is_finite() {
                    return Err(LangError::Lex {
                        pos: start,
                        message: format!("number {text:?} overflows f64"),
                    });
                }
                tokens.push(Token {
                    pos: start,
                    kind: TokenKind::Number(value),
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                i += 1;
                while i < bytes.len() {
                    let d = bytes[i] as char;
                    if d.is_ascii_alphanumeric() || d == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                tokens.push(Token {
                    pos: start,
                    kind: TokenKind::Ident(src[start..i].to_string()),
                });
            }
            other => {
                return Err(LangError::Lex {
                    pos: i,
                    message: format!("unexpected character {other:?}"),
                })
            }
        }
    }
    tokens.push(Token {
        pos: src.len(),
        kind: TokenKind::Eof,
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn words_and_numbers() {
        assert_eq!(
            kinds("FIND 5 NEAREST"),
            vec![
                TokenKind::Ident("FIND".into()),
                TokenKind::Number(5.0),
                TokenKind::Ident("NEAREST".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn punctuation_and_literals() {
        assert_eq!(
            kinds("mavg(20), [1.5, -2e3]"),
            vec![
                TokenKind::Ident("mavg".into()),
                TokenKind::LParen,
                TokenKind::Number(20.0),
                TokenKind::RParen,
                TokenKind::Comma,
                TokenKind::LBracket,
                TokenKind::Number(1.5),
                TokenKind::Comma,
                TokenKind::Number(-2000.0),
                TokenKind::RBracket,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn dotted_reference() {
        assert_eq!(
            kinds("stocks.BBA"),
            vec![
                TokenKind::Ident("stocks".into()),
                TokenKind::Dot,
                TokenKind::Ident("BBA".into()),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn decimal_without_leading_zero() {
        assert_eq!(kinds(".5"), vec![TokenKind::Number(0.5), TokenKind::Eof]);
    }

    #[test]
    fn lex_error_position() {
        match tokenize("FIND ; SIMILAR") {
            Err(LangError::Lex { pos, .. }) => assert_eq!(pos, 5),
            other => panic!("expected lex error, got {other:?}"),
        }
    }

    #[test]
    fn overflowing_literal_rejected() {
        for src in ["1e999", "-1e400", "WITHIN 2e308"] {
            match tokenize(src) {
                Err(LangError::Lex { message, .. }) => {
                    assert!(message.contains("overflows"), "{src}: {message}")
                }
                other => panic!("{src}: expected lex error, got {other:?}"),
            }
        }
        // Large but representable literals still pass.
        assert_eq!(
            kinds("1e300"),
            vec![TokenKind::Number(1e300), TokenKind::Eof]
        );
    }
}

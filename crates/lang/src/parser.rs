//! Recursive-descent parser.
//!
//! ```text
//! query        := [EXPLAIN [ANALYZE]] (find_query | join_query)
//!               | append_query | shard_query
//! find_query   := FIND SIMILAR TO source IN ident WITHIN number
//!                 [APPLY tlist] [WHERE window (AND window)*] [with]
//!               | FIND SUBSEQUENCE OF source IN ident WITHIN number
//!                 WINDOW number [with]
//!               | FIND number NEAREST TO source IN ident [APPLY tlist]
//!                 [with]
//!               | FIND number NEAREST SUBSEQUENCE OF source IN ident
//!                 WINDOW number [with]
//! join_query   := JOIN ident WITHIN number [APPLY tlist] [with]
//! append_query := APPEND ident ident VALUES '(' number (, number)* ')'
//!               | APPEND ident CSV row+ ; row := '(' ident (, number)* ')'
//! shard_query  := SHARD ident INTO number BY (HASH | RANGE)
//! with         := WITH '(' opt (',' opt)* ')'
//! opt          := FORCE '=' (SCAN | SCANFULL | INDEX)
//!               | THREADS '=' number | SHARDS '=' number
//! source       := ident . ident | '[' number (, number)* ']'
//! tlist        := t (',' t)* ; t := ident [ '(' number (, number)* ')' ]
//! window       := MEAN BETWEEN number AND number
//!               | STD BETWEEN number AND number
//! ```
//!
//! Keywords are case-insensitive; identifiers are case-sensitive.
//! `EXPLAIN` renders the cost-based planner's chosen physical plan without
//! executing; `EXPLAIN ANALYZE` also runs the query and appends the
//! actual counters.
//! The `WITH (...)` clause is the unified override surface
//! ([`QueryOptions`]): `force` pins the access path, `threads` sizes the
//! worker pool, `shards` caps the scatter width on sharded relations.
//! `force` names one of Table 1's methods — `scan` (early abandoning),
//! `scanfull` (full distances, joins only) or `index` — and nothing else
//! is an alias for one of them.
//! Validation the parser performs (so nonsense fails before execution):
//! every `WITHIN` threshold must be non-negative, every `WINDOW` length
//! must be an integer of at least 2, every `APPEND` row must carry at
//! least one value, `WITH` option values must be well-formed, `SHARD`
//! counts must be positive integers, and `EXPLAIN APPEND` /
//! `EXPLAIN SHARD` are rejected (a mutation has no physical plan to
//! show).

use tsq_core::shard::ShardBy;
use tsq_core::{ForceOp, QueryOptions};

use crate::ast::{AppendRow, Query, Source, TransformSpec, WindowSpec};
use crate::error::LangError;
use crate::lexer::tokenize;
use crate::token::{Token, TokenKind};

/// What a `WITH (force = ...)` option may name, as error messages spell it.
const FORCE_VALUES: &str = "scan, scanfull or index";

/// Parses a query string.
///
/// # Errors
/// [`LangError::Lex`] / [`LangError::Parse`] with byte positions.
pub fn parse(src: &str) -> Result<Query, LangError> {
    let tokens = tokenize(src)?;
    let mut p = Parser { tokens, at: 0 };
    let q = p.query()?;
    p.expect_eof()?;
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    at: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.at]
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.at].clone();
        if self.at + 1 < self.tokens.len() {
            self.at += 1;
        }
        t
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, LangError> {
        Err(LangError::Parse {
            pos: self.peek().pos,
            message: message.into(),
        })
    }

    /// Consumes a keyword (case-insensitive) or fails.
    fn expect_kw(&mut self, kw: &str) -> Result<(), LangError> {
        if self.at_kw(kw) {
            self.bump();
            Ok(())
        } else {
            self.error(format!("expected {kw}, found {}", self.peek().kind))
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn take_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, LangError> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            other => self.error(format!("expected identifier, found {other}")),
        }
    }

    fn number(&mut self) -> Result<f64, LangError> {
        match self.peek().kind {
            TokenKind::Number(n) => {
                self.bump();
                Ok(n)
            }
            ref other => self.error(format!("expected number, found {other}")),
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), LangError> {
        if &self.peek().kind == kind {
            self.bump();
            Ok(())
        } else {
            self.error(format!("expected {kind}, found {}", self.peek().kind))
        }
    }

    fn expect_eof(&mut self) -> Result<(), LangError> {
        if matches!(self.peek().kind, TokenKind::Eof) {
            Ok(())
        } else {
            self.error(format!("unexpected trailing input {}", self.peek().kind))
        }
    }

    /// `WITHIN <eps>` with the threshold validated at parse time: a
    /// negative threshold can never match anything, so it is rejected
    /// here rather than silently producing an empty result.
    fn threshold(&mut self) -> Result<f64, LangError> {
        self.expect_kw("WITHIN")?;
        let at = self.peek().pos;
        let eps = self.number()?;
        if eps < 0.0 {
            return Err(LangError::Parse {
                pos: at,
                message: format!("WITHIN threshold must be non-negative, got {eps}"),
            });
        }
        Ok(eps)
    }

    /// `WINDOW <w>` with the length validated at parse time (`w >= 2`,
    /// integral): a one-point window has no spectrum to index.
    fn window_length(&mut self) -> Result<usize, LangError> {
        self.expect_kw("WINDOW")?;
        let at = self.peek().pos;
        let w = self.number()?;
        if w.fract() != 0.0 || w < 2.0 {
            return Err(LangError::Parse {
                pos: at,
                message: format!("WINDOW length must be an integer of at least 2, got {w}"),
            });
        }
        Ok(w as usize)
    }

    fn query(&mut self) -> Result<Query, LangError> {
        if self.take_kw("EXPLAIN") {
            let analyze = self.take_kw("ANALYZE");
            if self.at_kw("EXPLAIN") {
                return self.error("cannot EXPLAIN an EXPLAIN");
            }
            if self.at_kw("APPEND") {
                return self.error("cannot EXPLAIN APPEND: a mutation has no query plan");
            }
            if self.at_kw("SHARD") {
                return self.error("cannot EXPLAIN SHARD: a mutation has no query plan");
            }
            let inner = self.query()?;
            return Ok(Query::Explain {
                analyze,
                query: Box::new(inner),
            });
        }
        if self.take_kw("FIND") {
            self.find_query()
        } else if self.take_kw("JOIN") {
            self.join_query()
        } else if self.take_kw("APPEND") {
            self.append_query()
        } else if self.take_kw("SHARD") {
            self.shard_query()
        } else {
            self.error("expected EXPLAIN, FIND, JOIN, APPEND or SHARD")
        }
    }

    /// `SHARD <relation> INTO <n> BY HASH|RANGE` — repartition a relation.
    fn shard_query(&mut self) -> Result<Query, LangError> {
        let relation = self.ident()?;
        self.expect_kw("INTO")?;
        let count = self.positive_count("SHARD count")?;
        self.expect_kw("BY")?;
        let by = if self.take_kw("HASH") {
            ShardBy::Hash
        } else if self.take_kw("RANGE") {
            ShardBy::Range
        } else {
            return self.error("expected HASH or RANGE after BY");
        };
        Ok(Query::Shard {
            relation,
            count,
            by,
        })
    }

    /// A positive integer count (bounded so the f64 → usize cast is
    /// provably lossless and absurd widths fail at the first boundary).
    fn positive_count(&mut self, what: &str) -> Result<usize, LangError> {
        let at = self.peek().pos;
        let n = self.number()?;
        if n.fract() != 0.0 || !(1.0..=65536.0).contains(&n) {
            return Err(LangError::Parse {
                pos: at,
                message: format!("{what} must be an integer between 1 and 65536, got {n}"),
            });
        }
        Ok(n as usize)
    }

    /// The unified override clause:
    /// `WITH (force = scan|scanfull|index, threads = n, shards = n)`.
    /// Absent clause ⇒ all-default [`QueryOptions`]. Duplicate or unknown
    /// keys are parse errors.
    fn with_clause(&mut self) -> Result<QueryOptions, LangError> {
        let mut options = QueryOptions::default();
        if !self.take_kw("WITH") {
            return Ok(options);
        }
        self.expect(&TokenKind::LParen)?;
        loop {
            let at = self.peek().pos;
            let key = self.ident()?.to_ascii_lowercase();
            self.expect(&TokenKind::Equals)?;
            let duplicate = match key.as_str() {
                "force" => {
                    let was = options.force.is_some();
                    let value = self.ident()?.to_ascii_lowercase();
                    options.force = Some(match value.as_str() {
                        "scan" => ForceOp::Scan,
                        "scanfull" => ForceOp::ScanFull,
                        "index" => ForceOp::Index,
                        other => {
                            return self.error(format!("force must be {FORCE_VALUES}, got {other}"))
                        }
                    });
                    was
                }
                "threads" => {
                    let was = options.threads.is_some();
                    options.threads = Some(self.positive_count("threads")?);
                    was
                }
                "shards" => {
                    let was = options.shards.is_some();
                    options.shards = Some(self.positive_count("shards")?);
                    was
                }
                other => {
                    return Err(LangError::Parse {
                        pos: at,
                        message: format!(
                            "unknown option {other:?}; expected force, threads or shards"
                        ),
                    })
                }
            };
            if duplicate {
                return Err(LangError::Parse {
                    pos: at,
                    message: format!("option {key:?} given twice"),
                });
            }
            if !matches!(self.peek().kind, TokenKind::Comma) {
                break;
            }
            self.bump();
        }
        self.expect(&TokenKind::RParen)?;
        Ok(options)
    }

    /// `APPEND <relation> <label> VALUES (v1, ...)` appends to one series;
    /// `APPEND <relation> CSV (label, v1, ...) (label, v1, ...)` batches
    /// several rows into one atomic statement.
    fn append_query(&mut self) -> Result<Query, LangError> {
        let relation = self.ident()?;
        if self.take_kw("CSV") {
            let mut rows = vec![self.append_row()?];
            while matches!(self.peek().kind, TokenKind::LParen) {
                rows.push(self.append_row()?);
            }
            return Ok(Query::Append { relation, rows });
        }
        let label = self.ident()?;
        self.expect_kw("VALUES")?;
        self.expect(&TokenKind::LParen)?;
        let mut values = vec![self.number()?];
        while matches!(self.peek().kind, TokenKind::Comma) {
            self.bump();
            values.push(self.number()?);
        }
        self.expect(&TokenKind::RParen)?;
        Ok(Query::Append {
            relation,
            rows: vec![AppendRow { label, values }],
        })
    }

    /// One batched row: `'(' label ',' number (',' number)* ')'`. A row
    /// with no values is rejected — an empty append is always a mistake.
    fn append_row(&mut self) -> Result<AppendRow, LangError> {
        self.expect(&TokenKind::LParen)?;
        let label = self.ident()?;
        let at = self.peek().pos;
        if !matches!(self.peek().kind, TokenKind::Comma) {
            return Err(LangError::Parse {
                pos: at,
                message: format!("APPEND row for {label:?} must carry at least one value"),
            });
        }
        let mut values = Vec::new();
        while matches!(self.peek().kind, TokenKind::Comma) {
            self.bump();
            values.push(self.number()?);
        }
        self.expect(&TokenKind::RParen)?;
        Ok(AppendRow { label, values })
    }

    fn find_query(&mut self) -> Result<Query, LangError> {
        if self.take_kw("SIMILAR") {
            self.expect_kw("TO")?;
            let source = self.source()?;
            self.expect_kw("IN")?;
            let relation = self.ident()?;
            let eps = self.threshold()?;
            let transforms = self.apply_clause()?;
            let window = self.where_clause()?;
            let options = self.with_clause()?;
            Ok(Query::Similar {
                source,
                relation,
                eps,
                transforms,
                window,
                options,
            })
        } else if self.take_kw("SUBSEQUENCE") {
            self.expect_kw("OF")?;
            let source = self.source()?;
            self.expect_kw("IN")?;
            let relation = self.ident()?;
            let eps = self.threshold()?;
            let window = self.window_length()?;
            let options = self.with_clause()?;
            Ok(Query::SubseqSimilar {
                source,
                relation,
                eps,
                window,
                options,
            })
        } else if matches!(self.peek().kind, TokenKind::Number(_)) {
            let at = self.peek().pos;
            let kf = self.number()?;
            // `kf as usize` saturates: `FIND 1e20 NEAREST` would silently
            // become k = usize::MAX. Bound the count below the 2^53 range
            // where f64 still represents every integer exactly, so the
            // cast is provably lossless.
            const MAX_K: f64 = (1u64 << 53) as f64;
            if kf.fract() != 0.0 || !(1.0..MAX_K).contains(&kf) {
                return Err(LangError::Parse {
                    pos: at,
                    message: format!(
                        "NEAREST count must be a positive integer below 2^53, got {kf}"
                    ),
                });
            }
            self.expect_kw("NEAREST")?;
            if self.take_kw("SUBSEQUENCE") {
                self.expect_kw("OF")?;
                let source = self.source()?;
                self.expect_kw("IN")?;
                let relation = self.ident()?;
                let window = self.window_length()?;
                let options = self.with_clause()?;
                return Ok(Query::SubseqNearest {
                    source,
                    relation,
                    k: kf as usize,
                    window,
                    options,
                });
            }
            self.expect_kw("TO")?;
            let source = self.source()?;
            self.expect_kw("IN")?;
            let relation = self.ident()?;
            let transforms = self.apply_clause()?;
            let options = self.with_clause()?;
            Ok(Query::Nearest {
                source,
                relation,
                k: kf as usize,
                transforms,
                options,
            })
        } else {
            self.error("expected SIMILAR, SUBSEQUENCE or a neighbor count after FIND")
        }
    }

    fn join_query(&mut self) -> Result<Query, LangError> {
        let relation = self.ident()?;
        let eps = self.threshold()?;
        let transforms = self.apply_clause()?;
        // The pre-`WITH` spelling of the join method: name its
        // replacement instead of a bare "unexpected trailing input".
        if self.at_kw("USING") {
            return self.error(format!(
                "USING was removed; write WITH (force = ...) instead, where force is {FORCE_VALUES}"
            ));
        }
        let options = self.with_clause()?;
        Ok(Query::Join {
            relation,
            eps,
            transforms,
            options,
        })
    }

    fn source(&mut self) -> Result<Source, LangError> {
        if matches!(self.peek().kind, TokenKind::LBracket) {
            self.bump();
            let mut values = vec![self.number()?];
            while matches!(self.peek().kind, TokenKind::Comma) {
                self.bump();
                values.push(self.number()?);
            }
            self.expect(&TokenKind::RBracket)?;
            return Ok(Source::Literal(values));
        }
        let relation = self.ident()?;
        self.expect(&TokenKind::Dot)?;
        let label = self.ident()?;
        Ok(Source::Ref { relation, label })
    }

    fn apply_clause(&mut self) -> Result<Vec<TransformSpec>, LangError> {
        if !self.take_kw("APPLY") {
            return Ok(Vec::new());
        }
        let mut out = vec![self.transform()?];
        while matches!(self.peek().kind, TokenKind::Comma) {
            self.bump();
            out.push(self.transform()?);
        }
        Ok(out)
    }

    fn transform(&mut self) -> Result<TransformSpec, LangError> {
        let name = self.ident()?.to_ascii_lowercase();
        let mut args = Vec::new();
        if matches!(self.peek().kind, TokenKind::LParen) {
            self.bump();
            if !matches!(self.peek().kind, TokenKind::RParen) {
                args.push(self.number()?);
                while matches!(self.peek().kind, TokenKind::Comma) {
                    self.bump();
                    args.push(self.number()?);
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        Ok(TransformSpec { name, args })
    }

    fn where_clause(&mut self) -> Result<WindowSpec, LangError> {
        let mut window = WindowSpec::default();
        if !self.take_kw("WHERE") {
            return Ok(window);
        }
        loop {
            if self.take_kw("MEAN") {
                window.mean = Some(self.between()?);
            } else if self.take_kw("STD") {
                window.std = Some(self.between()?);
            } else {
                return self.error("expected MEAN or STD in WHERE clause");
            }
            if !self.take_kw("AND") {
                break;
            }
        }
        Ok(window)
    }

    fn between(&mut self) -> Result<(f64, f64), LangError> {
        self.expect_kw("BETWEEN")?;
        let lo = self.number()?;
        self.expect_kw("AND")?;
        let hi = self.number()?;
        if lo > hi {
            return self.error("BETWEEN bounds out of order");
        }
        Ok((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_similar() {
        let q = parse("FIND SIMILAR TO stocks.BBA IN stocks WITHIN 2.75 APPLY mavg(20)").unwrap();
        match q {
            Query::Similar {
                source,
                relation,
                eps,
                transforms,
                window,
                options,
            } => {
                assert!(options.is_default());
                assert_eq!(
                    source,
                    Source::Ref {
                        relation: "stocks".into(),
                        label: "BBA".into()
                    }
                );
                assert_eq!(relation, "stocks");
                assert_eq!(eps, 2.75);
                assert_eq!(
                    transforms,
                    vec![TransformSpec {
                        name: "mavg".into(),
                        args: vec![20.0]
                    }]
                );
                assert_eq!(window, WindowSpec::default());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_nearest_with_literal() {
        let q = parse("find 3 nearest to [1, 2, 3.5] in walks apply reverse").unwrap();
        match q {
            Query::Nearest {
                source,
                relation,
                k,
                transforms,
                options,
            } => {
                assert!(options.is_default());
                assert_eq!(source, Source::Literal(vec![1.0, 2.0, 3.5]));
                assert_eq!(relation, "walks");
                assert_eq!(k, 3);
                assert_eq!(transforms.len(), 1);
                assert_eq!(transforms[0].name, "reverse");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_join_with_method() {
        match parse("JOIN stocks WITHIN 1.5 APPLY mavg(20) WITH (force = scanfull)").unwrap() {
            Query::Join {
                relation,
                eps,
                transforms,
                options,
            } => {
                assert_eq!(relation, "stocks");
                assert_eq!(eps, 1.5);
                assert_eq!(transforms.len(), 1);
                assert_eq!(options.force, Some(ForceOp::ScanFull));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_with_options_clause() {
        for src in [
            "FIND SIMILAR TO r.a IN r WITHIN 1 WITH (force = scan, threads = 4, shards = 2)",
            "FIND 3 NEAREST TO r.a IN r WITH (force = scan, threads = 4, shards = 2)",
            "JOIN r WITHIN 1 WITH (force = scan, threads = 4, shards = 2)",
            "FIND SUBSEQUENCE OF r.a IN r WITHIN 1 WINDOW 8 WITH (force = scan, threads = 4, shards = 2)",
            "FIND 2 NEAREST SUBSEQUENCE OF r.a IN r WINDOW 8 WITH (force = scan, threads = 4, shards = 2)",
        ] {
            let q = parse(src).unwrap();
            let options = q.options();
            assert_eq!(options.force, Some(ForceOp::Scan), "{src}");
            assert_eq!(options.threads, Some(4), "{src}");
            assert_eq!(options.shards, Some(2), "{src}");
        }
        // Keys are optional and case-insensitive; EXPLAIN forwards the
        // inner query's options.
        let q = parse("EXPLAIN FIND 3 NEAREST TO r.a IN r WITH (THREADS = 2)").unwrap();
        assert_eq!(q.options().threads, Some(2));
        assert_eq!(q.options().force, None);
    }

    #[test]
    fn with_clause_rejects_malformed_forms() {
        for src in [
            "JOIN r WITHIN 1 WITH ()",                             // empty
            "JOIN r WITHIN 1 WITH (force)",                        // no value
            "JOIN r WITHIN 1 WITH (force = hash)",                 // bad value
            "JOIN r WITHIN 1 WITH (threads = 0)",                  // zero
            "JOIN r WITHIN 1 WITH (threads = 2.5)",                // fractional
            "JOIN r WITHIN 1 WITH (shards = -1)",                  // negative
            "JOIN r WITHIN 1 WITH (pool = 4)",                     // unknown key
            "JOIN r WITHIN 1 WITH (threads = 1, threads = 2)",     // duplicate
            "JOIN r WITHIN 1 WITH (threads = 1",                   // unclosed
            "FIND SIMILAR TO r.a IN r WITHIN 1 WITH force = scan", // no parens
        ] {
            assert!(
                matches!(parse(src), Err(LangError::Parse { .. })),
                "{src}: should be a parse error"
            );
        }
    }

    #[test]
    fn parse_shard_statement() {
        assert_eq!(
            parse("SHARD stocks INTO 4 BY HASH").unwrap(),
            Query::Shard {
                relation: "stocks".into(),
                count: 4,
                by: ShardBy::Hash,
            }
        );
        assert_eq!(
            parse("shard stocks into 1 by range").unwrap(),
            Query::Shard {
                relation: "stocks".into(),
                count: 1,
                by: ShardBy::Range,
            }
        );
        for src in [
            "SHARD stocks",                  // no INTO
            "SHARD stocks INTO 0 BY HASH",   // zero shards
            "SHARD stocks INTO 2.5 BY HASH", // fractional
            "SHARD stocks INTO 2 BY MODULO", // unknown rule
            "SHARD stocks INTO 2",           // no BY
            "EXPLAIN SHARD stocks INTO 2 BY HASH",
            "EXPLAIN ANALYZE SHARD stocks INTO 2 BY HASH",
        ] {
            assert!(
                matches!(parse(src), Err(LangError::Parse { .. })),
                "{src}: should be a parse error"
            );
        }
        // A relation may still be named "shard" in query position.
        assert!(parse("JOIN shard WITHIN 1").is_ok());
    }

    #[test]
    fn parse_where_windows() {
        let q = parse(
            "FIND SIMILAR TO r.a IN r WITHIN 1 WHERE MEAN BETWEEN 5 AND 10 AND STD BETWEEN 0 AND 2",
        )
        .unwrap();
        match q {
            Query::Similar { window, .. } => {
                assert_eq!(window.mean, Some((5.0, 10.0)));
                assert_eq!(window.std, Some((0.0, 2.0)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multiple_transforms_in_order() {
        let q = parse("JOIN r WITHIN 1 APPLY mavg(5), reverse, scale(-1)").unwrap();
        match q {
            Query::Join { transforms, .. } => {
                let names: Vec<&str> = transforms.iter().map(|t| t.name.as_str()).collect();
                assert_eq!(names, vec!["mavg", "reverse", "scale"]);
                assert_eq!(transforms[2].args, vec![-1.0]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_report_positions() {
        assert!(matches!(parse("SELECT 1"), Err(LangError::Parse { .. })));
        assert!(matches!(
            parse("FIND SIMILAR stocks.BBA IN s WITHIN 1"),
            Err(LangError::Parse { .. })
        ));
        assert!(matches!(
            parse("FIND 0 NEAREST TO r.a IN r"),
            Err(LangError::Parse { .. })
        ));
        assert!(matches!(
            parse("FIND 2.7 NEAREST TO r.a IN r"),
            Err(LangError::Parse { .. })
        ));
        assert!(matches!(
            parse("JOIN r WITHIN 1 WITH (force = hash)"),
            Err(LangError::Parse { .. })
        ));
        assert!(matches!(
            parse("FIND SIMILAR TO r.a IN r WITHIN 1 garbage"),
            Err(LangError::Parse { .. })
        ));
    }

    #[test]
    fn parse_subsequence_range() {
        let q = parse("FIND SUBSEQUENCE OF [1, 2, 3] IN walks WITHIN 0.5 WINDOW 3").unwrap();
        match q {
            Query::SubseqSimilar {
                source,
                relation,
                eps,
                window,
                options,
            } => {
                assert!(options.is_default());
                assert_eq!(source, Source::Literal(vec![1.0, 2.0, 3.0]));
                assert_eq!(relation, "walks");
                assert_eq!(eps, 0.5);
                assert_eq!(window, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_subsequence_nearest() {
        let q = parse("find 7 nearest subsequence of pats.q IN walks window 16").unwrap();
        match q {
            Query::SubseqNearest {
                source,
                relation,
                k,
                window,
                options,
            } => {
                assert!(options.is_default());
                assert_eq!(
                    source,
                    Source::Ref {
                        relation: "pats".into(),
                        label: "q".into()
                    }
                );
                assert_eq!(relation, "walks");
                assert_eq!(k, 7);
                assert_eq!(window, 16);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negative_threshold_rejected_at_parse_time() {
        for src in [
            "FIND SIMILAR TO r.a IN r WITHIN -1",
            "FIND SUBSEQUENCE OF r.a IN r WITHIN -0.5 WINDOW 8",
            "JOIN r WITHIN -2",
        ] {
            match parse(src) {
                Err(LangError::Parse { message, .. }) => {
                    assert!(message.contains("non-negative"), "{src}: {message}")
                }
                other => panic!("{src}: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn degenerate_window_rejected_at_parse_time() {
        for src in [
            "FIND SUBSEQUENCE OF r.a IN r WITHIN 1 WINDOW 1",
            "FIND SUBSEQUENCE OF r.a IN r WITHIN 1 WINDOW 0",
            "FIND SUBSEQUENCE OF r.a IN r WITHIN 1 WINDOW 2.5",
            "FIND 3 NEAREST SUBSEQUENCE OF r.a IN r WINDOW 1",
        ] {
            match parse(src) {
                Err(LangError::Parse { message, .. }) => {
                    assert!(message.contains("WINDOW"), "{src}: {message}")
                }
                other => panic!("{src}: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn huge_nearest_count_rejected_instead_of_saturating() {
        // `1e20 as usize` saturates to usize::MAX; `2^53` is the first
        // integer whose f64 neighborhood is gappy. Both must be parse
        // errors, not silently-clamped counts.
        for src in [
            "FIND 1e20 NEAREST TO r.a IN r",
            "FIND 9007199254740992 NEAREST TO r.a IN r",
            "FIND 1e20 NEAREST SUBSEQUENCE OF r.a IN r WINDOW 8",
        ] {
            match parse(src) {
                Err(LangError::Parse { pos, message }) => {
                    assert!(message.contains("below 2^53"), "{src}: {message}");
                    assert!(pos > 0, "{src}: error should point at the count");
                }
                other => panic!("{src}: expected parse error, got {other:?}"),
            }
        }
        // The largest exactly-representable counts still parse.
        assert!(parse("FIND 9007199254740991 NEAREST TO r.a IN r").is_ok());
    }

    #[test]
    fn parse_explain_forms() {
        match parse("EXPLAIN FIND 3 NEAREST TO r.a IN r").unwrap() {
            Query::Explain { analyze, query } => {
                assert!(!analyze);
                assert!(matches!(*query, Query::Nearest { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse("explain analyze JOIN r WITHIN 1 WITH (force = index)").unwrap() {
            Query::Explain { analyze, query } => {
                assert!(analyze);
                assert!(matches!(*query, Query::Join { .. }));
                assert_eq!(query.options().force, Some(ForceOp::Index));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Nesting is rejected, and EXPLAIN still needs a query.
        assert!(matches!(
            parse("EXPLAIN EXPLAIN JOIN r WITHIN 1"),
            Err(LangError::Parse { .. })
        ));
        assert!(matches!(parse("EXPLAIN"), Err(LangError::Parse { .. })));
        // A relation may still be named "explain" (identifiers are only
        // keyword-like in keyword positions).
        assert!(parse("JOIN explain WITHIN 1").is_ok());
    }

    #[test]
    fn join_without_force_is_auto() {
        match parse("JOIN r WITHIN 1").unwrap() {
            Query::Join { options, .. } => assert!(options.is_default()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_append_values() {
        let q = parse("APPEND stocks BBA VALUES (1.5, -2, 3e1)").unwrap();
        assert_eq!(
            q,
            Query::Append {
                relation: "stocks".into(),
                rows: vec![AppendRow {
                    label: "BBA".into(),
                    values: vec![1.5, -2.0, 30.0],
                }],
            }
        );
        // Keywords stay case-insensitive, labels case-sensitive.
        let q = parse("append stocks bba values (7)").unwrap();
        match q {
            Query::Append { rows, .. } => assert_eq!(rows[0].label, "bba"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_append_csv_batch() {
        let q = parse("APPEND stocks CSV (BBA, 1, 2) (ZTR, 3) (BBA, 4)").unwrap();
        match q {
            Query::Append { relation, rows } => {
                assert_eq!(relation, "stocks");
                let got: Vec<(&str, &[f64])> = rows
                    .iter()
                    .map(|r| (r.label.as_str(), r.values.as_slice()))
                    .collect();
                assert_eq!(
                    got,
                    vec![
                        ("BBA", &[1.0, 2.0][..]),
                        ("ZTR", &[3.0][..]),
                        ("BBA", &[4.0][..]),
                    ]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn append_rejects_malformed_forms() {
        for src in [
            "APPEND",                          // no relation
            "APPEND stocks",                   // no label
            "APPEND stocks BBA",               // no VALUES
            "APPEND stocks BBA VALUES ()",     // empty values
            "APPEND stocks BBA VALUES (1,)",   // trailing comma
            "APPEND stocks CSV",               // no rows
            "APPEND stocks CSV ()",            // empty row
            "APPEND stocks CSV (BBA)",         // row without values
            "APPEND stocks CSV (BBA, 1) junk", // trailing input
            "APPEND stocks BBA VALUES (1) (2)",
        ] {
            assert!(
                matches!(parse(src), Err(LangError::Parse { .. })),
                "{src}: should be a parse error"
            );
        }
    }

    #[test]
    fn explain_append_rejected_at_parse_time() {
        for src in [
            "EXPLAIN APPEND stocks BBA VALUES (1)",
            "EXPLAIN ANALYZE APPEND stocks CSV (BBA, 1)",
        ] {
            match parse(src) {
                Err(LangError::Parse { message, .. }) => {
                    assert!(message.contains("EXPLAIN APPEND"), "{src}: {message}")
                }
                other => panic!("{src}: expected parse error, got {other:?}"),
            }
        }
        // A relation may still be named "append" in query position.
        assert!(parse("JOIN append WITHIN 1").is_ok());
    }

    #[test]
    fn between_order_checked() {
        assert!(matches!(
            parse("FIND SIMILAR TO r.a IN r WITHIN 1 WHERE MEAN BETWEEN 10 AND 5"),
            Err(LangError::Parse { .. })
        ));
    }
}

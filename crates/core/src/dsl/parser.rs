//! DSL recursive-descent parser.

use super::lexer::{tokenize, Token, TokenKind};
use crate::action::{Action, ActionSet};
use crate::condition::Condition;
use crate::entity::{EntityMatcher, Pattern};
use crate::error::PolicyError;
use crate::policy::{Effect, Policy, Rule};
use std::borrow::Cow;

/// Deepest nesting of `!` and `(` a condition may use. The parser recurses
/// once per level, so without a bound a hostile file of nested parentheses
/// overflows the stack; shipped policies nest a few levels at most.
const MAX_CONDITION_DEPTH: u32 = 64;

/// Resolves a string token's `\"` and `\\` escapes (the lexer admits no
/// others), borrowing the source when the string has none.
fn unescape(raw: &str) -> Cow<'_, str> {
    if !raw.contains('\\') {
        return Cow::Borrowed(raw);
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        out.push(if c == '\\' { chars.next().unwrap_or(c) } else { c });
    }
    Cow::Owned(out)
}

/// Walks the borrowed token stream. Words and strings stay slices of the
/// source; the parser copies one only into what a [`Policy`] keeps (its
/// name, patterns, condition operands and interned ids), resolving a
/// string's escapes in that copy.
struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    auto_rule_id: u32,
    /// Current `!`/`(` nesting inside a condition.
    depth: u32,
}

impl<'a> Parser<'a> {
    fn new(tokens: Vec<Token<'a>>) -> Self {
        Parser {
            tokens,
            pos: 0,
            auto_rule_id: 0,
            depth: 0,
        }
    }

    fn peek(&self) -> Option<TokenKind<'a>> {
        self.tokens.get(self.pos).map(|t| t.kind)
    }

    fn line(&self) -> u32 {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map(|t| t.line)
            .unwrap_or(1)
    }

    fn err(&self, expected: &str) -> PolicyError {
        PolicyError::Parse {
            line: self.line(),
            expected: expected.to_string(),
            found: self
                .peek()
                .map(|k| k.describe())
                .unwrap_or_else(|| "end of input".to_string()),
        }
    }

    fn next(&mut self) -> Option<TokenKind<'a>> {
        let t = self.peek();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, kind: TokenKind<'_>, what: &str) -> Result<(), PolicyError> {
        if self.peek() == Some(kind) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), PolicyError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("'{kw}'")))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        match self.peek() {
            Some(TokenKind::Word(w)) if w == kw => {
                self.pos += 1;
                true
            }
            _ => false,
        }
    }

    fn word(&mut self, what: &str) -> Result<&'a str, PolicyError> {
        match self.peek() {
            Some(TokenKind::Word(w)) => {
                self.pos += 1;
                Ok(w)
            }
            _ => Err(self.err(what)),
        }
    }

    fn string(&mut self, what: &str) -> Result<Cow<'a, str>, PolicyError> {
        match self.peek() {
            Some(TokenKind::Str(s)) => {
                self.pos += 1;
                Ok(unescape(s))
            }
            _ => Err(self.err(what)),
        }
    }

    /// A value position accepts either a bare word or a quoted string.
    fn value(&mut self, what: &str) -> Result<Cow<'a, str>, PolicyError> {
        match self.peek() {
            Some(TokenKind::Word(v)) => {
                self.pos += 1;
                Ok(Cow::Borrowed(v))
            }
            _ => self.string(what),
        }
    }

    fn number<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, PolicyError> {
        let line = self.line();
        let w = self.word(what)?;
        w.parse().map_err(|_| PolicyError::Parse {
            line,
            expected: what.to_string(),
            found: format!("'{w}'"),
        })
    }

    fn policy(&mut self) -> Result<Policy, PolicyError> {
        self.expect_keyword("policy")?;
        let name = self.string("policy name string")?;
        self.expect_keyword("version")?;
        let version = self.number("version number")?;
        self.expect(TokenKind::LBrace, "'{'")?;

        let mut policy = Policy::new(name, version);
        loop {
            match self.peek() {
                Some(TokenKind::RBrace) => {
                    self.pos += 1;
                    break;
                }
                Some(TokenKind::Word("default")) => {
                    self.pos += 1;
                    let effect = self.effect()?;
                    self.expect(TokenKind::Semi, "';'")?;
                    policy = policy.with_default(effect);
                }
                Some(TokenKind::Word("allow" | "deny")) => {
                    let rule = self.rule()?;
                    policy = policy.add_rule(rule)?;
                }
                _ => return Err(self.err("'default', 'allow', 'deny' or '}'")),
            }
        }
        Ok(policy)
    }

    fn effect(&mut self) -> Result<Effect, PolicyError> {
        if self.eat_keyword("allow") {
            Ok(Effect::Allow)
        } else if self.eat_keyword("deny") {
            Ok(Effect::Deny)
        } else {
            Err(self.err("'allow' or 'deny'"))
        }
    }

    fn rule(&mut self) -> Result<Rule, PolicyError> {
        let effect = self.effect()?;
        let actions = self.actions()?;
        self.expect_keyword("on")?;
        let object = self.entity()?;
        self.expect_keyword("from")?;
        let subject = self.entity()?;

        let mut condition = Condition::Always;
        if self.eat_keyword("when") {
            condition = self.cond_or()?;
        }
        let mut priority = 0;
        if self.eat_keyword("priority") {
            priority = self.number("priority number")?;
        }
        let id = if self.eat_keyword("as") {
            Cow::Borrowed(self.word("rule id")?)
        } else {
            self.auto_rule_id += 1;
            Cow::Owned(format!("r{}", self.auto_rule_id))
        };
        self.expect(TokenKind::Semi, "';'")?;
        Ok(Rule::new(id, effect, actions, subject, object)
            .when(condition)
            .with_priority(priority))
    }

    fn actions(&mut self) -> Result<ActionSet, PolicyError> {
        let mut set = ActionSet::EMPTY;
        loop {
            let line = self.line();
            let w = self.word("action keyword")?;
            let action: Action = w.parse().map_err(|_| PolicyError::Parse {
                line,
                expected: "action (read/write/execute/configure)".into(),
                found: format!("'{w}'"),
            })?;
            set.insert(action);
            if self.peek() == Some(TokenKind::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(set)
    }

    fn entity(&mut self) -> Result<EntityMatcher, PolicyError> {
        let ns = self.word("entity namespace")?;
        self.expect(TokenKind::Colon, "':'")?;
        let line = self.line();
        let pat_word = self.word("entity pattern")?;
        let pattern = Pattern::parse(pat_word).map_err(|e| PolicyError::Parse {
            line,
            expected: "entity pattern".into(),
            found: e.to_string(),
        })?;
        if ns == "*" {
            Ok(EntityMatcher::any_namespace(pattern))
        } else {
            Ok(EntityMatcher::new(ns, pattern))
        }
    }

    fn cond_or(&mut self) -> Result<Condition, PolicyError> {
        let first = self.cond_and()?;
        if self.peek() != Some(TokenKind::OrOr) {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.peek() == Some(TokenKind::OrOr) {
            self.pos += 1;
            parts.push(self.cond_and()?);
        }
        Ok(Condition::AnyOf(parts))
    }

    fn cond_and(&mut self) -> Result<Condition, PolicyError> {
        let first = self.cond_not()?;
        if self.peek() != Some(TokenKind::AndAnd) {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.peek() == Some(TokenKind::AndAnd) {
            self.pos += 1;
            parts.push(self.cond_not()?);
        }
        Ok(Condition::All(parts))
    }

    fn cond_not(&mut self) -> Result<Condition, PolicyError> {
        let negated = match self.peek() {
            Some(TokenKind::Bang) => true,
            Some(TokenKind::LParen) => false,
            _ => return self.cond_atom(),
        };
        if self.depth == MAX_CONDITION_DEPTH {
            return Err(self.err(&format!(
                "a condition nested at most {MAX_CONDITION_DEPTH} deep"
            )));
        }
        self.pos += 1;
        self.depth += 1;
        let cond = if negated {
            self.cond_not().map(|c| Condition::Not(Box::new(c)))
        } else {
            self.cond_or()
                .and_then(|inner| self.expect(TokenKind::RParen, "')'").map(|()| inner))
        };
        self.depth -= 1;
        cond
    }

    fn cond_atom(&mut self) -> Result<Condition, PolicyError> {
        let w = self.word("condition")?;
        if w == "true" {
            return Ok(Condition::Always);
        }
        if w == "mode" {
            let negated = match self.next() {
                Some(TokenKind::EqEq) => false,
                Some(TokenKind::NotEq) => true,
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("'==' or '!='"));
                }
            };
            let mode = self.value("mode name")?;
            let cond = Condition::InMode(mode.into_owned());
            return Ok(if negated { Condition::Not(Box::new(cond)) } else { cond });
        }
        if let Some(key) = w.strip_prefix("state.") {
            let negated = match self.next() {
                Some(TokenKind::EqEq) => false,
                Some(TokenKind::NotEq) => true,
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("'==' or '!='"));
                }
            };
            let value = self.value("state value")?;
            let cond = Condition::StateEquals {
                key: key.to_string(),
                value: value.into_owned(),
            };
            return Ok(if negated { Condition::Not(Box::new(cond)) } else { cond });
        }
        if w == "rate" {
            self.expect(TokenKind::LParen, "'('")?;
            let key = self.word("rate key")?;
            self.expect(TokenKind::RParen, "')'")?;
            self.expect(TokenKind::Le, "'<='")?;
            let max = self.number("rate limit")?;
            return Ok(Condition::RateAtMost {
                key: key.to_string(),
                max_per_sec: max,
            });
        }
        self.pos = self.pos.saturating_sub(1);
        Err(self.err("'true', 'mode', 'state.<key>' or 'rate'"))
    }
}

/// Parses a single `policy` block.
///
/// # Errors
/// [`PolicyError::Lex`] / [`PolicyError::Parse`] with 1-based line numbers
/// (also for a condition nested more than 64 `!`/`(` levels deep);
/// [`PolicyError::DuplicateRule`] for repeated `as` ids.
pub fn parse_policy(src: &str) -> Result<Policy, PolicyError> {
    let mut p = Parser::new(tokenize(src)?);
    let policy = p.policy()?;
    if p.peek().is_some() {
        return Err(p.err("end of input"));
    }
    Ok(policy)
}

/// Parses a file containing zero or more `policy` blocks.
///
/// # Errors
/// As [`parse_policy`].
pub fn parse_policies(src: &str) -> Result<Vec<Policy>, PolicyError> {
    let mut p = Parser::new(tokenize(src)?);
    let mut out = Vec::new();
    while p.peek().is_some() {
        out.push(p.policy()?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::Pattern;

    #[test]
    fn minimal_policy() {
        let p = parse_policy("policy \"empty\" version 1 { }").unwrap();
        assert_eq!(p.name(), "empty");
        assert_eq!(p.version(), 1);
        assert!(p.is_empty());
        assert_eq!(p.default_effect(), Effect::Deny);
    }

    #[test]
    fn default_allow() {
        let p = parse_policy("policy \"open\" version 1 { default allow; }").unwrap();
        assert_eq!(p.default_effect(), Effect::Allow);
    }

    #[test]
    fn full_rule() {
        let p = parse_policy(
            r#"policy "p" version 2 {
                allow read, write on asset:ev-ecu from entry:sensor-*
                    when mode == normal && rate(sensors) <= 10
                    priority 7 as main-rule;
            }"#,
        )
        .unwrap();
        let r = &p.rules()[0];
        assert_eq!(r.id(), "main-rule");
        assert_eq!(r.effect(), Effect::Allow);
        assert!(r.actions().contains(Action::Read));
        assert!(r.actions().contains(Action::Write));
        assert_eq!(r.priority(), 7);
        assert_eq!(r.object().to_string(), "asset:ev-ecu");
        assert_eq!(r.subject().pattern(), &Pattern::Prefix("sensor-".into()));
        assert_eq!(
            r.condition(),
            &Condition::All(vec![
                Condition::InMode("normal".into()),
                Condition::RateAtMost { key: "sensors".into(), max_per_sec: 10 },
            ])
        );
    }

    #[test]
    fn auto_rule_ids_increment() {
        let p = parse_policy(
            r#"policy "p" version 1 {
                allow read on a:b from c:d;
                deny write on a:b from c:d;
            }"#,
        )
        .unwrap();
        assert_eq!(p.rules()[0].id(), "r1");
        assert_eq!(p.rules()[1].id(), "r2");
    }

    #[test]
    fn id_ranges_and_wildcards() {
        let p = parse_policy(
            r#"policy "p" version 1 {
                deny write on can:0x100-0x1FF from *:*;
            }"#,
        )
        .unwrap();
        let r = &p.rules()[0];
        assert_eq!(r.object().pattern(), &Pattern::IdRange { lo: 0x100, hi: 0x1FF });
        assert_eq!(r.subject().namespace(), None);
    }

    #[test]
    fn condition_precedence_and_parens() {
        let p = parse_policy(
            r#"policy "p" version 1 {
                allow read on a:b from c:d when mode == x || mode == y && mode == z;
                allow write on a:b from c:d when (mode == x || mode == y) && mode == z;
            }"#,
        )
        .unwrap();
        // && binds tighter than ||
        assert_eq!(
            p.rules()[0].condition(),
            &Condition::AnyOf(vec![
                Condition::InMode("x".into()),
                Condition::All(vec![
                    Condition::InMode("y".into()),
                    Condition::InMode("z".into())
                ]),
            ])
        );
        assert_eq!(
            p.rules()[1].condition(),
            &Condition::All(vec![
                Condition::AnyOf(vec![
                    Condition::InMode("x".into()),
                    Condition::InMode("y".into())
                ]),
                Condition::InMode("z".into()),
            ])
        );
    }

    #[test]
    fn negation_and_inequality() {
        let p = parse_policy(
            r#"policy "p" version 1 {
                allow read on a:b from c:d when !(mode == x);
                allow write on a:b from c:d when mode != x;
                allow execute on a:b from c:d when state.doors != locked;
            }"#,
        )
        .unwrap();
        let not_x = Condition::Not(Box::new(Condition::InMode("x".into())));
        assert_eq!(p.rules()[0].condition(), &not_x);
        assert_eq!(p.rules()[1].condition(), &not_x);
        assert_eq!(
            p.rules()[2].condition(),
            &Condition::Not(Box::new(Condition::StateEquals {
                key: "doors".into(),
                value: "locked".into()
            }))
        );
    }

    #[test]
    fn quoted_mode_values() {
        let p = parse_policy(
            r#"policy "p" version 1 {
                allow read on a:b from c:d when mode == "remote diagnostic";
            }"#,
        )
        .unwrap();
        assert_eq!(
            p.rules()[0].condition(),
            &Condition::InMode("remote diagnostic".into())
        );
    }

    #[test]
    fn state_conditions() {
        let p = parse_policy(
            r#"policy "p" version 1 {
                deny write on asset:door-locks from entry:telematics
                    when state.vehicle.moving == true;
            }"#,
        )
        .unwrap();
        assert_eq!(
            p.rules()[0].condition(),
            &Condition::StateEquals { key: "vehicle.moving".into(), value: "true".into() }
        );
    }

    #[test]
    fn parse_errors_carry_position() {
        let err = parse_policy("policy \"p\" version 1 {\n  allow fly on a:b from c:d;\n}")
            .unwrap_err();
        match err {
            PolicyError::Parse { line, expected, found } => {
                assert_eq!(line, 2);
                assert!(expected.contains("action"));
                assert_eq!(found, "'fly'");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn missing_semicolon_reported() {
        let err = parse_policy("policy \"p\" version 1 { allow read on a:b from c:d }")
            .unwrap_err();
        assert!(matches!(err, PolicyError::Parse { .. }));
        assert!(err.to_string().contains("';'"));
    }

    #[test]
    fn duplicate_as_ids_rejected() {
        let err = parse_policy(
            r#"policy "p" version 1 {
                allow read on a:b from c:d as dup;
                deny read on a:b from c:d as dup;
            }"#,
        )
        .unwrap_err();
        assert_eq!(err, PolicyError::DuplicateRule { id: "dup".into() });
    }

    #[test]
    fn trailing_garbage_rejected() {
        let err = parse_policy("policy \"p\" version 1 { } trailing").unwrap_err();
        assert!(err.to_string().contains("end of input"));
    }

    #[test]
    fn multiple_policies() {
        let ps = parse_policies(
            r#"
            policy "a" version 1 { }
            policy "b" version 2 { default allow; }
            "#,
        )
        .unwrap();
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].name(), "a");
        assert_eq!(ps[1].default_effect(), Effect::Allow);
        assert!(parse_policies("").unwrap().is_empty());
    }

    #[test]
    fn rate_condition_parses() {
        let p = parse_policy(
            r#"policy "p" version 1 {
                deny write on a:b from c:d when !(rate(flood) <= 100);
            }"#,
        )
        .unwrap();
        assert_eq!(
            p.rules()[0].condition(),
            &Condition::Not(Box::new(Condition::RateAtMost {
                key: "flood".into(),
                max_per_sec: 100
            }))
        );
    }

    fn nested_rule(open: &str, close: &str, depth: usize) -> String {
        format!(
            "policy \"p\" version 1 {{\n  allow read on a:b from c:d when {}true{};\n}}",
            open.repeat(depth),
            close.repeat(depth)
        )
    }

    #[test]
    fn deep_condition_nesting_is_a_parse_error_not_a_crash() {
        // Each level is one parser frame: 10 000 of them would overflow the
        // 2 MB test-thread stack if the depth were unbounded.
        for (open, close) in [("!", ""), ("(", ")")] {
            match parse_policy(&nested_rule(open, close, 10_000)) {
                Err(PolicyError::Parse { line, expected, .. }) => {
                    assert_eq!(line, 2, "{open}");
                    assert!(expected.contains("nested at most 64"), "{expected}");
                }
                other => panic!("{open} x 10000: {other:?}"),
            }
            assert!(parse_policies(&nested_rule(open, close, 10_000)).is_err());
            assert!(parse_policy(&nested_rule(open, close, 65)).is_err());
        }
    }

    #[test]
    fn condition_nesting_at_the_limit_parses() {
        let p = parse_policy(&nested_rule("(", ")", 64)).unwrap();
        assert_eq!(p.rules()[0].condition(), &Condition::Always);
        let p = parse_policy(&nested_rule("!", "", 64)).unwrap();
        let mut cond = p.rules()[0].condition();
        for _ in 0..64 {
            let Condition::Not(inner) = cond else {
                panic!("expected 64 negations, got {cond:?}");
            };
            cond = inner;
        }
        assert_eq!(cond, &Condition::Always);
        // `!` and `(` levels share one budget
        assert!(parse_policy(&nested_rule("!(", ")", 32)).is_ok());
        assert!(parse_policy(&nested_rule("!(", ")", 32).replacen("when ", "when !", 1)).is_err());
    }
}

//! DSL lexer.

use crate::error::PolicyError;

/// A lexical token with its source line (for error messages). Words and
/// strings borrow their text from the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token's kind and payload.
    pub kind: TokenKind<'a>,
    /// 1-based source line.
    pub line: u32,
}

/// Token kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind<'a> {
    /// An unquoted word: identifiers, numbers, patterns (`ev-ecu`,
    /// `0x100-0x1FF`, `sensor-*`, `*`, `5.4`).
    Word(&'a str),
    /// A double-quoted string, without its quotes and with its `\"` and
    /// `\\` escapes as written (the parser resolves them).
    Str(&'a str),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Bang,
    /// `<=`
    Le,
}

impl TokenKind<'_> {
    /// A short human-readable description for error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Word(w) => format!("'{w}'"),
            TokenKind::Str(s) => format!("\"{s}\""),
            TokenKind::LBrace => "'{'".into(),
            TokenKind::RBrace => "'}'".into(),
            TokenKind::LParen => "'('".into(),
            TokenKind::RParen => "')'".into(),
            TokenKind::Semi => "';'".into(),
            TokenKind::Comma => "','".into(),
            TokenKind::Colon => "':'".into(),
            TokenKind::EqEq => "'=='".into(),
            TokenKind::NotEq => "'!='".into(),
            TokenKind::AndAnd => "'&&'".into(),
            TokenKind::OrOr => "'||'".into(),
            TokenKind::Bang => "'!'".into(),
            TokenKind::Le => "'<='".into(),
        }
    }
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'*')
}

/// Lines that `text` ends, for the line counter.
fn newlines(text: &[u8]) -> u32 {
    text.iter().filter(|&&b| b == b'\n').count() as u32
}

/// The length of a string's body, up to its closing quote. `\"` and `\\`
/// are the only escapes. On error, the offset and character at fault: a
/// `\` that starts no escape, or the opening quote of a string that never
/// closes.
fn string_len(body: &[u8]) -> Result<usize, (usize, char)> {
    let mut n = 0;
    loop {
        match body.get(n) {
            Some(b'"') => return Ok(n),
            Some(b'\\') if matches!(body.get(n + 1), Some(b'"' | b'\\')) => n += 2,
            Some(b'\\') => return Err((n, '\\')),
            Some(_) => n += 1,
            None => return Err((n, '"')),
        }
    }
}

/// Tokenizes DSL source.
///
/// Every delimiter and word character is ASCII, so the scan walks bytes
/// and each word or string token is a slice of `src`: the only allocation
/// is the token vector. A non-ASCII character is decoded only to skip it
/// as whitespace or to report it.
///
/// # Errors
/// [`PolicyError::Lex`] on unexpected characters, unterminated strings or
/// a `\` in a string that escapes neither `"` nor `\`.
pub fn tokenize(src: &str) -> Result<Vec<Token<'_>>, PolicyError> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0;

    while let Some(&b) = bytes.get(i) {
        let second = bytes.get(i + 1).copied();
        let (kind, len) = match (b, second) {
            (b'\n', _) => {
                line += 1;
                i += 1;
                continue;
            }
            (b, _) if b.is_ascii_whitespace() => {
                i += 1;
                continue;
            }
            (b'#', _) | (b'/', Some(b'/')) => {
                // comment to end of line
                i = match bytes[i..].iter().position(|&c| c == b'\n') {
                    Some(n) => {
                        line += 1;
                        i + n + 1
                    }
                    None => bytes.len(),
                };
                continue;
            }
            (b'"', _) => {
                let body = &bytes[i + 1..];
                let n = string_len(body).map_err(|(n, found)| PolicyError::Lex {
                    line: line + newlines(&body[..n]),
                    found,
                })?;
                line += newlines(&body[..n]);
                (TokenKind::Str(&src[i + 1..i + 1 + n]), n + 2)
            }
            (b'{', _) => (TokenKind::LBrace, 1),
            (b'}', _) => (TokenKind::RBrace, 1),
            (b'(', _) => (TokenKind::LParen, 1),
            (b')', _) => (TokenKind::RParen, 1),
            (b';', _) => (TokenKind::Semi, 1),
            (b',', _) => (TokenKind::Comma, 1),
            (b':', _) => (TokenKind::Colon, 1),
            (b'=', Some(b'=')) => (TokenKind::EqEq, 2),
            (b'&', Some(b'&')) => (TokenKind::AndAnd, 2),
            (b'|', Some(b'|')) => (TokenKind::OrOr, 2),
            (b'!', Some(b'=')) => (TokenKind::NotEq, 2),
            (b'!', _) => (TokenKind::Bang, 1),
            (b'<', Some(b'=')) => (TokenKind::Le, 2),
            (b, _) if is_word_byte(b) => {
                let n = bytes[i..]
                    .iter()
                    .position(|&c| !is_word_byte(c))
                    .unwrap_or(bytes.len() - i);
                (TokenKind::Word(&src[i..i + n]), n)
            }
            _ => {
                // `i` sits on a character boundary: every step above
                // advances over ASCII bytes or whole characters.
                let c = src[i..]
                    .chars()
                    .next()
                    .unwrap_or(char::REPLACEMENT_CHARACTER);
                if c.is_whitespace() {
                    i += c.len_utf8();
                    continue;
                }
                return Err(PolicyError::Lex { line, found: c });
            }
        };
        tokens.push(Token { kind, line });
        i += len;
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn words_and_symbols() {
        assert_eq!(
            kinds("allow read, write on asset:ev-ecu;"),
            vec![
                TokenKind::Word("allow"),
                TokenKind::Word("read"),
                TokenKind::Comma,
                TokenKind::Word("write"),
                TokenKind::Word("on"),
                TokenKind::Word("asset"),
                TokenKind::Colon,
                TokenKind::Word("ev-ecu"),
                TokenKind::Semi,
            ]
        );
    }

    #[test]
    fn patterns_lex_as_single_words() {
        assert_eq!(
            kinds("0x100-0x1FF sensor-* * state.vehicle.moving"),
            vec![
                TokenKind::Word("0x100-0x1FF"),
                TokenKind::Word("sensor-*"),
                TokenKind::Word("*"),
                TokenKind::Word("state.vehicle.moving"),
            ]
        );
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("== != && || ! <= ( )"),
            vec![
                TokenKind::EqEq,
                TokenKind::NotEq,
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Bang,
                TokenKind::Le,
                TokenKind::LParen,
                TokenKind::RParen,
            ]
        );
    }

    #[test]
    fn strings_and_comments() {
        assert_eq!(
            kinds("\"hello world\" # a comment\nallow // another\ndeny"),
            vec![
                TokenKind::Str("hello world"),
                TokenKind::Word("allow"),
                TokenKind::Word("deny"),
            ]
        );
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = tokenize("a\nb\n\nc").unwrap();
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn lex_errors_report_line_and_char() {
        let err = tokenize("ok\n$bad").unwrap_err();
        assert_eq!(err, PolicyError::Lex { line: 2, found: '$' });
        assert!(matches!(tokenize("= alone"), Err(PolicyError::Lex { found: '=', .. })));
        assert!(matches!(tokenize("& alone"), Err(PolicyError::Lex { found: '&', .. })));
        assert!(matches!(tokenize("| alone"), Err(PolicyError::Lex { found: '|', .. })));
        assert!(matches!(tokenize("< alone"), Err(PolicyError::Lex { found: '<', .. })));
        assert!(matches!(tokenize("/ alone"), Err(PolicyError::Lex { found: '/', .. })));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(matches!(tokenize("\"oops"), Err(PolicyError::Lex { found: '"', .. })));
        // an escaped quote does not close the string
        assert!(matches!(tokenize(r#""oops\""#), Err(PolicyError::Lex { found: '"', .. })));
    }

    #[test]
    fn strings_keep_their_escapes_raw() {
        assert_eq!(
            kinds(r#""a\"b" "c\\" "\\\"""#),
            vec![TokenKind::Str(r#"a\"b"#), TokenKind::Str(r"c\\"), TokenKind::Str(r#"\\\""#)]
        );
    }

    #[test]
    fn a_backslash_must_escape_a_quote_or_a_backslash() {
        assert_eq!(tokenize("\"a\nb\\x\""), Err(PolicyError::Lex { line: 2, found: '\\' }));
        // a lone backslash at the end of input is an error, not a panic
        assert_eq!(tokenize("\"abc\\"), Err(PolicyError::Lex { line: 1, found: '\\' }));
        assert_eq!(tokenize("\"\\"), Err(PolicyError::Lex { line: 1, found: '\\' }));
    }

    #[test]
    fn describe_is_quoted() {
        assert_eq!(TokenKind::Word("x").describe(), "'x'");
        assert_eq!(TokenKind::Semi.describe(), "';'");
        assert_eq!(TokenKind::Str("s").describe(), "\"s\"");
    }

    #[test]
    fn non_ascii_text_keeps_character_boundaries() {
        // Unicode whitespace separates words; other characters are reported
        // whole, and strings carry them through.
        assert_eq!(
            kinds("a\u{00A0}b\u{2028}\"d\u{00E9}j\u{00E0} vu\""),
            vec![TokenKind::Word("a"), TokenKind::Word("b"), TokenKind::Str("d\u{00E9}j\u{00E0} vu")]
        );
        assert_eq!(
            tokenize("ok\n\u{00E9}t\u{00E9}").unwrap_err(),
            PolicyError::Lex { line: 2, found: '\u{00E9}' }
        );
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(tokenize("").unwrap().is_empty());
        assert!(tokenize("   \n\t ").unwrap().is_empty());
        assert!(tokenize("# only a comment").unwrap().is_empty());
    }
}

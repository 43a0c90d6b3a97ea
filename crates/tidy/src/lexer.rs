//! A dependency-free lexer for Rust source text.
//!
//! This is the foundation that lifts `sysunc-tidy` from line-regex
//! heuristics to token-level analysis: once comments and string
//! literals are real tokens, a `.unwrap()` quoted inside a string can
//! no longer masquerade as library code, and brace counting becomes
//! exact. The lexer is intentionally a *lexer only* — no parse tree —
//! because every rule the gate enforces is expressible over the token
//! stream plus shallow brace-depth tracking, and a lexer is small
//! enough to audit by eye (the same trust argument the original
//! line-oriented gate made, now without its false-positive classes).
//!
//! Coverage: line comments, nested block comments, string / raw-string
//! / byte-string / raw-byte-string literals, char and byte-char
//! literals, lifetimes, numeric literals with type suffixes
//! (`1f64`, `0xDEAD_BEEF`, `1e-3`, `1.`), identifiers (including raw
//! `r#ident`), and punctuation with maximal-munch compound operators
//! (`==`, `!=`, `::`, `..=`, …). Every token carries its byte span and
//! 1-based line/column position.
//!
//! Malformed input (unterminated strings or comments) never panics:
//! the offending token is extended to end-of-file, which is the most
//! useful behavior for a lint that must keep walking the rest of the
//! workspace.

/// The classification of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// `// …` including doc forms `///` and `//!` (text distinguishes).
    LineComment,
    /// `/* … */`, nesting handled.
    BlockComment,
    /// `"…"` or `b"…"`.
    Str,
    /// `r"…"`, `r#"…"#`, `br#"…"#` with any number of hashes.
    RawStr,
    /// `'x'`, `'\n'`, `b'x'`.
    Char,
    /// An integer literal, possibly with a non-float suffix (`1`, `0xFFu32`).
    Int,
    /// A float literal: has a fractional part, an exponent, or an
    /// `f32`/`f64` suffix (`0.5`, `1e-3`, `1f64`, `1.`).
    Float,
    /// An identifier or keyword (including raw `r#ident`).
    Ident,
    /// A lifetime such as `'a` or `'static`.
    Lifetime,
    /// Punctuation; compound operators are single tokens (see
    /// [`COMPOUND_OPS`]).
    Punct,
}

/// One token with its byte span and position.
///
/// `line` and `col` are 1-based; `col` counts bytes from the start of
/// the line (exact for ASCII source, which is all this workspace
/// contains — multi-byte characters would shift columns, never lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// Byte offset of the first byte, into the lexed source.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of the token's first byte.
    pub line: usize,
    /// 1-based byte column of the token's first byte.
    pub col: usize,
}

impl Token {
    /// The token's text within the source it was lexed from.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }

    /// True for comment tokens of either style.
    pub fn is_comment(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

/// Multi-character operators lexed as single [`TokenKind::Punct`]
/// tokens, longest first (maximal munch).
pub const COMPOUND_OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<",
    ">>", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

/// Lexes `src` into a token vector (whitespace dropped, comments kept).
pub fn lex(src: &str) -> Vec<Token> {
    Lexer { src: src.as_bytes(), text: src, pos: 0, line: 1, line_start: 0 }.run()
}

struct Lexer<'a> {
    src: &'a [u8],
    text: &'a str,
    pos: usize,
    line: usize,
    line_start: usize,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Token> {
        let mut out = Vec::new();
        while self.pos < self.src.len() {
            let b = self.src[self.pos];
            if b.is_ascii_whitespace() {
                self.advance(1);
                continue;
            }
            let start = self.pos;
            let (line, col) = (self.line, self.pos - self.line_start + 1);
            let kind = self.token_kind(b);
            debug_assert!(self.pos > start, "lexer must always make progress");
            out.push(Token { kind, start, end: self.pos, line, col });
        }
        out
    }

    /// Consumes one token starting at the current position and returns
    /// its kind; `self.pos` ends one past the token.
    fn token_kind(&mut self, b: u8) -> TokenKind {
        match b {
            b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
            b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
            b'"' => self.string(),
            b'\'' => self.char_or_lifetime(),
            b'r' | b'b' => self.prefixed(),
            b'0'..=b'9' => self.number(),
            _ if is_ident_start(self.cur_char()) => self.ident(),
            _ => self.punct(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    /// The (possibly multi-byte) character at the current position.
    fn cur_char(&self) -> char {
        self.text[self.pos..].chars().next().unwrap_or('\0')
    }

    /// Advances `n` bytes, maintaining line/column bookkeeping.
    fn advance(&mut self, n: usize) {
        for _ in 0..n {
            if self.pos >= self.src.len() {
                break;
            }
            if self.src[self.pos] == b'\n' {
                self.line += 1;
                self.line_start = self.pos + 1;
            }
            self.pos += 1;
        }
    }

    fn line_comment(&mut self) -> TokenKind {
        while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
            self.pos += 1; // no newline inside, bookkeeping unaffected
        }
        TokenKind::LineComment
    }

    fn block_comment(&mut self) -> TokenKind {
        self.advance(2); // `/*`
        let mut depth = 1usize;
        while self.pos < self.src.len() && depth > 0 {
            if self.src[self.pos] == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.advance(2);
            } else if self.src[self.pos] == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.advance(2);
            } else {
                self.advance(1);
            }
        }
        TokenKind::BlockComment
    }

    /// A plain (escaped) string body, opening quote at `self.pos`.
    fn string(&mut self) -> TokenKind {
        self.advance(1); // opening `"`
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\\' => self.advance(2),
                b'"' => {
                    self.advance(1);
                    return TokenKind::Str;
                }
                _ => self.advance(1),
            }
        }
        TokenKind::Str // unterminated: runs to EOF
    }

    /// Raw string body: `self.pos` is at the leading `r` (the `b` of a
    /// `br` form has been consumed by the caller).
    fn raw_string(&mut self) -> TokenKind {
        self.advance(1); // `r`
        let mut hashes = 0usize;
        while self.peek(0) == Some(b'#') {
            hashes += 1;
            self.advance(1);
        }
        self.advance(1); // opening `"`
        while self.pos < self.src.len() {
            if self.src[self.pos] == b'"' {
                let mut ok = true;
                for i in 1..=hashes {
                    if self.peek(i) != Some(b'#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    self.advance(1 + hashes);
                    return TokenKind::RawStr;
                }
            }
            self.advance(1);
        }
        TokenKind::RawStr // unterminated
    }

    /// Disambiguates `'a` (lifetime) from `'a'` / `'\n'` (char).
    fn char_or_lifetime(&mut self) -> TokenKind {
        // A lifetime is `'` + ident run *not* followed by a closing `'`.
        if let Some(n) = self.peek(1) {
            if n != b'\\' && is_ident_start(char::from(n)) {
                let mut i = 2;
                while self.peek(i).map(|c| is_ident_continue(char::from(c))).unwrap_or(false) {
                    i += 1;
                }
                if self.peek(i) != Some(b'\'') {
                    self.advance(i);
                    return TokenKind::Lifetime;
                }
            }
        }
        self.advance(1); // opening `'`
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'\\' => self.advance(2),
                b'\'' => {
                    self.advance(1);
                    return TokenKind::Char;
                }
                b'\n' => return TokenKind::Char, // malformed; don't eat the line
                _ => self.advance(1),
            }
        }
        TokenKind::Char
    }

    /// Tokens starting `r` or `b`: raw strings, byte strings, byte
    /// chars, raw identifiers — or a plain identifier.
    fn prefixed(&mut self) -> TokenKind {
        let b = self.src[self.pos];
        match (b, self.peek(1), self.peek(2)) {
            // r"…" | r#"…"# | r#ident
            (b'r', Some(b'"'), _) => self.raw_string(),
            (b'r', Some(b'#'), Some(c)) if c == b'"' || c == b'#' => self.raw_string(),
            (b'r', Some(b'#'), Some(c)) if is_ident_start(char::from(c)) => {
                self.advance(2); // `r#`
                self.ident()
            }
            // b"…" | b'…' | br"…" | br#"…"#
            (b'b', Some(b'"'), _) => {
                self.advance(1);
                self.string()
            }
            (b'b', Some(b'\''), _) => {
                self.advance(1);
                self.char_or_lifetime()
            }
            (b'b', Some(b'r'), Some(c)) if c == b'"' || c == b'#' => {
                self.advance(1);
                self.raw_string()
            }
            _ => self.ident(),
        }
    }

    fn ident(&mut self) -> TokenKind {
        self.advance(1);
        while self.pos < self.src.len() && is_ident_continue(self.cur_char()) {
            let ch = self.cur_char();
            self.advance(ch.len_utf8());
        }
        TokenKind::Ident
    }

    fn number(&mut self) -> TokenKind {
        let first = self.src[self.pos];
        if first == b'0' && matches!(self.peek(1), Some(b'x' | b'o' | b'b')) {
            // Radix literal: digits, underscores and any suffix letters
            // form one alphanumeric run (`0xDEAD_BEEFu64`).
            self.advance(2);
            while self
                .peek(0)
                .map(|c| c.is_ascii_alphanumeric() || c == b'_')
                .unwrap_or(false)
            {
                self.advance(1);
            }
            return TokenKind::Int;
        }
        let mut float = false;
        self.digits();
        // Fractional part: `.` followed by a digit, or a trailing `.`
        // not followed by an identifier or a second `.` (so `1.max()`
        // and `0..n` keep their meaning).
        if self.peek(0) == Some(b'.') {
            match self.peek(1) {
                Some(c) if c.is_ascii_digit() => {
                    self.advance(1);
                    self.digits();
                    float = true;
                }
                Some(c) if is_ident_start(char::from(c)) || c == b'.' => {}
                _ => {
                    self.advance(1);
                    float = true;
                }
            }
        }
        // Exponent: `e`/`E`, optional sign, at least one digit.
        if matches!(self.peek(0), Some(b'e' | b'E')) {
            let (sign, digit) = match self.peek(1) {
                Some(b'+' | b'-') => (1, self.peek(2)),
                other => (0, other),
            };
            if digit.map(|c| c.is_ascii_digit()).unwrap_or(false) {
                self.advance(1 + sign);
                self.digits();
                float = true;
            }
        }
        // Type suffix: `f64`, `u32`, `usize`, …
        if self.peek(0).map(|c| is_ident_start(char::from(c))).unwrap_or(false) {
            let suffix_start = self.pos;
            while self
                .peek(0)
                .map(|c| is_ident_continue(char::from(c)))
                .unwrap_or(false)
            {
                self.advance(1);
            }
            let suffix = &self.text[suffix_start..self.pos];
            if suffix == "f32" || suffix == "f64" {
                float = true;
            }
        }
        if float {
            TokenKind::Float
        } else {
            TokenKind::Int
        }
    }

    fn digits(&mut self) {
        while self
            .peek(0)
            .map(|c| c.is_ascii_digit() || c == b'_')
            .unwrap_or(false)
        {
            self.advance(1);
        }
    }

    fn punct(&mut self) -> TokenKind {
        let rest = &self.text[self.pos..];
        for op in COMPOUND_OPS {
            if rest.starts_with(op) {
                self.advance(op.len());
                return TokenKind::Punct;
            }
        }
        let ch = self.cur_char();
        self.advance(ch.len_utf8());
        TokenKind::Punct
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src).into_iter().map(|t| (t.kind, t.text(src))).collect()
    }

    #[test]
    fn idents_keywords_and_puncts() {
        use TokenKind::*;
        assert_eq!(
            kinds("pub fn f(x: u32) -> bool { x == 1 }"),
            vec![
                (Ident, "pub"),
                (Ident, "fn"),
                (Ident, "f"),
                (Punct, "("),
                (Ident, "x"),
                (Punct, ":"),
                (Ident, "u32"),
                (Punct, ")"),
                (Punct, "->"),
                (Ident, "bool"),
                (Punct, "{"),
                (Ident, "x"),
                (Punct, "=="),
                (Int, "1"),
                (Punct, "}"),
            ]
        );
    }

    #[test]
    fn string_literals_swallow_code_like_text() {
        let src = r#"let s = "x.unwrap() == 0.5";"#;
        let toks = kinds(src);
        assert_eq!(toks[3], (TokenKind::Str, "\"x.unwrap() == 0.5\""));
        assert_eq!(toks.len(), 5); // let s = <str> ;
    }

    #[test]
    fn escaped_quotes_stay_inside_the_string() {
        let src = r#"let s = "he said \"hi\""; done"#;
        let toks = kinds(src);
        assert_eq!(toks[3].0, TokenKind::Str);
        assert_eq!(toks[4], (TokenKind::Punct, ";"));
        assert_eq!(toks[5], (TokenKind::Ident, "done"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r##"let s = r#"quote " inside"#; x"##;
        let toks = kinds(src);
        assert_eq!(toks[3], (TokenKind::RawStr, r##"r#"quote " inside"#"##));
        assert_eq!(toks[5], (TokenKind::Ident, "x"));
        // Zero-hash raw string and raw byte string.
        assert_eq!(kinds(r#"r"\n""#)[0].0, TokenKind::RawStr);
        assert_eq!(kinds(r###"br##"x"##"###)[0].0, TokenKind::RawStr);
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        assert_eq!(kinds(r#"b"bytes""#)[0].0, TokenKind::Str);
        assert_eq!(kinds("b'x'")[0].0, TokenKind::Char);
    }

    #[test]
    fn raw_idents() {
        let toks = kinds("r#match + other");
        assert_eq!(toks[0], (TokenKind::Ident, "r#match"));
        assert_eq!(toks[2], (TokenKind::Ident, "other"));
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let src = "a /* outer /* inner */ still comment */ b";
        let toks = kinds(src);
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[0], (TokenKind::Ident, "a"));
        assert_eq!(toks[1].0, TokenKind::BlockComment);
        assert_eq!(toks[2], (TokenKind::Ident, "b"));
    }

    #[test]
    fn line_comments_and_doc_comments() {
        let src = "/// doc\n//! inner\n// plain\ncode";
        let toks = kinds(src);
        assert_eq!(toks[0], (TokenKind::LineComment, "/// doc"));
        assert_eq!(toks[1], (TokenKind::LineComment, "//! inner"));
        assert_eq!(toks[2], (TokenKind::LineComment, "// plain"));
        assert_eq!(toks[3], (TokenKind::Ident, "code"));
    }

    #[test]
    fn lifetimes_versus_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokenKind::Lifetime).collect();
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Char).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars, vec![&(TokenKind::Char, "'x'"), &(TokenKind::Char, "'\\n'")]);
        assert_eq!(kinds("'static")[0], (TokenKind::Lifetime, "'static"));
    }

    #[test]
    fn numeric_literal_zoo() {
        use TokenKind::*;
        assert_eq!(kinds("17")[0], (Int, "17"));
        assert_eq!(kinds("0xDEAD_BEEF")[0], (Int, "0xDEAD_BEEF"));
        assert_eq!(kinds("0b1010u8")[0], (Int, "0b1010u8"));
        assert_eq!(kinds("1_000_000usize")[0], (Int, "1_000_000usize"));
        assert_eq!(kinds("0.5")[0], (Float, "0.5"));
        assert_eq!(kinds("1e-3")[0], (Float, "1e-3"));
        assert_eq!(kinds("2.5E+10")[0], (Float, "2.5E+10"));
        assert_eq!(kinds("1f64")[0], (Float, "1f64"));
        assert_eq!(kinds("2f64.powi(53)")[0], (Float, "2f64"));
        // `1.` is a float; `1.max(2)` keeps the int and the method call.
        assert_eq!(kinds("1. + x")[0], (Float, "1."));
        let toks = kinds("1.max(2)");
        assert_eq!(toks[0], (Int, "1"));
        assert_eq!(toks[1], (Punct, "."));
        assert_eq!(toks[2], (Ident, "max"));
        // Range expressions keep both ints.
        let toks = kinds("0..n");
        assert_eq!(toks[0], (Int, "0"));
        assert_eq!(toks[1], (Punct, ".."));
    }

    #[test]
    fn compound_operators_are_single_tokens() {
        let texts: Vec<&str> =
            lex("a == b != c >= d ..= e :: f -> g => h").iter().map(|t| t.text("a == b != c >= d ..= e :: f -> g => h")).collect();
        assert!(texts.contains(&"=="));
        assert!(texts.contains(&"!="));
        assert!(texts.contains(&">="));
        assert!(texts.contains(&"..="));
        assert!(texts.contains(&"::"));
        assert!(texts.contains(&"->"));
        assert!(texts.contains(&"=>"));
    }

    #[test]
    fn line_and_column_spans() {
        let src = "fn a() {}\n  let x = \"s\";\n}";
        let toks = lex(src);
        let at = |text: &str| toks.iter().find(|t| t.text(src) == text).unwrap();
        assert_eq!((at("fn").line, at("fn").col), (1, 1));
        assert_eq!((at("let").line, at("let").col), (2, 3));
        assert_eq!(at("\"s\"").line, 2);
        // Multi-line tokens advance the line counter for successors.
        let src2 = "a /* x\ny */ b";
        let toks2 = lex(src2);
        assert_eq!(toks2[2].text(src2), "b");
        assert_eq!(toks2[2].line, 2);
    }

    #[test]
    fn raw_strings_with_many_hashes_lex_as_single_tokens() {
        // Multi-`#` raw strings, including an inner quote followed by
        // *fewer* hashes than the delimiter, stay one token.
        let src = r####"let s = r###"a "# b "## c"###; tail"####;
        let toks = kinds(src);
        assert_eq!(toks[3], (TokenKind::RawStr, r####"r###"a "# b "## c"###"####));
        assert_eq!(toks[5], (TokenKind::Ident, "tail"));
        // Raw *byte* strings with multiple hashes likewise.
        let src2 = r###"br##"x "# y"## z"###;
        let toks2 = kinds(src2);
        assert_eq!(toks2[0], (TokenKind::RawStr, r###"br##"x "# y"##"###));
        assert_eq!(toks2[1], (TokenKind::Ident, "z"));
    }

    #[test]
    fn byte_and_raw_byte_strings_lex_with_exact_spans() {
        let src = r#"let a = b"by\"tes"; let b = br"raw"; end"#;
        let toks = lex(src);
        let strs: Vec<_> = toks
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Str | TokenKind::RawStr))
            .collect();
        assert_eq!(strs.len(), 2);
        assert_eq!(strs[0].text(src), r#"b"by\"tes""#);
        assert_eq!(strs[1].text(src), r#"br"raw""#);
        assert_eq!(toks.last().map(|t| t.text(src)), Some("end"));
    }

    #[test]
    fn nested_block_comments_inside_macro_bodies() {
        let src = "m! { /* a /* b */ still */ x }";
        let toks = kinds(src);
        assert_eq!(
            toks,
            vec![
                (TokenKind::Ident, "m"),
                (TokenKind::Punct, "!"),
                (TokenKind::Punct, "{"),
                (TokenKind::BlockComment, "/* a /* b */ still */"),
                (TokenKind::Ident, "x"),
                (TokenKind::Punct, "}"),
            ]
        );
    }

    #[test]
    fn float_literals_with_suffixed_exponents() {
        assert_eq!(kinds("1e3f64")[0], (TokenKind::Float, "1e3f64"));
        assert_eq!(kinds("2E5f32")[0], (TokenKind::Float, "2E5f32"));
        assert_eq!(kinds("1.5e-3f64")[0], (TokenKind::Float, "1.5e-3f64"));
        assert_eq!(kinds("7e2f32.ln()")[0], (TokenKind::Float, "7e2f32"));
        // The suffix stays inside the literal: exactly one token plus
        // whatever follows.
        let toks = kinds("1e3f64 + x");
        assert_eq!(toks.len(), 3);
    }

    #[test]
    fn unterminated_tokens_run_to_eof_without_panicking() {
        assert_eq!(lex("\"never closed").len(), 1);
        assert_eq!(lex("/* never closed").len(), 1);
        assert_eq!(lex("r#\"never closed").len(), 1);
        assert_eq!(lex("'x").len(), 1); // degrades to a lifetime token
    }

    #[test]
    fn lexer_is_lossless_over_nontrivial_source() {
        // Every byte of input is either whitespace or inside exactly one
        // token span, in order.
        let src = "fn f() -> f64 { let s = \"//\"; /* '\"' */ 0.5e1 }";
        let toks = lex(src);
        let mut pos = 0;
        for t in &toks {
            assert!(t.start >= pos, "overlapping tokens");
            assert!(src[pos..t.start].chars().all(char::is_whitespace));
            pos = t.end;
        }
        assert!(src[pos..].chars().all(char::is_whitespace));
    }
}

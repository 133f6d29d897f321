//! Indentation-aware lexer for Scenic.
//!
//! Follows the Python layout rules the paper's implementation inherits:
//! `#` comments, blank lines ignored, `\` line continuations, implicit
//! continuation inside brackets, and INDENT/DEDENT tokens computed from
//! leading whitespace.

use crate::error::{ParseError, ParseResult};
use crate::token::{Pos, Token, TokenKind};

/// Lexes a full Scenic source into a token stream (ending with
/// [`TokenKind::Eof`]).
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed numbers, unterminated strings,
/// inconsistent dedents, or unexpected characters.
pub fn lex(source: &str) -> ParseResult<Vec<Token>> {
    Lexer::new(source).run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    tokens: Vec<Token>,
    indents: Vec<u32>,
    paren_depth: u32,
    at_line_start: bool,
}

impl Lexer {
    fn new(source: &str) -> Self {
        Lexer {
            chars: source.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            tokens: Vec::new(),
            indents: vec![0],
            paren_depth: 0,
            at_line_start: true,
        }
    }

    fn here(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, pos: Pos) {
        self.tokens.push(Token { kind, pos });
    }

    fn run(mut self) -> ParseResult<Vec<Token>> {
        while self.pos < self.chars.len() {
            if self.at_line_start && self.paren_depth == 0 {
                self.handle_indentation()?;
                if self.pos >= self.chars.len() {
                    break;
                }
            }
            let pos = self.here();
            let c = match self.peek() {
                Some(c) => c,
                None => break,
            };
            match c {
                ' ' | '\t' | '\r' => {
                    self.bump();
                }
                '#' => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                '\\' if self.peek2() == Some('\n') || (self.peek2() == Some('\r')) => {
                    // Explicit line continuation: swallow the backslash
                    // and the newline.
                    self.bump();
                    while matches!(self.peek(), Some('\r')) {
                        self.bump();
                    }
                    if self.peek() == Some('\n') {
                        self.bump();
                    }
                }
                '\n' => {
                    self.bump();
                    if self.paren_depth == 0 {
                        // Collapse repeated newlines.
                        if !matches!(
                            self.tokens.last().map(|t| &t.kind),
                            Some(TokenKind::Newline) | Some(TokenKind::Indent) | None
                        ) {
                            self.push(TokenKind::Newline, pos);
                        }
                        self.at_line_start = true;
                    }
                }
                '0'..='9' => self.lex_number(pos)?,
                '.' if matches!(self.peek2(), Some('0'..='9')) => self.lex_number(pos)?,
                '\'' | '"' => self.lex_string(pos)?,
                c if c.is_alphabetic() || c == '_' => self.lex_word(pos),
                _ => self.lex_punct(pos)?,
            }
        }
        // Terminate: final newline + outstanding dedents.
        let pos = self.here();
        if !matches!(
            self.tokens.last().map(|t| &t.kind),
            Some(TokenKind::Newline) | None
        ) {
            self.push(TokenKind::Newline, pos);
        }
        while self.indents.len() > 1 {
            self.indents.pop();
            self.push(TokenKind::Dedent, pos);
        }
        self.push(TokenKind::Eof, pos);
        Ok(self.tokens)
    }

    fn handle_indentation(&mut self) -> ParseResult<()> {
        loop {
            // Measure leading whitespace of the upcoming line.
            let mut width = 0u32;
            loop {
                match self.peek() {
                    Some(' ') => {
                        width += 1;
                        self.bump();
                    }
                    Some('\t') => {
                        width += 8 - width % 8;
                        self.bump();
                    }
                    Some('\r') => {
                        self.bump();
                    }
                    _ => break,
                }
            }
            match self.peek() {
                // Blank or comment-only lines don't affect indentation.
                Some('\n') => {
                    self.bump();
                    continue;
                }
                Some('#') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                    continue;
                }
                None => {
                    self.at_line_start = false;
                    return Ok(());
                }
                _ => {}
            }
            let pos = self.here();
            let current = *self.indents.last().expect("indent stack nonempty");
            if width > current {
                self.indents.push(width);
                self.push(TokenKind::Indent, pos);
            } else if width < current {
                while *self.indents.last().unwrap() > width {
                    self.indents.pop();
                    self.push(TokenKind::Dedent, pos);
                }
                if *self.indents.last().unwrap() != width {
                    return Err(ParseError::new(
                        "unindent does not match any outer indentation level",
                        pos,
                    ));
                }
            }
            self.at_line_start = false;
            return Ok(());
        }
    }

    fn lex_number(&mut self, pos: Pos) -> ParseResult<()> {
        let start = self.pos;
        while matches!(self.peek(), Some('0'..='9')) {
            self.bump();
        }
        if self.peek() == Some('.') && matches!(self.peek2(), Some('0'..='9')) {
            self.bump();
            while matches!(self.peek(), Some('0'..='9')) {
                self.bump();
            }
        } else if self.peek() == Some('.') && !matches!(self.peek2(), Some('.')) {
            // Trailing dot as in `1.` — accept unless it's an attribute
            // access like `1.e` (we treat any following letter as a
            // fraction-less float exponent or error below).
            if !matches!(self.peek2(), Some(c) if c.is_alphabetic() || c == '_') {
                self.bump();
            }
        }
        if matches!(self.peek(), Some('e') | Some('E')) {
            let save = (self.pos, self.line, self.col);
            self.bump();
            if matches!(self.peek(), Some('+') | Some('-')) {
                self.bump();
            }
            if matches!(self.peek(), Some('0'..='9')) {
                while matches!(self.peek(), Some('0'..='9')) {
                    self.bump();
                }
            } else {
                // Not an exponent after all (e.g. `30 deg` => `30`,`deg`).
                (self.pos, self.line, self.col) = save;
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        let value: f64 = text
            .parse()
            .map_err(|_| ParseError::new(format!("invalid number literal `{text}`"), pos))?;
        self.push(TokenKind::Number(value), pos);
        Ok(())
    }

    fn lex_string(&mut self, pos: Pos) -> ParseResult<()> {
        let quote = self.bump().expect("string start");
        let mut out = String::new();
        loop {
            match self.bump() {
                None | Some('\n') => {
                    return Err(ParseError::new("unterminated string literal", pos));
                }
                Some('\\') => match self.bump() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('\\') => out.push('\\'),
                    Some(c) if c == quote => out.push(c),
                    Some(c) => {
                        out.push('\\');
                        out.push(c);
                    }
                    None => return Err(ParseError::new("unterminated string literal", pos)),
                },
                Some(c) if c == quote => break,
                Some(c) => out.push(c),
            }
        }
        self.push(TokenKind::Str(out), pos);
        Ok(())
    }

    fn lex_word(&mut self, pos: Pos) {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || c == '_') {
            self.bump();
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        let kind = TokenKind::keyword(&text).unwrap_or(TokenKind::Ident(text));
        self.push(kind, pos);
    }

    fn lex_punct(&mut self, pos: Pos) -> ParseResult<()> {
        let c = self.bump().expect("punct char");
        let kind = match c {
            '@' => TokenKind::AtSign,
            '(' => {
                self.paren_depth += 1;
                TokenKind::LParen
            }
            ')' => {
                self.paren_depth = self.paren_depth.saturating_sub(1);
                TokenKind::RParen
            }
            '[' => {
                self.paren_depth += 1;
                TokenKind::LBracket
            }
            ']' => {
                self.paren_depth = self.paren_depth.saturating_sub(1);
                TokenKind::RBracket
            }
            '{' => {
                self.paren_depth += 1;
                TokenKind::LBrace
            }
            '}' => {
                self.paren_depth = self.paren_depth.saturating_sub(1);
                TokenKind::RBrace
            }
            ',' => TokenKind::Comma,
            ':' => TokenKind::Colon,
            '.' => TokenKind::Dot,
            '=' if self.peek() == Some('=') => {
                self.bump();
                TokenKind::Eq
            }
            '=' => TokenKind::Assign,
            '!' if self.peek() == Some('=') => {
                self.bump();
                TokenKind::Ne
            }
            '<' if self.peek() == Some('=') => {
                self.bump();
                TokenKind::Le
            }
            '<' => TokenKind::Lt,
            '>' if self.peek() == Some('=') => {
                self.bump();
                TokenKind::Ge
            }
            '>' => TokenKind::Gt,
            '+' => TokenKind::Plus,
            '-' => TokenKind::Minus,
            '*' => TokenKind::Star,
            '/' => TokenKind::Slash,
            '%' => TokenKind::Percent,
            other => {
                return Err(ParseError::new(
                    format!("unexpected character `{other}`"),
                    pos,
                ));
            }
        };
        self.push(kind, pos);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn simple_assignment() {
        let ks = kinds("x = 3.5\n");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("x".into()),
                TokenKind::Assign,
                TokenKind::Number(3.5),
                TokenKind::Newline,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn vector_and_interval() {
        let ks = kinds("Car offset by (-10, 10) @ (20, 40)");
        assert!(ks.contains(&TokenKind::AtSign));
        assert!(ks.contains(&TokenKind::Ident("offset".into())));
        // `by` is contextual, so it lexes as an identifier.
        assert!(ks.contains(&TokenKind::Ident("by".into())));
    }

    #[test]
    fn indentation_tokens() {
        let src = "class Car:\n    position: 1\n    heading: 2\nego = Car\n";
        let ks = kinds(src);
        let indents = ks.iter().filter(|k| **k == TokenKind::Indent).count();
        let dedents = ks.iter().filter(|k| **k == TokenKind::Dedent).count();
        assert_eq!(indents, 1);
        assert_eq!(dedents, 1);
    }

    #[test]
    fn nested_indentation() {
        let src = "def f():\n    if True:\n        return 1\n    return 2\n";
        let ks = kinds(src);
        let indents = ks.iter().filter(|k| **k == TokenKind::Indent).count();
        let dedents = ks.iter().filter(|k| **k == TokenKind::Dedent).count();
        assert_eq!(indents, 2);
        assert_eq!(dedents, 2);
    }

    #[test]
    fn blank_lines_and_comments_ignored() {
        let src = "x = 1\n\n# a comment\n   # indented comment\ny = 2\n";
        let ks = kinds(src);
        assert!(!ks.contains(&TokenKind::Indent));
        assert_eq!(
            ks.iter()
                .filter(|k| matches!(k, TokenKind::Newline))
                .count(),
            2
        );
    }

    #[test]
    fn brackets_allow_newlines() {
        let src = "x = Uniform(1.0,\n    -1.0)\ny = 2\n";
        let ks = kinds(src);
        // No INDENT from the continuation line.
        assert!(!ks.contains(&TokenKind::Indent));
    }

    #[test]
    fn backslash_continuation() {
        let src = "heading: roadDirection \\\n    + 1\n";
        let ks = kinds(src);
        assert!(!ks.contains(&TokenKind::Indent));
        assert!(ks.contains(&TokenKind::Plus));
    }

    #[test]
    fn strings_both_quotes_and_escapes() {
        let ks = kinds("a = 'RAIN'\nb = \"sn\\\"ow\"\n");
        assert!(ks.contains(&TokenKind::Str("RAIN".into())));
        assert!(ks.contains(&TokenKind::Str("sn\"ow".into())));
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("x = 'oops\n").is_err());
    }

    #[test]
    fn inconsistent_dedent_errors() {
        let src = "if True:\n        x = 1\n    y = 2\n";
        assert!(lex(src).is_err());
    }

    #[test]
    fn comparison_operators() {
        let ks = kinds("a <= b >= c != d == e < f > g");
        assert!(ks.contains(&TokenKind::Le));
        assert!(ks.contains(&TokenKind::Ge));
        assert!(ks.contains(&TokenKind::Ne));
        assert!(ks.contains(&TokenKind::Eq));
        assert!(ks.contains(&TokenKind::Lt));
        assert!(ks.contains(&TokenKind::Gt));
    }

    #[test]
    fn numbers_with_exponents_and_units() {
        let ks = kinds("x = 1e3\ny = 2.5e-2\nz = 30 deg\n");
        assert!(ks.contains(&TokenKind::Number(1000.0)));
        assert!(ks.contains(&TokenKind::Number(0.025)));
        assert!(ks.contains(&TokenKind::Number(30.0)));
        assert!(ks.contains(&TokenKind::Ident("deg".into())));
    }

    #[test]
    fn keywords_vs_identifiers() {
        let ks = kinds("require car in road");
        assert_eq!(ks[0], TokenKind::Require);
        assert_eq!(ks[1], TokenKind::Ident("car".into()));
        assert_eq!(ks[2], TokenKind::In);
    }

    #[test]
    fn positions_are_tracked() {
        let toks = lex("x = 1\ny = 2\n").unwrap();
        assert_eq!(toks[0].pos, Pos { line: 1, col: 1 });
        let y = toks.iter().find(|t| t.kind.is_ident("y")).expect("y token");
        assert_eq!(y.pos, Pos { line: 2, col: 1 });
    }
}

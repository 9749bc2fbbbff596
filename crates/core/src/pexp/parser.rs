//! Recursive-descent parser for pattern expressions.
//!
//! Grammar (highest to lowest precedence):
//!
//! ```text
//! primary := '.' '^'? | IDENT ('^')? ('=')? | '(' alt ')' | '[' alt ']'
//! postfix := primary ('*' | '+' | '?' | '{' bounds '}')*
//! concat  := postfix+
//! alt     := concat ('|' concat)*
//! ```
//!
//! Nesting — groups open at once, and the height of the parsed tree
//! counted in capture groups and postfix operators — is capped at
//! [`MAX_NESTING`] levels, and counted repetition at [`MAX_REPEAT`]
//! copies along any path.

use super::lexer::{Lexer, Token};
use super::PatEx;
use crate::error::{Error, Result};

/// Deepest nesting the parser accepts: at most this many groups open at
/// once, and at most this many capture groups and postfix operators on
/// any root-to-leaf path of the tree. Parsing, compiling, printing and
/// dropping a [`PatEx`] each recurse once per level, so unbounded nesting
/// lets one hostile expression (say, 100 000 nested parentheses, or
/// `[a*]**` stacked level upon level) overflow the stack — an abort that
/// `catch_unwind` cannot contain. Each concatenation or alternation node
/// on a path is the body of a distinct enclosing group (or the whole
/// expression), so the tree is at most about three times this deep.
pub const MAX_NESTING: usize = 256;

/// Most copies of a fragment that counted repetition may ask for: the
/// product of the copy counts of the `{n,m}` operators (`max(n, m)` for
/// `{n,m}`, `n` for `{n,}`) on any root-to-leaf path of the tree.
/// Compilation unrolls one copy of the inner fragment per repetition,
/// before any budget or deadline applies, so without a cap `a{4000000000}`
/// or `((a1|b){1,200}){1,200}` would build billions or tens of thousands
/// of copies from a dozen bytes. Every constraint of the paper stays far
/// below the cap (the largest product in Tab. III is 16).
pub const MAX_REPEAT: usize = 256;

pub(super) fn parse(input: &str) -> Result<PatEx> {
    let tokens = Lexer::new(input).tokenize()?;
    let mut p = Parser {
        tokens,
        pos: 0,
        input_len: input.len(),
        open: 0,
    };
    let (e, _) = p.alt()?;
    if let Some((tok, at)) = p.peek_with_pos() {
        return Err(Error::Parse {
            msg: format!("unexpected {tok:?}"),
            pos: at,
        });
    }
    Ok(e)
}

/// What the parser bounds about a subtree: its height (see
/// [`MAX_NESTING`]) and the largest product of repetition copy counts on
/// any of its root-to-leaf paths (see [`MAX_REPEAT`]).
#[derive(Debug, Clone, Copy)]
struct Size {
    height: usize,
    copies: usize,
}

impl Size {
    const LEAF: Size = Size {
        height: 0,
        copies: 1,
    };

    /// The bound of siblings: the worse of each.
    fn max(self, other: Size) -> Size {
        Size {
            height: self.height.max(other.height),
            copies: self.copies.max(other.copies),
        }
    }

    /// The subtree wrapped by the capture group or operator at byte `at`.
    fn wrap(self, at: usize) -> Result<Size> {
        if self.height == MAX_NESTING {
            return Err(too_deep(at));
        }
        Ok(Size {
            height: self.height + 1,
            ..self
        })
    }

    /// The subtree unrolled `n` times by the repetition at byte `at`.
    fn repeat(self, n: u32, at: usize) -> Result<Size> {
        let copies = self.copies.saturating_mul(n.max(1) as usize);
        if copies > MAX_REPEAT {
            return Err(Error::Parse {
                msg: format!("counted repetition makes more than {MAX_REPEAT} copies"),
                pos: at,
            });
        }
        Ok(Size { copies, ..self })
    }
}

fn too_deep(at: usize) -> Error {
    Error::Parse {
        msg: format!("nesting deeper than {MAX_NESTING} levels"),
        pos: at,
    }
}

/// Each parsing method returns its subtree with the subtree's [`Size`].
struct Parser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
    input_len: usize,
    /// Groups opened and not yet closed. Bounded separately from the
    /// height, which is known only once a group closes, because the
    /// parser itself recurses once per open group.
    open: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn peek_with_pos(&self) -> Option<(&Token, usize)> {
        self.tokens.get(self.pos).map(|(t, p)| (t, *p))
    }

    fn here(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|(_, p)| *p)
            .unwrap_or(self.input_len)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Token) -> Result<()> {
        match self.peek() {
            Some(t) if t == want => {
                self.pos += 1;
                Ok(())
            }
            other => Err(Error::Parse {
                msg: format!("expected {want:?}, found {other:?}"),
                pos: self.here(),
            }),
        }
    }

    fn alt(&mut self) -> Result<(PatEx, Size)> {
        let (first, mut size) = self.concat()?;
        let mut branches = vec![first];
        while matches!(self.peek(), Some(Token::Pipe)) {
            self.bump();
            let (b, bs) = self.concat()?;
            branches.push(b);
            size = size.max(bs);
        }
        let e = if branches.len() == 1 {
            branches.pop().unwrap()
        } else {
            PatEx::Alt(branches)
        };
        Ok((e, size))
    }

    fn concat(&mut self) -> Result<(PatEx, Size)> {
        let (first, mut size) = self.postfix()?;
        let mut factors = vec![first];
        while self.starts_primary() {
            let (f, fs) = self.postfix()?;
            factors.push(f);
            size = size.max(fs);
        }
        let e = if factors.len() == 1 {
            factors.pop().unwrap()
        } else {
            PatEx::Concat(factors)
        };
        Ok((e, size))
    }

    fn starts_primary(&self) -> bool {
        matches!(
            self.peek(),
            Some(Token::Dot | Token::Ident(_) | Token::LParen | Token::LBracket)
        )
    }

    fn postfix(&mut self) -> Result<(PatEx, Size)> {
        let (mut e, mut size) = self.primary()?;
        loop {
            let at = self.here();
            e = match self.peek() {
                Some(Token::Star) => {
                    self.bump();
                    PatEx::Star(Box::new(e))
                }
                Some(Token::Plus) => {
                    self.bump();
                    PatEx::Plus(Box::new(e))
                }
                Some(Token::Question) => {
                    self.bump();
                    PatEx::Optional(Box::new(e))
                }
                Some(Token::LBrace) => {
                    self.bump();
                    let (min, max) = self.bounds(at)?;
                    size = size.repeat(max.unwrap_or(min), at)?;
                    PatEx::Range {
                        inner: Box::new(e),
                        min,
                        max,
                    }
                }
                _ => break,
            };
            size = size.wrap(at)?;
        }
        Ok((e, size))
    }

    /// Parses `n`, `n,`, `n,m` or `,m` followed by `}`.
    fn bounds(&mut self, at: usize) -> Result<(u32, Option<u32>)> {
        let min = match self.peek() {
            Some(Token::Number(n)) => {
                let n = *n;
                self.bump();
                Some(n)
            }
            _ => None,
        };
        let (min, max) = if matches!(self.peek(), Some(Token::Comma)) {
            self.bump();
            let max = match self.peek() {
                Some(Token::Number(m)) => {
                    let m = *m;
                    self.bump();
                    Some(m)
                }
                _ => None,
            };
            match (min, max) {
                (None, None) => {
                    return Err(Error::Parse {
                        msg: "empty repetition bounds".into(),
                        pos: at,
                    })
                }
                (mn, mx) => (mn.unwrap_or(0), mx),
            }
        } else {
            match min {
                Some(n) => (n, Some(n)),
                None => {
                    return Err(Error::Parse {
                        msg: "empty repetition bounds".into(),
                        pos: at,
                    })
                }
            }
        };
        if let Some(m) = max {
            if m < min {
                return Err(Error::Parse {
                    msg: format!("repetition maximum {m} below minimum {min}"),
                    pos: at,
                });
            }
        }
        self.expect(&Token::RBrace)?;
        Ok((min, max))
    }

    fn primary(&mut self) -> Result<(PatEx, Size)> {
        let at = self.here();
        match self.bump() {
            Some(Token::Dot) => {
                let up = self.eat_up();
                if matches!(self.peek(), Some(Token::Eq)) {
                    return Err(Error::Parse {
                        msg: "'.' cannot take '='".into(),
                        pos: at,
                    });
                }
                Ok((PatEx::Dot { up }, Size::LEAF))
            }
            Some(Token::Ident(name)) => {
                let up = self.eat_up();
                let exact = self.eat_eq();
                Ok((PatEx::Item { name, exact, up }, Size::LEAF))
            }
            Some(Token::LParen) => {
                let (inner, size) = self.group(at, &Token::RParen)?;
                Ok((PatEx::Capture(Box::new(inner)), size.wrap(at)?))
            }
            Some(Token::LBracket) => self.group(at, &Token::RBracket),
            other => Err(Error::Parse {
                msg: format!("expected item, '.', '(' or '[', found {other:?}"),
                pos: at,
            }),
        }
    }

    /// Parses the body of the group opened at byte `at` up to `close`.
    fn group(&mut self, at: usize, close: &Token) -> Result<(PatEx, Size)> {
        if self.open == MAX_NESTING {
            return Err(too_deep(at));
        }
        self.open += 1;
        let (inner, size) = self.alt()?;
        self.expect(close)?;
        self.open -= 1;
        Ok((inner, size))
    }

    fn eat_up(&mut self) -> bool {
        if matches!(self.peek(), Some(Token::Up)) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_eq(&mut self) -> bool {
        if matches!(self.peek(), Some(Token::Eq)) {
            self.bump();
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::PatEx;
    use super::{MAX_NESTING, MAX_REPEAT};
    use crate::Error;

    #[test]
    fn capture_groups_versus_brackets() {
        let cap = PatEx::parse("(a b)").unwrap();
        assert!(matches!(cap, PatEx::Capture(_)));
        let grp = PatEx::parse("[a b]").unwrap();
        assert!(matches!(grp, PatEx::Concat(_)));
    }

    #[test]
    fn postfix_chains() {
        // a*? = Optional(Star(a))
        let e = PatEx::parse("a*?").unwrap();
        assert!(matches!(e, PatEx::Optional(inner) if matches!(*inner, PatEx::Star(_))));
    }

    #[test]
    fn nested_ranges() {
        let e = PatEx::parse("[a{1,2}]{3}").unwrap();
        match e {
            PatEx::Range {
                inner,
                min: 3,
                max: Some(3),
            } => {
                assert!(matches!(
                    *inner,
                    PatEx::Range {
                        min: 1,
                        max: Some(2),
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_positions_point_at_problem() {
        let err = PatEx::parse("abc )").unwrap_err();
        match err {
            crate::Error::Parse { pos, .. } => assert_eq!(pos, 4),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deeply_nested_ok() {
        let mut s = String::new();
        for _ in 0..200 {
            s.push('[');
        }
        s.push('a');
        for _ in 0..200 {
            s.push(']');
        }
        assert!(PatEx::parse(&s).is_ok());
    }

    /// Runs `f` on a 2 MiB thread: the default for spawned threads, and
    /// so for a server's connection threads.
    fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap()
    }

    /// 100 000 nested parentheses must not overflow the stack (an abort
    /// `catch_unwind` cannot contain): they are a parse error at the first
    /// group past the limit.
    #[test]
    fn hostile_nesting_is_a_parse_error_not_a_stack_overflow() {
        let depth = 100_000;
        let s = format!("{}a{}", "(".repeat(depth), ")".repeat(depth));
        match on_small_stack(move || PatEx::parse(&s).unwrap_err()) {
            Error::Parse { pos, msg } => {
                assert_eq!(pos, MAX_NESTING, "{msg}");
                assert!(msg.contains("nesting"), "{msg}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Never more than MAX_NESTING groups open at once, but operators
        // stacked inside and after each group: `[`×255, `a`, then per
        // closing level d a run of 256−d `*` and a `]` — a tree about
        // 33 000 levels high if the operators went uncounted.
        let mut s = "[".repeat(MAX_NESTING - 1) + "a";
        for d in (1..MAX_NESTING).rev() {
            s += &"*".repeat(MAX_NESTING - d);
            s.push(']');
        }
        match on_small_stack(move || PatEx::parse(&s).unwrap_err()) {
            Error::Parse { msg, .. } => assert!(msg.contains("nesting"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The deepest trees the parser accepts — each counted level also
    /// carrying an alternation and a concatenation node — parse, compile,
    /// print and drop on a 2 MiB stack.
    #[test]
    fn deepest_accepted_trees_compile_on_a_small_stack() {
        let mut groups = "a1".to_string();
        for _ in 0..MAX_NESTING {
            groups = format!("(a1|b {groups})");
        }
        let stars = format!("[a1 b]{}", "*".repeat(MAX_NESTING - 1));
        on_small_stack(move || {
            let fx = crate::toy::fixture();
            for s in [groups, stars] {
                let e = PatEx::parse(&s).unwrap();
                crate::fst::Fst::compile(&e, &fx.dict).unwrap();
                assert_eq!(PatEx::parse(&e.to_string()).unwrap(), e);
            }
        });
    }

    #[test]
    fn nesting_limit_counts_groups_and_stacked_operators() {
        let at_limit = format!("{}a{}", "[".repeat(MAX_NESTING), "]".repeat(MAX_NESTING));
        assert!(PatEx::parse(&at_limit).is_ok());
        // One more enclosing group: the innermost bracket is one too deep.
        let past = format!("({at_limit})");
        let err = PatEx::parse(&past).unwrap_err();
        assert!(
            matches!(err, Error::Parse { pos, .. } if pos == MAX_NESTING),
            "{err:?}"
        );
        // Postfix operators each wrap one more level around their operand.
        let stars = format!("a{}", "*".repeat(MAX_NESTING));
        assert!(PatEx::parse(&stars).is_ok());
        let more = format!("{stars}?");
        let err = PatEx::parse(&more).unwrap_err();
        assert!(
            matches!(err, Error::Parse { pos, .. } if pos == MAX_NESTING + 1),
            "{err:?}"
        );
        // ... and so does a capture group around them, though only one
        // group is open; a bracket makes no node and adds no level.
        let err = PatEx::parse(&format!("({stars})")).unwrap_err();
        assert!(matches!(err, Error::Parse { pos: 0, .. }), "{err:?}");
        assert!(PatEx::parse(&format!("[{stars}]")).is_ok());
        // Operators after a group add to the levels inside it.
        let half = MAX_NESTING / 2;
        let inside = format!("{}a{}", "(".repeat(half), ")".repeat(half));
        assert!(PatEx::parse(&format!("{inside}{}", "+".repeat(half))).is_ok());
        let err = PatEx::parse(&format!("{inside}{}", "+".repeat(half + 1))).unwrap_err();
        assert!(
            matches!(err, Error::Parse { pos, .. } if pos == 2 * half + 1 + half),
            "{err:?}"
        );
        // Siblings do not add up.
        let siblings = format!("{at_limit} {at_limit}");
        assert!(PatEx::parse(&siblings).is_ok());
    }

    /// Counted-repetition bombs are a parse error at their `{` before any
    /// copy is compiled; shapes up to the cap parse (and compile).
    #[test]
    fn counted_repetition_is_capped_along_each_path() {
        for (bomb, at) in [
            ("a{4000000000}", 1),
            ("(a1|b){1,20000}", 6),
            ("((a1|b){1,200}){1,200}", 15),
            ("[a{16}]{17}", 7),
            ("[a{0,16}]{17,}", 9),
        ] {
            match PatEx::parse(bomb).unwrap_err() {
                Error::Parse { pos, msg } => {
                    assert_eq!(pos, at, "{bomb}: {msg}");
                    assert!(msg.contains("repetition"), "{bomb}: {msg}");
                }
                other => panic!("{bomb}: unexpected {other:?}"),
            }
        }
        let fx = crate::toy::fixture();
        for ok in [
            format!("(a1|b){{1,{MAX_REPEAT}}}"),
            format!("[a1{{{MAX_REPEAT},}}]*"),
            "[a1{16}]{16}".to_string(),
            "[a1{0}]{256}".to_string(),
            // Siblings do not multiply.
            "a1{200} b{200} [a1|b]{200}".to_string(),
        ] {
            let e = PatEx::parse(&ok).unwrap_or_else(|err| panic!("{ok}: {err}"));
            crate::fst::Fst::compile(&e, &fx.dict).unwrap();
        }
    }
}

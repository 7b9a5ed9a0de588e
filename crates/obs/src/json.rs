//! The workspace's one JSON reader, one string escaper and one integer
//! writer.
//!
//! The formats read back here — trace JSONL lines and `.schedule.json`
//! artifacts — are flat: objects of unsigned integers, strings and
//! `null`, plus arrays of integers. [`Reader`] is a pull-style cursor
//! over exactly that subset, plus the unsigned decimals this crate's
//! writers print (Chrome `ts`/`dur`, the means of the reports), read
//! only where a caller asks for one: the caller asks for the token it
//! expects and gets it or an [`Error`] carrying the byte offset, so
//! hostile input degrades to a positioned message, never a panic.
//! Writers share [`esc`] for string literals; the per-event ones
//! (`export.rs`) append byte literals and `push_u64`'s digits to a
//! reused byte chunk, the once-per-run ones stay `format!`-built.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// Escape `s` for inclusion in a JSON string literal. The inverse of
/// [`Reader::string`]: every `char` round-trips exactly.
pub fn esc(s: &str) -> String {
    Escaped(s).to_string()
}

/// [`esc`] in place: displays the escaped text, for a writer that
/// would otherwise allocate an escaped copy per line.
pub(crate) struct Escaped<'a>(pub(crate) &'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        Ok(())
    }
}

/// Append `n` in decimal — `write!(out, "{n}")` without the formatter.
pub(crate) fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[at..]);
}

/// Where reading stopped and what was needed there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Error {
    /// Byte offset into the input.
    pub at: usize,
    /// What the reader needed to find there.
    pub expected: &'static str,
}

/// `expected … at byte N`; lets `?` surface a reader error from the
/// workspace's `Result<_, String>` parsers.
impl From<Error> for String {
    fn from(e: Error) -> String {
        format!("expected {} at byte {}", e.expected, e.at)
    }
}

/// A scalar of the subset: what [`Reader::value`] returns when the
/// caller does not know the type in advance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value<'a> {
    /// An unsigned integer.
    Num(u64),
    /// A string (borrowed from the input unless it contained escapes).
    Str(Cow<'a, str>),
    /// `null`.
    Null,
}

impl Value<'_> {
    /// The integer, if this is one.
    pub fn as_num(&self) -> Option<u64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Pull-style cursor over JSON text. Every method skips leading
/// whitespace. Containers are walked with [`Reader::begin`] then
/// `while r.more(close)? { … }`; an inner container must be consumed
/// before the outer one continues.
pub struct Reader<'a> {
    s: &'a str,
    /// Always on a char boundary: the cursor only steps over ASCII
    /// bytes or to the ASCII `"`/`\` that ends a run of string bytes.
    i: usize,
    /// Just past a container's opening bracket: no `,` precedes the
    /// first element.
    fresh: bool,
}

impl<'a> Reader<'a> {
    /// Start reading `text` at byte 0.
    pub fn new(text: &'a str) -> Self {
        Reader { s: text, i: 0, fresh: false }
    }

    fn err<T>(&self, expected: &'static str) -> Result<T, Error> {
        Err(Error { at: self.i, expected })
    }

    fn peek(&mut self) -> Option<u8> {
        let b = self.s.as_bytes();
        while b.get(self.i).is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
        b.get(self.i).copied()
    }

    /// Consume `byte` if it is the next token.
    fn eat(&mut self, byte: u8) -> bool {
        let found = self.peek() == Some(byte);
        self.i += found as usize;
        found
    }

    /// Consume a container's opening bracket (`{` or `[`).
    pub fn begin(&mut self, open: u8) -> Result<(), Error> {
        self.fresh = self.eat(open);
        if self.fresh {
            Ok(())
        } else {
            self.err("an opening bracket")
        }
    }

    /// Advance to the container's next element: `true` with the cursor
    /// on it (the separating `,` consumed), or `false` with `close`
    /// (`}` or `]`) consumed.
    pub fn more(&mut self, close: u8) -> Result<bool, Error> {
        let fresh = std::mem::take(&mut self.fresh);
        if self.eat(close) {
            Ok(false)
        } else if fresh || self.eat(b',') {
            Ok(true)
        } else {
            self.err("`,` or a closing bracket")
        }
    }

    /// An object key and its `:`.
    pub fn key(&mut self) -> Result<Cow<'a, str>, Error> {
        let key = self.string()?;
        if self.eat(b':') {
            Ok(key)
        } else {
            self.err("`:`")
        }
    }

    /// A string literal, unescaped. Raw control characters are let
    /// through; escapes are `\" \\ \/ \b \f \n \r \t` and `\uXXXX` for a
    /// scalar value (what [`esc`] writes; no surrogate pairs).
    pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        if !self.eat(b'"') {
            return self.err("a string");
        }
        let mut start = self.i;
        let mut owned = String::new();
        loop {
            match self.s.as_bytes().get(self.i) {
                None => return self.err("a closing `\"`"),
                Some(b'"') => {
                    let tail = &self.s[start..self.i];
                    self.i += 1;
                    let whole = if owned.is_empty() { tail.into() } else { (owned + tail).into() };
                    return Ok(whole);
                }
                Some(b'\\') => {
                    owned.push_str(&self.s[start..self.i]);
                    let (c, len) = self.escape()?;
                    owned.push(c);
                    self.i += len;
                    start = self.i;
                }
                Some(_) => self.i += 1,
            }
        }
    }

    /// The character the escape under the cursor (on its `\\`) stands
    /// for, and the escape's length in bytes.
    fn escape(&self) -> Result<(char, usize), Error> {
        let rest = &self.s[self.i + 1..];
        Ok(match rest.as_bytes().first() {
            Some(&c @ (b'"' | b'\\' | b'/')) => (c as char, 2),
            Some(b'b') => ('\u{8}', 2),
            Some(b'f') => ('\u{c}', 2),
            Some(b'n') => ('\n', 2),
            Some(b'r') => ('\r', 2),
            Some(b't') => ('\t', 2),
            Some(b'u') => {
                let hex = rest.get(1..5).filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                let code = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
                match code.and_then(char::from_u32) {
                    Some(c) => (c, 6),
                    None => return self.err("`\\u` and the four hex digits of a scalar value"),
                }
            }
            _ => return self.err("a JSON escape"),
        })
    }

    /// An unsigned integer that fits `T`.
    pub fn num<T: std::str::FromStr>(&mut self) -> Result<T, Error> {
        self.peek();
        let digits = self.s[self.i..].bytes().take_while(u8::is_ascii_digit).count();
        match self.s[self.i..self.i + digits].parse() {
            Ok(n) => {
                self.i += digits;
                Ok(n)
            }
            Err(_) => self.err("an unsigned number that fits its field"),
        }
    }

    /// An unsigned decimal — digits, then optionally `.` and more
    /// digits — as this crate writes one: a Chrome timestamp or
    /// duration (`{:.3}` of microseconds), a report's `{:.1}` or
    /// `{:.3}` mean. [`Reader::value`] does not take a fraction, so what
    /// the trace importer accepts does not depend on this.
    pub fn decimal(&mut self) -> Result<f64, Error> {
        self.peek();
        let rest = &self.s.as_bytes()[self.i..];
        let int = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        let frac = match rest.get(int) {
            Some(b'.') => rest[int + 1..].iter().take_while(|b| b.is_ascii_digit()).count(),
            _ => 0,
        };
        let len = if frac > 0 { int + 1 + frac } else { int };
        match self.s[self.i..self.i + len].parse() {
            Ok(x) if int > 0 => {
                self.i += len;
                Ok(x)
            }
            _ => self.err("an unsigned decimal"),
        }
    }

    /// Whichever scalar comes next.
    pub fn value(&mut self) -> Result<Value<'a>, Error> {
        match self.peek() {
            Some(b'"') => self.string().map(Value::Str),
            Some(b'0'..=b'9') => self.num().map(Value::Num),
            Some(b'n') if self.s[self.i..].starts_with("null") => {
                self.i += 4;
                Ok(Value::Null)
            }
            _ => self.err("a number, a string or `null`"),
        }
    }

    /// Require that only whitespace remains.
    pub fn end(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => self.err("end of input"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn string(text: &str) -> Result<String, Error> {
        Reader::new(text).string().map(Cow::into_owned)
    }

    #[test]
    fn esc_and_string_are_inverses_on_every_char_class() {
        for s in ["", "plain", "a\"b\\c\nd\re\tf", "\u{0}\u{1}\u{1f}", "naïve/путь/道.rvm", "😀"]
        {
            let lit = format!("\"{}\"", esc(s));
            assert!(lit.chars().all(|c| c as u32 >= 0x20), "control char escaped: {lit:?}");
            assert_eq!(string(&lit).as_deref(), Ok(s), "{lit}");
        }
        assert_eq!(esc("\u{1}"), "\\u0001");
        // Unescaped strings borrow from the input.
        assert!(matches!(Reader::new("\"abc\"").string(), Ok(Cow::Borrowed("abc"))));
    }

    #[test]
    fn push_u64_writes_what_display_writes() {
        let mut edges = vec![0, u64::MAX];
        for exp in 0..20 {
            let p = 10u64.pow(exp);
            edges.extend([p - 1, p, p.saturating_add(1)]);
        }
        for n in edges {
            let mut out = b"x".to_vec();
            push_u64(&mut out, n);
            assert_eq!(out, format!("x{n}").into_bytes());
        }
    }

    #[test]
    fn every_json_escape_is_understood() {
        assert_eq!(
            string(r#""\" \\ \/ \b \f \n \r \t \u0041 \u00e9""#).unwrap(),
            "\" \\ / \u{8} \u{c} \n \r \t A é"
        );
        assert_eq!(string(r#""\q""#), Err(Error { at: 1, expected: "a JSON escape" }));
        for bad in [r#""\u12"#, r#""\u12""#, r#""\u+123""#, r#""\ud83d""#, r#""\u00é""#] {
            assert_eq!(string(bad).unwrap_err().at, 1, "{bad}");
        }
        assert_eq!(string("\"open"), Err(Error { at: 5, expected: "a closing `\"`" }));
        assert_eq!(string("\"dangling\\").unwrap_err().at, 9);
    }

    #[test]
    fn numbers_are_unsigned_and_overflow_is_positioned() {
        assert_eq!(Reader::new(" 18446744073709551615").num(), Ok(u64::MAX));
        assert_eq!(Reader::new(" 18446744073709551616").num::<u64>().unwrap_err().at, 1);
        assert_eq!(Reader::new("4294967295").num(), Ok(u32::MAX));
        let mut r = Reader::new("[1, 4294967296]");
        r.begin(b'[').unwrap();
        assert_eq!(r.more(b']'), Ok(true));
        assert_eq!(r.num(), Ok(1u32));
        assert_eq!(r.more(b']'), Ok(true));
        assert_eq!(
            String::from(r.num::<u32>().unwrap_err()),
            "expected an unsigned number that fits its field at byte 4"
        );
        for bad in ["-1", "+1", "true", "nul", ""] {
            assert_eq!(Reader::new(bad).value().unwrap_err().at, 0, "{bad}");
            assert_eq!(Reader::new(bad).num::<i64>().unwrap_err().at, 0, "{bad}");
        }
    }

    #[test]
    fn decimals_read_what_the_writers_print() {
        for x in [0.0, 0.5, 1.25, 482_815.0, 2.7184, 1e15 + 0.125] {
            for text in [format!("{x:.1}"), format!("{x:.3}"), format!(" {x:.3} ")] {
                let want: f64 = text.trim().parse().unwrap();
                let mut r = Reader::new(&text);
                assert_eq!(r.decimal(), Ok(want), "{text:?}");
                assert_eq!(r.end(), Ok(()), "{text:?}");
            }
        }
        assert_eq!(Reader::new("12").decimal(), Ok(12.0));
        let mut r = Reader::new("[7.000,8.5]");
        r.begin(b'[').unwrap();
        assert!(r.more(b']').unwrap());
        assert_eq!(r.decimal(), Ok(7.0));
        assert!(r.more(b']').unwrap());
        assert_eq!(r.decimal(), Ok(8.5));
        assert_eq!(r.more(b']'), Ok(false));
        // A dot with no digit after it is not part of the number.
        let mut r = Reader::new("5.}");
        assert_eq!(r.decimal(), Ok(5.0));
        assert_eq!(r.end().unwrap_err().at, 1);
        // Nor is an exponent: no writer here prints one.
        assert_eq!(Reader::new("1e3").decimal(), Ok(1.0));
        for bad in ["-1.5", ".5", "+1", "null", ""] {
            let e = Reader::new(bad).decimal();
            assert_eq!(e, Err(Error { at: 0, expected: "an unsigned decimal" }), "{bad}");
        }
        // The scalar reader still takes integers only.
        assert_eq!(Reader::new("1.5").value(), Ok(Value::Num(1)));
    }

    #[test]
    fn containers_walk_with_begin_and_more() {
        let mut r = Reader::new(r#" { "a" : 1 , "b" : [ ] , "c" : [2,3], "d": null, "e": {} } "#);
        let mut seen = Vec::new();
        r.begin(b'{').unwrap();
        while r.more(b'}').unwrap() {
            let key = r.key().unwrap();
            match &*key {
                "b" | "c" => {
                    r.begin(b'[').unwrap();
                    while r.more(b']').unwrap() {
                        seen.push(format!("{key}:{}", r.num::<u64>().unwrap()));
                    }
                }
                "e" => {
                    r.begin(b'{').unwrap();
                    assert_eq!(r.more(b'}'), Ok(false));
                }
                _ => seen.push(format!("{key}={:?}", r.value().unwrap())),
            }
        }
        r.end().unwrap();
        assert_eq!(seen, ["a=Num(1)", "c:2", "c:3", "d=Null"]);

        for (bad, at) in
            [("{,\"a\":1}", 1), ("{\"a\":1,}", 7), ("{\"a\":1 \"b\":2}", 7), ("{\"a\" 1}", 5)]
        {
            let mut r = Reader::new(bad);
            let walked = (|| {
                r.begin(b'{')?;
                while r.more(b'}')? {
                    r.key()?;
                    r.value()?;
                }
                r.end()
            })();
            assert_eq!(walked.unwrap_err().at, at, "{bad}");
        }
        assert_eq!(
            String::from(Reader::new(" x").end().unwrap_err()),
            "expected end of input at byte 1"
        );
    }
}

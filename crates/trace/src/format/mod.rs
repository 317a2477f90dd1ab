//! On-disk trace formats.
//!
//! Three interchangeable encodings are provided:
//!
//! * [`text`] — a human-readable, line-oriented format in the spirit of the
//!   classic Dinero "din" format (`<mnemonic> <hex address>` per line, with
//!   `# flush` marker lines).
//! * [`binary`] — a compact framed binary format (9 bytes per reference)
//!   with a magic header, suitable for large traces.
//! * [`dinero`] — the classic Dinero "din" interchange format of the
//!   paper's era, for importing existing traces and exporting to other
//!   simulators.
//!
//! All formats encode the full [`TraceEvent`] stream, including flush
//! markers, and round-trip losslessly; see the property tests in each
//! module.

pub mod binary;
pub mod dinero;
pub mod text;

pub use binary::{BinaryReader, BinaryWriter};
pub use dinero::{DineroReader, DineroWriter};
pub use text::{TextReader, TextWriter};

use crate::record::TraceEvent;
use std::fmt;
use std::io::{BufRead, ErrorKind};

/// The longest line, in bytes before its `\n`, the text readers accept.
/// A din line is under 40 bytes; a longer line is a parse error, so an
/// input with no newline cannot grow the carry buffer without bound.
pub(crate) const MAX_LINE: usize = 4096;

/// The whitespace of both text formats: the ASCII members of
/// [`char::is_whitespace`] (space, `\t`, `\n`, `\v`, `\f`, `\r`).
pub(crate) fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// The whitespace-separated fields of `line`.
pub(crate) fn fields(line: &[u8]) -> impl Iterator<Item = &[u8]> {
    line.split(|&b| is_space(b)).filter(|f| !f.is_empty())
}

/// Each byte's value as a hex digit, or `0xff` if it is not one.
const HEX_VALUE: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut d = 0;
    while d < 16 {
        table[b"0123456789abcdef"[d] as usize] = d as u8;
        table[b"0123456789ABCDEF"[d] as usize] = d as u8;
        d += 1;
    }
    table
};

/// Decodes a hex address as `u64::from_str_radix(_, 16)` does: an optional
/// `+`, then one or more hex digits whose value fits in a `u64`.
pub(crate) fn parse_hex(digits: &[u8]) -> Option<u64> {
    let digits = digits.strip_prefix(b"+").unwrap_or(digits);
    if digits.is_empty() {
        return None;
    }
    let mut value = 0u64;
    for &b in digits {
        let d = HEX_VALUE[usize::from(b)];
        if d > 0xf || value >> 60 != 0 {
            return None;
        }
        value = value << 4 | u64::from(d);
    }
    Some(value)
}

/// The line loop shared by the text readers. It borrows each line from the
/// reader's buffer and copies into `carry` only a line that straddles the
/// end of the buffer. Lines are counted from 1, blank lines included.
#[derive(Debug)]
pub(crate) struct LineReader<R> {
    inner: R,
    carry: Vec<u8>,
    line_no: u64,
    /// Set after an over-long line's error: the rest of that line is
    /// skipped before the next line is read.
    skip_rest: bool,
}

impl<R: BufRead> LineReader<R> {
    pub(crate) fn new(inner: R) -> Self {
        LineReader {
            inner,
            carry: Vec::new(),
            line_no: 0,
            skip_rest: false,
        }
    }

    /// The next event: `parse` turns each non-blank line into an event,
    /// `None` to skip the line, or an error message, which is reported at
    /// the line's number.
    pub(crate) fn next_event<F>(
        &mut self,
        mut parse: F,
    ) -> Option<Result<TraceEvent, TraceFormatError>>
    where
        F: FnMut(&[u8]) -> Result<Option<TraceEvent>, String>,
    {
        loop {
            let buf = match self.inner.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Some(Err(e.into())),
            };
            if self.skip_rest {
                let (used, done) = match buf.iter().position(|&b| b == b'\n') {
                    Some(i) => (i + 1, true),
                    None => (buf.len(), buf.is_empty()),
                };
                self.inner.consume(used);
                self.skip_rest = !done;
                continue;
            }
            // Look for the newline only as far as the longest line allowed.
            let room = MAX_LINE - self.carry.len();
            let window = &buf[..buf.len().min(room + 1)];
            let (line, used) = match window.iter().position(|&b| b == b'\n') {
                Some(i) if self.carry.is_empty() => (&buf[..i], i + 1),
                Some(i) => {
                    self.carry.extend_from_slice(&buf[..i]);
                    (self.carry.as_slice(), i + 1)
                }
                None if buf.is_empty() && self.carry.is_empty() => return None,
                // The input's last line, without a newline.
                None if buf.is_empty() => (self.carry.as_slice(), 0),
                None if window.len() > room => {
                    self.carry.clear();
                    self.skip_rest = true;
                    self.line_no += 1;
                    return Some(Err(TraceFormatError::Parse {
                        position: self.line_no,
                        message: format!("line longer than {MAX_LINE} bytes"),
                    }));
                }
                None => {
                    self.carry.extend_from_slice(buf);
                    let used = buf.len();
                    self.inner.consume(used);
                    continue;
                }
            };
            self.line_no += 1;
            let parsed = if line.iter().all(|&b| is_space(b)) {
                Ok(None)
            } else {
                parse(line)
            };
            self.inner.consume(used);
            self.carry.clear();
            match parsed {
                Ok(Some(event)) => return Some(Ok(event)),
                Ok(None) => continue,
                Err(message) => {
                    return Some(Err(TraceFormatError::Parse {
                        position: self.line_no,
                        message,
                    }))
                }
            }
        }
    }
}

/// Errors produced while decoding a trace.
#[derive(Debug)]
pub enum TraceFormatError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input did not conform to the format.
    Parse {
        /// 1-based line (text) or record (binary) number where decoding failed.
        position: u64,
        /// Description of what went wrong.
        message: String,
    },
}

impl fmt::Display for TraceFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFormatError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceFormatError::Parse { position, message } => {
                write!(f, "trace parse error at {position}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceFormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFormatError::Io(e) => Some(e),
            TraceFormatError::Parse { .. } => None,
        }
    }
}

impl From<std::io::Error> for TraceFormatError {
    fn from(e: std::io::Error) -> Self {
        TraceFormatError::Io(e)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::TraceFormatError;
    use crate::record::TraceEvent;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::io::{self, BufRead, BufReader, Read};
    use std::ops::Range;

    /// A reader whose `at`-th `fill_buf` fails with `Interrupted`.
    struct InterruptOnce<R> {
        inner: R,
        calls: usize,
        at: usize,
    }

    impl<R: Read> Read for InterruptOnce<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.inner.read(buf)
        }
    }

    impl<R: BufRead> BufRead for InterruptOnce<R> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            self.calls += 1;
            if self.calls == self.at {
                return Err(io::ErrorKind::Interrupted.into());
            }
            self.inner.fill_buf()
        }

        fn consume(&mut self, n: usize) {
            self.inner.consume(n)
        }
    }

    /// `input` as every reader a text reader must decode alike: the bytes
    /// themselves, `BufReader`s of capacity 1 to 16 (so lines straddle the
    /// buffer's end), and readers that fail once with `Interrupted`.
    pub(crate) fn readers(input: &[u8]) -> Vec<Box<dyn BufRead + '_>> {
        let mut readers: Vec<Box<dyn BufRead + '_>> = vec![Box::new(input)];
        for k in 1..=16 {
            readers.push(Box::new(BufReader::with_capacity(k, input)));
        }
        for at in [1, 2, 5] {
            readers.push(Box::new(InterruptOnce {
                inner: BufReader::with_capacity(3, input),
                calls: 0,
                at,
            }));
        }
        readers
    }

    const SPACE: &[u8] = b" \t\x0b\x0c\r";
    const HEX: &[u8] = b"0123456789abcdefABCDEF";

    /// `len` bytes drawn from `alphabet`.
    fn pick(alphabet: &'static [u8], len: Range<usize>) -> impl Strategy<Value = Vec<u8>> {
        vec(0..alphabet.len(), len)
            .prop_map(move |ix| ix.into_iter().map(|i| alphabet[i]).collect())
    }

    /// An address field: `+` and leading zeros, 16- and 17-digit values,
    /// and malformed fields.
    pub(crate) fn address() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            4 => (any::<bool>(), 0usize..4, pick(HEX, 1..18)).prop_map(|(plus, zeros, digits)| {
                let mut field = if plus { b"+".to_vec() } else { Vec::new() };
                field.extend(std::iter::repeat(b'0').take(zeros));
                field.extend(digits);
                field
            }),
            2 => pick(HEX, 16..18),
            1 => Just(b"+".to_vec()),
            1 => (pick(HEX, 1..4), pick(b"gx+-", 1..2)).prop_map(|(mut field, bad)| {
                field.extend(bad);
                field
            }),
        ]
    }

    /// A field of 1 to 4 printable ASCII bytes.
    pub(crate) fn word() -> impl Strategy<Value = Vec<u8>> {
        vec(b'!'..=b'~', 1..5)
    }

    /// ASCII input: each line's `fields` separated and surrounded by runs
    /// of every ASCII whitespace byte, lines ended by LF or CRLF, and the
    /// last line with or without its end.
    pub(crate) fn lines(
        fields: impl Strategy<Value = Vec<Vec<u8>>>,
    ) -> impl Strategy<Value = Vec<u8>> {
        let line = (
            pick(SPACE, 0..3),
            fields,
            vec(pick(SPACE, 1..3), 8),
            pick(SPACE, 0..3),
        )
            .prop_map(|(lead, fields, seps, trail)| {
                let mut line = lead;
                for (i, field) in fields.into_iter().enumerate() {
                    if i > 0 {
                        line.extend(&seps[i % seps.len()]);
                    }
                    line.extend(field);
                }
                line.extend(trail);
                line
            });
        (vec((line, any::<bool>()), 0..12), any::<bool>()).prop_map(|(lines, end_last)| {
            let mut input = Vec::new();
            for (line, crlf) in lines {
                input.extend(line);
                input.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
            }
            if !end_last && input.last() == Some(&b'\n') {
                input.pop();
            }
            input
        })
    }

    /// Every item of a decoded stream, each error reduced to its position.
    pub(crate) fn outcomes(
        items: impl Iterator<Item = Result<TraceEvent, TraceFormatError>>,
    ) -> Vec<Result<TraceEvent, u64>> {
        items
            .map(|item| {
                item.map_err(|e| match e {
                    TraceFormatError::Parse { position, .. } => position,
                    TraceFormatError::Io(e) => panic!("unexpected i/o error: {e}"),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{outcomes, readers};
    use super::*;
    use proptest::prelude::*;

    /// Every non-blank line as a flush, so that only the loop is tested.
    fn flushes<R: BufRead>(reader: R) -> Vec<Result<TraceEvent, u64>> {
        let mut lines = LineReader::new(reader);
        outcomes(std::iter::from_fn(|| {
            lines.next_event(|_| Ok(Some(TraceEvent::Flush)))
        }))
    }

    #[test]
    fn whitespace_is_the_ascii_part_of_char_whitespace() {
        for b in 0..=u8::MAX {
            assert_eq!(
                is_space(b),
                b.is_ascii() && char::from(b).is_whitespace(),
                "{b}"
            );
        }
    }

    #[test]
    fn parse_hex_matches_from_str_radix() {
        let cases = [
            "",
            "+",
            "-1",
            "0",
            "+0",
            "ff",
            "FF",
            "+dEaD",
            "000000000000000000001",
            "g",
            "ffffffffffffffff",
            "0ffffffffffffffff",
            "10000000000000000",
            "1 2",
            "0x1",
        ];
        for case in cases {
            assert_eq!(
                parse_hex(case.as_bytes()),
                u64::from_str_radix(case, 16).ok(),
                "{case:?}"
            );
        }
    }

    #[test]
    fn blank_lines_are_counted_and_skipped() {
        let input = b"a\n \t\n\n\r\nb\x0b\n\x0c";
        for reader in readers(input) {
            assert_eq!(
                flushes(reader),
                vec![Ok(TraceEvent::Flush), Ok(TraceEvent::Flush)]
            );
        }
        let mut lines = LineReader::new(&input[..]);
        let errors: Vec<u64> = std::iter::from_fn(|| lines.next_event(|_| Err("x".into())))
            .map(|e| match e {
                Err(TraceFormatError::Parse { position, .. }) => position,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(errors, vec![1, 5]);
    }

    #[test]
    fn over_long_lines_are_errors_for_every_reader() {
        let mut input = b"a\n".to_vec();
        input.extend(std::iter::repeat(b'x').take(MAX_LINE + 1));
        input.extend_from_slice(b"\nb\n");
        input.extend(std::iter::repeat(b'y').take(MAX_LINE));
        input.push(b'\n');
        input.extend(std::iter::repeat(b'z').take(3 * MAX_LINE));
        let expected = vec![
            Ok(TraceEvent::Flush),
            Err(2),
            Ok(TraceEvent::Flush),
            Ok(TraceEvent::Flush),
            Err(5),
        ];
        for reader in readers(&input) {
            assert_eq!(flushes(reader), expected);
        }
    }

    #[test]
    fn a_line_without_newline_cannot_grow_the_carry() {
        let input = vec![b'0'; 1 << 20];
        for capacity in [1, 7, 8 << 10] {
            let mut lines =
                LineReader::new(std::io::BufReader::with_capacity(capacity, &input[..]));
            let first = lines.next_event(|_| Ok(Some(TraceEvent::Flush)));
            assert!(matches!(
                first,
                Some(Err(TraceFormatError::Parse { position: 1, .. }))
            ));
            assert!(
                lines.carry.capacity() <= 2 * MAX_LINE,
                "{}",
                lines.carry.capacity()
            );
            assert!(lines.next_event(|_| Ok(Some(TraceEvent::Flush))).is_none());
        }
    }

    proptest! {
        /// Arbitrary bytes decode alike through every reader.
        #[test]
        fn every_reader_splits_lines_alike(
            input in proptest::collection::vec(
                prop_oneof![Just(b'\n'), Just(b' '), Just(b'\r'), any::<u8>()],
                0..64,
            )
        ) {
            let expected = flushes(&input[..]);
            for reader in readers(&input) {
                prop_assert_eq!(flushes(reader), expected.clone());
            }
        }
    }

    #[test]
    fn error_display_mentions_position() {
        let e = TraceFormatError::Parse {
            position: 7,
            message: "bad mnemonic".into(),
        };
        let s = e.to_string();
        assert!(s.contains('7'), "{s}");
        assert!(s.contains("bad mnemonic"), "{s}");
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        let e: TraceFormatError = io.into();
        assert!(matches!(e, TraceFormatError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}

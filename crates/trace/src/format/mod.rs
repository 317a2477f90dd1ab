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

/// Byte classes up to 15 are hex digits and hold their value; up to
/// `OTHER`, bytes inside a field.
const OTHER: u8 = 16;
/// The whitespace of both text formats other than `\n`: the ASCII members
/// of [`char::is_whitespace`] (space, `\t`, `\v`, `\f`, `\r`).
const SPACE: u8 = 17;
const NEWLINE: u8 = 18;
/// The class past the end of the scanned bytes.
const END: u8 = 19;

/// Each byte's class.
const CLASS: [u8; 256] = {
    let mut table = [OTHER; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = match b as u8 {
            d @ b'0'..=b'9' => d - b'0',
            d @ b'a'..=b'f' => d - b'a' + 10,
            d @ b'A'..=b'F' => d - b'A' + 10,
            b' ' | b'\t' | 0x0b | 0x0c | b'\r' => SPACE,
            b'\n' => NEWLINE,
            _ => OTHER,
        };
        b += 1;
    }
    table
};

/// What one scan found in a line: the fields the text grammars look at.
pub(crate) struct Line<'a> {
    /// The first field; empty if the line is blank.
    pub(crate) first: &'a [u8],
    pub(crate) second: Option<&'a [u8]>,
    /// The second field's value, if it is an optional `0x` or `0X`, an
    /// optional `+`, and hex digits whose value fits in a `u64`.
    pub(crate) addr: Option<u64>,
    /// Whether the second field opens with `0x` or `0X`.
    pub(crate) hex_prefix: bool,
    /// Whether a third field follows.
    pub(crate) more: bool,
    /// The bytes the line took up, its `\n` included.
    used: usize,
    /// Whether a `\n` ended the line, rather than the end of the bytes.
    newline: bool,
}

/// The class of `bytes[i]`, or `END` past the end.
#[inline(always)]
fn class(bytes: &[u8], i: usize) -> u8 {
    bytes.get(i).map_or(END, |&b| CLASS[usize::from(b)])
}

/// The first index from `j` on whose class fails `keep`.
#[inline(always)]
fn skip(bytes: &[u8], mut j: usize, keep: impl Fn(u8) -> bool) -> usize {
    while keep(class(bytes, j)) {
        j += 1;
    }
    j
}

/// Reads the line at the front of `bytes` in one pass, each byte
/// classified once through [`CLASS`]: it splits the first two fields,
/// decodes the second one's hex value as it goes by, and notes whether
/// more fields follow.
// As `#[inline]` it stayed a call from other crates, and decoding a din
// trace took 10–20% longer.
#[inline(always)]
fn scan(bytes: &[u8]) -> Line<'_> {
    let class = |i: usize| class(bytes, i);
    let in_field = |c| c <= OTHER;
    let space = |c| c == SPACE;
    let start = skip(bytes, 0, space);
    let mut j = skip(bytes, start, in_field);
    let first = &bytes[start..j];
    let (mut second, mut addr, mut hex_prefix, mut more) = (None, None, false, false);
    j = skip(bytes, j, space);
    if in_field(class(j)) {
        let start = j;
        hex_prefix = bytes[j] == b'0' && matches!(bytes.get(j + 1), Some(b'x' | b'X'));
        j += 2 * usize::from(hex_prefix);
        j += usize::from(bytes.get(j) == Some(&b'+'));
        let digits = j;
        // `spill` gathers the digits shifted out of the top of `value`.
        let (mut value, mut spill) = (0u64, 0);
        while let d @ 0..=0xf = class(j) {
            spill |= value >> 60;
            value = value << 4 | u64::from(d);
            j += 1;
        }
        addr = (spill == 0 && j > digits && !in_field(class(j))).then_some(value);
        j = skip(bytes, j, in_field);
        second = Some(&bytes[start..j]);
        j = skip(bytes, j, space);
        more = in_field(class(j));
        j = skip(bytes, j, |c| c <= SPACE);
    }
    let newline = class(j) == NEWLINE;
    Line {
        first,
        second,
        addr,
        hex_prefix,
        more,
        used: j + usize::from(newline),
        newline,
    }
}

/// The line loop shared by the text readers. It scans each line where it
/// lies in the reader's buffer and copies into `carry` only a line that
/// straddles the end of the buffer, which is then scanned again whole.
/// Lines are counted from 1, blank lines included.
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

    /// The next event: `decode` turns each non-blank line into an event,
    /// `None` to skip the line, or an error message, which is reported at
    /// the line's number.
    #[inline]
    pub(crate) fn next_event<F>(
        &mut self,
        mut decode: F,
    ) -> Option<Result<TraceEvent, TraceFormatError>>
    where
        F: FnMut(&Line<'_>) -> Result<Option<TraceEvent>, String>,
    {
        loop {
            let buf = match self.inner.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Some(Err(e.into())),
            };
            // Scan only as far as the longest line allowed.
            let room = MAX_LINE - self.carry.len();
            let window = &buf[..buf.len().min(room + 1)];
            let mut line = scan(window);
            let used = line.used;
            if self.skip_rest {
                self.skip_rest = !line.newline && !window.is_empty();
                self.inner.consume(used);
                continue;
            }
            let over_long = !line.newline && window.len() > room;
            if !line.newline && !over_long {
                if !window.is_empty() {
                    self.carry.extend_from_slice(window);
                    self.inner.consume(used);
                    continue;
                }
                // The end of the input: the carry is its last line.
                if self.carry.is_empty() {
                    return None;
                }
            }
            if !self.carry.is_empty() {
                self.carry.extend_from_slice(&window[..used]);
                line = scan(&self.carry);
            }
            self.line_no += 1;
            self.skip_rest = over_long;
            let decoded = if over_long {
                Err(format!("line longer than {MAX_LINE} bytes"))
            } else if line.first.is_empty() {
                Ok(None)
            } else {
                decode(&line)
            };
            self.inner.consume(used);
            self.carry.clear();
            match decoded {
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
    fn byte_classes_match_the_char_predicates() {
        for b in 0..=u8::MAX {
            let class = CLASS[usize::from(b)];
            // Whitespace is the ASCII part of `char::is_whitespace`.
            assert_eq!(
                class == SPACE || class == NEWLINE,
                b.is_ascii() && char::from(b).is_whitespace(),
                "{b}"
            );
            assert_eq!(class == NEWLINE, b == b'\n', "{b}");
            assert_eq!(
                (class <= 0xf).then_some(u32::from(class)),
                char::from(b).to_digit(16),
                "{b}"
            );
        }
    }

    #[test]
    fn address_field_matches_from_str_radix() {
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
            "1+2",
            "++1",
            "0x1",
        ];
        for case in cases {
            let expected = u64::from_str_radix(case, 16).ok();
            let plain = format!("0 {case}\n");
            let line = scan(plain.as_bytes());
            assert_eq!(line.addr.filter(|_| !line.hex_prefix), expected, "{case:?}");
            // With a `0x` prefix, the digits after it are read alike.
            let prefixed = format!("0 0x{case}\n");
            let line = scan(prefixed.as_bytes());
            assert!(line.hex_prefix, "{case:?}");
            assert_eq!(line.addr, expected, "0x{case:?}");
        }
    }

    #[test]
    fn scan_reports_fields_and_the_bytes_used() {
        let line = scan(b" \t2\x0b+0Ab x y\r\nnext");
        assert!(line.newline);
        assert_eq!(line.used, 14);
        assert_eq!(line.first, b"2");
        assert_eq!(line.second, Some(&b"+0Ab"[..]));
        assert_eq!(line.addr, Some(0xab));
        assert!(line.more);
        let line = scan(b"r 0x1");
        assert!(!line.newline);
        assert_eq!(line.used, 5);
        assert_eq!(line.addr, Some(1));
        assert!(!line.more);
        let line = scan(b" \r\n");
        assert!(line.newline);
        assert!(line.first.is_empty() && line.second.is_none());
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

//! The classic Dinero "din" trace format.
//!
//! The de-facto interchange format of the era's cache studies (Dinero III
//! was the standard simulator when the paper was written): one reference
//! per line, a numeric label then a hex address:
//!
//! ```text
//! 0 7fff0010      # data read
//! 1 7fff0010      # data write
//! 2 40001000      # instruction fetch
//! ```
//!
//! Labels 3 (escape/unknown) and 4 (cache flush, used by some din
//! dialects) are also handled: 4 maps to [`TraceEvent::Flush`], 3 is
//! decoded as a data read, matching Dinero's own treatment.
//!
//! Use this format to run the experiments on existing din traces, or to
//! export the synthetic workload to other simulators.
//!
//! # Grammar
//!
//! The reader works on bytes: a single scan reads each line once where it
//! lies in the reader's buffer, classifying every byte through one table
//! as it splits the fields and decodes the address, and allocates nothing
//! unless the line is an error.
//!
//! * Lines end at `\n`. A line is cut into fields at whitespace, which is
//!   the ASCII set space, `\t`, `\n`, `\v`, `\f` and `\r` (so CRLF lines
//!   read as LF lines). Blank lines are skipped but still counted: error
//!   positions are 1-based line numbers.
//! * The label is a whole one-byte field, `0` to `4`.
//! * The address is an optional `+` and then hex digits, in either case,
//!   whose value fits in a `u64`; leading zeros are allowed. This is what
//!   `u64::from_str_radix(_, 16)` accepts.
//! * Fields after the address are ignored, whatever bytes they hold.
//! * A line longer than 4096 bytes is a parse error.
//!
//! Two consequences of reading bytes rather than `str` lines: bytes that
//! are not UTF-8 are a [`TraceFormatError::Parse`] in the label or address
//! and are ignored in trailing fields, never a
//! [`TraceFormatError::Io`]; and non-ASCII Unicode whitespace does not
//! separate fields.

use crate::format::{Line, LineReader, TraceFormatError};
use crate::record::{AccessKind, TraceEvent, TraceRecord};
use std::io::{BufRead, Write};

const LABEL_READ: u8 = b'0';
const LABEL_WRITE: u8 = b'1';
const LABEL_IFETCH: u8 = b'2';
const LABEL_ESCAPE: u8 = b'3';
const LABEL_FLUSH: u8 = b'4';

/// Streaming writer for the din format.
///
/// # Example
///
/// ```
/// use seta_trace::format::{DineroReader, DineroWriter};
/// use seta_trace::{TraceEvent, TraceRecord};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut buf = Vec::new();
/// let mut w = DineroWriter::new(&mut buf);
/// w.write_event(&TraceEvent::Ref(TraceRecord::write(0x7fff_0010)))?;
/// drop(w);
/// assert_eq!(String::from_utf8(buf.clone())?, "1 7fff0010\n");
///
/// let events: Vec<TraceEvent> =
///     DineroReader::new(buf.as_slice()).collect::<Result<_, _>>()?;
/// assert_eq!(events, vec![TraceEvent::Ref(TraceRecord::write(0x7fff_0010))]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DineroWriter<W: Write> {
    inner: W,
}

impl<W: Write> DineroWriter<W> {
    /// Wraps a writer; pass `&mut w` to keep using the writer afterwards.
    pub fn new(inner: W) -> Self {
        DineroWriter { inner }
    }

    /// Writes one event as one din line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_event(&mut self, event: &TraceEvent) -> std::io::Result<()> {
        let (label, addr) = match event {
            TraceEvent::Ref(r) => match r.kind {
                AccessKind::Read => (LABEL_READ, r.addr),
                AccessKind::Write => (LABEL_WRITE, r.addr),
                AccessKind::InstrFetch => (LABEL_IFETCH, r.addr),
            },
            TraceEvent::Flush => (LABEL_FLUSH, 0),
        };
        // `<label> <lowercase hex>\n` is at most 1 + 1 + 16 + 1 bytes.
        let mut line = [0u8; 19];
        let digits = (64 - addr.leading_zeros()).div_ceil(4).max(1) as usize;
        let end = 2 + digits;
        line[0] = label;
        line[1] = b' ';
        for (i, digit) in line[2..end].iter_mut().rev().enumerate() {
            *digit = b"0123456789abcdef"[(addr >> (4 * i) & 0xf) as usize];
        }
        line[end] = b'\n';
        self.inner.write_all(&line[..=end])
    }

    /// Writes every event from an iterator.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_all<I>(&mut self, events: I) -> std::io::Result<()>
    where
        I: IntoIterator<Item = TraceEvent>,
    {
        for e in events {
            self.write_event(&e)?;
        }
        Ok(())
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

/// Streaming reader for the din format; an iterator of
/// `Result<TraceEvent, TraceFormatError>`.
#[derive(Debug)]
pub struct DineroReader<R: BufRead> {
    lines: LineReader<R>,
}

impl<R: BufRead> DineroReader<R> {
    /// Wraps a buffered reader.
    pub fn new(inner: R) -> Self {
        DineroReader {
            lines: LineReader::new(inner),
        }
    }
}

/// Decodes one non-blank din line.
#[inline]
fn decode(line: &Line<'_>) -> Result<Option<TraceEvent>, String> {
    let addr_field = line.second.ok_or("missing address")?;
    // Dinero traces sometimes carry extra fields (e.g. padding); they are
    // ignored, as Dinero itself ignores them. A `0x` prefix is not din.
    let addr = line
        .addr
        .filter(|_| !line.hex_prefix)
        .ok_or_else(|| format!("bad address {:?}", String::from_utf8_lossy(addr_field)))?;
    let event = match *line.first {
        // One arm for the three labels a trace interleaves, so that no
        // branch tells them apart: `ALL` is in label order.
        [label @ LABEL_READ..=LABEL_IFETCH] => TraceEvent::Ref(TraceRecord::new(
            addr,
            AccessKind::ALL[usize::from(label - LABEL_READ)],
        )),
        [LABEL_ESCAPE] => TraceEvent::Ref(TraceRecord::read(addr)),
        [LABEL_FLUSH] => TraceEvent::Flush,
        _ => {
            return Err(format!(
                "unknown din label {:?}",
                String::from_utf8_lossy(line.first)
            ))
        }
    };
    Ok(Some(event))
}

impl<R: BufRead> Iterator for DineroReader<R> {
    type Item = Result<TraceEvent, TraceFormatError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        self.lines.next_event(decode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::test_support::{address, lines, outcomes, readers, word};
    use proptest::prelude::*;

    /// The `str`-line reader this module had before it read bytes, kept
    /// verbatim as the oracle for ASCII input.
    mod oracle {
        use crate::format::TraceFormatError;
        use crate::record::{TraceEvent, TraceRecord};
        use std::io::BufRead;

        const LABEL_READ: &str = "0";
        const LABEL_WRITE: &str = "1";
        const LABEL_IFETCH: &str = "2";
        const LABEL_ESCAPE: &str = "3";
        const LABEL_FLUSH: &str = "4";

        pub struct DineroReader<R: BufRead> {
            lines: std::io::Lines<R>,
            line_no: u64,
        }

        impl<R: BufRead> DineroReader<R> {
            pub fn new(inner: R) -> Self {
                DineroReader {
                    lines: inner.lines(),
                    line_no: 0,
                }
            }

            fn parse_line(&self, line: &str) -> Result<Option<TraceEvent>, TraceFormatError> {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    return Ok(None);
                }
                let mut parts = trimmed.split_whitespace();
                let label = parts.next().expect("non-empty line has a token");
                let addr_tok = parts.next().ok_or_else(|| TraceFormatError::Parse {
                    position: self.line_no,
                    message: "missing address".into(),
                })?;
                let addr =
                    u64::from_str_radix(addr_tok, 16).map_err(|e| TraceFormatError::Parse {
                        position: self.line_no,
                        message: format!("bad address {addr_tok:?}: {e}"),
                    })?;
                let event = match label {
                    LABEL_READ | LABEL_ESCAPE => TraceEvent::Ref(TraceRecord::read(addr)),
                    LABEL_WRITE => TraceEvent::Ref(TraceRecord::write(addr)),
                    LABEL_IFETCH => TraceEvent::Ref(TraceRecord::ifetch(addr)),
                    LABEL_FLUSH => TraceEvent::Flush,
                    other => {
                        return Err(TraceFormatError::Parse {
                            position: self.line_no,
                            message: format!("unknown din label {other:?}"),
                        })
                    }
                };
                Ok(Some(event))
            }
        }

        impl<R: BufRead> Iterator for DineroReader<R> {
            type Item = Result<TraceEvent, TraceFormatError>;

            fn next(&mut self) -> Option<Self::Item> {
                loop {
                    let line = match self.lines.next()? {
                        Ok(l) => l,
                        Err(e) => return Some(Err(e.into())),
                    };
                    self.line_no += 1;
                    match self.parse_line(&line) {
                        Ok(Some(ev)) => return Some(Ok(ev)),
                        Ok(None) => continue,
                        Err(e) => return Some(Err(e)),
                    }
                }
            }
        }
    }

    /// ASCII din input: labels `0`-`9` and longer label fields, missing
    /// and malformed addresses, extra fields, and blank lines.
    fn din_input() -> impl Strategy<Value = Vec<u8>> {
        let label = prop_oneof![
            5 => (b'0'..=b'9').prop_map(|d| vec![d]),
            1 => Just(b"00".to_vec()),
            1 => Just(b"12".to_vec()),
            1 => Just(b"x".to_vec()),
        ];
        let fields = (
            label,
            prop_oneof![1 => Just(None), 8 => address().prop_map(Some)],
            proptest::collection::vec(word(), 0..3),
        )
            .prop_map(|(label, address, extra)| {
                std::iter::once(label).chain(address).chain(extra).collect()
            });
        lines(prop_oneof![1 => Just(Vec::new()), 8 => fields])
    }

    fn event(label: u8, addr: u64) -> TraceEvent {
        match label {
            0 => TraceEvent::Ref(TraceRecord::read(addr)),
            1 => TraceEvent::Ref(TraceRecord::write(addr)),
            2 => TraceEvent::Ref(TraceRecord::ifetch(addr)),
            _ => TraceEvent::Flush,
        }
    }

    fn round_trip(events: &[TraceEvent]) -> Vec<TraceEvent> {
        let mut buf = Vec::new();
        let mut w = DineroWriter::new(&mut buf);
        w.write_all(events.iter().copied()).unwrap();
        DineroReader::new(buf.as_slice())
            .collect::<Result<_, _>>()
            .unwrap()
    }

    #[test]
    fn classic_din_lines_parse() {
        let din = "0 7fff0010\n1 7fff0014\n2 40001000\n";
        let events: Vec<_> = DineroReader::new(din.as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(
            events,
            vec![
                TraceEvent::Ref(TraceRecord::read(0x7fff_0010)),
                TraceEvent::Ref(TraceRecord::write(0x7fff_0014)),
                TraceEvent::Ref(TraceRecord::ifetch(0x4000_1000)),
            ]
        );
    }

    #[test]
    fn label_three_decodes_as_read() {
        let events: Vec<_> = DineroReader::new("3 100\n".as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(events, vec![TraceEvent::Ref(TraceRecord::read(0x100))]);
    }

    #[test]
    fn label_four_is_flush() {
        let events: Vec<_> = DineroReader::new("4 0\n".as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(events, vec![TraceEvent::Flush]);
    }

    #[test]
    fn extra_fields_are_ignored() {
        let events: Vec<_> = DineroReader::new("0 100 extra stuff\n".as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(events, vec![TraceEvent::Ref(TraceRecord::read(0x100))]);
    }

    #[test]
    fn unknown_label_is_an_error() {
        let err = DineroReader::new("7 100\n".as_bytes())
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(matches!(err, TraceFormatError::Parse { position: 1, .. }));
    }

    #[test]
    fn bad_address_is_an_error() {
        let err = DineroReader::new("0 zz\n".as_bytes())
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(matches!(err, TraceFormatError::Parse { .. }));
    }

    #[test]
    fn bytes_that_are_not_utf8_or_ascii_space_do_not_separate_fields() {
        let input = b"0 10 \xff\xfe\n\xff 10\n0 1\xff\n0\xc2\xa010\n";
        let items = outcomes(DineroReader::new(&input[..]));
        assert_eq!(
            items,
            vec![
                Ok(TraceEvent::Ref(TraceRecord::read(0x10))),
                Err(2),
                Err(3),
                Err(4)
            ]
        );
    }

    #[test]
    fn addresses_have_no_prefix_in_output() {
        let mut buf = Vec::new();
        let mut w = DineroWriter::new(&mut buf);
        w.write_event(&TraceEvent::Ref(TraceRecord::read(0xABCD)))
            .unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "0 abcd\n");
    }

    /// Inputs at the scanner's edges decode as the `str` reader did:
    /// prefixes, signs, overflow, every separator, and lines cut short.
    #[test]
    fn scanner_edge_cases_match_the_str_oracle() {
        let inputs: [&[u8]; 16] = [
            b"0 0x10\n0 0X1\n0 0x\n0 0\n",
            b"0 +\n0 ++1\n0 +0x1\n0 -1\n0 1+\n",
            b"0 ffffffffffffffff\n0 0000ffffffffffffffff\n0 10000000000000000\n",
            b"0 fffffffffffffffff0 x\n1 1\n",
            b"\x0b0\x0c10\r\n\t1\t20\t \r\n",
            b"0\n0 \n 0\r\n4\n",
            b"0 10 \n0 10 x y z\n0 10\t#\n",
            b"00 1\n5 1\n 3 7\n4 0\n",
            b"2 abcdef0123456789",
            b"2 abc\r",
            b"1 1\n\n\n",
            b"\n\n0 1",
            b"0 1\n1",
            b"x\ny 1\n0 g\n",
            b"",
            b" ",
        ];
        for input in inputs {
            let expected = outcomes(oracle::DineroReader::new(input));
            for reader in readers(input) {
                assert_eq!(outcomes(DineroReader::new(reader)), expected, "{input:?}");
            }
        }
    }

    proptest! {
        /// The byte reader decodes every ASCII input as the `str` reader
        /// did, through every kind of reader.
        #[test]
        fn byte_reader_matches_the_str_oracle(input in din_input()) {
            let expected = outcomes(oracle::DineroReader::new(&input[..]));
            for reader in readers(&input) {
                prop_assert_eq!(outcomes(DineroReader::new(reader)), expected.clone());
            }
        }

        /// The writer's bytes are those of `format!("{label} {addr:x}")`.
        #[test]
        fn writer_matches_format(
            raw in proptest::collection::vec(
                (prop_oneof![Just(0), Just(u64::MAX), 0..16u64, any::<u64>()], 0u8..4),
                0..64,
            )
        ) {
            let events: Vec<TraceEvent> = raw.iter().map(|&(addr, k)| event(k, addr)).collect();
            let mut expected = String::new();
            for e in &events {
                let line = match e {
                    TraceEvent::Ref(r) => {
                        let label = match r.kind {
                            AccessKind::Read => 0,
                            AccessKind::Write => 1,
                            AccessKind::InstrFetch => 2,
                        };
                        format!("{label} {:x}\n", r.addr)
                    }
                    TraceEvent::Flush => "4 0\n".to_string(),
                };
                expected.push_str(&line);
            }
            let mut buf = Vec::new();
            DineroWriter::new(&mut buf).write_all(events.iter().copied()).unwrap();
            prop_assert_eq!(String::from_utf8(buf).unwrap(), expected);
        }

        #[test]
        fn arbitrary_events_round_trip(
            raw in proptest::collection::vec((any::<u64>(), 0u8..4), 0..200)
        ) {
            let events: Vec<TraceEvent> = raw.into_iter().map(|(addr, k)| event(k, addr)).collect();
            prop_assert_eq!(round_trip(&events), events);
        }
    }
}

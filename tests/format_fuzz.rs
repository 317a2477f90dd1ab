//! Robustness of the trace format readers: arbitrary input must produce
//! errors, never panics, and valid prefixes must decode before the error.

use proptest::prelude::*;
use seta::trace::format::{
    BinaryReader, BinaryWriter, DineroReader, TextReader, TextWriter, TraceFormatError,
};
use seta::trace::{TraceEvent, TraceRecord};
use std::io::BufReader;

/// Every item a din reader yields, each error as its position and message.
fn din_items(reader: impl std::io::BufRead) -> Vec<Result<TraceEvent, (u64, String)>> {
    DineroReader::new(reader)
        .map(|item| {
            item.map_err(|e| match e {
                TraceFormatError::Parse { position, message } => (position, message),
                TraceFormatError::Io(e) => panic!("i/o error from an in-memory input: {e}"),
            })
        })
        .collect()
}

proptest! {
    /// The binary reader never panics on arbitrary bytes.
    #[test]
    fn binary_reader_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(reader) = BinaryReader::new(bytes.as_slice()) {
            // Drain fully; errors are fine, panics are not.
            for item in reader {
                if item.is_err() {
                    break;
                }
            }
        }
    }

    /// The text reader never panics on arbitrary strings.
    #[test]
    fn text_reader_never_panics(text in "\\PC*") {
        for item in TextReader::new(text.as_bytes()) {
            if item.is_err() {
                break;
            }
        }
    }

    /// The din reader never panics on arbitrary bytes, valid UTF-8 or not,
    /// with or without a line over the length limit. Every error is a
    /// parse error at a line that exists, and a `BufReader` of any
    /// capacity decodes exactly as the bytes themselves do.
    #[test]
    fn dinero_reader_never_panics(
        head in proptest::collection::vec(any::<u8>(), 0..256),
        long in prop_oneof![Just(0usize), 4094usize..4099, Just(10_000)],
        tail in proptest::collection::vec(any::<u8>(), 0..256),
        capacity in 1usize..64,
    ) {
        let mut bytes = head;
        bytes.extend(std::iter::repeat(b'7').take(long));
        bytes.extend(tail);
        let lines = bytes.split(|&b| b == b'\n').count() as u64
            - u64::from(bytes.is_empty() || bytes.ends_with(b"\n"));
        let items = din_items(bytes.as_slice());
        for item in &items {
            if let Err((position, _)) = item {
                prop_assert!((1..=lines).contains(position), "{} of {}", position, lines);
            }
        }
        prop_assert_eq!(din_items(BufReader::with_capacity(capacity, bytes.as_slice())), items);
    }

    /// A valid trace followed by garbage yields all valid events first,
    /// then exactly one error (binary format).
    #[test]
    fn binary_valid_prefix_decodes(
        addrs in proptest::collection::vec(any::<u64>(), 1..50),
        garbage in 3u8..0xFF,
    ) {
        let events: Vec<TraceEvent> =
            addrs.iter().map(|&a| TraceEvent::Ref(TraceRecord::read(a))).collect();
        let mut buf = Vec::new();
        let mut w = BinaryWriter::new(&mut buf);
        w.write_all(events.iter().copied()).unwrap();
        w.finish().unwrap();
        buf.push(garbage); // invalid record tag (3..0xFF, excluding 0xFF)
        if garbage == 0xFF {
            return Ok(()); // 0xFF is a legal flush tag
        }

        let mut reader = BinaryReader::new(buf.as_slice()).expect("header is valid");
        let mut decoded = Vec::new();
        let mut saw_error = false;
        for item in &mut reader {
            match item {
                Ok(e) => decoded.push(e),
                Err(_) => {
                    saw_error = true;
                    break;
                }
            }
        }
        prop_assert_eq!(decoded, events);
        prop_assert!(saw_error);
    }

    /// Text output of any trace is pure ASCII lines, one event per line.
    #[test]
    fn text_output_is_line_per_event(
        addrs in proptest::collection::vec(any::<u64>(), 0..50)
    ) {
        let events: Vec<TraceEvent> =
            addrs.iter().map(|&a| TraceEvent::Ref(TraceRecord::write(a))).collect();
        let mut buf = Vec::new();
        let mut w = TextWriter::new(&mut buf);
        w.write_all(events.iter().copied()).unwrap();
        let text = String::from_utf8(buf).expect("text format is UTF-8");
        prop_assert!(text.is_ascii());
        prop_assert_eq!(text.lines().count(), events.len());
    }
}

#[test]
fn truncations_of_a_valid_trace_never_panic() {
    let events: Vec<TraceEvent> = (0..20)
        .map(|i| {
            if i % 5 == 4 {
                TraceEvent::Flush
            } else {
                TraceEvent::Ref(TraceRecord::read(i * 0x40))
            }
        })
        .collect();
    let mut buf = Vec::new();
    let mut w = BinaryWriter::new(&mut buf);
    w.write_all(events.iter().copied()).unwrap();
    w.finish().unwrap();

    for len in 0..buf.len() {
        if let Ok(reader) = BinaryReader::new(&buf[..len]) {
            for item in reader {
                if item.is_err() {
                    break;
                }
            }
        }
    }
}

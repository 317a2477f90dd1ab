//! A bounded broadcast ring for server-sent events.
//!
//! The simulation thread publishes window rows and heartbeats; any number
//! of SSE connections read them. Publishing never blocks: when the ring
//! is full the oldest event is dropped, so a stalled or slow client can
//! never apply backpressure to the hot loop. Readers track their own
//! cursor and learn how many events they missed, which the SSE handler
//! surfaces as a comment line rather than silently skipping.

use super::lock;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

/// One published event: a monotone sequence number and the payload the
/// publisher rendered (for SSE handlers, a `event`/`data` pair).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingEvent {
    /// Monotone sequence number, starting at 0.
    pub seq: u64,
    /// Event name (`window`, `heartbeat`, `end`).
    pub name: String,
    /// Event payload (one line of JSON).
    pub data: String,
}

struct RingState {
    buf: VecDeque<RingEvent>,
    next_seq: u64,
    closed: bool,
}

/// What one [`BroadcastRing::wait_after`] call observed.
#[derive(Debug, Default)]
pub struct RingRead {
    /// Events after the caller's cursor, in sequence order.
    pub events: Vec<RingEvent>,
    /// Events the caller missed because the ring dropped them (its cursor
    /// was behind the oldest retained event).
    pub dropped: u64,
    /// Whether the ring is closed; once closed and drained, readers stop.
    pub closed: bool,
}

/// The bounded multi-reader broadcast described in the module docs.
pub struct BroadcastRing {
    state: Mutex<RingState>,
    cond: Condvar,
    capacity: usize,
}

impl BroadcastRing {
    /// A ring retaining at most `capacity` undelivered events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        BroadcastRing {
            state: Mutex::new(RingState {
                buf: VecDeque::with_capacity(capacity),
                next_seq: 0,
                closed: false,
            }),
            cond: Condvar::new(),
            capacity,
        }
    }

    /// Publishes one event, evicting the oldest if the ring is full, and
    /// returns its sequence number. Never blocks on readers. Publishing
    /// to a closed ring is a no-op (the event is dropped).
    pub fn publish(&self, name: &str, data: String) -> u64 {
        let mut st = lock(&self.state);
        let seq = st.next_seq;
        if st.closed {
            return seq;
        }
        st.next_seq += 1;
        if st.buf.len() == self.capacity {
            st.buf.pop_front();
        }
        st.buf.push_back(RingEvent {
            seq,
            name: name.to_owned(),
            data,
        });
        self.cond.notify_all();
        seq
    }

    /// Closes the ring: no further events are accepted and every blocked
    /// reader wakes with `closed = true`.
    pub fn close(&self) {
        let mut st = lock(&self.state);
        st.closed = true;
        self.cond.notify_all();
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        lock(&self.state).closed
    }

    /// Returns every retained event with `seq >= cursor`, blocking up to
    /// `timeout` when none are available yet. A timeout yields an empty
    /// read (the SSE handler turns that into a keep-alive comment).
    pub fn wait_after(&self, cursor: u64, timeout: Duration) -> RingRead {
        let mut st = lock(&self.state);
        if !st.closed && st.next_seq <= cursor {
            let (guard, _) = self
                .cond
                .wait_timeout_while(st, timeout, |s| !s.closed && s.next_seq <= cursor)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
        let mut read = RingRead {
            closed: st.closed,
            ..RingRead::default()
        };
        if let Some(oldest) = st.buf.front().map(|e| e.seq) {
            if oldest > cursor {
                read.dropped = oldest - cursor;
            }
        } else if st.next_seq > cursor {
            read.dropped = st.next_seq - cursor;
        }
        read.events
            .extend(st.buf.iter().filter(|e| e.seq >= cursor).cloned());
        read
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn events_arrive_in_order_with_monotone_seqs() {
        let ring = BroadcastRing::new(8);
        for i in 0..3 {
            assert_eq!(ring.publish("window", format!("{i}")), i);
        }
        let read = ring.wait_after(0, Duration::ZERO);
        assert_eq!(read.dropped, 0);
        assert!(!read.closed);
        let seqs: Vec<u64> = read.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        // A cursor past the delivered events sees nothing new.
        let read = ring.wait_after(3, Duration::ZERO);
        assert!(read.events.is_empty());
    }

    #[test]
    fn slow_readers_observe_drops_not_blockage() {
        let ring = BroadcastRing::new(4);
        for i in 0..10 {
            ring.publish("window", format!("{i}"));
        }
        // Only the last 4 survive; a reader from the start sees the gap.
        let read = ring.wait_after(0, Duration::ZERO);
        assert_eq!(read.dropped, 6);
        assert_eq!(read.events.len(), 4);
        assert_eq!(read.events[0].seq, 6);
        assert_eq!(read.events[3].seq, 9);
    }

    #[test]
    fn close_wakes_blocked_readers() {
        let ring = Arc::new(BroadcastRing::new(4));
        let r = Arc::clone(&ring);
        let reader = std::thread::spawn(move || r.wait_after(0, Duration::from_secs(30)));
        // Give the reader a moment to block, then close.
        std::thread::sleep(Duration::from_millis(20));
        ring.close();
        let read = reader.join().unwrap();
        assert!(read.closed);
        assert!(ring.is_closed());
        // Publishing after close is a silent no-op.
        ring.publish("window", "late".into());
        assert!(ring.wait_after(0, Duration::ZERO).events.is_empty());
    }

    #[test]
    fn timeout_returns_an_empty_read() {
        let ring = BroadcastRing::new(4);
        let read = ring.wait_after(0, Duration::from_millis(10));
        assert!(read.events.is_empty());
        assert!(!read.closed);
        assert_eq!(read.dropped, 0);
    }
}

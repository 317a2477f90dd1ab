//! # seta-serve — the set-associative core as a concurrent cache service
//!
//! The paper prices set-associativity in tag probes; its modern echo
//! ("Limited Associativity Makes Concurrent Software Caches a Breeze",
//! PAPERS.md) prices it in lock contention: because every operation on a
//! set-associative cache touches exactly one set, striping sets across a
//! handful of mutexes yields a concurrent cache with no global lock and
//! no cross-lock ordering.
//!
//! This crate turns the repo's sequential core into such a service:
//!
//! * [`ConcurrentCache`] — contiguous stripes of sets, each a
//!   [`SetBank`](seta_cache::SetBank) behind its own mutex with one
//!   counter tally per client, with every
//!   request priced by a [`StrategyKind`](seta_core::StrategyKind) lookup
//!   (packed-lane SWAR fast path included) behind a `get`/`insert` API.
//!   Each set also publishes its MRU block in one atomic word, and a
//!   request that hits that block without changing it is answered from
//!   the word, with no lock.
//! * [`LoadSpec`] / [`replay`] — a multi-client open-loop load generator:
//!   N client threads, each with a private L1, pull trace chunks off an
//!   atomic work queue (the sweep runner's sharding pattern) and issue the
//!   exact read-in/write-back request sequence the sequential
//!   [`TwoLevel`](seta_cache::TwoLevel) hierarchy would.
//! * [`replay_traced`] / [`replay_served`] — the same replay with one
//!   Perfetto span track per client and live metrics/heartbeats through
//!   [`seta_obs`]'s serve endpoint.
//! * [`replay_contended`] — the contention observatory: the same replay
//!   with every request's lock wait/hold timed and attributed to its
//!   stripe ([`seta_obs::StripeStats`]) and sampled requests decomposed
//!   into wait/service/overhead phases. Instrumentation is
//!   content-invisible — the observer is monomorphized out of every
//!   other entry point, and an enabled observer never changes what the
//!   cache does, only what is measured.
//!
//! At one thread the replay is bit-identical (shared-cache statistics
//! included) to [`seta_sim::runner::simulate`]; at N threads the client
//! and cache tallies still conserve exactly
//! ([`LoadOutcome::conserves`]) — the invariants CI's ThreadSanitizer and
//! scaling-smoke jobs pin down.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod loadgen;

pub use cache::{ConcurrentCache, Response};
pub use loadgen::{
    replay, replay_contended, replay_contended_traced, replay_served, replay_traced, LoadOutcome,
    LoadSpec,
};

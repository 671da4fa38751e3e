//! `comm.bytes_sent` / `comm.bytes_received` count the payload a message
//! carries, not the size of its handle: a `Vec` of `n` values is
//! `n · size_of::<T>()` bytes, a scalar its own size.
//!
//! One test, because the recorder is process-global.

use comm::{Communicator, World};
use std::sync::Arc;
use telemetry::{Clock, Recorder};

const N: usize = 10_000;
const TAG: u64 = 7;

/// Run `body` on a 2-rank world under a recorder and return, per rank, the
/// `(bytes_sent, bytes_received)` counters.
fn bytes_per_rank(body: impl Fn(&Communicator) + Sync) -> Vec<(u64, u64)> {
    let recorder = telemetry::install(Arc::new(Recorder::new(Clock::Logical)));
    World::new(2).run(|c| {
        // Each rank's events under its own dimension (0 is "unscoped").
        let _dim = telemetry::with_dim(c.rank() as u64 + 1);
        body(c);
    });
    let by_dim = recorder.finish().counters_by_dim();
    let read = |name, dim| by_dim.get(&("comm", name, dim)).copied().unwrap_or(0);
    (1..=2)
        .map(|dim| (read("bytes_sent", dim), read("bytes_received", dim)))
        .collect()
}

#[test]
fn counters_read_payload_bytes_per_rank() {
    // An all-to-all of `Vec<f64>`: `N` values to the peer (the rank's own
    // buffer never crosses the wire).
    let bytes = bytes_per_rank(|c| {
        let sends = (0..2).map(|d| vec![d as f64; N]).collect();
        assert_eq!(c.alltoallv(sends)[1 - c.rank()].len(), N);
    });
    assert_eq!(bytes, vec![(8 * N as u64, 8 * N as u64); 2], "alltoallv");

    // A plane of `N/2` `f64`s point to point, then one `u32`.
    let bytes = bytes_per_rank(|c| {
        let peer = 1 - c.rank();
        c.send_vec(peer, TAG, vec![1.0f64; N / 2]);
        assert_eq!(c.recv::<Vec<f64>>(peer, TAG).len(), N / 2);
        c.send(peer, TAG + 1, 9u32);
        assert_eq!(c.recv::<u32>(peer, TAG + 1), 9);
    });
    let expect = (8 * (N / 2) + 4) as u64;
    assert_eq!(bytes, vec![(expect, expect); 2], "send_vec + send");
}

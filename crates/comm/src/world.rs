//! Rank spawning and point-to-point messaging.
//!
//! A [`World`] plays the role of `MPI_COMM_WORLD`: it runs one OS thread per
//! rank and gives each a [`Communicator`]. Transport is an unbounded channel
//! per rank (sends never block, so no send/receive ordering deadlocks), and
//! receives match on `(source, tag)` with out-of-order buffering, mirroring
//! MPI matching semantics.

use faults::Fired;
use std::any::Any;
use std::cell::RefCell;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Error returned by the timeout-aware communication calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// No matching message arrived within the deadline — the peer may have
    /// crashed or stalled. Surfaced instead of hanging forever.
    Timeout {
        /// Rank the receive was matching on.
        src: usize,
        /// Tag the receive was matching on.
        tag: u64,
        /// How long the call waited.
        waited: Duration,
    },
    /// The peer's endpoint no longer exists (its rank thread exited), so the
    /// message can never arrive.
    Disconnected {
        /// Rank the operation addressed.
        peer: usize,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { src, tag, waited } => write!(
                f,
                "timed out after {waited:?} waiting for a message from rank {src} tag {tag}"
            ),
            CommError::Disconnected { peer } => {
                write!(f, "rank {peer} hung up; message can never be delivered")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// A tagged message in flight.
struct Envelope {
    src: usize,
    tag: u64,
    /// Payload bytes, as `comm.bytes_sent` counted them on the way out.
    bytes: usize,
    payload: Box<dyn Any + Send>,
}

/// Tags at or above this value are reserved for collectives.
pub(crate) const COLLECTIVE_TAG_BASE: u64 = 1 << 60;

/// Per-rank endpoint: knows its rank, the world size, and how to reach peers.
///
/// A `Communicator` is owned by exactly one rank thread (it is `Send` but not
/// `Sync`), matching the MPI model of rank-private communicator handles.
pub struct Communicator {
    rank: usize,
    size: usize,
    senders: Arc<Vec<Sender<Envelope>>>,
    inbox: Receiver<Envelope>,
    /// Received-but-unmatched messages (MPI "unexpected message queue").
    pending: RefCell<Vec<Envelope>>,
    /// Collective sequence number; all ranks advance it in lockstep because
    /// collectives are collective calls.
    pub(crate) coll_seq: RefCell<u64>,
}

impl Communicator {
    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Send `value` to rank `dst` with a user `tag`, counted in
    /// `comm.bytes_*` as `size_of::<T>()`: the handle, not what it owns.
    /// Send a vector with [`Communicator::send_vec`], which counts its
    /// payload.
    ///
    /// Panics if `dst` is out of range or `tag` collides with the reserved
    /// collective tag space.
    pub fn send<T: Send + 'static>(&self, dst: usize, tag: u64, value: T) {
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "tag {tag} is reserved for collectives"
        );
        self.send_bytes(dst, tag, value, std::mem::size_of::<T>());
    }

    /// Send the vector `values` to rank `dst` with a user `tag`: counted in
    /// `comm.bytes_sent` (and, on arrival, `comm.bytes_received`) as its
    /// `len · size_of::<T>()` payload bytes, where [`Communicator::send`]
    /// counts `size_of::<T>()`. Receive it with [`Communicator::recv`].
    ///
    /// Panics as [`Communicator::send`] does.
    pub fn send_vec<T: Send + 'static>(&self, dst: usize, tag: u64, values: Vec<T>) {
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "tag {tag} is reserved for collectives"
        );
        let bytes = std::mem::size_of_val(values.as_slice());
        self.send_bytes(dst, tag, values, bytes);
    }

    /// Send `value`, counted in `comm.bytes_sent` as `bytes`.
    pub(crate) fn send_bytes<T: Send + 'static>(
        &self,
        dst: usize,
        tag: u64,
        value: T,
        bytes: usize,
    ) {
        assert!(
            dst < self.size,
            "send to rank {dst} out of range {}",
            self.size
        );
        // Fault site: a `Transient` fault models a dropped packet that the
        // transport retransmits (delivery still happens, the fault is only
        // recorded); a `Stall` delays the send; a `Crash` kills this rank.
        if faults::poll_site(None, "comm.send", "comm.send") == Some(Fired::Crash) {
            panic!("rank {} crashed by fault injection", self.rank)
        }
        telemetry::count!("comm", "bytes_sent", bytes);
        self.senders[dst]
            .send(Envelope {
                src: self.rank,
                tag,
                bytes,
                payload: Box::new(value),
            })
            .expect("peer rank hung up while message in flight");
    }

    /// Blocking receive of a `T` from rank `src` with tag `tag`.
    ///
    /// Panics if the matched payload has a different type (a protocol error)
    /// or if the world shuts down while waiting.
    pub fn recv<T: Send + 'static>(&self, src: usize, tag: u64) -> T {
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "tag {tag} is reserved for collectives"
        );
        self.recv_raw(src, tag)
    }

    pub(crate) fn recv_raw<T: Send + 'static>(&self, src: usize, tag: u64) -> T {
        self.apply_recv_fault();
        if let Some(env) = self.take_pending(src, tag) {
            return Self::accept(env, src, tag);
        }
        loop {
            let env = self
                .inbox
                .recv()
                .expect("world shut down while rank was waiting for a message");
            if env.src == src && env.tag == tag {
                return Self::accept(env, src, tag);
            }
            self.pending.borrow_mut().push(env);
        }
    }

    /// Blocking receive with a deadline: like [`Communicator::recv`], but a
    /// peer that crashed or stalled past `timeout` surfaces as
    /// [`CommError::Timeout`] instead of hanging the rank forever.
    pub fn recv_timeout<T: Send + 'static>(
        &self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<T, CommError> {
        assert!(
            tag < COLLECTIVE_TAG_BASE,
            "tag {tag} is reserved for collectives"
        );
        let deadline = Instant::now() + timeout;
        self.apply_recv_fault();
        if let Some(env) = self.take_pending(src, tag) {
            return Ok(Self::accept(env, src, tag));
        }
        loop {
            let Some(remaining) = deadline
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())
            else {
                return Err(CommError::Timeout {
                    src,
                    tag,
                    waited: timeout,
                });
            };
            match self.inbox.recv_timeout(remaining) {
                Ok(env) if env.src == src && env.tag == tag => {
                    return Ok(Self::accept(env, src, tag));
                }
                Ok(env) => self.pending.borrow_mut().push(env),
                Err(RecvTimeoutError::Timeout) => {
                    return Err(CommError::Timeout {
                        src,
                        tag,
                        waited: timeout,
                    });
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::Disconnected { peer: src });
                }
            }
        }
    }

    /// Pull a matched envelope out of the unexpected-message queue.
    fn take_pending(&self, src: usize, tag: u64) -> Option<Envelope> {
        let mut pending = self.pending.borrow_mut();
        let i = pending.iter().position(|e| e.src == src && e.tag == tag)?;
        Some(pending.swap_remove(i))
    }

    /// Fault site on the receive path; mirrors the send-side semantics.
    fn apply_recv_fault(&self) {
        if faults::poll_site(None, "comm.recv", "comm.recv") == Some(Fired::Crash) {
            panic!("rank {} crashed by fault injection", self.rank)
        }
    }

    /// Count a matched envelope's payload in `comm.bytes_received` and
    /// unwrap it.
    fn accept<T: 'static>(env: Envelope, src: usize, tag: u64) -> T {
        telemetry::count!("comm", "bytes_received", env.bytes);
        *env.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!(
                "type mismatch receiving from rank {src} tag {tag}: expected {}",
                std::any::type_name::<T>()
            )
        })
    }

    /// Non-blocking probe: is a message from `src` with `tag` available?
    pub fn probe(&self, src: usize, tag: u64) -> bool {
        {
            let pending = self.pending.borrow();
            if pending.iter().any(|e| e.src == src && e.tag == tag) {
                return true;
            }
        }
        // Drain whatever has arrived into the pending queue, then check.
        while let Ok(env) = self.inbox.try_recv() {
            self.pending.borrow_mut().push(env);
        }
        self.pending
            .borrow()
            .iter()
            .any(|e| e.src == src && e.tag == tag)
    }

    /// Fetch the next collective tag (same value on every rank because
    /// collectives execute in lockstep).
    pub(crate) fn next_collective_tag(&self) -> u64 {
        let mut seq = self.coll_seq.borrow_mut();
        let tag = COLLECTIVE_TAG_BASE + *seq;
        *seq += 1;
        tag
    }
}

/// A fixed-size group of ranks executed as threads.
pub struct World {
    size: usize,
}

impl World {
    /// A world with `size` ranks. Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "world needs at least one rank");
        World { size }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Run `f` on every rank concurrently; returns per-rank results indexed
    /// by rank. Panics (after all threads stop) if any rank panicked.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Communicator) -> T + Sync,
    {
        let size = self.size;
        let (senders, inboxes): (Vec<_>, Vec<_>) = (0..size).map(|_| channel()).unzip();
        let senders = Arc::new(senders);
        let mut results: Vec<Option<T>> = (0..size).map(|_| None).collect();

        // Join every rank thread before deciding the outcome so a panicking
        // rank never leaves peers running against dropped channels, then
        // re-raise one rank's original payload so callers (and tests) see the
        // real failure message. A rank that dies because a *peer* panicked
        // first fails with the secondary "hung up" message; prefer a primary
        // payload over those when picking what to re-raise.
        let panics: Mutex<Vec<Box<dyn Any + Send>>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(size);
            for (rank, (inbox, slot)) in inboxes.into_iter().zip(results.iter_mut()).enumerate() {
                let senders = Arc::clone(&senders);
                let f = &f;
                handles.push(scope.spawn(move || {
                    let comm = Communicator {
                        rank,
                        size,
                        senders,
                        inbox,
                        pending: RefCell::new(Vec::new()),
                        coll_seq: RefCell::new(0),
                    };
                    let _span = telemetry::span!("comm", "rank", rank);
                    *slot = Some(f(&comm));
                }));
            }
            for h in handles {
                if let Err(payload) = h.join() {
                    panics
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .push(payload);
                }
            }
        });
        let mut panics = panics.into_inner().unwrap_or_else(|p| p.into_inner());
        if !panics.is_empty() {
            let is_secondary = |p: &Box<dyn Any + Send>| {
                let msg = p
                    .downcast_ref::<&'static str>()
                    .copied()
                    .map(str::to_string)
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                msg.contains("hung up") || msg.contains("world shut down")
            };
            let pick = panics.iter().position(|p| !is_secondary(p)).unwrap_or(0);
            std::panic::resume_unwind(panics.swap_remove(pick));
        }

        results
            .into_iter()
            .map(|r| r.expect("rank produced no result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_see_their_ids() {
        let world = World::new(5);
        let ids = world.run(|c| (c.rank(), c.size()));
        for (i, (r, s)) in ids.iter().enumerate() {
            assert_eq!(*r, i);
            assert_eq!(*s, 5);
        }
    }

    #[test]
    fn ring_send_recv() {
        let world = World::new(4);
        let out = world.run(|c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, 7, c.rank() as u64 * 10);
            c.recv::<u64>(prev, 7)
        });
        assert_eq!(out, vec![30, 0, 10, 20]);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        let world = World::new(2);
        let out = world.run(|c| {
            if c.rank() == 0 {
                c.send(1, 1, "first".to_string());
                c.send(1, 2, "second".to_string());
                0
            } else {
                // Receive in reverse tag order; tag-1 message must be parked.
                let b = c.recv::<String>(0, 2);
                let a = c.recv::<String>(0, 1);
                assert_eq!(a, "first");
                assert_eq!(b, "second");
                1
            }
        });
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn distinct_sources_do_not_cross() {
        let world = World::new(3);
        world.run(|c| {
            if c.rank() < 2 {
                c.send(2, 9, c.rank() as u32);
            } else {
                let from1 = c.recv::<u32>(1, 9);
                let from0 = c.recv::<u32>(0, 9);
                assert_eq!((from0, from1), (0, 1));
            }
        });
    }

    #[test]
    fn probe_sees_pending_message() {
        let world = World::new(2);
        world.run(|c| {
            if c.rank() == 0 {
                c.send(1, 3, 42u8);
                // Handshake so the test isn't racy.
                let _ = c.recv::<u8>(1, 4);
            } else {
                // Wait until the message is actually here.
                while !c.probe(0, 3) {
                    std::thread::yield_now();
                }
                assert_eq!(c.recv::<u8>(0, 3), 42);
                assert!(!c.probe(0, 3));
                c.send(0, 4, 1u8);
            }
        });
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn type_mismatch_is_a_protocol_error() {
        let world = World::new(2);
        world.run(|c| {
            if c.rank() == 0 {
                c.send(1, 1, 5u32);
            } else {
                let _ = c.recv::<u64>(0, 1);
            }
        });
    }

    #[test]
    #[should_panic(expected = "reserved for collectives")]
    fn reserved_tags_rejected() {
        let world = World::new(1);
        world.run(|c| c.send(0, COLLECTIVE_TAG_BASE + 1, 0u8));
    }

    #[test]
    fn single_rank_world_self_send() {
        let world = World::new(1);
        let out = world.run(|c| {
            c.send(0, 5, 99u64);
            c.recv::<u64>(0, 5)
        });
        assert_eq!(out, vec![99]);
    }
}

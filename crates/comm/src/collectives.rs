//! Collective operations built on point-to-point messaging.
//!
//! All collectives are *collective calls*: every rank of the world must call
//! the same collective in the same order. Tags are drawn from a reserved
//! per-communicator sequence so interleaved user traffic cannot interfere.

use crate::world::Communicator;

impl Communicator {
    /// Block until every rank has entered the barrier.
    #[cfg(test)]
    fn barrier(&self) {
        let tag = self.next_collective_tag();
        // Fan-in to rank 0, then fan-out.
        if self.rank() == 0 {
            for src in 1..self.size() {
                let _: () = self.recv_raw(src, tag);
            }
            for dst in 1..self.size() {
                self.send_raw(dst, tag, ());
            }
        } else {
            self.send_raw(0, tag, ());
            let _: () = self.recv_raw(0, tag);
        }
    }

    /// Broadcast `value` from `root` to every rank. Only the root's `value`
    /// is used; other ranks may pass `None`.
    ///
    /// Each message counts `size_of::<T>()` in `comm.bytes_*`, the handle
    /// and not what it owns (see [`Communicator::allreduce_sum_vec_f64`]
    /// for a vector collective that counts its payload).
    fn broadcast<T: Clone + Send + 'static>(&self, root: usize, value: Option<T>) -> T {
        self.broadcast_counted(root, value, |_| std::mem::size_of::<T>())
    }

    /// [`Communicator::broadcast`], each message counted as `bytes(&value)`.
    fn broadcast_counted<T: Clone + Send + 'static>(
        &self,
        root: usize,
        value: Option<T>,
        bytes: impl Fn(&T) -> usize,
    ) -> T {
        assert!(root < self.size());
        let tag = self.next_collective_tag();
        if self.rank() == root {
            let v = value.expect("broadcast root must supply a value");
            for dst in 0..self.size() {
                if dst != root {
                    self.send_bytes(dst, tag, v.clone(), bytes(&v));
                }
            }
            v
        } else {
            self.recv_raw(root, tag)
        }
    }

    /// Gather one value per rank at `root`. The root receives `Some(values)`
    /// indexed by rank; other ranks receive `None`.
    ///
    /// Each message counts `size_of::<T>()` in `comm.bytes_*`, as
    /// [`Communicator::broadcast`]'s do; so do `allgather`, `reduce` and
    /// `allreduce`, which are built on the two.
    fn gather<T: Send + 'static>(&self, root: usize, value: T) -> Option<Vec<T>> {
        self.gather_counted(root, value, |_| std::mem::size_of::<T>())
    }

    /// [`Communicator::gather`], each message counted as `bytes(&value)`.
    fn gather_counted<T: Send + 'static>(
        &self,
        root: usize,
        value: T,
        bytes: impl Fn(&T) -> usize,
    ) -> Option<Vec<T>> {
        assert!(root < self.size());
        let tag = self.next_collective_tag();
        if self.rank() == root {
            let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            out[root] = Some(value);
            for src in 0..self.size() {
                if src != root {
                    out[src] = Some(self.recv_raw(src, tag));
                }
            }
            Some(out.into_iter().map(Option::unwrap).collect())
        } else {
            let n = bytes(&value);
            self.send_bytes(root, tag, value, n);
            None
        }
    }

    /// Gather one value per rank on **every** rank, indexed by rank.
    pub fn allgather<T: Clone + Send + 'static>(&self, value: T) -> Vec<T> {
        let gathered = self.gather(0, value);
        self.broadcast(0, gathered)
    }

    /// Reduce values with associative `op` at `root` (rank order, so results
    /// are deterministic). Non-roots get `None`.
    fn reduce<T, F>(&self, root: usize, value: T, op: F) -> Option<T>
    where
        T: Send + 'static,
        F: Fn(T, T) -> T,
    {
        self.gather(root, value)
            .map(|vs| vs.into_iter().reduce(&op).expect("world is non-empty"))
    }

    /// Reduce on every rank.
    pub fn allreduce<T, F>(&self, value: T, op: F) -> T
    where
        T: Clone + Send + 'static,
        F: Fn(T, T) -> T,
    {
        let reduced = self.reduce(0, value, op);
        self.broadcast(0, reduced)
    }

    /// Personalized all-to-all: `sends[d]` goes to rank `d`; returns the
    /// vector received from each rank, indexed by source rank.
    ///
    /// `comm.bytes_sent` / `comm.bytes_received` count each buffer that
    /// crosses the wire as its `len · size_of::<T>()` payload bytes; a rank's
    /// own buffer stays put and is not counted.
    ///
    /// Panics if `sends.len() != size`.
    pub fn alltoallv<T: Send + 'static>(&self, mut sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
        assert_eq!(
            sends.len(),
            self.size(),
            "alltoallv needs one send buffer per rank"
        );
        let tag = self.next_collective_tag();
        let me = self.rank();
        let mine = std::mem::take(&mut sends[me]);
        for (dst, buf) in sends.into_iter().enumerate() {
            if dst != me {
                let bytes = std::mem::size_of_val(buf.as_slice());
                self.send_bytes(dst, tag, buf, bytes);
            }
        }
        let mut out: Vec<Vec<T>> = Vec::with_capacity(self.size());
        for src in 0..self.size() {
            if src == me {
                out.push(Vec::new()); // placeholder, replaced below
            } else {
                out.push(self.recv_raw(src, tag));
            }
        }
        out[me] = mine;
        out
    }

    /// Sum of `u64` across ranks, on every rank.
    pub fn allreduce_sum_u64(&self, value: u64) -> u64 {
        self.allreduce(value, |a, b| a + b)
    }

    /// Sum of `f64` across ranks, on every rank (rank-ordered, deterministic).
    pub fn allreduce_sum_f64(&self, value: f64) -> f64 {
        self.allreduce(value, |a, b| a + b)
    }

    /// Elementwise sum of equal-length `f64` vectors across ranks (rank
    /// order, deterministic), on every rank.
    ///
    /// Each vector that crosses the wire counts its `8 · len` payload bytes
    /// in `comm.bytes_*`.
    pub fn allreduce_sum_vec_f64(&self, value: Vec<f64>) -> Vec<f64> {
        let payload = |v: &Vec<f64>| std::mem::size_of_val(v.as_slice());
        let reduced = self.gather_counted(0, value, payload).map(|vs| {
            vs.into_iter()
                .reduce(|mut a, b| {
                    assert_eq!(a.len(), b.len(), "allreduce_sum_vec_f64 length mismatch");
                    for (x, y) in a.iter_mut().zip(&b) {
                        *x += y;
                    }
                    a
                })
                .expect("world is non-empty")
        });
        self.broadcast_counted(0, reduced, payload)
    }
}

#[cfg(test)]
mod tests {
    use crate::world::World;

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let world = World::new(6);
        let phase1 = AtomicUsize::new(0);
        world.run(|c| {
            phase1.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            // After the barrier every rank must observe all increments.
            assert_eq!(phase1.load(Ordering::SeqCst), 6);
        });
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let world = World::new(4);
        let out = world.run(|c| {
            let v = if c.rank() == 2 {
                Some(vec![1u8, 2, 3])
            } else {
                None
            };
            c.broadcast(2, v)
        });
        for v in out {
            assert_eq!(v, vec![1, 2, 3]);
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let world = World::new(5);
        let out = world.run(|c| c.gather(3, c.rank() as u32 * 2));
        for (r, g) in out.iter().enumerate() {
            if r == 3 {
                assert_eq!(g.as_ref().unwrap(), &vec![0, 2, 4, 6, 8]);
            } else {
                assert!(g.is_none());
            }
        }
    }

    #[test]
    fn allgather_everywhere() {
        let world = World::new(4);
        let out = world.run(|c| c.allgather(c.rank()));
        for v in out {
            assert_eq!(v, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn allreduce_sum_and_max() {
        let world = World::new(7);
        let out = world.run(|c| {
            let s = c.allreduce_sum_u64(c.rank() as u64 + 1);
            let m = c.allreduce(c.rank() as f64, f64::max);
            (s, m)
        });
        for (s, m) in out {
            assert_eq!(s, 28);
            assert_eq!(m, 6.0);
        }
    }

    #[test]
    fn allreduce_vec_sums_elementwise() {
        let world = World::new(3);
        let out = world.run(|c| c.allreduce_sum_vec_f64(vec![c.rank() as f64; 4]));
        for v in out {
            assert_eq!(v, vec![3.0; 4]);
        }
    }

    #[test]
    fn alltoallv_exchanges_personalized_buffers() {
        let world = World::new(4);
        let out = world.run(|c| {
            let sends: Vec<Vec<u64>> = (0..c.size())
                .map(|d| vec![(c.rank() * 100 + d) as u64; d + 1])
                .collect();
            c.alltoallv(sends)
        });
        for (me, recvd) in out.iter().enumerate() {
            for (src, buf) in recvd.iter().enumerate() {
                assert_eq!(buf.len(), me + 1, "rank {me} from {src}");
                assert!(buf.iter().all(|&x| x == (src * 100 + me) as u64));
            }
        }
    }

    #[test]
    fn collectives_interleave_with_p2p() {
        let world = World::new(3);
        world.run(|c| {
            // P2P traffic with user tags around collectives must not confuse
            // tag matching.
            let next = (c.rank() + 1) % 3;
            let prev = (c.rank() + 2) % 3;
            c.send(next, 11, c.rank());
            let s = c.allreduce_sum_u64(1);
            assert_eq!(s, 3);
            let got = c.recv::<usize>(prev, 11);
            assert_eq!(got, prev);
            c.barrier();
        });
    }

    #[test]
    fn reduce_is_rank_ordered_deterministic() {
        let world = World::new(4);
        let out = world.run(|c| {
            c.allreduce(vec![c.rank()], |mut a, mut b| {
                a.append(&mut b);
                a
            })
        });
        for v in out {
            assert_eq!(v, vec![0, 1, 2, 3]);
        }
    }
}

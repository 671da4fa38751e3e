//! The one collective the product runs, built on point-to-point messaging:
//! the personalized all-to-all under `redistribute` and `exchange_overload`.
//!
//! A collective is a *collective call*: every rank of the world must call it
//! in the same order. Its tags are drawn from a reserved per-communicator
//! sequence so interleaved user traffic cannot interfere.

use crate::world::Communicator;

impl Communicator {
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
}

#[cfg(test)]
mod tests {
    use crate::world::World;

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
            let sends = (0..3).map(|d| vec![c.rank() * 10 + d]).collect();
            let got = c.alltoallv(sends);
            assert_eq!(
                got,
                (0..3).map(|r| vec![r * 10 + c.rank()]).collect::<Vec<_>>()
            );
            let got = c.recv::<usize>(prev, 11);
            assert_eq!(got, prev);
        });
    }
}

//! Parallel LSD radix sort for unsigned keys — the classic GPU/data-parallel
//! sorting primitive (Thrust's `sort_by_key` uses the same structure:
//! per-chunk digit histograms, a scan over (chunk × digit) counts, and a
//! stable scatter).

use crate::backend::{Backend, SendPtr};
use parking_lot::Mutex;

const RADIX_BITS: u32 = 8;
const BUCKETS: usize = 1 << RADIX_BITS;

/// Stable sort of `data` by a `u64` key, least-significant-digit radix with
/// 8-bit digits. O(passes · n); passes shrink automatically when the key
/// range is small.
pub fn radix_sort_by_key<T, F>(backend: &dyn Backend, data: &mut [T], key: F)
where
    T: Send + Sync + Clone,
    F: Fn(&T) -> u64 + Sync,
{
    let n = data.len();
    if n < 2 {
        return;
    }
    // Determine how many digit passes the key range actually needs.
    let max_key = {
        let m = Mutex::new(0u64);
        let grain = (n / backend.concurrency().max(1)).max(1024);
        backend.dispatch(n, grain, &|r| {
            let mut local = 0u64;
            for x in &data[r] {
                local = local.max(key(x));
            }
            let mut g = m.lock();
            *g = (*g).max(local);
        });
        m.into_inner()
    };
    let passes = ((64 - max_key.leading_zeros()).div_ceil(RADIX_BITS)).max(1);

    let mut src: Vec<T> = data.to_vec();
    let mut dst: Vec<T> = data.to_vec();
    let grain = (n / backend.concurrency().max(1)).max(1024);
    // Chunk boundaries are fixed across passes (they depend only on n).
    let mut chunk_starts: Vec<usize> = (0..n).step_by(grain).collect();
    chunk_starts.push(n);
    let nchunks = chunk_starts.len() - 1;

    for pass in 0..passes {
        let shift = pass * RADIX_BITS;
        // 1. Per-chunk digit histograms (parallel over chunks).
        let histograms: Vec<[u32; BUCKETS]> = {
            let partial: Mutex<Vec<(usize, [u32; BUCKETS])>> = Mutex::new(Vec::new());
            let src_ref = &src;
            let starts = &chunk_starts;
            backend.dispatch(nchunks, 1, &|chunks| {
                for c in chunks {
                    let mut h = [0u32; BUCKETS];
                    for x in &src_ref[starts[c]..starts[c + 1]] {
                        h[((key(x) >> shift) & (BUCKETS as u64 - 1)) as usize] += 1;
                    }
                    partial.lock().push((c, h));
                }
            });
            let mut v = partial.into_inner();
            v.sort_by_key(|(c, _)| *c);
            v.into_iter().map(|(_, h)| h).collect()
        };
        // 2. Exclusive scan over (digit, chunk): global write offsets.
        let mut offsets = vec![[0u32; BUCKETS]; nchunks];
        let mut running = 0u32;
        for d in 0..BUCKETS {
            for c in 0..nchunks {
                offsets[c][d] = running;
                running += histograms[c][d];
            }
        }
        // 3. Stable scatter (parallel over chunks; destination ranges are
        //    disjoint by construction).
        {
            let dptr = SendPtr(dst.as_mut_ptr());
            let src_ref = &src;
            let starts = &chunk_starts;
            let offs = &offsets;
            backend.dispatch(nchunks, 1, &|chunks| {
                for c in chunks {
                    let mut cursor = offs[c];
                    for x in &src_ref[starts[c]..starts[c + 1]] {
                        let d = ((key(x) >> shift) & (BUCKETS as u64 - 1)) as usize;
                        // SAFETY: each (chunk, digit) owns the disjoint range
                        // [offsets[c][d], offsets[c][d] + histograms[c][d]).
                        unsafe { dptr.write(cursor[d] as usize, x.clone()) };
                        cursor[d] += 1;
                    }
                }
            });
        }
        std::mem::swap(&mut src, &mut dst);
    }
    data.clone_from_slice(&src);
}

/// Digit width of the specialized flat-`u64` engine. Sixteen-bit digits
/// halve the pass count of the generic engine's 8-bit digits (4 passes for
/// full-range keys instead of 8); an LSD radix sort's output is independent
/// of digit width (each pass is a stable partition), so the result is still
/// element-for-element identical to [`radix_sort_by_key`]. The per-chunk
/// tables grow to 256 KiB — L2-resident, which the halved number of O(n)
/// scatter passes more than buys back.
const FAST_RADIX_BITS: u32 = 16;
const FAST_BUCKETS: usize = 1 << FAST_RADIX_BITS;

/// Sort `u64` keys in place.
///
/// Specialized flat-key engine: same pass structure as
/// [`radix_sort_by_key`] (per-chunk digit histograms, a scan over
/// (digit × chunk), stable scatter), but with the generic machinery
/// stripped out for the hot path — `FAST_RADIX_BITS`-wide digits halve
/// the pass count, per-chunk histograms land in preallocated stripes each
/// chunk owns (no mutex, no partial-vector sort), keys move as raw `u64`
/// copies instead of `clone()`, and a pass whose digit is constant across
/// all keys is skipped outright (the scatter would be the identity
/// permutation). The generic engine is kept untouched as the differential
/// reference; the conformance suite checks the two agree on every backend
/// over the adversarial corpus.
pub fn radix_sort_u64(backend: &dyn Backend, data: &mut [u64]) {
    let n = data.len();
    if n < 2 {
        return;
    }
    let grain = (n / backend.concurrency().max(1)).max(1024);
    let mut chunk_starts: Vec<usize> = (0..n).step_by(grain).collect();
    chunk_starts.push(n);
    let nchunks = chunk_starts.len() - 1;

    // Per-chunk maxima into owned slots — no lock.
    let max_key = {
        let mut maxima = vec![0u64; nchunks];
        let mp = SendPtr(maxima.as_mut_ptr());
        let src_ref = &*data;
        let starts = &chunk_starts;
        backend.dispatch(nchunks, 1, &|chunks| {
            for c in chunks {
                let mut local = 0u64;
                for &x in &src_ref[starts[c]..starts[c + 1]] {
                    local = local.max(x);
                }
                // SAFETY: each chunk index owns exactly slot `c`.
                unsafe { mp.write(c, local) };
            }
        });
        maxima.into_iter().max().unwrap_or(0)
    };
    let passes = ((64 - max_key.leading_zeros()).div_ceil(FAST_RADIX_BITS)).max(1);

    let mut src: Vec<u64> = data.to_vec();
    let mut dst: Vec<u64> = vec![0; n];
    // Flat (chunk × bucket) tables; chunk `c` owns the stripe
    // `[c · FAST_BUCKETS, (c+1) · FAST_BUCKETS)` of each.
    let mut histograms = vec![0u32; nchunks * FAST_BUCKETS];
    let mut offsets = vec![0u32; nchunks * FAST_BUCKETS];
    let mask = FAST_BUCKETS as u64 - 1;
    for pass in 0..passes {
        let shift = pass * FAST_RADIX_BITS;
        // 1. Per-chunk digit histograms into owned stripes.
        histograms.fill(0);
        {
            let hp = SendPtr(histograms.as_mut_ptr());
            let src_ref = &src;
            let starts = &chunk_starts;
            backend.dispatch(nchunks, 1, &|chunks| {
                for c in chunks {
                    // SAFETY: each chunk index owns exactly its stripe.
                    let h = unsafe {
                        std::slice::from_raw_parts_mut(hp.at(c * FAST_BUCKETS), FAST_BUCKETS)
                    };
                    for &x in &src_ref[starts[c]..starts[c + 1]] {
                        h[((x >> shift) & mask) as usize] += 1;
                    }
                }
            });
        }
        // Constant-digit pass: every key shares one digit value, so the
        // stable scatter is the identity — skip it. All keys share a digit
        // iff the first key's digit bucket holds all n of them.
        let d0 = ((src[0] >> shift) & mask) as usize;
        let constant_digit = (0..nchunks)
            .map(|c| histograms[c * FAST_BUCKETS + d0] as usize)
            .sum::<usize>()
            == n;
        if constant_digit {
            continue;
        }
        // 2. Exclusive scan over (digit, chunk): global write offsets.
        let mut running = 0u32;
        for d in 0..FAST_BUCKETS {
            for c in 0..nchunks {
                offsets[c * FAST_BUCKETS + d] = running;
                running += histograms[c * FAST_BUCKETS + d];
            }
        }
        // 3. Stable scatter (disjoint destination ranges per chunk/digit).
        //    Each chunk advances the cursors in its own offset stripe.
        {
            let dptr = SendPtr(dst.as_mut_ptr());
            let op = SendPtr(offsets.as_mut_ptr());
            let src_ref = &src;
            let starts = &chunk_starts;
            backend.dispatch(nchunks, 1, &|chunks| {
                for c in chunks {
                    // SAFETY: each chunk index owns exactly its stripe.
                    let cursor = unsafe {
                        std::slice::from_raw_parts_mut(op.at(c * FAST_BUCKETS), FAST_BUCKETS)
                    };
                    for &x in &src_ref[starts[c]..starts[c + 1]] {
                        let d = ((x >> shift) & mask) as usize;
                        // SAFETY: each (chunk, digit) owns the disjoint range
                        // [offsets[c][d], offsets[c][d] + histograms[c][d]).
                        unsafe { dptr.write(cursor[d] as usize, x) };
                        cursor[d] += 1;
                    }
                }
            });
        }
        std::mem::swap(&mut src, &mut dst);
    }
    data.copy_from_slice(&src);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Serial, Threaded};

    fn scrambled(n: usize, modulus: u64) -> Vec<u64> {
        (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % modulus)
            .collect()
    }

    #[test]
    fn sorts_match_std_across_sizes_and_ranges() {
        let t = Threaded::new(4);
        for n in [0usize, 1, 2, 255, 256, 257, 10_000, 100_000] {
            for modulus in [2u64, 255, 65_536, u64::MAX] {
                let orig = scrambled(n, modulus);
                let mut expect = orig.clone();
                expect.sort_unstable();
                let mut a = orig.clone();
                radix_sort_u64(&Serial, &mut a);
                assert_eq!(a, expect, "serial n={n} mod={modulus}");
                let mut b = orig.clone();
                radix_sort_u64(&t, &mut b);
                assert_eq!(b, expect, "threaded n={n} mod={modulus}");
            }
        }
    }

    #[test]
    fn specialized_u64_engine_matches_generic_reference() {
        let t = Threaded::new(4);
        for n in [2usize, 1023, 1024, 1025, 4097, 60_000] {
            for modulus in [2u64, 255, 65_536, u64::MAX] {
                let orig = scrambled(n, modulus);
                let mut generic = orig.clone();
                radix_sort_by_key(&t, &mut generic, |&k| k);
                let mut fast = orig.clone();
                radix_sort_u64(&t, &mut fast);
                assert_eq!(fast, generic, "n={n} mod={modulus}");
            }
        }
    }

    #[test]
    fn constant_digit_passes_are_skipped_correctly() {
        // Keys identical in the low digit but spread in the high digit:
        // pass 0 is constant and must be skipped without corrupting order.
        let t = Threaded::new(4);
        let mut v: Vec<u64> = (0..10_000u64).map(|i| ((i * 733) % 9973) << 8).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort_u64(&t, &mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn stable_for_equal_keys() {
        let t = Threaded::new(4);
        let mut v: Vec<(u64, usize)> = (0..50_000).map(|i| ((i % 13) as u64, i)).collect();
        // Scramble first.
        v.sort_by_key(|&(_, i)| (i * 48_271) % 50_021);
        let mut expect = v.clone();
        expect.sort_by_key(|&(k, _)| k); // std stable sort
        radix_sort_by_key(&t, &mut v, |&(k, _)| k);
        assert_eq!(v, expect, "radix must be stable");
    }

    #[test]
    fn already_sorted_and_reversed() {
        let t = Threaded::new(4);
        let mut asc: Vec<u64> = (0..10_000).collect();
        radix_sort_u64(&t, &mut asc);
        assert!(asc.windows(2).all(|w| w[0] <= w[1]));
        let mut desc: Vec<u64> = (0..10_000).rev().collect();
        radix_sort_u64(&t, &mut desc);
        assert_eq!(desc, (0..10_000).collect::<Vec<u64>>());
    }

    #[test]
    fn all_equal_keys() {
        let t = Threaded::new(3);
        let mut v = vec![42u64; 5000];
        radix_sort_u64(&t, &mut v);
        assert!(v.iter().all(|&x| x == 42));
    }

    #[test]
    fn sorts_by_extracted_key() {
        let t = Threaded::new(4);
        let mut v: Vec<(String, u64)> = (0..1000)
            .map(|i| (format!("item{i}"), (1000 - i) as u64))
            .collect();
        radix_sort_by_key(&t, &mut v, |(_, k)| *k);
        assert!(v.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(v[0].1, 1);
        assert_eq!(v[0].0, "item999");
    }
}

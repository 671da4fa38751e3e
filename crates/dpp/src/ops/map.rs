//! Elementwise transform.

use crate::backend::{par_init, Backend, DEFAULT_GRAIN};

/// `out[i] = f(&input[i])`.
pub fn map<T, U, F>(backend: &dyn Backend, input: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_init(backend, input.len(), DEFAULT_GRAIN, |i| f(&input[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Serial, Threaded};

    #[test]
    fn map_squares() {
        let t = Threaded::new(4);
        let v: Vec<u32> = (0..5000).collect();
        let s = map(&Serial, &v, |x| x * x);
        let p = map(&t, &v, |x| x * x);
        assert_eq!(s, p);
        assert_eq!(p[100], 10_000);
    }

    #[test]
    fn map_empty() {
        let out: Vec<u8> = map(&Serial, &[] as &[u8], |x| *x);
        assert!(out.is_empty());
    }
}

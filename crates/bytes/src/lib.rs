//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no crates.io access, so this crate provides the
//! one piece of the `bytes` API the GenericIO-style container code uses: an
//! immutable [`Bytes`] buffer, built from a finished `Vec<u8>` without a copy
//! and read as a byte slice. Unlike the real crate there is no shared
//! zero-copy storage — a clone copies.

use std::ops::Deref;

/// An immutable byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    /// Take ownership of a finished buffer (no copy).
    fn from(data: Vec<u8>) -> Self {
        Bytes { data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_vec_becomes_its_bytes() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        assert_eq!(b.len(), 5);
        assert_eq!(&b[..2], &[1, 2]);
        assert_eq!(b.to_vec(), vec![1, 2, 3, 4, 5]);
        assert_eq!(b.as_ref(), &[1, 2, 3, 4, 5]);
    }
}

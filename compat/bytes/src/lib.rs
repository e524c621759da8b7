//! Offline stand-in for the `bytes` crate, exposing the subset of its
//! API this workspace uses. `Bytes` is a cheaply-cloneable, sliceable
//! view over immutable shared storage: the `Vec<u8>` it was built from,
//! behind an `Arc`. `Bytes::from(Vec<u8>)` and `BytesMut::freeze` take
//! that vector over without copying its bytes, and `slice`/`clone` share
//! it; only `copy_from_slice` and `from_static` copy.
//!
//! Vendored because the build environment has no network access to
//! crates.io; wired in via `[patch.crates-io]` in the workspace root.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Cheaply cloneable and sliceable chunk of contiguous memory.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates a new empty `Bytes`.
    pub fn new() -> Bytes {
        Bytes::from_vec(Vec::new())
    }

    /// Creates `Bytes` from a static slice. Unlike the upstream crate,
    /// which borrows the static data, this copies it once into owned
    /// storage; the slices passed here are a few bytes long.
    pub fn from_static(s: &'static [u8]) -> Bytes {
        Bytes::from_vec(s.to_vec())
    }

    /// Creates `Bytes` by copying the given slice.
    pub fn copy_from_slice(s: &[u8]) -> Bytes {
        Bytes::from_vec(s.to_vec())
    }

    /// Takes `v` over as the shared storage; its bytes are not copied.
    /// Surplus capacity is released first (`shrink_to_fit`, which the
    /// allocator does in place when it can), so shared storage never pins
    /// bytes past the end.
    fn from_vec(mut v: Vec<u8>) -> Bytes {
        v.shrink_to_fit();
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a slice of self for the provided range, sharing storage.
    ///
    /// Panics if the range is out of bounds, like the upstream crate.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice out of bounds: {lo}..{hi} of {}",
            self.len()
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from_vec(v)
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Bytes {
        b.freeze()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter().take(64) {
            if (b' '..=b'~').contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        if self.len() > 64 {
            write!(f, "…(+{} bytes)", self.len() - 64)?;
        }
        write!(f, "\"")
    }
}

/// Growable byte buffer; freezes into [`Bytes`] without copying.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> BytesMut {
        BytesMut { buf: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }

    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Converts self into an immutable `Bytes`, transferring ownership.
    pub fn freeze(self) -> Bytes {
        Bytes::from_vec(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({} bytes)", self.buf.len())
    }
}

/// Write-side extension trait (subset of the upstream `BufMut`).
pub trait BufMut {
    fn put_slice(&mut self, s: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    fn put_f32_le(&mut self, v: f32) {
        self.put_slice(&v.to_le_bytes());
    }
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_and_offsets() {
        let b = Bytes::from(vec![0u8, 1, 2, 3, 4, 5]);
        let s = b.slice(2..5);
        assert_eq!(&s[..], &[2, 3, 4]);
        let tail = s.slice(1..);
        assert_eq!(&tail[..], &[3, 4]);
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn bytes_mut_roundtrip() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u32_le(7);
        m.put_u64_le(9);
        m.extend_from_slice(b"xy");
        assert_eq!(m.len(), 14);
        let b = m.freeze();
        assert_eq!(u32::from_le_bytes(b[0..4].try_into().unwrap()), 7);
        assert_eq!(&b[12..], b"xy");
    }

    #[test]
    fn from_vec_and_freeze_keep_the_buffer() {
        let v = vec![1u8, 2, 3, 4];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr, "From<Vec<u8>> copied");
        assert_eq!(&b[..], &[1, 2, 3, 4]);

        let mut m = BytesMut::with_capacity(8);
        m.extend_from_slice(b"abcdefgh");
        let ptr = m.as_ptr();
        let frozen = m.freeze();
        assert_eq!(frozen.as_ptr(), ptr, "freeze copied");
        assert_eq!(&frozen[..], b"abcdefgh");
    }

    #[test]
    fn surplus_capacity_is_released() {
        let mut v = Vec::with_capacity(4096);
        v.extend_from_slice(b"xyz");
        let b = Bytes::from(v);
        assert_eq!(b.data.capacity(), 3);
        assert_eq!(&b[..], b"xyz");
    }

    #[test]
    fn slice_and_clone_share_storage() {
        let b = Bytes::from(vec![0u8, 1, 2, 3, 4, 5]);
        let s = b.slice(2..5);
        assert_eq!(s.as_ptr(), b[2..].as_ptr());
        assert!(Arc::ptr_eq(&s.data, &b.data));
        let c = b.clone();
        assert_eq!(c.as_ptr(), b.as_ptr());
        assert_eq!(Arc::strong_count(&b.data), 3);
    }

    #[test]
    fn copy_from_slice_copies_once() {
        let src = [9u8; 32];
        let b = Bytes::copy_from_slice(&src);
        assert_ne!(b.as_ptr(), src.as_ptr());
        assert_eq!(&b[..], &src[..]);
        // The copy is the storage itself: exact size, not copied again.
        assert_eq!(b.data.capacity(), src.len());
        assert_eq!(b.as_ptr(), b.data.as_ptr());
        let stat = Bytes::from_static(b"static");
        assert_ne!(stat.as_ptr(), b"static".as_ptr());
        assert_eq!(&stat[..], b"static");
    }

    #[test]
    fn eq_and_ord_follow_slices() {
        let a = Bytes::from_static(b"abc");
        let b = Bytes::copy_from_slice(b"abd");
        assert!(a < b);
        assert_eq!(a, Bytes::from(vec![b'a', b'b', b'c']));
    }
}

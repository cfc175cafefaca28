//! Wire-level primitives of the artifact format: constants, the
//! word-folding checksum, and the little-endian encoder/decoder the
//! section codecs (here, in `provabs-trees::persist` and in
//! `provabs-session`) are written against.

use super::PersistError;
use crate::var::VarId;
use std::borrow::Cow;

/// The artifact magic: the first eight bytes of every provabs artifact.
pub const MAGIC: [u8; 8] = *b"PVABSFMT";

/// The artifact format version this build reads and writes. Anything
/// else is refused with [`PersistError::UnsupportedVersion`] before a
/// checksum is read: version 1 differs in its section set, its column
/// codec and its checksum (ADR 013), version 2 in its column codec, which
/// stored a prefix end per monomial where version 3 stores one degree
/// (ADR 020); an artifact is a cache that `Session::save` rebuilds, so
/// nothing is migrated.
pub const FORMAT_VERSION: u32 = 3;

/// Well-known section ids of the session artifact layout.
///
/// The container itself is agnostic — sections are `(id, bytes)` pairs —
/// but every layer agrees on these ids so the artifact stays one file
/// with one table of contents (see ADR 006 for why not per-crate files).
pub mod section {
    /// Session configuration: strategy, bound, provenance origin, sizes.
    pub const SESSION_META: u32 = 1;
    /// The interned variable table, in id order.
    pub const VAR_TABLE: u32 = 2;
    /// The abstraction forest as configured on the session.
    pub const FOREST_CONFIG: u32 = 3;
    /// The cleaned forest the chosen VVS refers to.
    pub const FOREST_CLEAN: u32 = 4;
    /// The chosen valid variable set (per-tree node cuts).
    pub const VVS: u32 = 5;
    /// The variables live in the abstracted provenance (sorted ids).
    pub const LIVE_VARS: u32 = 6;
    /// The frozen compiled columns of `𝒫↓S` — the zero-copy payload.
    pub const COMPILED_ABS: u32 = 7;
    // 8 and 9 were version 1's row-coded working sets. Retired, never
    // to be reused: both sets are rebuilt from the columns on demand.
    /// The frozen compiled columns of the original `𝒫`, same codec.
    pub const COMPILED_ORIG: u32 = 10;
}

/// A fast 64-bit word-folding checksum: four independent multiply-rotate
/// lanes over 32-byte strides (fxhash's step per `u64` word), folded into
/// one, then the tail words; length-seeded.
///
/// Every step is a bijection of the state it updates, so changing any
/// one word changes the sum. Four lanes because one lane is a chain of
/// dependent multiplies, which a core runs at a quarter of the rate it
/// can multiply — and a warm open checksums every byte of the artifact.
///
/// This is an *integrity* check against truncation and bit rot, not a
/// cryptographic MAC — an adversary who can rewrite payloads can rewrite
/// checksums too (which is why the decoders validate structure
/// independently of the checksums).
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut sum = Checksum64::new(bytes.len());
    sum.update(bytes);
    sum.finish()
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn step(h: u64, w: u64) -> u64 {
    (h ^ w).rotate_left(5).wrapping_mul(SEED)
}

#[inline]
fn word(c: &[u8]) -> u64 {
    u64::from_le_bytes(c.try_into().expect("an 8-byte chunk"))
}

/// [`checksum64`] of bytes that arrive in pieces: the sum is seeded with
/// the length, so the length must be known before the first byte — which
/// is how a save checksums a section while it writes it, without holding
/// the section.
#[derive(Clone, Debug)]
pub(crate) struct Checksum64 {
    seed: u64,
    lanes: [u64; 4],
    /// The bytes of a 32-byte stride not complete yet.
    pending: [u8; 32],
    filled: usize,
    /// Bytes still to come.
    left: usize,
}

impl Checksum64 {
    /// A sum of `len` bytes, none fed yet.
    pub(crate) fn new(len: usize) -> Self {
        let seed = 0x9e37_79b9_7f4a_7c15u64 ^ (len as u64);
        Self {
            seed,
            lanes: std::array::from_fn(|lane| step(seed, lane as u64)),
            pending: [0; 32],
            filled: 0,
            left: len,
        }
    }

    /// Feeds the next bytes.
    ///
    /// # Panics
    /// Panics if more bytes are fed than the length declared.
    pub(crate) fn update(&mut self, mut bytes: &[u8]) {
        self.left = self
            .left
            .checked_sub(bytes.len())
            .expect("more bytes than the declared length");
        if self.filled > 0 {
            let take = (32 - self.filled).min(bytes.len());
            self.pending[self.filled..self.filled + take].copy_from_slice(&bytes[..take]);
            self.filled += take;
            bytes = &bytes[take..];
            if self.filled < 32 {
                return;
            }
            let stride = self.pending;
            self.strides(&stride);
            self.filled = 0;
        }
        let rest = self.strides(bytes);
        self.pending[..rest.len()].copy_from_slice(rest);
        self.filled = rest.len();
    }

    /// Folds every whole stride of `bytes` into the lanes; returns what
    /// is left over.
    fn strides<'b>(&mut self, bytes: &'b [u8]) -> &'b [u8] {
        let mut lanes = self.lanes;
        let mut strides = bytes.chunks_exact(32);
        for s in &mut strides {
            for (lane, c) in lanes.iter_mut().zip(s.chunks_exact(8)) {
                *lane = step(*lane, word(c));
            }
        }
        self.lanes = lanes;
        strides.remainder()
    }

    /// The sum.
    ///
    /// # Panics
    /// Panics if fewer bytes were fed than the length declared.
    pub(crate) fn finish(self) -> u64 {
        assert_eq!(self.left, 0, "fewer bytes than the declared length");
        let mut h = self.lanes.into_iter().fold(self.seed, step);
        let mut words = self.pending[..self.filled].chunks_exact(8);
        for c in &mut words {
            h = step(h, word(c));
        }
        let rem = words.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            h = step(h, u64::from_le_bytes(tail));
        }
        h
    }
}

/// A fixed-width scalar the format stores little-endian: free of
/// padding, and every bit pattern of it a value (NaN payloads included).
pub(crate) trait Scalar: Copy {
    /// Appends the value's little-endian bytes.
    fn put_le(self, out: &mut Vec<u8>);
}

macro_rules! scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn put_le(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}
scalar!(u16, u32, u64, f64);

/// `#[repr(transparent)]` over `u32`.
impl Scalar for VarId {
    fn put_le(self, out: &mut Vec<u8>) {
        self.0.put_le(out);
    }
}

/// The file bytes of a slice of scalars. A little-endian host holds such
/// a slice in memory exactly as the format holds it in the file, so there
/// they are the slice's own bytes; any other host (which can write
/// artifacts, though not open them) converts element by element.
pub(crate) fn le_bytes<T: Scalar>(vs: &[T]) -> Cow<'_, [u8]> {
    if cfg!(target_endian = "little") {
        // SAFETY: a `Scalar` has no padding, so the slice is
        // `size_of_val(vs)` initialised bytes.
        Cow::Borrowed(unsafe {
            std::slice::from_raw_parts(vs.as_ptr().cast::<u8>(), std::mem::size_of_val(vs))
        })
    } else {
        let mut out = Vec::with_capacity(std::mem::size_of_val(vs));
        for &v in vs {
            v.put_le(&mut out);
        }
        Cow::Owned(out)
    }
}

/// A little-endian section encoder: an append-only byte buffer with
/// fixed-width writes. Section payloads are assembled with this and
/// handed to [`ArtifactWriter::section`](super::ArtifactWriter::section).
#[derive(Default, Debug)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern, little-endian —
    /// exact round-trip of every value including NaN payloads.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends a whole `u32` slice, little-endian.
    pub fn u32s(&mut self, vs: &[u32]) {
        self.buf.extend_from_slice(&le_bytes(vs));
    }

    /// Zero-pads to the next 8-byte boundary (within-section alignment;
    /// the container separately 8-aligns each section's start).
    pub fn align8(&mut self) {
        let target = self.buf.len().next_multiple_of(8);
        self.buf.resize(target, 0);
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder into its payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// `raw` as a `usize` count bounded by `limit` (see [`Dec::count`]).
pub(crate) fn plausible_count(
    context: &'static str,
    what: &str,
    raw: u64,
    limit: usize,
) -> Result<usize, PersistError> {
    let n = usize::try_from(raw)
        .map_err(|_| PersistError::malformed(context, format!("{what} overflows usize")))?;
    if n > limit {
        return Err(PersistError::malformed(
            context,
            format!("{what} = {n} exceeds the plausible bound {limit}"),
        ));
    }
    Ok(n)
}

/// A little-endian section decoder: a bounds-checked cursor over a
/// payload. Every read returns [`PersistError::Truncated`] instead of
/// panicking when the bytes run out — the uniform failure mode the
/// corruption battery leans on.
#[derive(Clone, Copy, Debug)]
pub struct Dec<'a> {
    bytes: &'a [u8],
    at: usize,
    context: &'static str,
}

impl<'a> Dec<'a> {
    /// A decoder over `bytes`, reporting truncation against `context`
    /// (the section name).
    pub fn new(bytes: &'a [u8], context: &'static str) -> Self {
        Self {
            bytes,
            at: 0,
            context,
        }
    }

    /// The section name errors are reported against.
    pub fn context(&self) -> &'static str {
        self.context
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated {
                context: self.context,
            });
        }
        let out = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("take(4) yields 4"),
        ))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("take(8) yields 8"),
        ))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u64` and checks it fits a `usize` count bounded by
    /// `limit` — the guard against oversized length fields walking the
    /// cursor (or a later allocation) out of bounds.
    pub fn count(&mut self, what: &'static str, limit: usize) -> Result<usize, PersistError> {
        let raw = self.u64()?;
        plausible_count(self.context, what, raw, limit)
    }

    /// Asserts the payload was consumed exactly (no trailing garbage).
    pub fn finish(self) -> Result<(), PersistError> {
        if self.remaining() != 0 {
            return Err(PersistError::malformed(
                self.context,
                format!("{} trailing bytes", self.remaining()),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enc_dec_roundtrip() {
        let mut e = Enc::new();
        e.u32(7);
        e.u64(u64::MAX - 1);
        e.f64(-0.0);
        e.f64(f64::NAN);
        e.u32s(&[1, 2, 3]);
        e.bytes(&le_bytes(&[0x0102u16, 0xFFFE]));
        e.bytes(&le_bytes(&[1.5f64, -2.25]));
        e.align8();
        let bytes = e.finish();
        assert_eq!(bytes.len() % 8, 0);
        let mut d = Dec::new(&bytes, "test");
        assert_eq!(d.u32().unwrap(), 7);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.f64().unwrap().is_nan());
        assert_eq!(d.u32().unwrap(), 1);
        assert_eq!(d.u32().unwrap(), 2);
        assert_eq!(d.u32().unwrap(), 3);
        // The bulk appends write what the element-wise ones would.
        assert_eq!(d.take(4).unwrap(), &[0x02, 0x01, 0xFE, 0xFF]);
        assert_eq!(d.f64().unwrap(), 1.5);
        assert_eq!(d.f64().unwrap(), -2.25);
        d.take(d.remaining()).unwrap();
        d.finish().unwrap();
    }

    #[test]
    fn checksum_fed_in_pieces_is_the_checksum_of_the_whole() {
        let bytes: Vec<u8> = (0..300u32).map(|i| (i * 37 % 251) as u8).collect();
        for len in [0, 1, 7, 8, 31, 32, 33, 64, 100, 300] {
            let whole = checksum64(&bytes[..len]);
            for piece in [1, 3, 8, 13, 32, 33, 500] {
                let mut sum = Checksum64::new(len);
                for chunk in bytes[..len].chunks(piece) {
                    sum.update(chunk);
                }
                sum.update(&[]);
                assert_eq!(sum.finish(), whole, "{len} bytes in pieces of {piece}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "fewer bytes")]
    fn checksum_of_a_short_feed_panics() {
        let mut sum = Checksum64::new(4);
        sum.update(&[1, 2, 3]);
        sum.finish();
    }

    #[test]
    fn dec_reports_truncation_and_trailing_bytes() {
        let mut d = Dec::new(&[1, 2, 3], "tiny");
        assert_eq!(
            d.u32().unwrap_err(),
            PersistError::Truncated { context: "tiny" }
        );
        let d = Dec::new(&[0; 4], "trail");
        assert!(matches!(
            d.finish().unwrap_err(),
            PersistError::Malformed {
                context: "trail",
                ..
            }
        ));
    }

    #[test]
    fn count_rejects_oversized_length_fields() {
        let mut e = Enc::new();
        e.u64(u64::MAX);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes, "sec");
        assert!(matches!(
            d.count("things", 1024).unwrap_err(),
            PersistError::Malformed { .. }
        ));
        let mut e = Enc::new();
        e.u64(10);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes, "sec");
        assert_eq!(d.count("things", 1024).unwrap(), 10);
        let mut d2 = Dec::new(&bytes, "sec");
        assert!(d2.count("things", 9).is_err());
    }
}

//! Wire-level primitives of the artifact format: constants, the
//! word-folding checksum, and the little-endian encoder/decoder the
//! section codecs (here, in `provabs-trees::persist` and in
//! `provabs-session`) are written against.

use super::PersistError;

/// The artifact magic: the first eight bytes of every provabs artifact.
pub const MAGIC: [u8; 8] = *b"PVABSFMT";

/// The artifact format version this build reads and writes. Anything
/// else is refused with [`PersistError::UnsupportedVersion`] before a
/// checksum is read: version 1 differs in its section set, its column
/// codec and its checksum (ADR 013), and an artifact is a cache that
/// `Session::save` rebuilds, so nothing is migrated.
pub const FORMAT_VERSION: u32 = 2;

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
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let step = |h: u64, w: u64| (h ^ w).rotate_left(5).wrapping_mul(SEED);
    let word = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("an 8-byte chunk"));
    let seed = 0x9e37_79b9_7f4a_7c15u64 ^ (bytes.len() as u64);
    let mut lanes: [u64; 4] = std::array::from_fn(|lane| step(seed, lane as u64));
    let mut strides = bytes.chunks_exact(32);
    for s in &mut strides {
        for (lane, c) in lanes.iter_mut().zip(s.chunks_exact(8)) {
            *lane = step(*lane, word(c));
        }
    }
    let mut h = lanes.into_iter().fold(seed, step);
    let mut words = strides.remainder().chunks_exact(8);
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

    /// An empty encoder with room for a payload of `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
        }
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

    /// Appends a whole `u16` slice, little-endian.
    pub fn u16s(&mut self, vs: &[u16]) {
        self.scalars(vs, u16::to_le_bytes);
    }

    /// Appends a whole `u32` slice, little-endian.
    pub fn u32s(&mut self, vs: &[u32]) {
        self.scalars(vs, u32::to_le_bytes);
    }

    /// Appends a whole `f64` slice as IEEE-754 bit patterns,
    /// little-endian.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.scalars(vs, f64::to_le_bytes);
    }

    /// Appends a slice of `u16`/`u32`/`f64`. A little-endian host holds
    /// such a slice in memory exactly as the format holds it in the file,
    /// so there it is one copy; `le` is the element-wise spelling for any
    /// other host (which can write artifacts, though not open them).
    fn scalars<T: Copy, const N: usize>(&mut self, vs: &[T], le: fn(T) -> [u8; N]) {
        if cfg!(target_endian = "little") {
            // SAFETY: `T` is one of the three padding-free scalars above,
            // so the slice is `size_of_val(vs)` initialised bytes.
            let raw = unsafe {
                std::slice::from_raw_parts(vs.as_ptr().cast::<u8>(), std::mem::size_of_val(vs))
            };
            self.buf.extend_from_slice(raw);
        } else {
            for &v in vs {
                self.buf.extend_from_slice(&le(v));
            }
        }
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
        let n = usize::try_from(raw).map_err(|_| {
            PersistError::malformed(self.context, format!("{what} overflows usize"))
        })?;
        if n > limit {
            return Err(PersistError::malformed(
                self.context,
                format!("{what} = {n} exceeds the plausible bound {limit}"),
            ));
        }
        Ok(n)
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
        e.u16s(&[0x0102, 0xFFFE]);
        e.f64s(&[1.5, -2.25]);
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

//! Durable compiled artifacts: a versioned on-disk format for the frozen
//! provenance state, with owned and zero-copy (memory-mapped) load paths.
//!
//! Compress-once / ask-many (paper §5) used to mean once *per process*:
//! every restart re-ran compression and recompilation. Since PR 5 the
//! whole compiled state is a handful of dense flat arrays over interned
//! ids — exactly the shape that serialises as plain slice writes and
//! *deserialises as no writes at all*: the heavy arrays are validated in
//! place and resliced straight out of the file bytes. That goes for both
//! heavy sections: the abstracted provenance `𝒫↓S` and the original `𝒫`
//! are each stored as frozen compiled columns, in one codec (ADR 013).
//!
//! # The container
//!
//! A little-endian binary file:
//!
//! ```text
//! [ magic (8B) | version u32 | flags u32 | section_count u32 | reserved u32 ]
//! [ TOC entry × section_count: id u32, reserved u32, offset u64, len u64, checksum u64 ]
//! [ header checksum u64 ]              — over everything above
//! [ section payloads, each 8-aligned, zero-padded between ]
//! ```
//!
//! Every payload carries its own [`checksum64`] in the TOC; the header
//! and TOC carry a trailing checksum of their own. [`RawArtifact`]
//! validates magic, version, bounds, alignment and all checksums up
//! front — after `open` succeeds, section accesses are infallible. The
//! version is compared first: [`FORMAT_VERSION`] is the only one read,
//! and a file of any other is refused by its number, before a checksum
//! it may have computed differently is looked at.
//!
//! # Two load paths, one validation boundary
//!
//! * **Owned** ([`RawArtifact::open`]): the file is read into an 8-byte-
//!   aligned buffer. Simple, no page-cache coupling.
//! * **Zero-copy** ([`RawArtifact::open_mapped`]): the file is mapped
//!   read-only (the offline `memmap2` shim under `crates/compat/`) and
//!   the compiled columns are resliced from the mapping behind
//!   [`SharedCompiled`] — a warm restart touches only the pages it
//!   evaluates.
//!
//! Either way the *validation boundary* is `open` + the typed section
//! validators ([`SharedCompiled::validate`] for both column sections,
//! the var-table / forest / VVS decoders): everything after them is
//! checked-free by construction, and every malformed input is a typed
//! [`PersistError`] — never a panic, never silently-loaded garbage (the
//! `persist_corruption` battery asserts this byte by byte).
//!
//! The section *contents* are layered with the crates that own the data:
//! this module codecs the provenance-owned state (variable table,
//! compiled columns), `provabs-trees::persist` codecs the
//! forest and VVS, and `provabs-session` assembles whole artifacts via
//! [`ArtifactWriter`] / [`RawArtifact`] (`Session::save` /
//! `Session::open`).

mod artifact;
mod codec;
mod fault;
mod format;

pub use artifact::{ArtifactWriter, RawArtifact, WRITE_ATTEMPTS};
pub use codec::{decode_var_table, encode_compiled, encode_var_table, SharedCompiled};
pub use fault::{FaultFs, FaultOp};
pub use format::{checksum64, section, Dec, Enc, FORMAT_VERSION, MAGIC};

use std::fmt;

/// Any way a durable artifact can fail to save, open, or validate.
///
/// Every malformed input maps to a variant here — the corruption battery
/// asserts that no truncation, bit flip, oversized length, bad magic or
/// future version ever panics or loads.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PersistError {
    /// An I/O failure reading, writing, or mapping the file. Carries the
    /// [`std::io::ErrorKind`] and rendered message (not the `io::Error`
    /// itself, so this type stays `Clone`/`PartialEq` like the rest of
    /// the pipeline's errors).
    Io {
        /// The failed operation's error kind.
        kind: std::io::ErrorKind,
        /// The rendered OS error.
        message: String,
    },
    /// The file does not start with [`MAGIC`] — not a provabs artifact.
    BadMagic,
    /// The artifact declares a format version this build cannot read.
    UnsupportedVersion {
        /// The version the file declares.
        found: u32,
        /// The newest version this build understands.
        supported: u32,
    },
    /// The artifact format is little-endian; this host is not.
    UnsupportedHost,
    /// The file ends before the named structure is complete.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A stored checksum does not match the bytes it covers.
    ChecksumMismatch {
        /// Which checksummed region failed (a section name, or
        /// `"header"`).
        context: &'static str,
    },
    /// A section the reader requires is absent from the TOC.
    MissingSection {
        /// The missing section's name.
        name: &'static str,
    },
    /// A payload required by the zero-copy path is not aligned for its
    /// element type.
    Misaligned {
        /// Which payload failed the alignment check.
        context: &'static str,
    },
    /// A structurally invalid payload: out-of-range index, non-canonical
    /// ordering, inconsistent counts, trailing bytes, …
    Malformed {
        /// The section being decoded.
        context: &'static str,
        /// What was wrong with it.
        detail: String,
    },
}

impl PersistError {
    /// Shorthand for a [`PersistError::Malformed`] with a rendered detail.
    pub fn malformed(context: &'static str, detail: impl Into<String>) -> Self {
        PersistError::Malformed {
            context,
            detail: detail.into(),
        }
    }

    pub(crate) fn io(e: std::io::Error) -> Self {
        PersistError::Io {
            kind: e.kind(),
            message: e.to_string(),
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { kind, message } => {
                write!(f, "artifact i/o error ({kind:?}): {message}")
            }
            PersistError::BadMagic => write!(f, "not a provabs artifact (bad magic)"),
            PersistError::UnsupportedVersion { found, supported } => write!(
                f,
                "artifact format version {found} is not the supported version {supported}"
            ),
            PersistError::UnsupportedHost => {
                write!(f, "artifacts are little-endian; this host is big-endian")
            }
            PersistError::Truncated { context } => {
                write!(f, "artifact truncated while reading {context}")
            }
            PersistError::ChecksumMismatch { context } => {
                write!(f, "artifact checksum mismatch in {context}")
            }
            PersistError::MissingSection { name } => {
                write!(f, "artifact is missing the {name} section")
            }
            PersistError::Misaligned { context } => {
                write!(
                    f,
                    "artifact payload {context} is misaligned for zero-copy access"
                )
            }
            PersistError::Malformed { context, detail } => {
                write!(f, "malformed artifact section {context}: {detail}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_names_the_failure() {
        let cases: Vec<(PersistError, &str)> = vec![
            (PersistError::BadMagic, "bad magic"),
            (
                PersistError::UnsupportedVersion {
                    found: 9,
                    supported: 2,
                },
                "version 9",
            ),
            (PersistError::Truncated { context: "TOC" }, "TOC"),
            (
                PersistError::ChecksumMismatch { context: "header" },
                "checksum",
            ),
            (PersistError::MissingSection { name: "vvs" }, "vvs"),
            (PersistError::Misaligned { context: "coeffs" }, "misaligned"),
            (
                PersistError::malformed("forest", "parent after child"),
                "parent after child",
            ),
            (
                PersistError::io(std::io::Error::new(std::io::ErrorKind::NotFound, "gone")),
                "gone",
            ),
        ];
        for (e, needle) in cases {
            assert!(format!("{e}").contains(needle), "{e}");
        }
    }

    #[test]
    fn checksum_is_sensitive_to_single_byte_flips() {
        let mut bytes: Vec<u8> = (0..=255u8).cycle().take(1027).collect();
        let base = checksum64(&bytes);
        assert_eq!(base, checksum64(&bytes), "deterministic");
        for at in [0usize, 7, 8, 512, 1024, 1026] {
            bytes[at] ^= 0x40;
            assert_ne!(base, checksum64(&bytes), "flip at {at} undetected");
            bytes[at] ^= 0x40;
        }
        // Length extension with zeros changes the sum too.
        let mut longer = bytes.clone();
        longer.push(0);
        assert_ne!(checksum64(&bytes), checksum64(&longer));
        assert_ne!(checksum64(&[]), checksum64(&[0]));
    }
}

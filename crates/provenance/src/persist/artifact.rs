//! The artifact container: assembling section payloads into one
//! checksummed file, and validating + indexing one back out of owned or
//! memory-mapped bytes.

use super::codec::{compiled_len, write_compiled};
use super::fault::{FaultFs, FaultOp};
use super::format::{checksum64, Checksum64, FORMAT_VERSION, MAGIC};
use super::PersistError;
use crate::compiled::CompiledView;
use std::fs::File;
use std::io::{Cursor, Read, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Attempts [`ArtifactWriter::write_atomic`] makes before giving up on
/// transient I/O errors (`Interrupted` / `WouldBlock` / `TimedOut`): the
/// first and `WRITE_ATTEMPTS − 1` retries.
pub const WRITE_ATTEMPTS: u32 = 3;
/// Backoff before retry attempt `i` (doubles each time).
const WRITE_BACKOFF: Duration = Duration::from_millis(1);

/// Header: magic (8) + version + flags + section_count + reserved (4 × 4).
const HEADER_LEN: usize = 24;
/// TOC entry: id + reserved (2 × 4) + offset + len + checksum (3 × 8).
const TOC_ENTRY_LEN: usize = 32;
/// Anything beyond this many sections is a corrupt count, not a real
/// artifact (the session layout uses eight).
const MAX_SECTIONS: usize = 4096;

/// The backing bytes of an opened artifact — owned or mapped, both with
/// an 8-byte-aligned base pointer (a `u64`-backed buffer, or a page).
pub(crate) enum ArtifactBytes {
    /// The file copied into a `Vec<u64>` so the base is 8-aligned.
    Owned { words: Vec<u64>, len: usize },
    /// A read-only private mapping of the file.
    Mapped(memmap2::Mmap),
}

impl std::fmt::Debug for ArtifactBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactBytes::Owned { len, .. } => f.debug_struct("Owned").field("len", len).finish(),
            ArtifactBytes::Mapped(m) => f.debug_struct("Mapped").field("len", &m.len()).finish(),
        }
    }
}

impl ArtifactBytes {
    pub(crate) fn as_slice(&self) -> &[u8] {
        match self {
            ArtifactBytes::Owned { words, len } => {
                // SAFETY: the Vec owns `words.len() * 8 >= *len`
                // initialised bytes and u8 has no validity invariants.
                unsafe { std::slice::from_raw_parts(words.as_ptr() as *const u8, *len) }
            }
            ArtifactBytes::Mapped(m) => m.as_slice(),
        }
    }

    fn from_vec(bytes: Vec<u8>) -> Self {
        let len = bytes.len();
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: the Vec owns `words.len() * 8 >= len` writable bytes.
        let dst = unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, len) };
        dst.copy_from_slice(&bytes);
        ArtifactBytes::Owned { words, len }
    }
}

/// A section's payload: bytes the writer holds, or compiled columns it
/// writes straight from their view.
#[derive(Debug)]
enum Payload<'a> {
    Bytes(Vec<u8>),
    Compiled(CompiledView<'a, f64>),
}

impl Payload<'_> {
    fn len(&self) -> usize {
        match self {
            Payload::Bytes(bytes) => bytes.len(),
            Payload::Compiled(view) => compiled_len(*view),
        }
    }

    fn write(&self, sink: &mut dyn FnMut(&[u8]) -> std::io::Result<()>) -> std::io::Result<()> {
        match self {
            Payload::Bytes(bytes) => sink(bytes),
            Payload::Compiled(view) => write_compiled(*view, sink),
        }
    }
}

/// Assembles `(id, payload)` sections into one artifact file: header,
/// table of contents with per-section checksums, 8-aligned payloads.
///
/// Writes are atomic: [`write_atomic`](Self::write_atomic) writes a
/// temporary sibling and renames it over the target, so readers (and
/// concurrent mappers) never observe a half-written artifact.
#[derive(Default, Debug)]
pub struct ArtifactWriter<'a> {
    sections: Vec<(u32, Payload<'a>)>,
}

impl<'a> ArtifactWriter<'a> {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section. Ids must be unique; order is preserved.
    pub fn section(&mut self, id: u32, payload: Vec<u8>) {
        self.push(id, Payload::Bytes(payload));
    }

    /// Appends a section of compiled columns in their codec
    /// ([`encode_compiled`](super::encode_compiled)'s bytes), written
    /// from `view` as the artifact is: the writer holds no copy of them.
    pub fn compiled_section(&mut self, id: u32, view: CompiledView<'a, f64>) {
        self.push(id, Payload::Compiled(view));
    }

    fn push(&mut self, id: u32, payload: Payload<'a>) {
        debug_assert!(
            self.sections.iter().all(|(i, _)| *i != id),
            "duplicate section id {id}"
        );
        self.sections.push((id, payload));
    }

    /// Serialises the whole artifact into bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Cursor::new(Vec::new());
        self.write_to(&mut out)
            .expect("writing to a Vec cannot fail");
        out.into_inner()
    }

    /// Writes the artifact image: each payload followed by its padding,
    /// checksummed as it goes out, then — over the zeros that held its
    /// place — the header and TOC, which carry those checksums. Every
    /// payload's length is known before its first byte, which is all a
    /// checksum needs up front, so a save holds no copy of any payload
    /// it did not already hold.
    fn write_to(&self, out: &mut (impl Write + Seek)) -> std::io::Result<()> {
        let toc_end = HEADER_LEN + self.sections.len() * TOC_ENTRY_LEN;
        let payload_start = (toc_end + 8).next_multiple_of(8);
        out.write_all(&vec![0; payload_start])?;
        let mut toc = Vec::with_capacity(self.sections.len());
        let mut offset = payload_start;
        for (id, payload) in &self.sections {
            let len = payload.len();
            let mut sum = Checksum64::new(len);
            payload.write(&mut |bytes| {
                sum.update(bytes);
                out.write_all(bytes)
            })?;
            out.write_all(&[0; 8][..len.next_multiple_of(8) - len])?;
            toc.push((*id, offset, len, sum.finish()));
            offset = (offset + len).next_multiple_of(8);
        }
        let mut head = Vec::with_capacity(payload_start);
        head.extend_from_slice(&MAGIC);
        head.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        head.extend_from_slice(&0u32.to_le_bytes()); // flags
        head.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        head.extend_from_slice(&0u32.to_le_bytes()); // reserved
        for (id, offset, len, sum) in toc {
            head.extend_from_slice(&id.to_le_bytes());
            head.extend_from_slice(&0u32.to_le_bytes()); // reserved
            head.extend_from_slice(&(offset as u64).to_le_bytes());
            head.extend_from_slice(&(len as u64).to_le_bytes());
            head.extend_from_slice(&sum.to_le_bytes());
        }
        let header_sum = checksum64(&head);
        head.extend_from_slice(&header_sum.to_le_bytes());
        out.seek(SeekFrom::Start(0))?;
        out.write_all(&head)
    }

    /// Writes the artifact to `path` via a temporary sibling file and an
    /// atomic rename.
    pub fn write_atomic(&self, path: &Path) -> Result<(), PersistError> {
        self.write_atomic_with(path, &FaultFs::disabled())
    }

    /// [`write_atomic`](Self::write_atomic) through an explicit
    /// fault-injection plan — the seam the torn-write and retry proofs
    /// drive.
    ///
    /// The invariant either way: the target path only ever holds the
    /// complete previous artifact or the complete new one. The new
    /// bytes are staged in a temporary sibling, fsynced, then renamed
    /// over the target; any failure before the rename leaves the target
    /// untouched (and removes the staging file), and a failed rename
    /// cannot tear — POSIX `rename(2)` replaces atomically or not at
    /// all. Transient errors (`Interrupted`/`WouldBlock`/`TimedOut`)
    /// are retried with doubling backoff, [`WRITE_ATTEMPTS`] attempts in
    /// all — up to two retries; anything else (or the last attempt's
    /// error) surfaces as [`PersistError::Io`].
    pub fn write_atomic_with(&self, path: &Path, faults: &FaultFs) -> Result<(), PersistError> {
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let mut attempt = 0;
        loop {
            match self.try_publish(&tmp, path, faults) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    let _ = std::fs::remove_file(&tmp);
                    attempt += 1;
                    let transient = matches!(
                        e.kind(),
                        std::io::ErrorKind::Interrupted
                            | std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                    );
                    if !transient || attempt >= WRITE_ATTEMPTS {
                        return Err(PersistError::io(e));
                    }
                    std::thread::sleep(WRITE_BACKOFF * (1 << (attempt - 1)));
                }
            }
        }
    }

    /// One staged-write-and-rename attempt, with every filesystem call
    /// routed through the injection seam first.
    fn try_publish(&self, tmp: &Path, path: &Path, faults: &FaultFs) -> std::io::Result<()> {
        faults.check(FaultOp::Create)?;
        let mut f = File::create(tmp)?;
        faults.check(FaultOp::Write)?;
        self.write_to(&mut f)?;
        faults.check(FaultOp::Sync)?;
        f.sync_all()?;
        drop(f);
        faults.check(FaultOp::Rename)?;
        std::fs::rename(tmp, path)
    }
}

/// A validated, indexed artifact: bytes (owned or mapped) plus the
/// parsed table of contents.
///
/// Construction is the validation boundary: magic, version, host
/// endianness, TOC bounds/alignment and every checksum are verified
/// before `open` returns, so [`section`](Self::section) lookups and all
/// downstream reslicing are infallible.
pub struct RawArtifact {
    bytes: Arc<ArtifactBytes>,
    sections: Vec<(u32, Range<usize>)>,
    version: u32,
    mapped: bool,
}

impl std::fmt::Debug for RawArtifact {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RawArtifact")
            .field("version", &self.version)
            .field("mapped", &self.mapped)
            .field("sections", &self.sections.len())
            .field("len", &self.bytes.as_slice().len())
            .finish()
    }
}

impl RawArtifact {
    /// Opens an artifact by reading the whole file into an aligned owned
    /// buffer — the simple load path.
    pub fn open(path: &Path) -> Result<Self, PersistError> {
        let mut f = File::open(path).map_err(PersistError::io)?;
        let len = f.metadata().map_err(PersistError::io)?.len();
        let len = usize::try_from(len)
            .map_err(|_| PersistError::malformed("file", "file too large for this host"))?;
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: the Vec owns `words.len() * 8 >= len` writable bytes.
        let dst = unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, len) };
        f.read_exact(dst).map_err(PersistError::io)?;
        Self::parse(Arc::new(ArtifactBytes::Owned { words, len }), false)
    }

    /// Opens an artifact by memory-mapping the file read-only — the
    /// zero-copy load path: validated sections are resliced straight
    /// from the page cache, so a warm open touches only the pages it
    /// validates and later evaluates.
    ///
    /// The caller must not truncate or rewrite the file in place while
    /// the artifact (or anything borrowing from it) is alive —
    /// republishing via [`ArtifactWriter::write_atomic`]'s rename leaves
    /// live mappings of the old inode intact and is always safe.
    pub fn open_mapped(path: &Path) -> Result<Self, PersistError> {
        let f = File::open(path).map_err(PersistError::io)?;
        // SAFETY: see the doc contract above — artifacts are published
        // by atomic rename, never mutated in place.
        let map = unsafe { memmap2::Mmap::map(&f) }.map_err(PersistError::io)?;
        Self::parse(Arc::new(ArtifactBytes::Mapped(map)), true)
    }

    /// Opens an artifact from in-memory bytes (copied into an aligned
    /// buffer) — how the corruption battery feeds mutated artifacts
    /// through the full validation path without touching disk.
    pub fn open_bytes(bytes: Vec<u8>) -> Result<Self, PersistError> {
        Self::parse(Arc::new(ArtifactBytes::from_vec(bytes)), false)
    }

    fn parse(bytes: Arc<ArtifactBytes>, mapped: bool) -> Result<Self, PersistError> {
        #[cfg(target_endian = "big")]
        {
            return Err(PersistError::UnsupportedHost);
        }
        #[cfg(target_endian = "little")]
        {
            let data = bytes.as_slice();
            if data.len() < HEADER_LEN + 8 {
                return Err(PersistError::Truncated { context: "header" });
            }
            if data[..8] != MAGIC {
                return Err(PersistError::BadMagic);
            }
            let rd_u32 =
                |at: usize| u32::from_le_bytes(data[at..at + 4].try_into().expect("in bounds"));
            let rd_u64 =
                |at: usize| u64::from_le_bytes(data[at..at + 8].try_into().expect("in bounds"));
            // Before any checksum: another version sums differently.
            let version = rd_u32(8);
            if version != FORMAT_VERSION {
                return Err(PersistError::UnsupportedVersion {
                    found: version,
                    supported: FORMAT_VERSION,
                });
            }
            let section_count = rd_u32(16) as usize;
            if section_count > MAX_SECTIONS {
                return Err(PersistError::malformed(
                    "header",
                    format!("section count {section_count} exceeds {MAX_SECTIONS}"),
                ));
            }
            let toc_end = HEADER_LEN + section_count * TOC_ENTRY_LEN;
            if data.len() < toc_end + 8 {
                return Err(PersistError::Truncated { context: "TOC" });
            }
            let stored_header_sum = rd_u64(toc_end);
            if checksum64(&data[..toc_end]) != stored_header_sum {
                return Err(PersistError::ChecksumMismatch { context: "header" });
            }
            let payload_start = (toc_end + 8).next_multiple_of(8);
            let mut sections: Vec<(u32, Range<usize>)> = Vec::with_capacity(section_count);
            for i in 0..section_count {
                let at = HEADER_LEN + i * TOC_ENTRY_LEN;
                let id = rd_u32(at);
                let offset = rd_u64(at + 8);
                let len = rd_u64(at + 16);
                let stored_sum = rd_u64(at + 24);
                let offset = usize::try_from(offset).map_err(|_| {
                    PersistError::malformed("TOC", format!("section {id} offset overflows"))
                })?;
                let len = usize::try_from(len).map_err(|_| {
                    PersistError::malformed("TOC", format!("section {id} length overflows"))
                })?;
                if offset % 8 != 0 {
                    return Err(PersistError::Misaligned { context: "section" });
                }
                let end = offset.checked_add(len).ok_or_else(|| {
                    PersistError::malformed("TOC", format!("section {id} range overflows"))
                })?;
                if offset < payload_start || end > data.len() {
                    return Err(PersistError::malformed(
                        "TOC",
                        format!("section {id} range {offset}..{end} outside the file"),
                    ));
                }
                if sections.iter().any(|(other, _)| *other == id) {
                    return Err(PersistError::malformed(
                        "TOC",
                        format!("duplicate section id {id}"),
                    ));
                }
                if checksum64(&data[offset..end]) != stored_sum {
                    return Err(PersistError::ChecksumMismatch { context: "section" });
                }
                sections.push((id, offset..end));
            }
            // The checksums cannot cover inter-section padding, so the
            // file length is pinned down exactly instead: the writer's
            // layout is deterministic, and any trailing truncation or
            // appended garbage is rejected here.
            let expected_len = sections
                .iter()
                .map(|(_, r)| r.end.next_multiple_of(8))
                .max()
                .unwrap_or(payload_start)
                .max(payload_start);
            if data.len() != expected_len {
                return Err(PersistError::malformed(
                    "file",
                    format!(
                        "file length {} does not match the TOC's layout ({expected_len})",
                        data.len()
                    ),
                ));
            }
            Ok(Self {
                bytes,
                sections,
                version,
                mapped,
            })
        }
    }

    /// The format version the artifact declares.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Whether this artifact is served from a memory mapping (the
    /// zero-copy path) rather than an owned buffer.
    pub fn is_mapped(&self) -> bool {
        self.mapped
    }

    /// The ids present, in file order.
    pub fn section_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.sections.iter().map(|(id, _)| *id)
    }

    /// A section's payload, if present.
    pub fn section(&self, id: u32) -> Option<&[u8]> {
        self.section_range(id).map(|r| &self.bytes.as_slice()[r])
    }

    /// A required section's payload, as a typed error when absent.
    pub fn require(&self, id: u32, name: &'static str) -> Result<&[u8], PersistError> {
        self.section(id)
            .ok_or(PersistError::MissingSection { name })
    }

    pub(crate) fn section_range(&self, id: u32) -> Option<Range<usize>> {
        self.sections
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, r)| r.clone())
    }

    pub(crate) fn bytes_arc(&self) -> &Arc<ArtifactBytes> {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = ArtifactWriter::new();
        w.section(7, vec![1, 2, 3, 4, 5]);
        w.section(9, (0..64u8).collect());
        w.section(3, Vec::new());
        w.to_bytes()
    }

    #[test]
    fn roundtrip_preserves_sections() {
        let art = RawArtifact::open_bytes(sample()).expect("valid artifact");
        assert_eq!(art.version(), FORMAT_VERSION);
        assert!(!art.is_mapped());
        assert_eq!(art.section_ids().collect::<Vec<_>>(), vec![7, 9, 3]);
        assert_eq!(art.section(7).unwrap(), &[1, 2, 3, 4, 5]);
        assert_eq!(art.section(9).unwrap().len(), 64);
        assert_eq!(art.section(3).unwrap(), &[] as &[u8]);
        assert!(art.section(42).is_none());
        assert!(matches!(
            art.require(42, "ghost").unwrap_err(),
            PersistError::MissingSection { name: "ghost" }
        ));
        // Every section payload is 8-aligned in the file image.
        for id in [7, 9, 3] {
            let r = art.section_range(id).unwrap();
            assert_eq!(r.start % 8, 0);
        }
    }

    #[test]
    fn atomic_write_then_open_both_paths() {
        let mut path = std::env::temp_dir();
        path.push(format!("provabs-artifact-test-{}.bin", std::process::id()));
        let mut w = ArtifactWriter::new();
        w.section(1, vec![0xAB; 40]);
        w.write_atomic(&path).expect("write");
        for art in [
            RawArtifact::open(&path).expect("owned open"),
            RawArtifact::open_mapped(&path).expect("mapped open"),
        ] {
            assert_eq!(art.section(1).unwrap(), &[0xAB; 40][..]);
        }
        assert!(RawArtifact::open_mapped(&path).expect("mapped").is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic_and_future_version() {
        let good = sample();
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert_eq!(
            RawArtifact::open_bytes(bad).unwrap_err(),
            PersistError::BadMagic
        );
        // Any other version, newer or older, is refused by its number
        // alone: the header checksum is deliberately left stale, as a
        // version-1 header's would be under this version's checksum.
        for found in [FORMAT_VERSION + 1, FORMAT_VERSION - 1, 0] {
            let mut other = good.clone();
            other[8..12].copy_from_slice(&found.to_le_bytes());
            assert_eq!(
                RawArtifact::open_bytes(other).unwrap_err(),
                PersistError::UnsupportedVersion {
                    found,
                    supported: FORMAT_VERSION
                }
            );
        }
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let good = sample();
        for len in 0..good.len() {
            let err = RawArtifact::open_bytes(good[..len].to_vec())
                .expect_err("truncated artifact must not open");
            // Any typed error is acceptable; no panic, no success.
            let _ = format!("{err}");
        }
    }

    #[test]
    fn rejects_payload_and_header_flips() {
        let good = sample();
        for at in 0..good.len() {
            let mut bad = good.clone();
            bad[at] ^= 0x01;
            if let Err(e) = RawArtifact::open_bytes(bad) {
                let _ = format!("{e}");
            } else {
                // The only byte a flip may go unnoticed in is inter-
                // section padding (not covered by any checksum).
                let art = RawArtifact::open_bytes(good.clone()).unwrap();
                let in_padding = !(0..HEADER_LEN + 3 * TOC_ENTRY_LEN + 8).contains(&at)
                    && ![7u32, 9, 3].iter().any(|&id| {
                        let r = art.section_range(id).unwrap();
                        r.contains(&at)
                    });
                assert!(in_padding, "undetected flip at {at}");
            }
        }
    }

    #[test]
    fn rejects_oversized_length_fields() {
        let good = sample();
        // Grow section 7's TOC length beyond the file, fixing the header
        // checksum so only the bounds check can catch it.
        let mut bad = good.clone();
        let entry = HEADER_LEN; // first TOC entry (id 7)
        bad[entry + 16..entry + 24].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        let toc_end = HEADER_LEN + 3 * TOC_ENTRY_LEN;
        let sum = checksum64(&bad[..toc_end]);
        bad[toc_end..toc_end + 8].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            RawArtifact::open_bytes(bad).unwrap_err(),
            PersistError::Malformed { context: "TOC", .. }
        ));
    }
}

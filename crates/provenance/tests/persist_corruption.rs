//! The corruption battery: no damaged artifact is ever loaded.
//!
//! Truncations at (and around) every section boundary, single-byte
//! flips across the header, TOC and payloads, oversized length fields,
//! wrong magic, future format versions, missing sections, and
//! checksum-valid-but-structurally-lying payloads — every case must
//! surface as a typed [`Error::Persist`] from `Session::open` /
//! `Session::open_mapped`, never a panic and never a session that
//! answers from garbage. Byte flips that land in inter-section padding
//! are the one legitimate survival: those opens must answer bit-for-bit
//! identically to the pristine artifact.
//!
//! The tier-1 tests sample flip positions; the `#[ignore]`d stress
//! variant (run by the stress CI job) exhausts every byte.

use provabs_provenance::persist::{checksum64, section, ArtifactWriter, PersistError, RawArtifact};
use provabs_provenance::valuation::Valuation;
use provabs_session::{Error, Session, SessionBuilder};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const HEADER_LEN: usize = 24;
const TOC_ENTRY_LEN: usize = 32;

fn temp_artifact(tag: &str) -> TempFile {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let mut path = std::env::temp_dir();
    path.push(format!(
        "provabs-corruption-{}-{}-{tag}.pvabs",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    TempFile(path)
}

struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A small but fully populated session: every section non-empty, the
/// whole artifact a few hundred bytes — small enough to exhaust.
fn small_session() -> Session {
    let mut session =
        SessionBuilder::from_text("220.8·p1·m1 + 240·p1·m3 + 16·f1·m1\n3·p1 + 4·f1\n9·f1·m3")
            .expect("parses")
            .forest_text("q1(m1, m3)\nPlans(p1, f1)")
            .expect("parses")
            .bound(4)
            .build()
            .expect("valid");
    session.compress().expect("attainable");
    session
}

/// The pristine artifact bytes plus the reference answers both open
/// paths must reproduce.
fn baseline() -> (Vec<u8>, Vec<Valuation<f64>>, Vec<Vec<f64>>) {
    let mut session = small_session();
    let file = temp_artifact("baseline");
    session.save(&file.0).expect("save");
    let bytes = std::fs::read(&file.0).expect("artifact bytes");
    let mut vars = session.vars().clone();
    let valuations: Vec<Valuation<f64>> = (0..3)
        .map(|i| {
            let mut val = Valuation::neutral();
            for (id, _) in vars.iter() {
                val.assign(id, 0.25 + 0.5 * ((id.0 + i) % 5) as f64);
            }
            val
        })
        .collect();
    let _ = &mut vars;
    let expected = session
        .ask_prepared(&valuations)
        .expect("compressed")
        .values;
    (bytes, valuations, expected)
}

/// Writes `bytes` to a file and opens it through *both* load paths,
/// asserting they agree on success/failure. Returns the owned-path
/// outcome.
fn open_both(bytes: &[u8], tag: &str) -> Result<Session, Error> {
    let file = temp_artifact(tag);
    std::fs::write(&file.0, bytes).expect("write corrupted bytes");
    let owned = Session::open(&file.0);
    let mapped = Session::open_mapped(&file.0);
    assert_eq!(
        owned.is_ok(),
        mapped.is_ok(),
        "{tag}: owned and mapped opens must agree"
    );
    if let (Err(a), Err(b)) = (&owned, &mapped) {
        assert_eq!(
            format!("{a}"),
            format!("{b}"),
            "{tag}: both paths must report the same failure"
        );
    }
    drop(mapped);
    owned
}

fn assert_persist_err(result: Result<Session, Error>, tag: &str) {
    match result {
        Err(Error::Persist(_)) => {}
        Err(other) => panic!("{tag}: expected Error::Persist, got {other:?}"),
        Ok(_) => panic!("{tag}: corrupted artifact must not open"),
    }
}

/// The section table of the pristine artifact, read back through the
/// public reader (id → (offset, len)).
fn toc(bytes: &[u8]) -> Vec<(u32, usize, usize)> {
    let count = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| {
            let at = HEADER_LEN + i * TOC_ENTRY_LEN;
            let id = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            let offset = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap()) as usize;
            (id, offset, len)
        })
        .collect()
}

/// Recomputes the header checksum after a deliberate header/TOC edit, so
/// the test reaches the validation *behind* the checksum.
fn fix_header_checksum(bytes: &mut [u8]) {
    let count = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    let end = HEADER_LEN + count * TOC_ENTRY_LEN;
    let sum = checksum64(&bytes[..end]);
    bytes[end..end + 8].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn truncation_at_every_section_boundary_is_a_typed_error() {
    let (good, _, _) = baseline();
    let mut cuts: Vec<usize> = vec![0, 1, 4, 7, 8, 12, HEADER_LEN - 1, HEADER_LEN];
    let entries = toc(&good);
    for (i, (_, offset, len)) in entries.iter().enumerate() {
        cuts.push(HEADER_LEN + i * TOC_ENTRY_LEN); // each TOC entry start
        cuts.push(*offset); // payload start
        cuts.push(offset + len / 2); // mid-payload
        cuts.push(offset + len.saturating_sub(1)); // payload end - 1
    }
    cuts.push(HEADER_LEN + entries.len() * TOC_ENTRY_LEN); // before header checksum
    cuts.push(good.len() - 1);
    for cut in cuts {
        assert!(cut < good.len(), "cut {cut} out of range");
        assert_persist_err(
            open_both(&good[..cut], "truncated"),
            &format!("cut at {cut}"),
        );
    }
}

#[test]
fn wrong_magic_and_future_version_are_typed_errors() {
    let (good, _, _) = baseline();
    let mut bad = good.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(
        open_both(&bad, "magic"),
        Err(Error::Persist(PersistError::BadMagic))
    ));
    // A future format version — with the header checksum fixed, so the
    // version gate itself is what rejects it.
    let mut bad = good.clone();
    bad[8..12].copy_from_slice(&99u32.to_le_bytes());
    fix_header_checksum(&mut bad);
    assert!(matches!(
        open_both(&bad, "version"),
        Err(Error::Persist(PersistError::UnsupportedVersion {
            found: 99,
            supported: 1,
        }))
    ));
}

#[test]
fn oversized_length_and_offset_fields_are_typed_errors() {
    let (good, _, _) = baseline();
    for entry in 0..toc(&good).len() {
        let at = HEADER_LEN + entry * TOC_ENTRY_LEN;
        // A length far beyond the file (and beyond usize arithmetic).
        let mut bad = good.clone();
        bad[at + 16..at + 24].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        fix_header_checksum(&mut bad);
        assert_persist_err(open_both(&bad, "len"), &format!("entry {entry} length"));
        // An offset pointing past the end.
        let mut bad = good.clone();
        bad[at + 8..at + 16].copy_from_slice(&(good.len() as u64 + 8).to_le_bytes());
        fix_header_checksum(&mut bad);
        assert_persist_err(open_both(&bad, "offset"), &format!("entry {entry} offset"));
        // A misaligned offset.
        let mut bad = good.clone();
        let offset = u64::from_le_bytes(bad[at + 8..at + 16].try_into().unwrap());
        bad[at + 8..at + 16].copy_from_slice(&(offset + 1).to_le_bytes());
        fix_header_checksum(&mut bad);
        assert_persist_err(
            open_both(&bad, "align"),
            &format!("entry {entry} alignment"),
        );
    }
}

#[test]
fn every_required_section_is_actually_required() {
    let (good, _, _) = baseline();
    let art = RawArtifact::open_bytes(good).expect("pristine parses");
    let ids: Vec<u32> = art.section_ids().collect();
    assert_eq!(ids.len(), 9, "the session writes nine sections");
    for missing in &ids {
        let mut w = ArtifactWriter::new();
        for &id in &ids {
            if id != *missing {
                w.section(id, art.section(id).expect("present").to_vec());
            }
        }
        let result = open_both(&w.to_bytes(), "missing");
        assert!(
            matches!(
                result,
                Err(Error::Persist(PersistError::MissingSection { .. }))
            ),
            "dropping section {missing} must be MissingSection"
        );
    }
}

/// The artifact with section `replace_id`'s payload put through `mutate`
/// and every checksum recomputed over the result.
fn rebuild(art: &RawArtifact, replace_id: u32, mutate: &dyn Fn(&mut Vec<u8>)) -> Vec<u8> {
    let mut w = ArtifactWriter::new();
    for id in art.section_ids() {
        let mut payload = art.section(id).expect("present").to_vec();
        if id == replace_id {
            mutate(&mut payload);
        }
        w.section(id, payload);
    }
    w.to_bytes()
}

/// Where a working-set payload keeps what: per arena monomial the offset
/// of its factor count and that count, per polynomial the offset of its
/// term count and that count (a term row is a `u32` id and an `f64`).
struct WorkingLayout {
    monos: Vec<(usize, usize)>,
    polys: Vec<(usize, usize)>,
}

fn working_layout(p: &[u8]) -> WorkingLayout {
    let u32_at = |at: usize| u32::from_le_bytes(p[at..at + 4].try_into().unwrap()) as usize;
    let arena_len = u64::from_le_bytes(p[0..8].try_into().unwrap()) as usize;
    let num_polys = u64::from_le_bytes(p[8..16].try_into().unwrap()) as usize;
    let mut at = 16;
    let mut monos = Vec::new();
    for _ in 0..arena_len {
        monos.push((at, u32_at(at)));
        at += 4 + 8 * u32_at(at);
    }
    let mut polys = Vec::new();
    for _ in 0..num_polys {
        polys.push((at, u32_at(at)));
        at += 4 + 12 * u32_at(at);
    }
    assert_eq!(at, p.len(), "the payload is consumed exactly");
    WorkingLayout { monos, polys }
}

/// The abstracted working set is saved compacted — every arena entry is
/// live, the last term row ends the payload. Cut short, extended, or
/// pointing one past the arena it is a typed error; ids that alias (one
/// monomial stored twice, one term listed twice) are not an error: the
/// decoder interns and accumulates, so they merge, and the column path
/// never reads them.
#[test]
fn compacted_working_sections_refuse_truncation_and_merge_aliases() {
    let (good, valuations, expected) = baseline();
    let art = RawArtifact::open_bytes(good).expect("pristine parses");
    let pristine = art.section(section::WORKING_ABS).expect("present");
    let layout = working_layout(pristine);
    let arena_len = layout.monos.len();
    let (last_poly, last_terms) = *layout.polys.last().expect("three polynomials");
    assert!(last_terms > 0);
    let last_row = last_poly + 4 + 12 * (last_terms - 1);
    let rebuild = |mutate: &dyn Fn(&mut Vec<u8>)| rebuild(&art, section::WORKING_ABS, mutate);

    for cut in [1, 8, 12] {
        let bytes = rebuild(&|p| p.truncate(p.len() - cut));
        assert_persist_err(open_both(&bytes, "working-cut"), &format!("cut {cut}"));
    }
    let bytes = rebuild(&|p| p.extend_from_slice(&[0; 12]));
    assert_persist_err(open_both(&bytes, "working-extended"), "a stray term row");
    let bytes = rebuild(&|p| {
        p[last_row..last_row + 4].copy_from_slice(&(arena_len as u32).to_le_bytes());
    });
    assert_persist_err(open_both(&bytes, "working-past"), "one past the arena");
    // One more monomial declared than stored: the terms are read as
    // factors.
    let bytes = rebuild(&|p| p[0..8].copy_from_slice(&(arena_len as u64 + 1).to_le_bytes()));
    assert_persist_err(open_both(&bytes, "working-arena-lie"), "arena length + 1");

    let answers_alike = |bytes: &[u8], tag: &str| -> Session {
        let mut session = open_both(bytes, tag).unwrap_or_else(|e| panic!("{tag}: {e}"));
        let got = session.ask_prepared(&valuations).expect("compressed");
        for (a, b) in got.values.iter().flatten().zip(expected.iter().flatten()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{tag}: answers changed");
        }
        session
    };
    // Two arena entries with as many factors: store the first twice.
    let (a, b) = (0..arena_len)
        .flat_map(|a| (a + 1..arena_len).map(move |b| (a, b)))
        .find(|&(a, b)| layout.monos[a].1 == layout.monos[b].1)
        .expect("two monomials of one length");
    let (from, nfac) = layout.monos[a];
    let to = layout.monos[b].0;
    let bytes = rebuild(&|p| p.copy_within(from..from + 4 + 8 * nfac, to));
    let session = answers_alike(&bytes, "aliased-monomial");
    assert_eq!(session.intern_stats().arena_monomials, arena_len);
    let decoded = session.working().expect("compressed");
    assert_eq!(decoded.arena().len(), arena_len - 1, "aliases intern once");
    // One term listed twice in a polynomial: the rows accumulate.
    let (at, terms) = *layout
        .polys
        .iter()
        .find(|&&(_, terms)| terms >= 2)
        .expect("a polynomial of two terms");
    let bytes = rebuild(&|p| p.copy_within(at + 4..at + 8, at + 16));
    let session = answers_alike(&bytes, "aliased-term");
    let decoded = session.working().expect("compressed");
    let pi = layout
        .polys
        .iter()
        .position(|&(o, _)| o == at)
        .expect("found above");
    assert_eq!(decoded.poly_size_m(pi), terms - 1, "aliased terms merge");
}

/// Structural lies behind *valid* checksums: the payload decoders, not
/// the checksums, are the last line of defence.
#[test]
fn checksum_valid_structural_lies_are_typed_errors() {
    let (good, _, _) = baseline();
    let art = RawArtifact::open_bytes(good).expect("pristine parses");
    let rebuild = |id: u32, mutate: &dyn Fn(&mut Vec<u8>)| rebuild(&art, id, mutate);
    // A VVS node id far outside its tree.
    let bytes = rebuild(section::VVS, &|p| {
        let n = p.len();
        p[n - 4..].copy_from_slice(&9999u32.to_le_bytes());
    });
    assert_persist_err(open_both(&bytes, "vvs-lie"), "vvs node id");
    // A forest variable outside the table.
    let bytes = rebuild(section::FOREST_CLEAN, &|p| {
        p[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    });
    assert_persist_err(open_both(&bytes, "forest-lie"), "forest var id");
    // Compiled counts that disagree with the section length.
    let bytes = rebuild(section::COMPILED_ABS, &|p| {
        let n = u64::from_le_bytes(p[0..8].try_into().unwrap());
        p[0..8].copy_from_slice(&(n + 1).to_le_bytes());
    });
    assert_persist_err(open_both(&bytes, "compiled-lie"), "compiled counts");
    // A working-set term referencing a shrunken arena.
    let bytes = rebuild(section::WORKING_ABS, &|p| {
        p[0..8].copy_from_slice(&0u64.to_le_bytes());
    });
    assert_persist_err(open_both(&bytes, "working-lie"), "working arena");
    // A live variable outside the table.
    let bytes = rebuild(section::LIVE_VARS, &|p| {
        let n = p.len();
        p[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
    });
    assert_persist_err(open_both(&bytes, "live-lie"), "live var id");
    // An unknown strategy tag in the session meta.
    let bytes = rebuild(section::SESSION_META, &|p| {
        p[4..8].copy_from_slice(&77u32.to_le_bytes());
    });
    assert_persist_err(open_both(&bytes, "meta-lie"), "strategy tag");
}

/// The flip engine shared by the sampled tier-1 test and the exhaustive
/// stress variant: flipping any byte either fails typed or — only for
/// bytes in inter-section padding, which no checksum covers — leaves a
/// session that answers bit-for-bit identically.
fn flip_battery(stride: usize) {
    let (good, valuations, expected) = baseline();
    let entries = toc(&good);
    let in_padding = |at: usize| -> bool {
        let payload_start = entries
            .iter()
            .map(|(_, o, _)| *o)
            .min()
            .unwrap_or(good.len());
        at >= payload_start && !entries.iter().any(|(_, o, l)| (*o..o + l).contains(&at))
    };
    let mut flipped_ok = 0usize;
    for at in (0..good.len()).step_by(stride) {
        for mask in [0x01u8, 0x80] {
            let mut bad = good.clone();
            bad[at] ^= mask;
            match open_both(&bad, "flip") {
                Err(Error::Persist(_)) => {}
                Err(other) => panic!("flip at {at}: non-persist error {other:?}"),
                Ok(mut session) => {
                    assert!(
                        in_padding(at),
                        "flip at {at} survived outside padding (mask {mask:#x})"
                    );
                    let got = session
                        .ask_prepared(&valuations)
                        .expect("compressed")
                        .values;
                    assert_eq!(got.len(), expected.len());
                    for (a, b) in got.iter().flatten().zip(expected.iter().flatten()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "padding flip changed answers");
                    }
                    flipped_ok += 1;
                }
            }
        }
    }
    // Sanity: the battery actually exercised the reject path far more
    // often than the padding path.
    assert!(
        flipped_ok * 4 < good.len() / stride + 4,
        "too many survivors"
    );
}

#[test]
fn sampled_single_byte_flips_never_load_garbage() {
    flip_battery(7);
}

/// The exhaustive variant — every byte, both masks. Run by the stress
/// CI job (`cargo test -- --ignored`).
#[test]
#[ignore = "stress: exhausts every byte of the artifact"]
fn exhaustive_single_byte_flips_never_load_garbage() {
    flip_battery(1);
}

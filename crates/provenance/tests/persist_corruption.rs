//! The corruption battery: no damaged artifact is ever loaded.
//!
//! Truncations at (and around) every section boundary, single-byte
//! flips across the header, TOC and payloads, oversized length fields,
//! wrong magic, other format versions, missing sections, and
//! checksum-valid-but-structurally-lying payloads — every case must
//! surface as a typed [`Error::Persist`] from `Session::open` /
//! `Session::open_mapped`, never a panic and never a session that
//! answers from garbage. Byte flips that land in inter-section padding
//! are the one legitimate survival: those opens must answer bit-for-bit
//! identically to the pristine artifact. So is one structural liberty:
//! columns whose monomials list their factors out of order or twice are
//! still polynomials, and open as the polynomials they denote; and a
//! `vars` column that names one variable twice answers as the dense
//! valuation tables do on every evaluation kernel.
//!
//! The compiled columns also meet a generated loop of lies about their
//! counts, their degree and their layout (a degree where an ends column
//! stands, an ends column where a degree does), every checksum repaired.
//!
//! The tier-1 tests sample flip positions and bound the generated loop;
//! the `#[ignore]`d stress variants (run by the stress CI job) exhaust
//! every byte and run the loop long.

use provabs_provenance::persist::{
    checksum64, section, ArtifactWriter, PersistError, RawArtifact, SharedCompiled, FORMAT_VERSION,
};
use provabs_provenance::polyset_to_string;
use provabs_provenance::simd::Kernel;
use provabs_provenance::valuation::Valuation;
use provabs_session::{Error, Session, SessionBuilder};
use provabs_testkit::{bits_equal, Rng, TempFile};

const HEADER_LEN: usize = 24;
const TOC_ENTRY_LEN: usize = 32;

/// A small but fully populated session: every section and every column
/// non-empty (two powers on each side), the whole artifact a few hundred
/// bytes — small enough to exhaust. Its monomials differ in factor count,
/// so both column sections keep their ends.
fn small_session() -> Session {
    session_over("220.8·p1·m1 + 240·p1·m3 + 16·f1·m1\n3·p1^3 + 4·f1^2\n9·f1·m3")
}

/// The uniform twin of [`small_session`]: every monomial, before and
/// after compression, has two factors, so both column sections store a
/// degree instead of their ends.
fn uniform_session() -> Session {
    session_over("220.8·p1·m1 + 240·p1·m3 + 16·f1·m1\n3·p1·m3 + 4·f1·m3\n9·f1^2·m3")
}

fn session_over(text: &str) -> Session {
    let session = SessionBuilder::from_text(text)
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
    baseline_of(&small_session())
}

fn baseline_of(session: &Session) -> (Vec<u8>, Vec<Valuation<f64>>, Vec<Vec<f64>>) {
    let file = TempFile::new("baseline");
    session.save(&file.0).expect("save");
    let bytes = std::fs::read(&file.0).expect("artifact bytes");
    let valuations: Vec<Valuation<f64>> = (0..3)
        .map(|i| {
            let mut val = Valuation::neutral();
            for (id, _) in session.vars().iter() {
                val.assign(id, 0.25 + 0.5 * ((id.0 + i) % 5) as f64);
            }
            val
        })
        .collect();
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
    let file = TempFile::new(tag);
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
            supported: 3,
        }))
    ));
    // A version-1 file is refused by its number, before any checksum is
    // read: its header sum was computed by version 1's checksum, so here
    // it is left as it is — stale — and must not be what is reported.
    let mut v1 = good.clone();
    v1[8..12].copy_from_slice(&1u32.to_le_bytes());
    assert!(matches!(
        open_both(&v1, "v1"),
        Err(Error::Persist(PersistError::UnsupportedVersion {
            found: 1,
            supported: 3,
        }))
    ));
    // A version-2 file, whose header checksum is valid (versions 2 and 3
    // sum alike): refused by its number all the same, never misread.
    let mut v2 = good;
    v2[8..12].copy_from_slice(&2u32.to_le_bytes());
    fix_header_checksum(&mut v2);
    assert!(matches!(
        open_both(&v2, "v2"),
        Err(Error::Persist(PersistError::UnsupportedVersion {
            found: 2,
            supported: 3,
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
    assert_eq!(ids.len(), 8, "the session writes eight sections");
    assert!(ids.contains(&section::COMPILED_ORIG));
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

/// Where a compiled-columns payload keeps what: the five words it opens
/// with and the offset of each column behind them.
#[derive(Clone, Copy, Debug)]
struct Columns {
    polys: usize,
    monos: usize,
    factors: usize,
    vars: usize,
    powers: usize,
    /// The factor count of every monomial; `None` when they differ.
    degree: Option<usize>,
    /// Present exactly when `degree` is not.
    mono_ends: Option<usize>,
    poly_ends: usize,
    vars_at: usize,
    power_at: usize,
    power_exp: usize,
    factor_vars: usize,
}

/// The tag of the third word when it holds a uniform set's degree rather
/// than a mixed set's factor count.
const UNIFORM: u64 = 1 << 63;
/// Bytes of the words a compiled section opens with, and so where its
/// coefficients start.
const COEFFS: usize = 40;

impl Columns {
    fn of(p: &[u8]) -> Self {
        let word = |i: usize| u64::from_le_bytes(p[8 * i..8 * i + 8].try_into().unwrap());
        let [polys, monos, _, vars, powers] = [0, 1, 2, 3, 4].map(|i| word(i) as usize);
        let degree = (word(2) & UNIFORM != 0).then(|| (word(2) & !UNIFORM) as usize);
        let factors = degree.map_or(word(2) as usize, |d| monos * d);
        let after_coeffs = COEFFS + 8 * monos;
        let mono_ends = degree.is_none().then_some(after_coeffs);
        let poly_ends = after_coeffs + mono_ends.map_or(0, |_| 4 * monos);
        let vars_at = poly_ends + 4 * polys;
        let power_at = vars_at + 4 * vars;
        let power_exp = power_at + 4 * powers;
        let factor_vars = power_exp + 4 * powers;
        assert_eq!(
            factor_vars + 2 * factors,
            p.len(),
            "narrow, consumed exactly"
        );
        Self {
            polys,
            monos,
            factors,
            vars,
            powers,
            degree,
            mono_ends,
            poly_ends,
            vars_at,
            power_at,
            power_exp,
            factor_vars,
        }
    }

    /// The exclusive end of monomial `m`'s factors.
    fn end(&self, p: &[u8], m: usize) -> usize {
        match (self.degree, self.mono_ends) {
            (Some(d), _) => (m + 1) * d,
            (None, Some(ends)) => u32_at(p, ends + 4 * m) as usize,
            (None, None) => unreachable!("a section has a degree or ends"),
        }
    }

    /// The factor range of the first monomial with `n` factors.
    fn monomial_of(&self, p: &[u8], n: usize) -> std::ops::Range<usize> {
        (0..self.monos)
            .map(|m| (if m == 0 { 0 } else { self.end(p, m - 1) })..self.end(p, m))
            .find(|r| r.len() == n)
            .expect("a monomial of that many factors")
    }
}

fn u32_at(p: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(p[at..at + 4].try_into().unwrap())
}

fn put_u32(p: &mut [u8], at: usize, v: u32) {
    p[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_u64(p: &mut [u8], at: usize, v: u64) {
    p[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Every way the compiled-columns codec can be lied to behind valid
/// checksums, on the abstracted and on the original section alike.
#[test]
fn hostile_compiled_columns_are_typed_errors() {
    let (good, _, _) = baseline();
    let art = RawArtifact::open_bytes(good).expect("pristine parses");
    for id in [section::COMPILED_ABS, section::COMPILED_ORIG] {
        let c = Columns::of(art.section(id).expect("present"));
        assert!(c.polys == 3 && c.powers == 2 && c.factors > c.vars);
        let ends = c.mono_ends.expect("the small session's monomials differ");
        let refused = |tag: &str, needle: &str, mutate: &dyn Fn(&mut Vec<u8>)| match open_both(
            &rebuild(&art, id, mutate),
            tag,
        ) {
            Err(Error::Persist(e @ PersistError::Malformed { .. })) => {
                assert!(e.to_string().contains(needle), "{tag} (section {id}): {e}")
            }
            Err(other) => panic!("{tag} (section {id}): expected Malformed, got {other:?}"),
            Ok(_) => panic!("{tag} (section {id}): hostile columns must not open"),
        };

        // The index width is the variable count's, never the writer's.
        refused("narrow-over-65536", "bytes wide", &|p| {
            // Narrow columns declaring 65 537 variables (and storing them).
            put_u64(p, 24, 65_537);
            let extra = vec![0u8; 4 * (65_537 - c.vars)];
            p.splice(c.power_at..c.power_at, extra);
        });
        refused("wide-under-65536", "bytes wide", &|p| {
            // The same indices, four bytes each, for a handful of variables.
            let wide: Vec<u8> = p[c.factor_vars..]
                .chunks_exact(2)
                .flat_map(|i| [i[0], i[1], 0, 0])
                .collect();
            p.truncate(c.factor_vars);
            p.extend_from_slice(&wide);
        });

        // Power positions: strictly increasing factor positions.
        let (first, second) = (
            u32_at(art.section(id).unwrap(), c.power_at),
            u32_at(art.section(id).unwrap(), c.power_at + 4),
        );
        assert!(first < second);
        refused("powers-unsorted", "power position", &|p| {
            put_u32(p, c.power_at, second);
            put_u32(p, c.power_at + 4, first);
        });
        refused("powers-duplicated", "power position", &|p| {
            put_u32(p, c.power_at + 4, first)
        });
        refused("power-past-the-factors", "power position", &|p| {
            put_u32(p, c.power_at + 4, c.factors as u32)
        });
        // Powers: 2 and up; 1 is not an exception, 0 not a factor.
        for exp in [0, 1] {
            refused("power-too-small", "power ", &|p| {
                put_u32(p, c.power_exp, exp)
            });
        }
        refused("degree-overflow", "total degree", &|p| {
            put_u32(p, c.power_exp, u32::MAX);
            put_u32(p, c.power_exp + 4, u32::MAX);
        });

        // A `u16` index one past the declared variables.
        refused("index-past-the-variables", "local variable", &|p| {
            p[c.factor_vars..c.factor_vars + 2].copy_from_slice(&(c.vars as u16).to_le_bytes());
        });
        // A local variable outside the artifact's variable table.
        refused("variable-past-the-table", "variable table", &|p| {
            put_u32(p, c.vars_at, 9_999)
        });

        // Counts: absurd ones are refused as counts (which is also what
        // keeps their arithmetic from overflowing); plausible ones that
        // disagree with the section length, by the length.
        for field in 0..5 {
            refused("count-overflow", "plausible bound", &|p| {
                put_u64(p, 8 * field, u64::MAX / 2)
            });
            refused("count-off-by-one", "do not add up", &|p| {
                let n = u64::from_le_bytes(p[8 * field..8 * field + 8].try_into().unwrap());
                put_u64(p, 8 * field, n + 1);
            });
        }
        refused("monomial-outside-every-polynomial", "poly_ends", &|p| {
            // One more monomial, stored (a coefficient and a prefix end)
            // but past where the last polynomial ends.
            put_u64(p, 8, c.monos as u64 + 1);
            p.splice(ends..ends, [0u8; 12]);
        });

        // The layout is the monomials', never the writer's: an ends
        // column whose monomials all have one factor count is a uniform
        // set spelled the long way.
        refused("uniform-ends", "uniform set", &|p| {
            // Every monomial a single factor, so `factors == monos`.
            let factors: Vec<u8> = (0..c.monos as u16)
                .flat_map(|i| (i % 2).to_le_bytes())
                .collect();
            p.truncate(c.factor_vars);
            p.extend_from_slice(&factors);
            put_u64(p, 16, c.monos as u64);
            put_u64(p, 32, 0);
            p.drain(c.power_at..c.factor_vars);
            for m in 0..c.monos {
                put_u32(p, ends + 4 * m, m as u32 + 1);
            }
        });
        // A degree claimed over the ends column's bytes.
        refused("degree-over-ends", "do not add up", &|p| {
            put_u64(p, 16, UNIFORM | 2)
        });
    }
}

/// The uniform layout's own lies: a degree that does not multiply out to
/// the factors, an empty set of nonzero degree, and an ends column — even
/// one that spells the very same monomials — where the degree belongs.
#[test]
fn hostile_uniform_columns_are_typed_errors() {
    let (good, valuations, expected) = baseline_of(&uniform_session());
    let art = RawArtifact::open_bytes(good.clone()).expect("pristine parses");
    let pristine = open_both(&good, "pristine").expect("opens");
    let got = pristine.ask_prepared(&valuations).expect("compressed");
    assert_eq!(got.values, expected);
    for id in [section::COMPILED_ABS, section::COMPILED_ORIG] {
        let p = art.section(id).expect("present");
        let c = Columns::of(p);
        assert_eq!(c.degree, Some(2), "section {id} is uniform");
        assert!(c.mono_ends.is_none());
        let refused = |tag: &str, needle: &str, mutate: &dyn Fn(&mut Vec<u8>)| match open_both(
            &rebuild(&art, id, mutate),
            tag,
        ) {
            Err(Error::Persist(e @ PersistError::Malformed { .. })) => {
                assert!(e.to_string().contains(needle), "{tag} (section {id}): {e}")
            }
            Err(other) => panic!("{tag} (section {id}): expected Malformed, got {other:?}"),
            Ok(_) => panic!("{tag} (section {id}): hostile columns must not open"),
        };
        for degree in [0, 1, 3, c.factors as u64] {
            refused("degree-lie", "do not add up", &|p| {
                put_u64(p, 16, UNIFORM | degree)
            });
        }
        refused("degree-absurd", "plausible bound", &|p| {
            put_u64(p, 16, UNIFORM | u64::MAX >> 2)
        });
        // The exact ends of these monomials, in the column they would have.
        let exact: Vec<u8> = (1..=c.monos as u32)
            .flat_map(|m| (2 * m).to_le_bytes())
            .collect();
        refused("exact-ends", "uniform set", &|p| {
            put_u64(p, 16, c.factors as u64);
            p.splice(c.poly_ends..c.poly_ends, exact.iter().copied());
        });
        refused("ends-without-their-column", "do not add up", &|p| {
            put_u64(p, 16, c.factors as u64)
        });
        refused("empty-of-degree-two", "degree 0", &|p| {
            // No polynomial, no monomial, no power — and a degree of 2.
            let vars = p[c.vars_at..c.power_at].to_vec();
            p.truncate(COEFFS);
            p.extend_from_slice(&vars);
            for field in [0, 1, 4] {
                put_u64(p, 8 * field, 0);
            }
        });
    }
}

/// The current header over an older body: the sections version 1 wrote
/// (its shorter `SESSION_META`, its dense-exponent column codec, its two
/// row-coded working sets under ids 8 and 9, no id 10) and the columns
/// version 2 wrote (five counts, a prefix end per monomial whatever the
/// degrees) are each refused by what version 3 expects in their place.
#[test]
fn old_bodies_under_the_current_header_are_typed_errors() {
    let (good, _, _) = baseline();
    let art = RawArtifact::open_bytes(good).expect("pristine parses");
    let columns = art.section(section::COMPILED_ABS).expect("present");
    let c = Columns::of(columns);
    assert!(
        c.mono_ends.is_some(),
        "the small session's monomials differ"
    );
    // Version 1's codec: four counts, then coeffs, mono_ends, poly_ends,
    // `u32` indices, a `u32` exponent per factor, vars.
    let v1_columns = {
        let mut out = Vec::new();
        for count in [c.polys, c.monos, c.factors, c.vars] {
            out.extend_from_slice(&(count as u64).to_le_bytes());
        }
        out.extend_from_slice(&columns[COEFFS..c.vars_at]);
        for index in columns[c.factor_vars..].chunks_exact(2) {
            out.extend_from_slice(&[index[0], index[1], 0, 0]);
        }
        out.extend(std::iter::repeat_n(1u32.to_le_bytes(), c.factors).flatten());
        out.extend_from_slice(&columns[c.vars_at..c.power_at]);
        out
    };
    let v1_meta = |meta: &[u8]| meta[..meta.len() - 8].to_vec();
    // Which of the body's sections are version 1's; the rest stay.
    for (tag, old_meta, old_columns, old_ids) in [
        ("whole body", true, true, true),
        ("meta alone", true, false, false),
        ("columns alone", false, true, false),
        ("section set alone", false, false, true),
    ] {
        let mut w = ArtifactWriter::new();
        for id in art.section_ids() {
            let payload = art.section(id).expect("present");
            match id {
                section::SESSION_META if old_meta => w.section(id, v1_meta(payload)),
                section::COMPILED_ABS if old_columns => w.section(id, v1_columns.clone()),
                section::COMPILED_ORIG if old_ids => {
                    // Ids 8 and 9, retired: rows of a working set.
                    w.section(8, vec![0; 16]);
                    w.section(9, vec![0; 16]);
                }
                _ => w.section(id, payload.to_vec()),
            }
        }
        let bytes = w.to_bytes();
        assert_eq!(
            bytes[8..12],
            FORMAT_VERSION.to_le_bytes(),
            "a current header"
        );
        assert_persist_err(open_both(&bytes, "v1-body"), tag);
    }

    // Version 2's codec: a plain factor count and an ends column whatever
    // the degrees. A mixed set's version-2 columns are its version-3
    // columns byte for byte, and open as what they are; a uniform set's
    // are refused as the non-canonical spelling they now are.
    let v2 = |p: &[u8]| {
        let c = Columns::of(p);
        let mut out = p.to_vec();
        put_u64(&mut out, 16, c.factors as u64);
        if let Some(d) = c.degree {
            let ends = (1..=c.monos).flat_map(|m| ((m * d) as u32).to_le_bytes());
            out.splice(c.poly_ends..c.poly_ends, ends);
        }
        out
    };
    for (session, uniform) in [(small_session(), false), (uniform_session(), true)] {
        let (good, valuations, expected) = baseline_of(&session);
        let art = RawArtifact::open_bytes(good).expect("pristine parses");
        for id in [section::COMPILED_ABS, section::COMPILED_ORIG] {
            let opened = open_both(&rebuild(&art, id, &|p| *p = v2(p)), "v2-columns");
            if uniform {
                assert_persist_err(opened, "uniform columns spelled with their ends");
            } else {
                let got = opened.expect("mixed columns are unchanged");
                let got = got.ask_prepared(&valuations).expect("compressed").values;
                assert_eq!(got, expected, "section {id}");
            }
        }
    }
}

/// What the validator does *not* demand of a monomial — sorted factors,
/// no variable twice — evaluation does not need and the rebuild repairs:
/// such columns open, answer as the polynomial they spell, and come back
/// from `from_compiled` in canonical form, in debug and release alike.
#[test]
fn unsorted_and_repeated_factors_open_and_rebuild_canonically() {
    let (good, valuations, expected) = baseline();
    let reference = open_both(&good, "pristine").expect("opens");
    let art = RawArtifact::open_bytes(good).expect("pristine parses");
    let pristine = art.section(section::COMPILED_ABS).expect("present");
    let c = Columns::of(pristine);
    let pair = c.monomial_of(pristine, 2);
    assert!(
        c.mono_ends.is_some(),
        "the small session's monomials differ"
    );
    let (a, b) = (
        c.factor_vars + 2 * pair.start,
        c.factor_vars + 2 * pair.start + 2,
    );
    assert_ne!(pristine[a..a + 2], pristine[b..b + 2]);
    let canonical = polyset_to_string(reference.abstracted().unwrap(), reference.vars());

    // Swapped: the same monomial, multiplied in the other order.
    let swapped = rebuild(&art, section::COMPILED_ABS, &|p| {
        let (x, y) = ([p[a], p[a + 1]], [p[b], p[b + 1]]);
        p[a..a + 2].copy_from_slice(&y);
        p[b..b + 2].copy_from_slice(&x);
    });
    let session = open_both(&swapped, "swapped").expect("opens");
    let got = session.ask_prepared(&valuations).expect("compressed");
    for (x, y) in got.values.iter().flatten().zip(expected.iter().flatten()) {
        assert!(
            (x - y).abs() <= 1e-12 * y.abs(),
            "swapped factors: {x} vs {y}"
        );
    }
    assert_eq!(
        polyset_to_string(session.abstracted().unwrap(), session.vars()),
        canonical,
        "the rebuild sorts"
    );

    // Repeated: x·x where x·y stood — a square, spelled as two factors.
    let repeated = rebuild(&art, section::COMPILED_ABS, &|p| p.copy_within(a..a + 2, b));
    let session = open_both(&repeated, "repeated").expect("opens");
    let columns = session
        .ask_prepared(&valuations)
        .expect("compressed")
        .values;
    let rebuilt = session.working().expect("compressed");
    assert_eq!(
        rebuilt.size_m(),
        reference.working().unwrap().size_m(),
        "no term lost"
    );
    let squares = |s: &Session| {
        polyset_to_string(s.abstracted().unwrap(), s.vars())
            .matches("^2")
            .count()
    };
    assert_eq!(squares(&session), squares(&reference) + 1, "x·x is x^2");
    // The canonical form denotes what the columns answered.
    let refrozen = rebuilt.freeze();
    for (val, row) in valuations.iter().zip(&columns) {
        for (x, y) in refrozen.eval_one(val).iter().zip(row) {
            assert!((x - y).abs() <= 1e-12 * y.abs(), "rebuilt: {x} vs {y}");
        }
    }
}

/// Nor does the validator demand that the `vars` column name each table
/// id once: two local variables may stand for one variable, and then
/// both read its value. The lane kernels' sparse packing keys its local
/// index by id, so such a view must pack densely — every pass of the
/// cascade, on both lane kernels and through both open paths, answers
/// bit-for-bit as the dense valuation tables do.
#[test]
fn repeated_local_variable_ids_answer_as_the_dense_tables() {
    let session = small_session();
    let (good, _, _) = baseline_of(&session);
    let art = RawArtifact::open_bytes(good).expect("pristine parses");
    let c = Columns::of(art.section(section::COMPILED_ABS).expect("present"));
    assert!(c.vars >= 2);
    // Local variable 1 now names local variable 0's id.
    let bytes = rebuild(&art, section::COMPILED_ABS, &|p| {
        p.copy_within(c.vars_at..c.vars_at + 4, c.vars_at + 4)
    });
    let repeated = RawArtifact::open_bytes(bytes.clone()).expect("parses");
    let shared = SharedCompiled::validate(
        &repeated,
        section::COMPILED_ABS,
        "abstracted columns",
        session.vars().len(),
    )
    .expect("a repeated id is admitted");
    let view = shared.view();
    assert_eq!(view.vars()[0], view.vars()[1]);
    // 23 scenarios — one 16-wide pass, one 4-wide, three scalar — none
    // giving any variable its default of 1.
    let valuations: Vec<Valuation<f64>> = (0..23)
        .map(|s| {
            let mut val = Valuation::neutral();
            for (id, _) in session.vars().iter() {
                val.assign(id, 0.25 + 0.5 * ((id.0 + s) % 5) as f64);
            }
            val
        })
        .collect();
    let dense: Vec<Vec<f64>> = valuations
        .iter()
        .map(|val| {
            let mut row = Vec::new();
            view.eval_into(&view.valuation_table(val), &mut row);
            row
        })
        .collect();
    for kernel in [Kernel::Generic, Kernel::Avx2] {
        bits_equal(&dense, &view.eval_block(&valuations, kernel), kernel.name());
    }
    let file = TempFile::new("repeated-vars");
    std::fs::write(&file.0, &bytes).expect("write");
    for (path, opened) in [
        ("owned", Session::open(&file.0)),
        ("mapped", Session::open_mapped(&file.0)),
    ] {
        let opened = opened.expect("opens");
        let got = opened.ask_prepared(&valuations).expect("compressed");
        bits_equal(&dense, &got.values, path);
    }
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
    // (The compiled columns have a battery of their own, above.)
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
                Ok(session) => {
                    assert!(
                        in_padding(at),
                        "flip at {at} survived outside padding (mask {mask:#x})"
                    );
                    let got = session
                        .ask_prepared(&valuations)
                        .expect("compressed")
                        .values;
                    bits_equal(&expected, &got, "a padding flip");
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

// ---------------------------------------------------------------------
// The generated loop: lies about counts, degree and layout.
// ---------------------------------------------------------------------

fn word_at(p: &[u8], field: usize) -> u64 {
    u64::from_le_bytes(p[8 * field..8 * field + 8].try_into().unwrap())
}

/// A value for a word that held `old`, never `old` itself: near it, zero,
/// small, absurd, with the uniform tag flipped, or a small tagged degree.
fn another(rng: &mut Rng, old: u64) -> u64 {
    loop {
        let new = match rng.below(7) {
            0 => old.wrapping_add(1 + rng.below(3)),
            1 => old.wrapping_sub(1 + rng.below(3)),
            2 => 0,
            3 => rng.below(1 << 16),
            4 => u64::MAX / 2,
            5 => old ^ UNIFORM,
            _ => UNIFORM | rng.below(8),
        };
        if new != old {
            return new;
        }
    }
}

/// Swaps the layout of a compiled payload, keeping what it denotes as far
/// as the other layout can say it: a uniform set gains the exact ends of
/// its monomials and a plain factor count; a mixed set loses its ends and
/// claims a degree near its mean factor count.
fn switch_layout(rng: &mut Rng, p: &mut Vec<u8>) -> String {
    let c = Columns::of(p);
    match (c.degree, c.mono_ends) {
        (Some(d), _) => {
            let ends: Vec<u8> = (1..=c.monos)
                .flat_map(|m| ((m * d) as u32).to_le_bytes())
                .collect();
            p.splice(c.poly_ends..c.poly_ends, ends);
            put_u64(p, 16, c.factors as u64);
            format!("degree {d} spelled as ends")
        }
        (None, Some(ends)) => {
            let d = (c.factors / c.monos) as u64 + rng.below(2);
            p.drain(ends..c.poly_ends);
            put_u64(p, 16, UNIFORM | d);
            format!("ends dropped for degree {d}")
        }
        (None, None) => unreachable!("a section has a degree or ends"),
    }
}

/// Applies one generated lie to a compiled payload and says which.
fn lie(rng: &mut Rng, p: &mut Vec<u8>) -> String {
    let count = |rng: &mut Rng, p: &mut Vec<u8>| {
        let field = rng.below(5) as usize;
        let (old, new) = (word_at(p, field), another(rng, word_at(p, field)));
        put_u64(p, 8 * field, new);
        format!("word {field}: {old:#x} → {new:#x}")
    };
    match rng.below(5) {
        0 => count(rng, p),
        1 => {
            let (old, new) = (word_at(p, 2), another(rng, word_at(p, 2)));
            put_u64(p, 16, new);
            format!("factor word: {old:#x} → {new:#x}")
        }
        2 => switch_layout(rng, p),
        3 => {
            let switched = switch_layout(rng, p);
            format!("{switched}, then {}", count(rng, p))
        }
        _ => {
            let n = 1 + rng.below(8) as usize;
            if rng.below(2) == 0 {
                let at = COEFFS + rng.below((p.len() - COEFFS + 1) as u64) as usize;
                p.splice(at..at, std::iter::repeat_n(0xA5, n));
                format!("{n} bytes inserted at {at}")
            } else {
                // At least one byte: removing none would be no lie.
                let at = COEFFS + rng.below((p.len() - COEFFS) as u64) as usize;
                let n = n.min(p.len() - at);
                p.drain(at..at + n);
                format!("{n} bytes removed at {at}")
            }
        }
    }
}

/// `cases` generated lies over both fixtures (uniform and mixed) and both
/// column sections, every checksum repaired: each must open as a typed
/// persist error, or — were a lie ever to denote the same set — answer
/// bit for bit; never panic, owned and mapped paths agreeing.
fn corruption_loop(cases: u64) {
    let fixtures = [small_session(), uniform_session()].map(|s| baseline_of(&s));
    for (good, _, _) in &fixtures {
        let art = RawArtifact::open_bytes(good.clone()).expect("pristine parses");
        for id in [section::COMPILED_ABS, section::COMPILED_ORIG] {
            let c = Columns::of(art.section(id).expect("present"));
            // No degree multiplies out to a mixed set's factors, so no
            // dropped ends column can spell another valid set.
            assert!(
                c.degree.is_some() || !c.factors.is_multiple_of(c.monos),
                "{c:?}"
            );
        }
    }
    let mut refused = 0u64;
    for case in 0..cases {
        let mut rng = Rng::new(0x5EED_0000 ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1));
        let (good, valuations, expected) = &fixtures[rng.below(2) as usize];
        let art = RawArtifact::open_bytes(good.clone()).expect("pristine parses");
        let id = [section::COMPILED_ABS, section::COMPILED_ORIG][rng.below(2) as usize];
        let mut lied = art.section(id).expect("present").to_vec();
        let what = lie(&mut rng, &mut lied);
        let bytes = rebuild(&art, id, &|p| p.clone_from(&lied));
        let tag = format!("case {case}, section {id}: {what}");
        match open_both(&bytes, "lie") {
            Err(Error::Persist(_)) => refused += 1,
            Err(other) => panic!("{tag}: non-persist error {other:?}"),
            Ok(session) => {
                let got = session.ask_prepared(valuations).expect("compressed").values;
                bits_equal(expected, &got, &format!("{tag}: opened"));
            }
        }
    }
    assert_eq!(refused, cases, "every generated lie changes the section");
}

#[test]
fn generated_lies_about_counts_degree_and_layout_are_typed_errors() {
    corruption_loop(240);
}

/// The long variant. Run by the stress CI job (`cargo test -- --ignored`).
#[test]
#[ignore = "stress: a long run of the generated corruption loop"]
fn generated_corruption_loop_long() {
    corruption_loop(20_000);
}

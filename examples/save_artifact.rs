//! Cross-process artifact round-trip — the CI gate for durable
//! artifacts.
//!
//! Two modes, meant to run in *separate processes* so the equivalence
//! claim covers a real save → exit → open boundary (no shared memory,
//! no shared caches):
//!
//! * `cargo run --example save_artifact -- save <path>` — generates the
//!   deterministic telephony fixture, compresses, saves the artifact.
//! * `cargo run --example save_artifact -- check <path>` — regenerates
//!   the *same* fixture in-process, opens the artifact through both load
//!   paths, and asserts a 16-scenario batch answers bit-for-bit
//!   identically with `compile_count() == 0`. Exits non-zero on any
//!   mismatch.
//!
//! With no arguments it runs both halves in one process (a smoke demo).

use provabs::datagen::workload::{Workload, WorkloadConfig};
use provabs::session::ArtifactOrigin;
use provabs::{Scenario, Session, SessionBuilder};
use std::path::Path;

/// The deterministic fixture both processes derive independently.
fn build_session() -> Session {
    let mut data = Workload::Telephony.generate(&WorkloadConfig {
        scale: 0.1,
        param_modulus: 16,
        seed: 11,
    });
    let forest = data.primary_tree(1, 0);
    let bound = (data.polys.size_m() / 2).max(1);
    SessionBuilder::new(data.polys.clone(), data.vars.clone())
        .forest(forest)
        .bound(bound)
        .build()
        .expect("valid configuration")
}

fn scenario_batch(session: &Session) -> Vec<Scenario> {
    let names = session.abstracted_labels().expect("session is compressed");
    (0..16)
        .map(|i| Scenario::random(&names, 0.6, 4000 + i))
        .collect()
}

fn save(path: &Path) {
    let session = build_session();
    session.compress().expect("attainable bound");
    session.save(path).expect("save artifact");
    println!(
        "saved {} ({} bytes)",
        path.display(),
        std::fs::metadata(path).expect("saved").len()
    );
}

fn check(path: &Path) {
    // The independent reference: same fixture, compressed from scratch.
    let reference = build_session();
    reference.compress().expect("attainable bound");
    let scenarios = scenario_batch(&reference);
    let expected = reference.ask(&scenarios).expect("known names").values;

    for (label, opened) in [
        ("owned", Session::open(path).expect("open artifact")),
        ("mapped", Session::open_mapped(path).expect("open artifact")),
    ] {
        match opened.artifact_info() {
            ArtifactOrigin::Opened { mapped, .. } => {
                assert_eq!(*mapped, label == "mapped", "{label}: wrong load path")
            }
            other => panic!("{label}: expected Opened origin, got {other:?}"),
        }
        let got = opened.ask(&scenarios).expect("known names").values;
        assert_eq!(
            opened.compile_count(),
            0,
            "{label}: an opened session must never compile"
        );
        let mut cells = 0usize;
        for (a, b) in expected.iter().flatten().zip(got.iter().flatten()) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{label}: answers diverge from the in-process session"
            );
            cells += 1;
        }
        println!("{label}: {cells} values bit-identical, compile_count = 0");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [mode, path] if mode == "save" => save(Path::new(path)),
        [mode, path] if mode == "check" => check(Path::new(path)),
        [] => {
            let mut path = std::env::temp_dir();
            path.push(format!(
                "provabs-save-artifact-{}.pvabs",
                std::process::id()
            ));
            save(&path);
            check(&path);
            let _ = std::fs::remove_file(&path);
        }
        _ => {
            eprintln!("usage: save_artifact [save <path> | check <path>]");
            std::process::exit(2);
        }
    }
}

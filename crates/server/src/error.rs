//! Typed wire errors: every failure the service can produce maps to a
//! stable HTTP status and a machine-readable JSON body.
//!
//! The contract (exercised table-driven below, and over real sockets in
//! `tests/service_roundtrip.rs`): a guarded evaluation stopped by a
//! deadline or cancellation is `503` *with best-so-far completion info*,
//! scenario/configuration errors the caller can fix are `422`, unknown
//! sessions are `404`, malformed requests are `400`, and only genuine
//! server-side failures (worker panics, artifact I/O) are `5xx`. New
//! [`provabs_session::Error`] variants cannot silently fall through to a
//! generic 500: [`classify`] reports whether it *recognised* the
//! variant, and the table test fails on any unrecognised one.

use crate::json::Json;
use provabs_session::Error as SessionError;

/// A failure ready to go on the wire.
#[derive(Clone, Debug)]
pub struct WireError {
    /// The HTTP status code.
    pub status: u16,
    /// A stable machine-readable code (`"unknown_session"`, …).
    pub code: &'static str,
    /// The human-readable message.
    pub message: String,
    /// Extra structured fields merged into the error body (e.g. the
    /// best-so-far completion of an interrupted run).
    pub detail: Vec<(&'static str, Json)>,
}

impl WireError {
    /// A bare error with no extra detail.
    pub fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        Self {
            status,
            code,
            message: message.into(),
            detail: Vec::new(),
        }
    }

    /// Attaches one structured detail field (chainable).
    #[must_use]
    pub fn with(mut self, key: &'static str, value: Json) -> Self {
        self.detail.push((key, value));
        self
    }

    /// `404` for a session name the registry does not know.
    pub fn unknown_session(name: &str) -> Self {
        Self::new(404, "unknown_session", format!("no session named {name:?}"))
    }

    /// `400` for a request the server cannot interpret.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::new(400, "malformed_request", message)
    }

    /// The JSON error body.
    pub fn body(&self) -> Json {
        let mut pairs = vec![
            ("error".to_string(), Json::from(self.code)),
            ("status".to_string(), Json::from(u64::from(self.status))),
            ("message".to_string(), Json::from(self.message.clone())),
        ];
        for (k, v) in &self.detail {
            pairs.push(((*k).to_string(), v.clone()));
        }
        Json::Obj(pairs)
    }
}

/// The status + code a session error maps to, plus whether the variant
/// was *recognised* — `false` only for variants added to the
/// `#[non_exhaustive]` enum after this table, which the table-driven
/// test turns into a hard failure instead of a silent generic 500.
pub fn classify(e: &SessionError) -> (u16, &'static str, bool) {
    match e {
        // The caller's scenario or configuration — fixable client-side.
        SessionError::Tree(_) => (422, "abstraction", true),
        SessionError::Engine(_) => (422, "engine", true),
        SessionError::InvalidBound { .. } => (422, "invalid_bound", true),
        SessionError::MissingForest => (422, "missing_forest", true),
        SessionError::UnknownVariable(_) => (422, "unknown_variable", true),
        SessionError::VariableNotInAbstraction(_) => (422, "variable_not_in_abstraction", true),
        // The request text itself does not parse.
        SessionError::Parse(_) => (400, "bad_provenance", true),
        // The guard stopped the work — retryable, with best-so-far info.
        SessionError::Cancelled(_) => (503, "cancelled", true),
        // Genuine server-side failures.
        SessionError::WorkerPanic { .. } => (500, "worker_panic", true),
        SessionError::Persist(_) => (500, "persist", true),
        // provabs_session::Error is #[non_exhaustive]; an unmapped future
        // variant still answers, but the table test flags it.
        _ => (500, "internal", false),
    }
}

impl From<SessionError> for WireError {
    fn from(e: SessionError) -> Self {
        let (status, code, _) = classify(&e);
        WireError::new(status, code, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provabs_provenance::guard::Interrupt;
    use provabs_provenance::parse::ParseError;
    use provabs_provenance::persist::PersistError;
    use provabs_trees::error::TreeError;

    /// One representative instance of **every** `provabs_session::Error`
    /// variant with its expected wire mapping. Adding a variant to the
    /// session error without extending [`classify`] (and this table)
    /// fails the `recognised` assertion below — the fall-through to a
    /// generic 500 can never happen silently.
    fn table() -> Vec<(SessionError, u16, &'static str)> {
        vec![
            (SessionError::Tree(TreeError::EmptyTree), 422, "abstraction"),
            (
                SessionError::Tree(TreeError::UnknownTreeShape {
                    ty: 4,
                    shape_idx: 3,
                    shapes: 3,
                }),
                422,
                "abstraction",
            ),
            (
                SessionError::Engine(provabs_engine::error::EngineError::UnknownTable(
                    "Cust".into(),
                )),
                422,
                "engine",
            ),
            (
                SessionError::Parse(ParseError::EmptyTerm),
                400,
                "bad_provenance",
            ),
            (
                SessionError::InvalidBound {
                    bound: 0,
                    size_m: 8,
                },
                422,
                "invalid_bound",
            ),
            (SessionError::MissingForest, 422, "missing_forest"),
            (
                SessionError::UnknownVariable("zz".into()),
                422,
                "unknown_variable",
            ),
            (
                SessionError::VariableNotInAbstraction("s1".into()),
                422,
                "variable_not_in_abstraction",
            ),
            (
                SessionError::Persist(PersistError::BadMagic),
                500,
                "persist",
            ),
            (
                SessionError::Cancelled(Interrupt::DeadlineExpired),
                503,
                "cancelled",
            ),
            (
                SessionError::Cancelled(Interrupt::Cancelled),
                503,
                "cancelled",
            ),
            (
                SessionError::Cancelled(Interrupt::StepCapExhausted),
                503,
                "cancelled",
            ),
            (
                SessionError::WorkerPanic {
                    scenario_index: 3,
                    payload: "poisoned".into(),
                },
                500,
                "worker_panic",
            ),
        ]
    }

    #[test]
    fn every_variant_maps_to_its_documented_status() {
        for (error, status, code) in table() {
            let (got_status, got_code, recognised) = classify(&error);
            assert!(
                recognised,
                "{error:?} fell through classify() — extend the mapping and this table"
            );
            assert_eq!((got_status, got_code), (status, code), "{error:?}");
            let wire: WireError = error.into();
            assert_eq!((wire.status, wire.code), (status, code));
            let body = wire.body();
            assert_eq!(body.get("error").and_then(Json::as_str), Some(code));
            assert_eq!(
                body.get("status").and_then(Json::as_u64),
                Some(u64::from(status))
            );
            assert!(body
                .get("message")
                .and_then(Json::as_str)
                .is_some_and(|m| !m.is_empty()));
        }
    }

    #[test]
    fn detail_fields_land_in_the_body() {
        let wire = WireError::unknown_session("tel").with("hint", Json::from("create it first"));
        assert_eq!(wire.status, 404);
        let body = wire.body();
        assert_eq!(
            body.get("hint").and_then(Json::as_str),
            Some("create it first")
        );
        assert!(wire.message.contains("\"tel\""));
        assert_eq!(WireError::bad_request("nope").status, 400);
    }
}

//! Set-up: everything a run does before its first timed call.
//!
//! From the seed this generates the tables or the scale fixture, captures
//! the provenance once, builds and compresses the *oracle twin* (an
//! in-process session over the same inputs, whose answers every timed
//! answer is compared with), draws the scenario pool over the twin's
//! abstracted labels, and records the twin's answer to each pool
//! scenario. The program under test receives only these inputs.

use crate::tally::Tally;
use crate::trace::Tracer;
use provabs_core::problem::AbstractionResult;
use provabs_datagen::scale::{scale_forest, scale_working_set, ScaleConfig};
use provabs_datagen::telephony::{self, TelephonyConfig, TelephonyData};
use provabs_datagen::tpch::{self, TpchConfig, TpchData};
use provabs_engine::query::GroupedProvenanceInterned;
use provabs_provenance::polyset::PolySet;
use provabs_provenance::var::VarTable;
use provabs_provenance::working::WorkingSet;
use provabs_scenario::executor::EvalOptions;
use provabs_scenario::Scenario;
use provabs_session::{Session, SessionBuilder, Strategy, Target};
use provabs_trees::forest::Forest;
use provabs_trees::generate::{paper_tree, shaped_tree};

/// Scenarios in the pool the ask blocks walk.
pub const POOL: usize = 2048;
/// Scenarios per bulk `ask` in process (the wire sends [`WIRE_BATCH`]).
pub const BATCH: usize = 256;
/// Scenarios per bulk request over the wire.
pub const WIRE_BATCH: usize = 32;
/// Scenarios in the first `ask` of a cold pass (which pays the freeze).
pub const FIRST_ASK: usize = 64;
/// Leaf-level scenarios behind `mean_rel_error`.
pub const FINE: usize = 512;
/// Share of the askable names each scenario assigns a factor to.
const ASSIGNED_SHARE: f64 = 0.4;

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Telephony tables → engine join → greedy over two trees.
    ColdTelephony,
    /// The scale fixture, straight into the arena → greedy.
    CompressScale,
    /// TPC-H Q1 → optimal single-tree DP → many asks.
    WhatifQ1,
    /// TPC-H Q10 behind the HTTP service.
    ServiceQ10,
}

impl Kind {
    /// Every workload, in manifest order.
    pub const ALL: [Kind; 4] = [
        Kind::ColdTelephony,
        Kind::CompressScale,
        Kind::WhatifQ1,
        Kind::ServiceQ10,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdTelephony => "cold-telephony",
            Kind::CompressScale => "compress-scale",
            Kind::WhatifQ1 => "whatif-q1",
            Kind::ServiceQ10 => "service-q10",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether a cold pass runs the engine query itself. The scale
    /// fixture has no engine (set-up emits its provenance), and the
    /// service captures on its own side of the wire.
    pub fn captures_per_cold_pass(self) -> bool {
        matches!(self, Kind::ColdTelephony | Kind::WhatifQ1)
    }

    /// Size target of the compression.
    pub fn target(self) -> Target {
        match self {
            Kind::ServiceQ10 => Target::Ratio(0.98),
            _ => Target::Ratio(0.5),
        }
    }

    /// Selection algorithm.
    pub fn strategy(self) -> Strategy {
        match self {
            Kind::WhatifQ1 => Strategy::Optimal,
            _ => Strategy::default(),
        }
    }
}

/// What one run is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// The workload.
    pub kind: Kind,
    /// Feeds data generation and scenario generation.
    pub seed: u64,
    /// Divides the input sizes (`1` is the benchmark; the smoke script
    /// uses `10`).
    pub shrink: f64,
}

impl Config {
    /// The TPC-H scale of the two TPC-H workloads.
    pub fn tpch_scale(&self) -> f64 {
        match self.kind {
            Kind::ServiceQ10 => 20.0 / self.shrink,
            _ => 40.0 / self.shrink,
        }
    }

    /// The telephony tables: 24 000 customers over 600 zip codes.
    pub fn telephony(&self) -> TelephonyConfig {
        TelephonyConfig {
            customers: (24_000.0 / self.shrink) as usize,
            zips: ((600.0 / self.shrink) as usize).max(5),
            plans: 128,
            months: 12,
            seed: self.seed,
        }
    }

    fn scale(&self) -> ScaleConfig {
        ScaleConfig {
            groups: ((350.0 / self.shrink) as usize).max(4),
            plans: 128,
            months: 12,
            fill_permille: 950,
            seed: self.seed,
        }
    }

    fn tpch(&self) -> TpchConfig {
        TpchConfig {
            scale: self.tpch_scale(),
            param_modulus: 128,
            seed: self.seed,
        }
    }
}

/// The generated inputs the provenance is captured from.
pub enum Source {
    /// Cust / Calls / Plans.
    Telephony(TelephonyData),
    /// The TPC-H tables.
    Tpch(TpchData),
    /// The scale fixture has no tables: generation emits its provenance
    /// straight into the arena.
    Scale,
}

/// Generates the workload's inputs from the seed (span
/// `datagen.generate`); for the scale fixture that is the provenance
/// itself.
pub fn generate(config: &Config, tr: &mut Tracer) -> (Source, Option<Captured>) {
    let open = tr.enter("datagen.generate");
    let generated = match config.kind {
        Kind::ColdTelephony => (
            Source::Telephony(telephony::generate(config.telephony())),
            None,
        ),
        Kind::WhatifQ1 | Kind::ServiceQ10 => (Source::Tpch(tpch::generate(config.tpch())), None),
        Kind::CompressScale => {
            let scfg = config.scale();
            let mut vars = VarTable::new();
            let working = scale_working_set(&scfg, &mut vars);
            let forest = scale_forest(&scfg, &mut vars);
            let captured = Captured {
                working,
                vars,
                forest,
                polys: None,
            };
            (Source::Scale, Some(captured))
        }
    };
    tr.exit(open);
    generated
}

/// Provenance as a session takes it: the interned polynomials, the
/// variable table they (and the forest's labels) are interned into, and
/// the abstraction forest.
#[derive(Clone)]
pub struct Captured {
    /// The original provenance.
    pub working: WorkingSet<f64>,
    /// Its variable table, forest labels included.
    pub vars: VarTable,
    /// The abstraction forest.
    pub forest: Forest,
    /// The same provenance in hash-map form, when sessions are to be
    /// built from that (`service-q10`: the service's own `workload`
    /// create builds from it, so its twin must too).
    pub polys: Option<PolySet<f64>>,
}

/// What the engine query of a capture produced besides the provenance.
pub struct Query {
    /// The provenance and its forest.
    pub captured: Captured,
    /// Rows of the joined pipeline the aggregation consumed.
    pub joined_tuples: usize,
}

/// The engine query of an engine-fed workload — join (span
/// `engine.join`), interned aggregation (`engine.aggregate_interned`),
/// forest (`trees.build_forest`), and giving the joined rows back
/// (`engine.drop_pipeline`): the *capture* stage of a cold pass. With
/// `with_polys`, the hash-map aggregation runs first, as the service's
/// own `Workload::generate` does, so that both intern alike.
pub fn capture(kind: Kind, source: &Source, with_polys: bool, tr: &mut Tracer) -> Query {
    let (spec, _) = tr.time("engine.join", || match (kind, source) {
        (_, Source::Telephony(data)) => telephony::revenue_spec(data),
        (Kind::WhatifQ1, Source::Tpch(data)) => tpch::q1_spec(data),
        (Kind::ServiceQ10, Source::Tpch(data)) => tpch::q10_spec(data),
        _ => unreachable!("only engine-fed workloads capture"),
    });
    let (pipeline, cols, measure, rules) = &spec;
    let mut vars = VarTable::new();
    let polys = with_polys.then(|| {
        let grouped = tr.time("engine.aggregate", || {
            pipeline.aggregate_sum(cols, measure, rules, &mut vars)
        });
        grouped.0.expect("aggregation is well-typed").polys
    });
    let (interned, _) = tr.time("engine.aggregate_interned", || {
        pipeline.aggregate_sum_interned(cols, measure, rules, &mut vars)
    });
    let working = interned.expect("aggregation is well-typed").working;
    let (forest, _) = tr.time("trees.build_forest", || match source {
        Source::Telephony(data) => {
            let config = &data.config;
            let plans = shaped_tree("Plans", &telephony::plan_leaves(config), &[8, 4], &mut vars);
            let months = shaped_tree("Year", &telephony::month_leaves(config), &[4], &mut vars);
            Forest::new(vec![plans, months]).expect("plan and month labels are disjoint")
        }
        // The suppliers tree the service builds for a `workload` create
        // that names none: type 2, shape 1.
        Source::Tpch(data) => Forest::single(
            paper_tree(
                2,
                1,
                "Supp",
                &tpch::supplier_leaves(&data.config),
                &mut vars,
            )
            .expect("tree type 2 has a shape 1"),
        ),
        Source::Scale => unreachable!("the scale fixture has no engine query"),
    });
    let joined_tuples = pipeline.table().len();
    tr.time("engine.drop_pipeline", || drop(spec));
    Query {
        captured: Captured {
            working,
            vars,
            forest,
            polys,
        },
        joined_tuples,
    }
}

/// The engine configuration of every in-process measurement: results do
/// not depend on how the host schedules a second worker.
pub fn one_thread() -> EvalOptions {
    EvalOptions::new().threads(1)
}

/// A session over `captured`, pinned to one evaluation thread.
pub fn build_session(kind: Kind, captured: Captured) -> Result<Session, String> {
    let builder = match captured.polys {
        Some(polys) => SessionBuilder::new(polys, captured.vars),
        None => {
            let provenance = GroupedProvenanceInterned {
                keys: Vec::new(),
                working: captured.working,
            };
            SessionBuilder::from_query_interned(provenance, captured.vars)
        }
    };
    builder
        .forest(captured.forest)
        .strategy(kind.strategy())
        .target(kind.target())
        .eval_options(one_thread())
        .build()
        .map_err(|e| format!("session build: {e}"))
}

/// Everything set-up produces, except the twin itself.
pub struct Prepared {
    /// The run's configuration.
    pub config: Config,
    /// The generated inputs.
    pub source: Source,
    /// The provenance, captured once.
    pub captured: Captured,
    /// The abstraction the twin chose (what every measured compress must
    /// choose too).
    pub result: AbstractionResult,
    /// The scenario pool, over the twin's abstracted labels plus the
    /// leaves outside the forest.
    pub pool: Vec<Scenario>,
    /// The twin's answer to each pool scenario.
    pub expected: Vec<Vec<f64>>,
    /// Leaf-level scenarios for `mean_rel_error`.
    pub fine: Vec<Scenario>,
}

/// Leaf names of the (primary, secondary) variable families.
fn leaf_families(source: &Source) -> (Vec<String>, Vec<String>) {
    match source {
        Source::Telephony(data) => (
            telephony::plan_leaves(&data.config),
            telephony::month_leaves(&data.config),
        ),
        Source::Tpch(data) => (
            tpch::supplier_leaves(&data.config),
            tpch::part_leaves(&data.config),
        ),
        Source::Scale => (
            (0..128).map(|i| format!("p{i}")).collect(),
            (1..=12).map(|j| format!("m{j}")).collect(),
        ),
    }
}

/// Runs set-up once (root span `setup`) and returns what it made plus
/// the compressed oracle twin.
pub fn prepare(
    config: Config,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(Prepared, Session), String> {
    let kind = config.kind;
    let open = tr.enter("setup");
    let (source, emitted) = generate(&config, tr);
    let captured = match emitted {
        Some(captured) => captured,
        None => capture(kind, &source, kind == Kind::ServiceQ10, tr).captured,
    };
    let mut twin = build_session(kind, captured.clone())?;
    let (result, _) = tr.time("session.compress", || twin.compress().cloned());
    let result = result.map_err(|e| format!("twin compress: {e}"))?;
    tally.check(
        result.compressed_size_m <= twin.bound(),
        "the twin meets its size bound",
    );

    // Askable names: the chosen cut, plus second-family leaves the forest
    // does not cover (they survive compression as they are).
    let (primary, secondary) = leaf_families(&source);
    let live = twin.working().expect("compressed above").live_vars();
    let mut askable = twin.abstracted_labels().expect("compressed above");
    for name in &secondary {
        let outside = twin
            .vars()
            .lookup(name)
            .is_some_and(|id| live.contains(&id) && !captured.forest.contains_var(id));
        if outside {
            askable.push(name.clone());
        }
    }
    let base = config.seed.wrapping_mul(1_000_003);
    let draw = |names: &[String], i: usize| {
        Scenario::random(names, ASSIGNED_SHARE, base.wrapping_add(i as u64 + 1))
    };
    let pool: Vec<Scenario> = (0..POOL).map(|i| draw(&askable, i)).collect();
    let leaves: Vec<String> = primary
        .into_iter()
        .chain(secondary)
        .filter(|name| twin.vars().lookup(name).is_some())
        .collect();
    let fine: Vec<Scenario> = (0..FINE).map(|i| draw(&leaves, POOL + i)).collect();

    let mut expected = Vec::with_capacity(POOL);
    for batch in pool.chunks(BATCH) {
        let run = twin.ask(batch).map_err(|e| format!("twin ask: {e}"))?;
        expected.extend(run.values);
    }
    tr.exit(open);
    let prepared = Prepared {
        config,
        source,
        captured,
        result,
        pool,
        expected,
        fine,
    };
    Ok((prepared, twin))
}

//! Sharded and out-of-core compression.
//!
//! The greedy engine of [`crate::greedy`] is a single sequential loop:
//! at million-monomial scale (telephony at millions of calls, §5) the
//! compress phase — not the ask phase, which already scales across cores
//! — becomes the bottleneck of the interactive what-if loop the paper
//! targets. This module splits that loop two ways:
//!
//! * **Sharding** ([`sharded_greedy`]), a library function only: no
//!   session strategy selects it, because on the measured hosts a K = 2
//!   run is still about twice as slow as the plain engine (ADR 009).
//!   The poly-set is
//!   partitioned by output group into K shards (size-balanced over the
//!   interned arena, [`partition_by_size`]), each shard gets a compacted
//!   per-shard [`WorkingSet`] via the subset machinery and runs the
//!   incremental greedy engine *concurrently* on a scoped thread pool,
//!   recording its selection steps as a trace. A k-way greedy merge then
//!   interleaves the per-shard traces by the engine's own order —
//!   minimal variable loss first, ties towards the larger modelled
//!   monomial-loss score, then label order — which is exactly what allocates the
//!   global monomial budget across shards by marginal loss, so
//!   `Target::Monomials(B)` / `Target::Ratio(r)` keep their whole-set
//!   meaning. The merged selection is realised *once* against the global
//!   cleaned forest (shard-chosen nodes are mapped over by variable —
//!   cleaning preserves variables — and the topmost applied nodes plus
//!   the uncovered leaves form the global VVS), so the source set is
//!   rewritten in a single pass instead of per shard.
//!
//!   Soundness: polynomials are disjoint across shards, so a shard's
//!   measured monomial-loss delta is realised *at least* once globally —
//!   a merge chosen in one shard can only save additional monomials in
//!   polynomials it never saw. The merged prediction is therefore a
//!   lower bound on the realised loss, and a predicted-adequate
//!   selection is actually adequate. The price of partitioning is a
//!   possibly higher exhaustion floor (no single shard sees every
//!   subtree's polynomials, so some high merges are never proposed);
//!   the equivalence suite pins it down.
//!
//! * **Streaming** ([`StreamingCompressor`]): the out-of-core ingest
//!   path of the online variant (§6). Chunks are interned one at a time,
//!   absorbed into a carried working set, rewritten under the cumulative
//!   abstraction, and compressed whenever the live size exceeds the
//!   configured memory budget — only the compressed working set is
//!   carried forward, so inputs larger than RAM complete under a bounded
//!   peak. Re-compression of an already-abstracted set runs over the
//!   *truncated* forest ([`truncate_forest`]): the carried live
//!   variables form an antichain in each tree, and the remaining
//!   headroom is the forest above it.
//!
//! Both paths carry the caller's [`Guard`]: shard workers observe the
//! cancel token at every shard claim *and* inside each shard's per-step
//! checkpoint ticks, the merge loop ticks per applied step, and every
//! interrupted run returns a sound anytime prefix tagged
//! [`Completion::Interrupted`].

use crate::greedy::{greedy_vvs, run_incremental, TraceStep};
use crate::problem::{evaluate_vvs, prepare, AbstractionResult, InternedAbstraction};
use provabs_provenance::coeff::Coefficient;
use provabs_provenance::fxhash::FxHashSet;
use provabs_provenance::guard::{Completion, Guard, Interrupt};
use provabs_provenance::intern::MonoArena;
use provabs_provenance::var::VarId;
use provabs_provenance::working::{SubsetScratch, WorkingSet};
use provabs_trees::clean::truncate_forest;
use provabs_trees::cut::Vvs;
use provabs_trees::error::TreeError;
use provabs_trees::forest::Forest;
use provabs_trees::tree::NodeId;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Size-balanced shard assignment over the interned working set: output
/// groups (polynomials) are placed largest-first onto the least-loaded
/// shard (LPT scheduling), where a group's weight is its live monomial
/// count. Deterministic: ties on weight fall back to polynomial index,
/// ties on load to shard index. Shards never exceed the polynomial
/// count; empty shards are dropped; each shard's index list is sorted so
/// per-shard working sets preserve the source order.
pub fn partition_by_size<C: Coefficient>(ws: &WorkingSet<C>, shards: usize) -> Vec<Vec<usize>> {
    let n = ws.num_polys();
    let shards = shards.clamp(1, n.max(1));
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&pi| (std::cmp::Reverse(ws.poly_size_m(pi)), pi));
    let mut loads = vec![0usize; shards];
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); shards];
    for pi in order {
        let target = (0..shards)
            .min_by_key(|&s| (loads[s], s))
            .expect("at least one shard");
        // Weight floor of 1 so even empty polynomials spread out.
        loads[target] += ws.poly_size_m(pi).max(1);
        parts[target].push(pi);
    }
    for part in &mut parts {
        part.sort_unstable();
    }
    parts.retain(|p| !p.is_empty());
    parts
}

/// A shard's recorded greedy run: the selection steps it applied (in its
/// local order) and how the run ended.
struct ShardTrace {
    steps: Vec<TraceStep>,
    completion: Completion,
}

/// How many worker threads the shard trace pass uses: one per shard,
/// capped at the machine's available parallelism.
fn shard_threads(shards: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    shards.clamp(1, hw)
}

/// Runs one shard to a trace: compacts the shard's working set (reusing
/// the caller's scratch), cleans the forest against it, and records the
/// incremental engine's steps up to a monomial-loss budget of `k`.
fn trace_one_shard<C: Coefficient>(
    source: &WorkingSet<C>,
    forest: &Forest,
    part: &[usize],
    k: usize,
    guard: &Guard,
    scratch: &mut SubsetScratch,
) -> Result<ShardTrace, TreeError> {
    let sub = source.subset_with(part, scratch);
    let (shard_forest, _) = prepare(&sub, forest)?;
    if shard_forest.num_trees() == 0 {
        return Ok(ShardTrace {
            steps: Vec::new(),
            completion: Completion::Complete,
        });
    }
    let mut steps = Vec::new();
    let run = run_incremental(sub, &shard_forest, k, guard, &mut |step, _, _| {
        steps.push(step)
    });
    Ok(ShardTrace {
        steps,
        completion: run.completion,
    })
}

/// The concurrent trace pass: shard indices are claimed from an atomic
/// cursor by a scoped pool (the executor's chunk-claim idiom), each
/// worker carrying the shared `&Guard` — the cancel token is observed at
/// every shard claim and, via the engine's checkpoint, at every
/// selection step inside a shard. A per-shard budget of `k` suffices:
/// the merge never consumes a shard's trace past the point where that
/// shard alone has predicted loss `k`.
fn run_shard_traces<C: Coefficient>(
    source: &WorkingSet<C>,
    forest: &Forest,
    parts: &[Vec<usize>],
    k: usize,
    guard: &Guard,
) -> Result<Vec<ShardTrace>, TreeError> {
    let threads = shard_threads(parts.len());
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<ShardTrace, TreeError>>>> =
        parts.iter().map(|_| Mutex::new(None)).collect();
    let interrupted: Mutex<Option<Interrupt>> = Mutex::new(None);
    let worker = || {
        let mut scratch = SubsetScratch::new();
        loop {
            if let Err(reason) = guard.probe() {
                interrupted
                    .lock()
                    .expect("interrupt slot poisoned")
                    .get_or_insert(reason);
                break;
            }
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else { break };
            let outcome = trace_one_shard(source, forest, &parts[i], k, guard, &mut scratch);
            *slot.lock().expect("trace slot poisoned") = Some(outcome);
        }
    };
    if threads <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(worker);
            }
        });
    }
    let reason = interrupted.into_inner().expect("interrupt slot poisoned");
    let mut traces = Vec::with_capacity(parts.len());
    for slot in slots {
        match slot.into_inner().expect("trace slot poisoned") {
            Some(Ok(trace)) => traces.push(trace),
            Some(Err(e)) => return Err(e),
            // Unclaimed shard: the guard tripped before a worker reached
            // it — an empty trace, reported as interrupted.
            None => traces.push(ShardTrace {
                steps: Vec::new(),
                completion: Completion::Interrupted {
                    reason: reason.unwrap_or(Interrupt::Cancelled),
                    steps: 0,
                    size_reached: 0,
                },
            }),
        }
    }
    Ok(traces)
}

/// The label of the global cleaned node carrying `var` — the merge's
/// tie-break key, identical to the engine's (labels are unique
/// forest-wide).
fn label_of(cleaned: &Forest, var: VarId) -> &str {
    cleaned
        .locate(var)
        .map(|(ti, node)| cleaned.tree(ti).label_of(node))
        .unwrap_or("")
}

/// The k-way greedy merge: repeatedly takes, among the shard traces'
/// next steps, the one the global engine would prefer — minimal variable
/// loss, then maximal modelled monomial-loss score, then label order —
/// and applies it, until the loss the shards measured reaches `k` or
/// every trace is exhausted. Returns the applied variables in merge order and the first
/// interruption — a shard's, or the merge's own — if any.
fn merge_traces(
    cleaned: &Forest,
    traces: &[ShardTrace],
    k: usize,
    guard: &Guard,
) -> (Vec<VarId>, Option<Interrupt>) {
    let mut cursors = vec![0usize; traces.len()];
    let mut applied = Vec::new();
    let mut ml_total = 0usize;
    let mut interrupted = traces.iter().find_map(|t| match t.completion {
        Completion::Interrupted { reason, .. } => Some(reason),
        Completion::Complete => None,
    });
    let mut checkpoint = guard.checkpoint();
    while ml_total < k {
        let mut best: Option<(usize, TraceStep)> = None;
        for (si, trace) in traces.iter().enumerate() {
            // Defensive: skip steps whose variable did not survive global
            // cleaning (the containment argument rules this out — a node
            // kept by shard-local cleaning has at least as many live
            // descendants globally).
            while cursors[si] < trace.steps.len()
                && cleaned.locate(trace.steps[cursors[si]].var).is_none()
            {
                debug_assert!(
                    false,
                    "shard-chosen variable missing from the global forest"
                );
                cursors[si] += 1;
            }
            let Some(&step) = trace.steps.get(cursors[si]) else {
                continue;
            };
            let better = match &best {
                None => true,
                Some((_, cur)) => {
                    step.vl < cur.vl
                        || (step.vl == cur.vl
                            && (step.score > cur.score
                                || (step.score == cur.score
                                    && label_of(cleaned, step.var) < label_of(cleaned, cur.var))))
                }
            };
            if better {
                best = Some((si, step));
            }
        }
        let Some((si, step)) = best else { break };
        if let Err(reason) = checkpoint.tick() {
            interrupted.get_or_insert(reason);
            break;
        }
        cursors[si] += 1;
        ml_total += step.delta;
        applied.push(step.var);
    }
    (applied, interrupted)
}

/// Realises a merged selection as a global VVS: per tree, a top-down
/// walk selects the *topmost* node whose variable was applied (deeper
/// applied nodes are subsumed) and every leaf with no applied ancestor —
/// an antichain covering all leaves by construction.
fn vvs_from_applied(cleaned: &Forest, applied: &[VarId]) -> Vvs {
    let applied_set: FxHashSet<VarId> = applied.iter().copied().collect();
    let mut per_tree: Vec<Vec<NodeId>> = Vec::with_capacity(cleaned.num_trees());
    for tree in cleaned.trees() {
        let mut chosen = Vec::new();
        let mut stack = vec![tree.root()];
        while let Some(n) = stack.pop() {
            if applied_set.contains(&tree.var_of(n)) || tree.is_leaf(n) {
                chosen.push(n); // covered — nothing below matters
            } else {
                stack.extend(tree.children(n).iter().copied());
            }
        }
        per_tree.push(chosen);
    }
    Vvs::from_per_tree(per_tree)
}

/// Sharded greedy compression: partitions into `shards` shards, traces each shard's greedy run concurrently, merges
/// the traces by marginal loss, and realises the merged selection
/// against the global cleaned forest in one pass (see the
/// [module docs](self)).
///
/// `shards <= 1` (or a partition that collapses to one shard) delegates
/// to [`greedy_vvs`] — bit-for-bit the unsharded
/// engine. For `shards > 1` the result satisfies the bound whenever the
/// run completes without [`TreeError::BoundUnattainable`]; the sharded
/// exhaustion floor may sit above the global engine's (see the module
/// docs), in which case the error's `best_possible` reports the sharded
/// floor.
///
/// Interrupted runs follow the engine's anytime contract: the merged
/// prefix applied so far comes back as a sound abstraction tagged
/// [`Completion::Interrupted`], exempt from the adequacy check.
pub fn sharded_greedy<C: Coefficient>(
    source: &WorkingSet<C>,
    forest: &Forest,
    bound: usize,
    shards: usize,
    guard: &Guard,
) -> Result<(InternedAbstraction<C>, Completion), TreeError> {
    if shards <= 1 {
        return greedy_vvs(source, forest, bound, guard);
    }
    let (cleaned, live) = prepare(source, forest)?;
    let (total_m, total_v) = (source.size_m(), live.len());
    if bound >= total_m {
        let vvs = Vvs::identity(&cleaned);
        return Ok((
            evaluate_vvs(source.clone(), &cleaned, vvs, total_v),
            Completion::Complete,
        ));
    }
    if cleaned.num_trees() == 0 {
        return Err(TreeError::BoundUnattainable {
            bound,
            best_possible: total_m,
        });
    }
    let parts = partition_by_size(source, shards);
    if parts.len() <= 1 {
        return greedy_vvs(source, forest, bound, guard);
    }
    let k = total_m - bound;
    let traces = run_shard_traces(source, forest, &parts, k, guard)?;
    let (applied, interrupted) = merge_traces(&cleaned, &traces, k, guard);
    let vvs = vvs_from_applied(&cleaned, &applied);
    debug_assert!(vvs.validate(&cleaned).is_ok());
    let abs = evaluate_vvs(source.clone(), &cleaned, vvs, total_v);
    let completion = match interrupted {
        None => Completion::Complete,
        Some(reason) => Completion::Interrupted {
            reason,
            steps: applied.len(),
            size_reached: abs.working.size_m(),
        },
    };
    if completion.is_complete() && !abs.result.is_adequate_for(bound) {
        return Err(TreeError::BoundUnattainable {
            bound,
            best_possible: abs.result.compressed_size_m,
        });
    }
    Ok((abs, completion))
}

/// Configuration of the bounded-memory streaming ingest path.
#[derive(Clone, Copy, Debug)]
pub struct StreamingConfig {
    /// The final monomial bound the compressed result must satisfy.
    pub bound: usize,
    /// The live-monomial memory budget: whenever the carried working
    /// set's `|𝒫|_M` exceeds `max(max_live_monomials, bound)` after an
    /// ingest, a compression flush runs. The peak live count is bounded
    /// by that threshold plus the largest single chunk (a chunk must be
    /// absorbed before it can be compressed) — the contract the stress
    /// suite asserts.
    pub max_live_monomials: usize,
}

/// Counters the streaming compressor accumulates across its run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamingStats {
    /// Chunks ingested.
    pub chunks: usize,
    /// Compression flushes triggered by the memory budget.
    pub flushes: usize,
    /// Total `|𝒫|_M` ingested across all chunks (the "original size" of
    /// the stream — never held in memory at once).
    pub ingested_size_m: usize,
    /// The largest live `|𝒫|_M` observed after any ingest.
    pub peak_live_monomials: usize,
}

/// Bounded-memory streaming compression (the out-of-core ingest path of
/// the online variant, §6): chunks are absorbed one at a time into a
/// carried working set, rewritten under the cumulative abstraction, and
/// compressed whenever the live size exceeds the memory budget — only
/// the compressed set is carried forward. See the [module docs](self).
///
/// ```
/// use provabs_core::shard::{StreamingCompressor, StreamingConfig};
/// use provabs_provenance::{guard::Guard, parse::parse_polyset, VarTable};
/// use provabs_provenance::working::WorkingSet;
/// use provabs_trees::{builder::TreeBuilder, forest::Forest};
///
/// let mut vars = VarTable::new();
/// let tree = TreeBuilder::new("AB").leaves("AB", ["a", "b"]).build(&mut vars).unwrap();
/// let forest = Forest::single(tree);
/// let mut stream = StreamingCompressor::new(&forest, StreamingConfig {
///     bound: 2,
///     max_live_monomials: 4,
/// });
/// let guard = Guard::unlimited();
/// for line in ["1·a·x + 2·b·x", "3·a·y + 4·b·y"] {
///     let chunk = parse_polyset(line, &mut vars).unwrap();
///     stream.ingest(&WorkingSet::from_polyset(&chunk), &guard).unwrap();
/// }
/// let (abs, _, stats) = stream.finish(&guard).unwrap();
/// assert!(abs.result.compressed_size_m <= 2);
/// assert_eq!(stats.chunks, 2);
/// assert_eq!(stats.ingested_size_m, 4);
/// ```
pub struct StreamingCompressor<'f, C> {
    forest: &'f Forest,
    config: StreamingConfig,
    /// The carried (already compressed) working set.
    carried: WorkingSet<C>,
    /// Every variable ever chosen by a flush — the cumulative
    /// abstraction. Incoming raw variables are mapped to their *topmost*
    /// chosen ancestor-or-self, so late chunks containing leaves below
    /// an already-merged subtree land in the abstracted space and the
    /// carried live variables stay an antichain per tree.
    chosen: FxHashSet<VarId>,
    /// Distinct raw variables seen across all chunks (`|𝒫|_V` of the
    /// stream).
    original_vars: FxHashSet<VarId>,
    completion: Completion,
    stats: StreamingStats,
}

/// The topmost chosen ancestor-or-self of `v` in the configured forest,
/// or `v` itself when no ancestor was ever chosen (including variables
/// outside the forest — context variables pass through).
fn cumulative_target(forest: &Forest, chosen: &FxHashSet<VarId>, v: VarId) -> VarId {
    let Some((ti, node)) = forest.locate(v) else {
        return v;
    };
    let tree = forest.tree(ti);
    let mut best = chosen.contains(&v).then_some(node);
    let mut cur = node;
    while let Some(parent) = tree.parent(cur) {
        if chosen.contains(&tree.var_of(parent)) {
            best = Some(parent);
        }
        cur = parent;
    }
    best.map_or(v, |n| tree.var_of(n))
}

impl<'f, C: Coefficient> StreamingCompressor<'f, C> {
    /// A fresh compressor over `forest` with the given budget.
    pub fn new(forest: &'f Forest, config: StreamingConfig) -> Self {
        Self {
            forest,
            config,
            carried: WorkingSet::with_capacity(MonoArena::new(), 0, 0),
            chosen: FxHashSet::default(),
            original_vars: FxHashSet::default(),
            completion: Completion::Complete,
            stats: StreamingStats::default(),
        }
    }

    /// The flush threshold: the configured budget, never below the final
    /// bound (a result of `bound` monomials must be holdable).
    fn threshold(&self) -> usize {
        self.config.max_live_monomials.max(self.config.bound)
    }

    /// Current live `|𝒫|_M` of the carried working set.
    pub fn live_size_m(&self) -> usize {
        self.carried.size_m()
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> StreamingStats {
        self.stats
    }

    /// Absorbs one chunk: appends its polynomials, rewrites them under
    /// the cumulative abstraction, and flushes if the live size exceeds
    /// the budget. Returns the folded completion so far — interruptions
    /// of a mid-stream flush follow the anytime contract (the flush
    /// freed less memory than asked; the stream stays sound).
    pub fn ingest(
        &mut self,
        chunk: &WorkingSet<C>,
        guard: &Guard,
    ) -> Result<Completion, TreeError> {
        self.stats.chunks += 1;
        self.stats.ingested_size_m += chunk.size_m();
        self.original_vars.extend(chunk.live_vars());
        self.carried.absorb(chunk);
        if !self.chosen.is_empty() {
            let (forest, chosen) = (self.forest, &self.chosen);
            self.carried
                .apply_var_map(|v| cumulative_target(forest, chosen, v));
        }
        self.stats.peak_live_monomials = self.stats.peak_live_monomials.max(self.carried.size_m());
        if self.carried.size_m() > self.threshold() {
            self.flush(guard)?;
        }
        Ok(self.completion)
    }

    /// One budget-triggered compression flush: compress the carried set
    /// towards half the threshold (never below the final bound) over the
    /// remaining truncated forest.
    fn flush(&mut self, guard: &Guard) -> Result<(), TreeError> {
        self.stats.flushes += 1;
        let flush_bound = self.config.bound.max(self.threshold() / 2).max(1);
        self.compress_carried_to(flush_bound, guard)
    }

    /// Compresses the carried set towards `bound` over the truncated
    /// forest. An unattainable intermediate bound is *relaxed to the
    /// attainable floor* instead of failing — mid-stream it only means
    /// this flush frees less memory; running out of abstraction headroom
    /// entirely (an empty truncated forest) is likewise not an error
    /// here. Only [`StreamingCompressor::finish`] enforces the final
    /// bound.
    fn compress_carried_to(&mut self, bound: usize, guard: &Guard) -> Result<(), TreeError> {
        if self.carried.size_m() <= bound {
            return Ok(());
        }
        let frontier = self.carried.live_vars();
        let remaining = truncate_forest(self.forest, &frontier);
        if remaining.num_trees() == 0 {
            return Ok(());
        }
        match greedy_vvs(&self.carried, &remaining, bound, guard) {
            Ok((abs, completion)) => self.adopt(abs, completion),
            Err(TreeError::BoundUnattainable { best_possible, .. })
                if best_possible < self.carried.size_m() =>
            {
                let (abs, completion) =
                    greedy_vvs(&self.carried, &remaining, best_possible, guard)?;
                self.adopt(abs, completion);
            }
            Err(TreeError::BoundUnattainable { .. }) => {} // already at the floor
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// Folds a flush result into the carried state.
    fn adopt(&mut self, abs: InternedAbstraction<C>, completion: Completion) {
        self.chosen.extend(abs.result.vvs.vars(&abs.result.forest));
        self.carried = abs.working;
        self.completion = self.completion.merge(completion);
    }

    /// Finishes the stream: compresses the carried set to the final
    /// bound and returns the end-to-end abstraction. The result's
    /// `forest` and `vvs` describe the final state — the remaining
    /// truncated forest with the cumulative antichain as its leaves, all
    /// substitutions already applied to `working` — while the size
    /// measures span the whole stream (`original_size_m` is the total
    /// ingested count, which was never held in memory at once).
    ///
    /// A complete run that cannot reach the bound fails with
    /// [`TreeError::BoundUnattainable`]; an interrupted final
    /// compression returns its anytime prefix tagged
    /// [`Completion::Interrupted`].
    #[allow(clippy::type_complexity)]
    pub fn finish(
        mut self,
        guard: &Guard,
    ) -> Result<(InternedAbstraction<C>, Completion, StreamingStats), TreeError> {
        let bound = self.config.bound;
        if self.carried.size_m() > bound {
            let frontier = self.carried.live_vars();
            let remaining = truncate_forest(self.forest, &frontier);
            if remaining.num_trees() == 0 {
                return Err(TreeError::BoundUnattainable {
                    bound,
                    best_possible: self.carried.size_m(),
                });
            }
            let (abs, completion) = greedy_vvs(&self.carried, &remaining, bound, guard)?;
            self.adopt(abs, completion);
        }
        let frontier = self.carried.live_vars();
        let remaining = truncate_forest(self.forest, &frontier);
        let vvs = Vvs::identity(&remaining);
        let result = AbstractionResult {
            forest: remaining,
            vvs,
            original_size_m: self.stats.ingested_size_m,
            original_size_v: self.original_vars.len(),
            compressed_size_m: self.carried.size_m(),
            compressed_size_v: frontier.len(),
        };
        Ok((
            InternedAbstraction {
                result,
                working: self.carried,
                live_vars: frontier,
            },
            self.completion,
            self.stats,
        ))
    }
}

// The name `benchmark/` imports, until a `benchmark`-only change renames it.
#[doc(hidden)]
pub use sharded_greedy as sharded_greedy_interned_guarded;

#[cfg(test)]
mod tests {
    use super::*;
    use provabs_provenance::parse::parse_polyset;
    use provabs_provenance::polyset::PolySet;
    use provabs_provenance::var::VarTable;
    use provabs_trees::builder::TreeBuilder;
    use provabs_trees::generate::{months_tree, plans_tree};

    fn example_15() -> (PolySet<f64>, Forest, VarTable) {
        let mut vars = VarTable::new();
        let polys = parse_polyset(
            "220.8·p1·m1 + 240·p1·m3 + 127.4·f1·m1 + 114.45·f1·m3 \
             + 75.9·y1·m1 + 72.5·y1·m3 + 42·v·m1 + 24.2·v·m3\n\
             77.9·b1·m1 + 80.5·b1·m3 + 52.2·e·m1 + 56.5·e·m3 \
             + 69.7·b2·m1 + 100.65·b2·m3",
            &mut vars,
        )
        .expect("parse");
        let forest =
            Forest::new(vec![plans_tree(&mut vars), months_tree(&mut vars)]).expect("disjoint");
        (polys, forest, vars)
    }

    #[test]
    fn partition_is_balanced_and_deterministic() {
        let (polys, _, _) = example_15();
        let ws = WorkingSet::from_polyset(&polys);
        let parts = partition_by_size(&ws, 2);
        assert_eq!(parts.len(), 2);
        // Both polynomials assigned, no overlap.
        let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1]);
        // Repeatable.
        assert_eq!(parts, partition_by_size(&ws, 2));
        // More shards than polynomials clamps; empty shards are dropped.
        assert_eq!(partition_by_size(&ws, 64).len(), 2);
        assert_eq!(partition_by_size(&ws, 1).len(), 1);
    }

    #[test]
    fn partition_balances_by_monomial_weight() {
        let mut vars = VarTable::new();
        // One heavy polynomial (4 monomials) and four light ones.
        let polys = parse_polyset(
            "1·a·x + 1·b·x + 1·a·y + 1·b·y\n1·a·x\n1·b·x\n1·a·y\n1·b·y",
            &mut vars,
        )
        .expect("parse");
        let ws = WorkingSet::from_polyset(&polys);
        let parts = partition_by_size(&ws, 2);
        let loads: Vec<usize> = parts
            .iter()
            .map(|p| p.iter().map(|&pi| ws.poly_size_m(pi)).sum())
            .collect();
        // LPT puts the heavy polynomial alone against the four light ones.
        assert_eq!(loads.iter().max(), loads.iter().min());
    }

    #[test]
    fn one_shard_delegates_to_the_plain_engine() {
        let (polys, forest, _) = example_15();
        let source = WorkingSet::from_polyset(&polys);
        let guard = Guard::unlimited();
        for bound in 1..=polys.size_m() + 1 {
            let plain = greedy_vvs(&source, &forest, bound, &guard);
            let sharded = sharded_greedy(&source, &forest, bound, 1, &guard);
            match (plain, sharded) {
                (Ok((a, ca)), Ok((b, cb))) => {
                    assert_eq!(a.result.vvs, b.result.vvs, "bound {bound}");
                    assert_eq!(a.result.compressed_size_m, b.result.compressed_size_m);
                    assert_eq!(ca, cb);
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "bound {bound}"),
                (a, b) => panic!("K=1 diverges at bound {bound}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn sharded_output_is_valid_and_adequate() {
        let (polys, forest, _) = example_15();
        let source = WorkingSet::from_polyset(&polys);
        let guard = Guard::unlimited();
        for shards in [2, 3, 4] {
            for bound in 2..=polys.size_m() {
                match sharded_greedy(&source, &forest, bound, shards, &guard) {
                    Ok((abs, completion)) => {
                        assert!(completion.is_complete());
                        abs.result.vvs.validate(&abs.result.forest).expect("valid");
                        assert!(
                            abs.result.compressed_size_m <= bound,
                            "K={shards} bound {bound}: {}",
                            abs.result.compressed_size_m
                        );
                        assert_eq!(abs.working.size_m(), abs.result.compressed_size_m);
                    }
                    Err(TreeError::BoundUnattainable { best_possible, .. }) => {
                        // The sharded floor may sit above the global one.
                        assert!(best_possible > bound, "K={shards} bound {bound}");
                    }
                    Err(e) => panic!("unexpected error K={shards} bound {bound}: {e}"),
                }
            }
        }
    }

    #[test]
    fn guard_cancellation_interrupts_the_shard_pass() {
        use provabs_provenance::guard::{Budget, CancelToken};
        let (polys, forest, _) = example_15();
        let source = WorkingSet::from_polyset(&polys);
        let token = CancelToken::new();
        token.cancel();
        let guard = Guard::new(Budget::unlimited()).with_cancel(token);
        let (abs, completion) = sharded_greedy(&source, &forest, 2, 4, &guard).expect("anytime");
        assert!(!completion.is_complete());
        // Nothing was applied: the pre-cancelled token stops every shard
        // at its first claim, so the result is the identity abstraction.
        assert_eq!(abs.result.compressed_size_m, polys.size_m());
        match completion {
            Completion::Interrupted { reason, .. } => assert_eq!(reason, Interrupt::Cancelled),
            Completion::Complete => unreachable!(),
        }
    }

    #[test]
    fn step_cap_yields_a_sound_prefix() {
        use provabs_provenance::guard::Budget;
        let (polys, forest, _) = example_15();
        let source = WorkingSet::from_polyset(&polys);
        // A tiny step budget: the run must stop early but stay valid.
        let guard = Guard::new(Budget::with_steps(2));
        let (abs, completion) = sharded_greedy(&source, &forest, 2, 2, &guard).expect("anytime");
        assert!(!completion.is_complete());
        abs.result
            .vvs
            .validate(&abs.result.forest)
            .expect("valid prefix");
        assert!(abs.result.compressed_size_m >= 2);
    }

    #[test]
    fn streaming_matches_whole_input_on_coefficient_sums() {
        let (polys, forest, _) = example_15();
        let whole = WorkingSet::from_polyset(&polys);
        let guard = Guard::unlimited();
        let mut stream = StreamingCompressor::new(
            &forest,
            StreamingConfig {
                bound: 4,
                max_live_monomials: 8,
            },
        );
        for pi in 0..whole.num_polys() {
            stream.ingest(&whole.subset(&[pi]), &guard).expect("ingest");
        }
        let (abs, completion, stats) = stream.finish(&guard).expect("finish");
        assert!(completion.is_complete());
        assert_eq!(stats.chunks, 2);
        assert_eq!(stats.ingested_size_m, polys.size_m());
        assert!(abs.result.compressed_size_m <= 4);
        assert_eq!(abs.result.original_size_m, polys.size_m());
        // Abstraction merges monomials by adding coefficients, so each
        // polynomial's coefficient sum is invariant end-to-end.
        for pi in 0..abs.working.num_polys() {
            let streamed: f64 = abs.working.poly_terms(pi).map(|(_, c)| *c).sum();
            let original: f64 = whole.poly_terms(pi).map(|(_, c)| *c).sum();
            assert!(
                (streamed - original).abs() < 1e-9,
                "poly {pi}: {streamed} vs {original}"
            );
        }
    }

    #[test]
    fn streaming_late_leaves_below_chosen_nodes_are_remapped() {
        // Chunk 1 forces a flush that abstracts the group; chunk 2 then
        // arrives with a *raw leaf below the chosen node* and must land
        // in the abstracted space.
        let mut vars = VarTable::new();
        let tree = TreeBuilder::new("G")
            .leaves("G", ["a", "b", "c"])
            .build(&mut vars)
            .expect("tree");
        let forest = Forest::single(tree);
        let chunk1 = parse_polyset("1·a·x + 1·b·x + 1·c·x", &mut vars).expect("parse");
        let chunk2 = parse_polyset("1·a·y + 1·b·y", &mut vars).expect("parse");
        let guard = Guard::unlimited();
        let mut stream = StreamingCompressor::new(
            &forest,
            StreamingConfig {
                bound: 2,
                max_live_monomials: 2,
            },
        );
        stream
            .ingest(&WorkingSet::from_polyset(&chunk1), &guard)
            .expect("chunk 1");
        assert!(stream.stats().flushes >= 1, "budget must have flushed");
        assert!(stream.live_size_m() <= 3);
        stream
            .ingest(&WorkingSet::from_polyset(&chunk2), &guard)
            .expect("chunk 2");
        let (abs, _, stats) = stream.finish(&guard).expect("finish");
        assert!(abs.result.compressed_size_m <= 2);
        assert_eq!(stats.ingested_size_m, 5);
        // a and b of chunk 2 merged under the already-chosen G: the
        // second polynomial collapsed to a single G·y monomial of
        // coefficient 2.
        assert_eq!(abs.working.poly_size_m(1), 1);
        let coeff: f64 = abs.working.poly_terms(1).map(|(_, c)| *c).sum();
        assert!((coeff - 2.0).abs() < 1e-12);
    }

    #[test]
    fn streaming_peak_respects_the_budget_contract() {
        let (polys, forest, _) = example_15();
        let whole = WorkingSet::from_polyset(&polys);
        let guard = Guard::unlimited();
        let cap = 6;
        let mut stream = StreamingCompressor::new(
            &forest,
            StreamingConfig {
                bound: 4,
                max_live_monomials: cap,
            },
        );
        let mut max_chunk = 0;
        for pi in 0..whole.num_polys() {
            let chunk = whole.subset(&[pi]);
            max_chunk = max_chunk.max(chunk.size_m());
            stream.ingest(&chunk, &guard).expect("ingest");
        }
        let (_, _, stats) = stream.finish(&guard).expect("finish");
        assert!(
            stats.peak_live_monomials <= cap + max_chunk,
            "peak {} exceeds cap {} + chunk {}",
            stats.peak_live_monomials,
            cap,
            max_chunk
        );
    }
}

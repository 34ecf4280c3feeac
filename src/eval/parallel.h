#ifndef UNCHAINED_EVAL_PARALLEL_H_
#define UNCHAINED_EVAL_PARALLEL_H_

#include <functional>
#include <vector>

#include "base/status.h"
#include "eval/context.h"
#include "eval/grounder.h"
#include "eval/provenance.h"
#include "ra/index.h"
#include "ra/instance.h"

namespace datalog {

class ThreadPool;

/// Calls `body(i)` for every i in [0, n), `chunk_size` indexes at a time:
/// across the workers of `pool`, or inline on the calling thread in index
/// order when `pool` is null. This is the one place an evaluation branches
/// on having a pool; callers stage per-index results and merge them in
/// index order, so the outcome never depends on which ran. `stop`
/// (EvalContext::StopProbe) is polled at every chunk boundary, and once it
/// returns true the remaining chunks are skipped: the caller must then
/// check for the interrupt and discard what was staged. With a pool and a
/// non-null `index`, the index manager is in its frozen parallel mode for
/// the duration.
void FanOut(ThreadPool* pool, IndexManager* index, size_t n,
            size_t chunk_size, const std::function<void(size_t)>& body,
            const std::function<bool()>& stop);

/// One unit of a round's matching work: one rule, optionally restricted to
/// one contiguous chunk of a delta relation (the semi-naive rewriting).
/// Units are constructed in the order a one-at-a-time engine would
/// enumerate their matches — rule ascending, delta body literal ascending,
/// delta chunk ascending — which is what makes the staged merge replay
/// that insertion order bit for bit.
struct MatchUnit {
  /// Index into the engine's matcher vector.
  int matcher = 0;
  /// Program-level rule index, for per-rule stats and provenance.
  int rule_index = 0;
  /// Body literal matched against the delta chunk; < 0 = full match.
  int delta_literal = -1;
  /// The delta chunk (null/0 for full matches). Pointers must stay stable
  /// for the round: they reference journal-backed tuples.
  const Tuple* const* delta_begin = nullptr;
  size_t delta_count = 0;
};

/// What one unit stages while the database is frozen: its head tuples that
/// were absent from the frozen database, in match order (duplicates kept —
/// each such match counts as "produced"), plus its match count. When the
/// run records provenance, `premises[k]` is the instantiated body that
/// produced `produced[k]`; otherwise `premises` stays empty.
struct UnitOutput {
  std::vector<Tuple> produced;
  std::vector<std::vector<GroundFact>> premises;
  int64_t matches = 0;
};

/// Runs every unit's matching against the frozen `view`, staging into
/// `outputs` (resized and indexed like `units`) through FanOut with the
/// context's pool. The view's instances must not be mutated until this
/// returns (asserted via Instance::Generation). Only single-positive-head
/// rules are supported (the engines that share this path all enforce
/// that already).
///
/// Returns the interrupt status when the run's deadline or cancel token
/// fired during the round: skipped units staged nothing, so an empty
/// round could misread as the fixpoint, and the caller must discard
/// `outputs` and report the status instead of merging.
Status RunProductionUnits(EvalContext* ctx,
                          const std::vector<RuleMatcher>& matchers,
                          const std::vector<MatchUnit>& units,
                          const DbView& view, const std::vector<Value>& adom,
                          std::vector<UnitOutput>* outputs);

/// Replays the staged outputs in unit order into `fresh` and the
/// deterministic counters of ctx->stats, recording first derivations
/// (tagged with `stage`) in ctx->provenance and reporting each produced
/// tuple to ctx->on_derivation when those are set. Unit order is the
/// first-derivation order, so the result never depends on the pool.
void MergeProductionUnits(EvalContext* ctx,
                          const std::vector<RuleMatcher>& matchers,
                          const std::vector<MatchUnit>& units, int stage,
                          std::vector<UnitOutput>* outputs, Instance* fresh);

/// One full-match unit per matcher, in matcher order. Every matcher must
/// match a rule of `program` (its rule index is the rule's position).
std::vector<MatchUnit> RuleUnits(const Program& program,
                                 const std::vector<RuleMatcher>& matchers);

/// The tuples of `rel` in its iteration order, as stable pointers (valid
/// while `rel` lives and is not mutated) — the flattened delta a round
/// chunks into MatchUnits.
std::vector<const Tuple*> TupleList(const Relation& rel);

/// Appends units covering `list` in order, in chunks that give a pool's
/// workers several steal-able pieces. The chunking depends only on the
/// list, so every thread count builds the same units. `list` must outlive
/// the units (they point into it).
void AppendDeltaUnits(int matcher, int rule_index, int delta_literal,
                      const std::vector<const Tuple*>& list,
                      std::vector<MatchUnit>* units);

}  // namespace datalog

#endif  // UNCHAINED_EVAL_PARALLEL_H_

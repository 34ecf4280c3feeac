#include "eval/stable.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "eval/naive.h"
#include "eval/parallel.h"
#include "eval/wellfounded.h"
#include "obs/trace.h"

namespace datalog {

Result<StableModelsResult> StableModels(const Program& program,
                                        const Instance& input,
                                        const EvalOptions& options,
                                        int64_t max_candidates,
                                        EvalContext* ctx) {
  EvalContext local_ctx(options);
  if (ctx == nullptr) ctx = &local_ctx;
  OBS_SPAN("stable.eval");
  // Bracket the search with the well-founded model.
  Result<WellFoundedModel> wf = WellFoundedSemantics(program, input, ctx);
  if (!wf.ok()) return wf.status();

  // The unknown atoms, listed per predicate.
  std::vector<std::pair<PredId, Tuple>> unknown;
  for (PredId p : program.idb_preds) {
    for (const Tuple& t : wf->possible_facts.Rel(p)) {
      if (!wf->true_facts.Contains(p, t)) unknown.emplace_back(p, t);
    }
  }

  StableModelsResult out;
  out.unknown_atoms = static_cast<int64_t>(unknown.size());
  if (unknown.size() < 63 &&
      (int64_t{1} << unknown.size()) > max_candidates) {
    return Status::BudgetExhausted(
        "stable-model search needs 2^" + std::to_string(unknown.size()) +
        " candidates, above max_candidates = " +
        std::to_string(max_candidates));
  }
  if (unknown.size() >= 63) {
    return Status::BudgetExhausted(
        "stable-model search space too large: " +
        std::to_string(unknown.size()) + " unknown atoms");
  }

  const uint64_t combinations = uint64_t{1} << unknown.size();

  // Candidate M = well-founded true facts + selected unknowns.
  auto build_candidate = [&](uint64_t mask) {
    Instance candidate = wf->true_facts;
    for (size_t i = 0; i < unknown.size(); ++i) {
      if (mask & (uint64_t{1} << i)) {
        candidate.Insert(unknown[i].first, unknown[i].second);
      }
    }
    return candidate;
  };

  // Gelfond–Lifschitz check of each candidate: S(M) == M, where S
  // evaluates the positive part to a least fixpoint with negations fixed
  // against M. Candidates are independent, so each gets a private
  // single-threaded sub-context (indexes over one candidate are useless
  // for the next, and pools do not nest). The checks of one block of
  // masks fan out over the pool and merge in mask order, so models, stats
  // and the stop-at-first-error behaviour never depend on the pool, and
  // the staged verdicts stay bounded by the block.
  struct Check {
    Status status;
    EvalStats stats;
    bool stable = false;
  };
  EvalOptions cand_options = ctx->options;
  cand_options.num_threads = 1;
  cand_options.provenance = nullptr;
  // Pool workers copy `wf->true_facts` and read `input` concurrently;
  // fold any staged columnar rows on this thread first — lazy
  // materialization must not race (see Relation::MaterializeStaged).
  wf->true_facts.MaterializeStaged();
  input.MaterializeStaged();
  constexpr uint64_t kBlock = 1024;
  std::vector<Check> checks;
  for (uint64_t first = 0; first < combinations; first += kBlock) {
    checks.assign(static_cast<size_t>(std::min(kBlock, combinations - first)),
                  Check{});
    FanOut(
        ctx->pool(), /*index=*/nullptr, checks.size(), /*chunk_size=*/1,
        [&](size_t i) {
          const uint64_t mask = first + i;
          OBS_SPAN("stable.candidate", {{"mask", static_cast<int64_t>(mask)}});
          Instance candidate = build_candidate(mask);
          EvalContext cand_ctx(cand_options);
          // The merge below folds this sub-context into `ctx` —
          // publishing it separately would double-count every event.
          cand_ctx.publish_metrics = false;
          // Sub-evaluations share the run's absolute deadline rather than
          // restarting the clock per candidate.
          cand_ctx.InheritDeadline(*ctx);
          Result<Instance> reduct_lfp =
              NaiveLeastFixpoint(program, input, &candidate, &cand_ctx);
          Check& check = checks[i];
          if (!reduct_lfp.ok()) {
            check.status = reduct_lfp.status();
            return;
          }
          cand_ctx.Finalize();
          check.stats = std::move(cand_ctx.stats);
          check.stable = *reduct_lfp == candidate;
        },
        ctx->StopProbe());
    // An interrupt may have skipped whole candidates, so the staged
    // verdicts are not trustworthy — report the interruption instead.
    if (Status interrupted = ctx->CheckInterrupt(); !interrupted.ok()) {
      ctx->Finalize();
      return interrupted;
    }
    for (size_t i = 0; i < checks.size(); ++i) {
      ++out.candidates_checked;
      const Check& check = checks[i];
      if (!check.status.ok()) return check.status;
      const int saved_rounds = ctx->stats.rounds;
      ctx->stats.MergeFrom(check.stats);
      ctx->stats.rounds = saved_rounds;
      if (check.stable) out.models.push_back(build_candidate(first + i));
    }
  }
  return out;
}

}  // namespace datalog

#include "eval/wellfounded.h"

#include <cassert>

#include "eval/naive.h"
#include "obs/trace.h"

namespace datalog {

Result<WellFoundedModel> WellFoundedSemantics(const Program& program,
                                              const Instance& input,
                                              EvalContext* ctx) {
  assert(ctx != nullptr);
  OBS_SPAN("wellfounded.eval");
  // The inner fixpoints run on over-/under-estimates whose derivations
  // would be misleading as provenance, and the naive engine records into
  // whatever log the context carries: mask it for the duration.
  DerivationLog* saved_provenance = ctx->provenance;
  ctx->provenance = nullptr;
  // Alternating fixpoint: under_0 = input (no idb facts);
  //   over_k  = S(under_k); under_{k+1} = S(over_k).
  // The under-sequence is increasing, the over-sequence decreasing; stop
  // when the under-sequence is stationary.
  Instance under = input;
  Instance over = input;
  int64_t outer = 0;
  while (true) {
    // The inner naive fixpoints poll the same gate every round; this
    // outer check only catches an interrupt landing exactly between them.
    if (Status interrupted = ctx->CheckInterrupt(); !interrupted.ok()) {
      ctx->provenance = saved_provenance;
      return interrupted;
    }
    if (++outer > ctx->options.max_rounds) {
      ctx->provenance = saved_provenance;
      return Status::BudgetExhausted(
          "well-founded alternation exceeded round budget");
    }
    OBS_SPAN("wellfounded.alternation", {{"alternation", outer}});
    Result<Instance> next_over =
        NaiveLeastFixpoint(program, input, &under, ctx);
    if (!next_over.ok()) {
      ctx->provenance = saved_provenance;
      return next_over.status();
    }
    over = std::move(next_over).value();

    Result<Instance> next_under =
        NaiveLeastFixpoint(program, input, &over, ctx);
    if (!next_under.ok()) {
      ctx->provenance = saved_provenance;
      return next_under.status();
    }

    if (*next_under == under) break;
    under = std::move(next_under).value();
  }
  ctx->provenance = saved_provenance;
  // Report outer alternations, not the inner fixpoints' cumulative rounds.
  ctx->stats.rounds = static_cast<int>(outer);
  ctx->Finalize();
  WellFoundedModel model(std::move(under), std::move(over));
  model.stats = ctx->stats;
  return model;
}

}  // namespace datalog

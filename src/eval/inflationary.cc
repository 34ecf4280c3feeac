#include "eval/inflationary.h"

#include <cassert>

#include "eval/grounder.h"
#include "eval/parallel.h"
#include "obs/trace.h"

namespace datalog {

Result<InflationaryResult> InflationaryFixpoint(const Program& program,
                                                const Instance& input,
                                                EvalContext* ctx,
                                                const StageObserver& observer) {
  assert(ctx != nullptr);
  OBS_SPAN("inflationary.eval");
  EvalStats& st = ctx->stats;
  st.EnsureRuleSlots(program.rules.size());

  std::vector<RuleMatcher> matchers;
  matchers.reserve(program.rules.size());
  for (const Rule& rule : program.rules) {
    if (rule.heads.size() != 1 ||
        rule.heads[0].kind != Literal::Kind::kRelational ||
        rule.heads[0].negative) {
      return Status::Unsupported(
          "inflationary Datalog¬ requires single positive heads; use the "
          "non-inflationary engine for Datalog¬¬");
    }
    if (!rule.universal_vars.empty()) {
      return Status::Unsupported(
          "∀-rules belong to N-Datalog¬∀ (nondeterministic engine)");
    }
    matchers.emplace_back(&rule);
  }

  const std::vector<MatchUnit> units = RuleUnits(program, matchers);

  InflationaryResult result(input);
  Instance& db = result.instance;
  while (true) {
    // Same exit contract as the stage budget below: the caller (facade
    // or wrapping engine) finalizes the context.
    if (Status interrupted = ctx->CheckInterrupt(); !interrupted.ok()) {
      return interrupted;
    }
    if (result.stages + 1 > ctx->options.max_rounds) {
      return Status::BudgetExhausted("inflationary evaluation exceeded " +
                                     std::to_string(ctx->options.max_rounds) +
                                     " stages");
    }
    ctx->StartRound();
    OBS_SPAN("inflationary.stage", {{"stage", result.stages + 1}});
    // One stage: fire every rule with every applicable instantiation
    // against the frozen current instance (parallel firing), then add all
    // inferred facts at once. Rule heads cannot invent values, so the
    // cached active domain only refreshes with the database's journal.
    const std::vector<Value>& adom = ctx->Adom(program, db);
    Instance fresh(&input.catalog());
    DbView view{&db, &db};
    std::vector<UnitOutput> outputs;
    // An interrupted stage is discarded; the caller finalizes, as for the
    // loop-top check above.
    if (Status interrupted = RunProductionUnits(ctx, matchers, units, view,
                                                adom, &outputs);
        !interrupted.ok()) {
      return interrupted;
    }
    MergeProductionUnits(ctx, matchers, units, result.stages + 1, &outputs,
                         &fresh);
    if (fresh.TotalFacts() == 0) {
      ctx->FinishRound();
      break;
    }
    ++result.stages;
    ++st.rounds;
    if (observer) observer(result.stages, fresh);
    st.facts_derived += static_cast<int64_t>(db.UnionWith(fresh));
    ctx->FinishRound();
    if (static_cast<int64_t>(db.TotalFacts()) > ctx->options.max_facts) {
      return Status::BudgetExhausted(
          "inflationary evaluation exceeded fact budget");
    }
  }
  ctx->Finalize();
  result.stats = st;
  return result;
}

}  // namespace datalog

#include "eval/naive.h"

#include <cassert>

#include "eval/grounder.h"
#include "eval/parallel.h"
#include "obs/trace.h"

namespace datalog {

Result<Instance> NaiveLeastFixpoint(const Program& program,
                                    const Instance& input,
                                    const Instance* fixed_negation,
                                    EvalContext* ctx) {
  assert(ctx != nullptr);
  OBS_SPAN("naive.fixpoint");
  EvalStats& st = ctx->stats;
  st.EnsureRuleSlots(program.rules.size());

  std::vector<RuleMatcher> matchers;
  matchers.reserve(program.rules.size());
  for (const Rule& rule : program.rules) {
    if (rule.heads.size() != 1 ||
        rule.heads[0].kind != Literal::Kind::kRelational ||
        rule.heads[0].negative) {
      return Status::Unsupported(
          "naive least fixpoint requires single positive heads");
    }
    if (fixed_negation == nullptr) {
      for (const Literal& body : rule.body) {
        if (body.kind == Literal::Kind::kRelational && body.negative) {
          return Status::Unsupported(
              "naive least fixpoint without a fixed negation view requires "
              "a negation-free program");
        }
      }
    }
    matchers.emplace_back(&rule);
  }

  const std::vector<MatchUnit> units = RuleUnits(program, matchers);

  Instance db = input;
  while (true) {
    // Deadline/cancellation is checked at the same site as the round
    // budget; the caller (facade or outer engine) finalizes the context.
    if (Status interrupted = ctx->CheckInterrupt(); !interrupted.ok()) {
      return interrupted;
    }
    if (++st.rounds > ctx->options.max_rounds) {
      return Status::BudgetExhausted("naive evaluation exceeded " +
                                     std::to_string(ctx->options.max_rounds) +
                                     " rounds");
    }
    ctx->StartRound();
    OBS_SPAN("naive.round", {{"round", st.rounds}});
    // Freeze `db` for this round: buffer new facts separately so that the
    // persistent indexes' tuple pointers stay valid while matching. Rule
    // heads cannot invent values, so the cached active domain only changes
    // when `db` does — the journal-driven refresh handles both.
    const std::vector<Value>& adom = ctx->Adom(program, db);
    Instance fresh(&input.catalog());
    DbView view{&db, fixed_negation != nullptr ? fixed_negation : &db};
    std::vector<UnitOutput> outputs;
    // An interrupted round is discarded; the caller finalizes, as for the
    // loop-top check above.
    if (Status interrupted = RunProductionUnits(ctx, matchers, units, view,
                                                adom, &outputs);
        !interrupted.ok()) {
      return interrupted;
    }
    MergeProductionUnits(ctx, matchers, units, st.rounds, &outputs, &fresh);
    size_t added = db.UnionWith(fresh);
    st.facts_derived += static_cast<int64_t>(added);
    ctx->FinishRound();
    if (added == 0) break;
    if (static_cast<int64_t>(db.TotalFacts()) > ctx->options.max_facts) {
      return Status::BudgetExhausted("naive evaluation exceeded fact budget");
    }
  }
  return db;
}

}  // namespace datalog

#include "eval/seminaive.h"

#include <cassert>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "eval/columnar.h"
#include "eval/grounder.h"
#include "eval/parallel.h"
#include "eval/test_hooks.h"
#include "obs/trace.h"

namespace datalog {

namespace internal {
int g_seminaive_skip_delta_rule = -1;
}  // namespace internal

Result<int64_t> SemiNaiveStep(const Program& program,
                              const std::vector<int>& rule_indexes,
                              const std::vector<PredId>& recursive_preds,
                              Instance* db, EvalContext* ctx) {
  assert(ctx != nullptr);
  OBS_SPAN("seminaive.step");
  EvalStats& st = ctx->stats;
  st.EnsureRuleSlots(program.rules.size());
  // Entry gate: a stratified run calls one step per stratum, and this is
  // its between-strata deadline/cancellation check.
  if (Status interrupted = ctx->CheckInterrupt(); !interrupted.ok()) {
    ctx->Finalize();
    return interrupted;
  }

  std::vector<RuleMatcher> matchers;
  std::vector<const Rule*> rules;
  for (int idx : rule_indexes) {
    const Rule& rule = program.rules[idx];
    if (rule.heads.size() != 1 ||
        rule.heads[0].kind != Literal::Kind::kRelational ||
        rule.heads[0].negative) {
      return Status::Unsupported(
          "semi-naive evaluation requires single positive heads");
    }
    rules.push_back(&rule);
    matchers.emplace_back(&rule);
  }

  const std::unordered_set<PredId> recursive(recursive_preds.begin(),
                                             recursive_preds.end());

  // Columnar backend (docs/storage.md): round 0 runs the generic full
  // evaluation either way, but the delta rounds below are replaced by
  // merge joins over sorted runs. Provenance runs stay on the generic
  // unit path, whose merge replays the first derivations.
  std::unique_ptr<columnar::DeltaEngine> columnar_engine;
  if (ctx->options.storage == storage::StorageBackend::kColumnar &&
      ctx->provenance == nullptr) {
    columnar_engine = std::make_unique<columnar::DeltaEngine>(
        rule_indexes, rules, &matchers, recursive_preds);
  }

  int64_t total_added = 0;
  // Every early exit — interrupt or budget — still reports the facts
  // derived so far through finalized stats: callers read LastRunStats to
  // see how far the run got.
  auto stop_with = [&](Status status) {
    st.facts_derived += total_added;
    ctx->Finalize();
    return status;
  };
  // One round: match `units` against the frozen `db`, then stage the
  // facts that were new to it in `fresh`, in unit order.
  auto produce = [&](const std::vector<MatchUnit>& units, int stage,
                     Instance* fresh) {
    const std::vector<Value>& adom = ctx->Adom(program, *db);
    const DbView view{db, db};
    std::vector<UnitOutput> outputs;
    Status interrupted =
        RunProductionUnits(ctx, matchers, units, view, adom, &outputs);
    if (interrupted.ok()) {
      MergeProductionUnits(ctx, matchers, units, stage, &outputs, fresh);
    }
    return interrupted;
  };

  // The recursive facts a hash-path round added: the next round's delta.
  std::unordered_map<PredId, Relation> delta;
  auto take_delta = [&](const Instance& fresh) {
    delta.clear();
    for (PredId p : recursive_preds) {
      const Relation& rel = fresh.Rel(p);
      if (!rel.empty()) delta.emplace(p, rel);
    }
  };

  // Round 0: full evaluation of every rule against the current database.
  {
    ctx->StartRound();
    OBS_SPAN("seminaive.round", {{"round", st.rounds + 1}});
    Instance fresh(&db->catalog());
    if (Status interrupted =
            produce(RuleUnits(program, matchers), st.rounds + 1, &fresh);
        !interrupted.ok()) {
      return stop_with(interrupted);
    }
    ++st.rounds;
    if (columnar_engine != nullptr) {
      columnar_engine->SeedDelta(fresh);
    } else {
      take_delta(fresh);
    }
    total_added += static_cast<int64_t>(db->UnionWith(fresh));
    ctx->FinishRound();
  }

  // Delta rounds, on the columnar backend or the hash indexes. The
  // persistent indexes over `db` are refreshed by appending each round's
  // journal tail — no per-round rebuild.
  while (columnar_engine != nullptr ? columnar_engine->HasDelta()
                                    : !delta.empty()) {
    if (Status interrupted = ctx->CheckInterrupt(); !interrupted.ok()) {
      return stop_with(interrupted);
    }
    if (++st.rounds > ctx->options.max_rounds) {
      return stop_with(Status::BudgetExhausted(
          "semi-naive evaluation exceeded " +
          std::to_string(ctx->options.max_rounds) + " rounds"));
    }
    ctx->StartRound();
    OBS_SPAN("seminaive.round", {{"round", st.rounds}});
    if (columnar_engine != nullptr) {
      // Merge joins and bitmap semijoins over sorted runs, candidates
      // staged flat, new facts inserted at end of round. Runs on the
      // evaluating thread: deltas are small, and determinism across
      // thread counts is then structural.
      total_added += columnar_engine->Round(
          program, db, ctx, internal::g_seminaive_skip_delta_rule);
    } else {
      // Flatten each delta relation once; units chunk these lists in the
      // (rule, literal, chunk) order the merge replays.
      std::unordered_map<PredId, std::vector<const Tuple*>> delta_lists;
      for (const auto& [p, rel] : delta) delta_lists.emplace(p, TupleList(rel));
      std::vector<MatchUnit> units;
      for (size_t i = 0; i < matchers.size(); ++i) {
        if (rule_indexes[i] == internal::g_seminaive_skip_delta_rule) continue;
        const Rule& rule = *rules[i];
        for (size_t li = 0; li < rule.body.size(); ++li) {
          const Literal& lit = rule.body[li];
          if (lit.kind != Literal::Kind::kRelational || lit.negative) continue;
          if (!recursive.count(lit.atom.pred)) continue;
          auto dit = delta_lists.find(lit.atom.pred);
          if (dit == delta_lists.end()) continue;
          AppendDeltaUnits(static_cast<int>(i), rule_indexes[i],
                           static_cast<int>(li), dit->second, &units);
        }
      }
      Instance fresh(&db->catalog());
      if (Status interrupted = produce(units, st.rounds, &fresh);
          !interrupted.ok()) {
        return stop_with(interrupted);
      }
      take_delta(fresh);
      total_added += static_cast<int64_t>(db->UnionWith(fresh));
    }
    ctx->FinishRound();
    if (static_cast<int64_t>(db->TotalFacts()) > ctx->options.max_facts) {
      return stop_with(
          Status::BudgetExhausted("semi-naive evaluation exceeded fact budget"));
    }
  }
  st.facts_derived += total_added;
  return total_added;
}

Result<Instance> SemiNaiveDatalog(const Program& program,
                                  const Instance& input, EvalContext* ctx) {
  for (const Rule& rule : program.rules) {
    for (const Literal& body : rule.body) {
      if (body.kind == Literal::Kind::kRelational && body.negative) {
        return Status::Unsupported(
            "SemiNaiveDatalog requires a negation-free program; use the "
            "stratified engine for Datalog¬");
      }
    }
  }
  std::vector<int> all_rules(program.rules.size());
  for (size_t i = 0; i < all_rules.size(); ++i) all_rules[i] = static_cast<int>(i);
  Instance db = input;
  Result<int64_t> added =
      SemiNaiveStep(program, all_rules, program.idb_preds, &db, ctx);
  if (!added.ok()) return added.status();
  return db;
}

}  // namespace datalog

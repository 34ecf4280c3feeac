#include "eval/noninflationary.h"

#include <cassert>
#include <unordered_map>

#include "eval/grounder.h"
#include "eval/parallel.h"
#include "obs/trace.h"

namespace datalog {

Result<NonInflationaryResult> NonInflationaryFixpoint(
    const Program& program, const Instance& input,
    const NonInflationaryOptions& options, EvalContext* ctx) {
  EvalContext local_ctx(options.eval);
  if (ctx == nullptr) ctx = &local_ctx;
  OBS_SPAN("noninflationary.eval");
  EvalStats& st = ctx->stats;
  st.EnsureRuleSlots(program.rules.size());

  std::vector<RuleMatcher> matchers;
  matchers.reserve(program.rules.size());
  for (const Rule& rule : program.rules) {
    for (const Literal& head : rule.heads) {
      if (head.kind != Literal::Kind::kRelational) {
        return Status::Unsupported(
            "Datalog¬¬ heads must be (possibly negated) atoms");
      }
    }
    if (!rule.universal_vars.empty()) {
      return Status::Unsupported(
          "∀-rules belong to N-Datalog¬∀ (nondeterministic engine)");
    }
    matchers.emplace_back(&rule);
  }

  NonInflationaryResult result(input);
  Instance& db = result.instance;

  // Cycle detection: fingerprints of every state seen, with the exact
  // instances kept for confirmation (fingerprints may collide).
  std::unordered_map<uint64_t, std::vector<int>> seen_by_hash;
  std::vector<Instance> history;
  auto record_state = [&](const Instance& state) -> int {
    uint64_t h = state.Fingerprint();
    auto it = seen_by_hash.find(h);
    if (it != seen_by_hash.end()) {
      for (int idx : it->second) {
        if (history[idx] == state) return idx;
      }
    }
    seen_by_hash[h].push_back(static_cast<int>(history.size()));
    history.push_back(state);
    return -1;
  };
  if (options.detect_cycles) record_state(db);

  while (true) {
    if (Status interrupted = ctx->CheckInterrupt(); !interrupted.ok()) {
      ctx->Finalize();
      return interrupted;
    }
    if (result.stages + 1 > ctx->options.max_rounds) {
      // Budget-exhausted runs still get complete stats: fold the index
      // counters, pool telemetry and wall-clock before returning, so a
      // caller inspecting ctx->stats (or LastRunStats) sees the full
      // picture of the truncated run.
      ctx->Finalize();
      return Status::BudgetExhausted("Datalog¬¬ evaluation exceeded " +
                                     std::to_string(ctx->options.max_rounds) +
                                     " stages");
    }
    ctx->StartRound();
    OBS_SPAN("noninflationary.stage", {{"stage", result.stages + 1}});
    // Parallel firing against the frozen instance: collect insertions and
    // deletions separately, then reconcile. Deletions below change relation
    // epochs, so the index/adom caches rebuild per round — the correctness
    // fallback for non-inflationary mutation.
    Instance inserts(&input.catalog());
    Instance deletes(&input.catalog());
    DbView view{&db, &db};
    const std::vector<Value>& adom = ctx->Adom(program, db);
    // Multi-head staging: record every head instantiation in match order
    // (tagged insert/delete), then replay them rule by rule, so the
    // inserts and deletes instances fill in the same order with or
    // without a pool.
    struct RuleStage {
      struct Head {
        PredId pred;
        Tuple tuple;
        bool is_delete;
      };
      std::vector<Head> heads;
      int64_t matches = 0;
      int64_t produced = 0;
    };
    std::vector<RuleStage> staged(matchers.size());
#ifndef NDEBUG
    const uint64_t frozen_gen = db.Generation();
#endif
    FanOut(
        ctx->pool(), &ctx->index, matchers.size(), /*chunk_size=*/1,
        [&](size_t ri) {
          const RuleMatcher& matcher = matchers[ri];
          const Rule& rule = matcher.rule();
          RuleStage& stage = staged[ri];
          matcher.ForEachMatch(
              view, adom, &ctx->index, [&](const Valuation& val) -> bool {
                bool produced = false;
                for (const Literal& head : rule.heads) {
                  Tuple t = InstantiateAtom(head.atom, val);
                  if (!head.negative && !db.Contains(head.atom.pred, t)) {
                    produced = true;
                  }
                  stage.heads.push_back(
                      RuleStage::Head{head.atom.pred, std::move(t),
                                      head.negative});
                }
                ++stage.matches;
                if (produced) ++stage.produced;
                return true;
              });
        },
        ctx->StopProbe());
    assert(db.Generation() == frozen_gen &&
           "frozen database mutated during a matching round");
    // An interrupt skips the remaining rules, so whole rules may be
    // missing from `staged`. Reconciling a partial round would be outright
    // wrong here (deletions make this engine non-monotone) — report the
    // interruption and discard the round instead.
    if (Status interrupted = ctx->CheckInterrupt(); !interrupted.ok()) {
      ctx->Finalize();
      return interrupted;
    }
    for (size_t ri = 0; ri < staged.size(); ++ri) {
      RuleStage& stage = staged[ri];
      st.instantiations += stage.matches;
      if (ri < st.per_rule.size()) {
        st.per_rule[ri].matches += stage.matches;
        st.per_rule[ri].tuples_produced += stage.produced;
      }
      for (RuleStage::Head& h : stage.heads) {
        if (h.is_delete) {
          deletes.Insert(h.pred, std::move(h.tuple));
        } else {
          inserts.Insert(h.pred, std::move(h.tuple));
        }
      }
    }

    // Reconcile per the conflict policy to obtain the successor state.
    Instance next = db;
    auto for_each_fact = [](const Instance& src, const Catalog& catalog,
                            const std::function<void(PredId, const Tuple&)>&
                                fn) {
      for (PredId p = 0; p < catalog.size(); ++p) {
        for (const Tuple& t : src.Rel(p)) fn(p, t);
      }
    };
    switch (options.policy) {
      case ConflictPolicy::kPositiveWins:
        for_each_fact(deletes, input.catalog(),
                      [&](PredId p, const Tuple& t) {
                        if (!inserts.Contains(p, t)) next.Erase(p, t);
                      });
        for_each_fact(inserts, input.catalog(),
                      [&](PredId p, const Tuple& t) { next.Insert(p, t); });
        break;
      case ConflictPolicy::kNegativeWins:
        for_each_fact(inserts, input.catalog(),
                      [&](PredId p, const Tuple& t) {
                        if (!deletes.Contains(p, t)) next.Insert(p, t);
                      });
        for_each_fact(deletes, input.catalog(),
                      [&](PredId p, const Tuple& t) { next.Erase(p, t); });
        break;
      case ConflictPolicy::kNoOp:
        for_each_fact(deletes, input.catalog(),
                      [&](PredId p, const Tuple& t) {
                        if (!inserts.Contains(p, t)) next.Erase(p, t);
                      });
        for_each_fact(inserts, input.catalog(),
                      [&](PredId p, const Tuple& t) {
                        if (!deletes.Contains(p, t)) next.Insert(p, t);
                      });
        break;
      case ConflictPolicy::kUndefined: {
        Status conflict = Status::OK();
        for_each_fact(inserts, input.catalog(),
                      [&](PredId p, const Tuple& t) {
                        if (conflict.ok() && deletes.Contains(p, t)) {
                          conflict = Status::Conflict(
                              "fact and its negation inferred in the same "
                              "firing for predicate '" +
                              input.catalog().NameOf(p) + "'");
                        }
                      });
        if (!conflict.ok()) return conflict;
        for_each_fact(deletes, input.catalog(),
                      [&](PredId p, const Tuple& t) { next.Erase(p, t); });
        for_each_fact(inserts, input.catalog(),
                      [&](PredId p, const Tuple& t) { next.Insert(p, t); });
        break;
      }
    }

    if (next == db) {  // fixpoint reached
      ctx->FinishRound();
      break;
    }
    ++result.stages;
    ++st.rounds;
    // Net growth only: deletions can shrink the state, which is not
    // "derivation" in the facts_derived sense.
    int64_t delta = static_cast<int64_t>(next.TotalFacts()) -
                    static_cast<int64_t>(db.TotalFacts());
    if (delta > 0) st.facts_derived += delta;
    db = std::move(next);
    ctx->FinishRound();
    if (options.detect_cycles) {
      int prev = record_state(db);
      if (prev >= 0) {
        int cycle_len = static_cast<int>(history.size()) - prev;
        return Status::NonTerminating(
            "no fixpoint: state at stage " + std::to_string(result.stages) +
            " revisits stage " + std::to_string(prev) + " (cycle length " +
            std::to_string(cycle_len) + ")");
      }
    }
  }
  ctx->Finalize();
  result.stats = st;
  return result;
}

}  // namespace datalog

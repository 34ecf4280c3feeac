#include "eval/parallel.h"

#include <algorithm>
#include <cassert>

#include "base/thread_pool.h"
#include "obs/trace.h"

namespace datalog {

void FanOut(ThreadPool* pool, IndexManager* index, size_t n,
            size_t chunk_size, const std::function<void(size_t)>& body,
            const std::function<bool()>& stop) {
  if (pool == nullptr) {
    for (size_t begin = 0; begin < n; begin += chunk_size) {
      if (stop && stop()) return;
      const size_t end = std::min(n, begin + chunk_size);
      for (size_t i = begin; i < end; ++i) body(i);
    }
    return;
  }
  if (index != nullptr) index->BeginParallel();
  pool->ParallelFor(
      n, chunk_size,
      [&](size_t begin, size_t end, int /*worker*/) {
        for (size_t i = begin; i < end; ++i) body(i);
      },
      stop);
  if (index != nullptr) index->EndParallel();
}

Status RunProductionUnits(EvalContext* ctx,
                          const std::vector<RuleMatcher>& matchers,
                          const std::vector<MatchUnit>& units,
                          const DbView& view, const std::vector<Value>& adom,
                          std::vector<UnitOutput>* outputs) {
  outputs->clear();
  outputs->resize(units.size());
  const bool stage_premises = ctx->provenance != nullptr;
#ifndef NDEBUG
  const uint64_t gen_pos = view.positives->Generation();
  const uint64_t gen_neg = view.negatives->Generation();
#endif
  FanOut(
      ctx->pool(), &ctx->index, units.size(), /*chunk_size=*/1,
      [&](size_t u) {
        const MatchUnit& unit = units[u];
        OBS_SPAN("eval.unit", {{"rule", unit.rule_index}});
        UnitOutput& out = (*outputs)[u];
        const RuleMatcher& matcher = matchers[unit.matcher];
        const Atom& head = matcher.rule().heads[0].atom;
        // One relation probe per unit instead of one per match: the head
        // relation is frozen for the round, so the reference stays valid.
        const Relation& head_rel = view.positives->Rel(head.pred);
        auto sink = [&](const Valuation& val) -> bool {
          Tuple t = InstantiateAtom(head, val);
          ++out.matches;
          if (!head_rel.Contains(t)) {
            out.produced.push_back(std::move(t));
            if (stage_premises) {
              out.premises.push_back(
                  InstantiateBodyPremises(matcher.rule(), val));
            }
          }
          return true;
        };
        if (unit.delta_literal < 0) {
          matcher.ForEachMatch(view, adom, &ctx->index, sink);
        } else {
          matcher.ForEachMatch(view, adom, &ctx->index, unit.delta_literal,
                               unit.delta_begin, unit.delta_count, sink);
        }
      },
      ctx->StopProbe());
  assert(view.positives->Generation() == gen_pos &&
         "frozen database mutated during a matching round");
  assert(view.negatives->Generation() == gen_neg &&
         "frozen negation view mutated during a matching round");
  return ctx->CheckInterrupt();
}

void MergeProductionUnits(EvalContext* ctx,
                          const std::vector<RuleMatcher>& matchers,
                          const std::vector<MatchUnit>& units, int stage,
                          std::vector<UnitOutput>* outputs, Instance* fresh) {
  EvalStats& st = ctx->stats;
  for (size_t u = 0; u < units.size(); ++u) {
    const MatchUnit& unit = units[u];
    UnitOutput& out = (*outputs)[u];
    st.instantiations += out.matches;
    const size_t rule = static_cast<size_t>(unit.rule_index);
    if (rule < st.per_rule.size()) {
      st.per_rule[rule].matches += out.matches;
      st.per_rule[rule].tuples_produced +=
          static_cast<int64_t>(out.produced.size());
    }
    if (out.produced.empty()) continue;
    const Atom& head = matchers[unit.matcher].rule().heads[0].atom;
    Relation* dst = fresh->MutableRel(head.pred);
    for (size_t k = 0; k < out.produced.size(); ++k) {
      Tuple& t = out.produced[k];
      if (ctx->provenance != nullptr) {
        ctx->provenance->Record(head.pred, t, unit.rule_index, stage,
                                std::move(out.premises[k]));
      }
      if (ctx->on_derivation) ctx->on_derivation(rule, head.pred, t);
      dst->Insert(std::move(t));
    }
  }
}

std::vector<MatchUnit> RuleUnits(const Program& program,
                                 const std::vector<RuleMatcher>& matchers) {
  std::vector<MatchUnit> units(matchers.size());
  for (size_t i = 0; i < matchers.size(); ++i) {
    const Rule* rule = &matchers[i].rule();
    assert(rule >= program.rules.data() &&
           rule < program.rules.data() + program.rules.size());
    units[i].matcher = static_cast<int>(i);
    units[i].rule_index = static_cast<int>(rule - program.rules.data());
  }
  return units;
}

std::vector<const Tuple*> TupleList(const Relation& rel) {
  std::vector<const Tuple*> list;
  list.reserve(rel.size());
  for (const Tuple& t : rel) list.push_back(&t);
  return list;
}

void AppendDeltaUnits(int matcher, int rule_index, int delta_literal,
                      const std::vector<const Tuple*>& list,
                      std::vector<MatchUnit>* units) {
  if (list.empty()) return;
  // Up to 16 chunks — eight per worker of a two-worker pool, enough for
  // stealing to balance skewed join costs — with a floor that keeps the
  // per-chunk staging overhead negligible.
  constexpr size_t kTargetChunks = 16;
  const size_t chunk = std::max<size_t>(
      16, (list.size() + kTargetChunks - 1) / kTargetChunks);
  for (size_t off = 0; off < list.size(); off += chunk) {
    MatchUnit unit;
    unit.matcher = matcher;
    unit.rule_index = rule_index;
    unit.delta_literal = delta_literal;
    unit.delta_begin = list.data() + off;
    unit.delta_count = std::min(chunk, list.size() - off);
    units->push_back(unit);
  }
}

}  // namespace datalog

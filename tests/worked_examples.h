#ifndef UNCHAINED_TESTS_WORKED_EXAMPLES_H_
#define UNCHAINED_TESTS_WORKED_EXAMPLES_H_

// Canonical end-to-end outputs for the paper's worked examples, shared by
// the regression tests. Each function runs one example through the public
// Engine API on a fixed input and renders the result with the canonical
// `Instance::ToString` (predicates in catalog order, tuples sorted), so the
// returned string is byte-stable across refactors of the evaluation
// substrate. Each takes the evaluation thread count (default 1, no
// pool); the parallel determinism test sweeps it and expects
// the same bytes at every setting. The golden strings in
// index_incremental_test.cc were captured from the seed build; any engine
// change that alters them is a semantics regression, not a formatting
// choice.

#include <string>

#include "core/engine.h"
#include "workload/graphs.h"

namespace datalog {
namespace worked_examples {

/// Example 3.2 — the win-move game under the well-founded semantics on the
/// paper's 7-node instance (d, f true; e, g false; a, b, c unknown).
inline std::string Ex32WinGame(int num_threads = 1) {
  Engine engine;
  engine.options().num_threads = num_threads;
  auto p = engine.Parse("win(X) :- moves(X, Y), !win(Y).\n");
  if (!p.ok()) return "parse error";
  Instance db = PaperGameGraph(&engine.catalog(), &engine.symbols());
  auto model = engine.WellFounded(*p, db);
  if (!model.ok()) return model.status().ToString();
  return "true:\n" + model->true_facts.ToString(engine.symbols()) +
         "possible:\n" + model->possible_facts.ToString(engine.symbols());
}

/// Example 4.1 — `closer` by stage arithmetic under the inflationary
/// semantics on a 6-node chain.
inline std::string Ex41Closer(int num_threads = 1) {
  Engine engine;
  engine.options().num_threads = num_threads;
  auto p = engine.Parse(
      "t(X, Y) :- g(X, Y).\n"
      "t(X, Y) :- t(X, Z), g(Z, Y).\n"
      "closer(X, Y, X2, Y2) :- t(X, Y), !t(X2, Y2).\n");
  if (!p.ok()) return "parse error";
  GraphBuilder graphs(&engine.catalog(), &engine.symbols());
  Instance db = graphs.Chain(6);
  auto r = engine.Inflationary(*p, db);
  if (!r.ok()) return r.status().ToString();
  return "stages=" + std::to_string(r->stages) + "\n" +
         r->instance.ToString(engine.symbols());
}

/// Example 4.3 — complement of transitive closure in inflationary
/// Datalog¬ (the stage-detection trick), cross-checked against the
/// stratified formulation on the same random digraph.
inline std::string Ex43ComplementTc(int num_threads = 1) {
  Engine engine;
  engine.options().num_threads = num_threads;
  auto infl_p = engine.Parse(
      "t(X, Y) :- g(X, Y).\n"
      "t(X, Y) :- g(X, Z), t(Z, Y).\n"
      "old-t(X, Y) :- t(X, Y).\n"
      "old-t-except-final(X, Y) :- t(X, Y), t(X2, Z2), t(Z2, Y2), "
      "!t(X2, Y2).\n"
      "ct(X, Y) :- !t(X, Y), old-t(X2, Y2), "
      "!old-t-except-final(X2, Y2).\n");
  auto strat_p = engine.Parse(
      "st(X, Y) :- g(X, Y).\n"
      "st(X, Y) :- g(X, Z), st(Z, Y).\n"
      "sct(X, Y) :- !st(X, Y).\n");
  if (!infl_p.ok() || !strat_p.ok()) return "parse error";
  GraphBuilder graphs(&engine.catalog(), &engine.symbols());
  Instance db = graphs.RandomDigraph(6, 9, /*seed=*/6);
  auto infl = engine.Inflationary(*infl_p, db);
  auto strat = engine.Stratified(*strat_p, db);
  if (!infl.ok() || !strat.ok()) return "eval error";
  PredId ct = engine.catalog().Find("ct");
  PredId sct = engine.catalog().Find("sct");
  return "ct:\n" +
         infl->instance.Restrict({ct}).ToString(engine.symbols()) +
         "sct:\n" + strat->Restrict({sct}).ToString(engine.symbols());
}

/// Example 4.4 — good/bad nodes with the `delay` propositional timestamp,
/// inflationary Datalog¬ on a fixed random digraph.
inline std::string Ex44GoodNodes(int num_threads = 1) {
  Engine engine;
  engine.options().num_threads = num_threads;
  auto p = engine.Parse(
      "bad(X) :- g(Y, X), !good(Y).\n"
      "delay.\n"
      "good(X) :- delay, !bad(X).\n"
      "bad-stamped(X, T) :- g(Y, X), !good(Y), good(T).\n"
      "delay-stamped(T) :- good(T).\n"
      "good(X) :- delay-stamped(T), !bad-stamped(X, T).\n");
  if (!p.ok()) return "parse error";
  GraphBuilder graphs(&engine.catalog(), &engine.symbols());
  Instance db = graphs.RandomDigraph(6, 9, /*seed=*/42);
  auto r = engine.Inflationary(*p, db);
  if (!r.ok()) return r.status().ToString();
  PredId good = engine.catalog().Find("good");
  PredId bad = engine.catalog().Find("bad");
  return r->instance.Restrict({good, bad}).ToString(engine.symbols());
}

/// Builds the Example 5.4/5.5 input p = {x_0..x_{np-1}},
/// q = {(x_i, y_i) : i even}; the intended answer is the odd-indexed x's.
inline Instance ProjectionDiffInput(Engine* engine, int np) {
  Instance db = engine->NewInstance();
  PredId p = *engine->catalog().Declare("p", 1);
  PredId q = *engine->catalog().Declare("q", 2);
  for (int i = 0; i < np; ++i) {
    Value x = engine->symbols().Intern("x" + std::to_string(i));
    db.Insert(p, {x});
    if (i % 2 == 0) {
      Value y = engine->symbols().Intern("y" + std::to_string(i));
      db.Insert(q, {x, y});
    }
  }
  return db;
}

/// Example 5.4 — the naive N-Datalog¬ attempt at P − πA(Q): poss/cert over
/// the full effect set (some images are wrong, which is the point).
inline std::string Ex54ProjectionDiff(int num_threads = 1) {
  Engine engine;
  engine.options().num_threads = num_threads;
  Instance db = ProjectionDiffInput(&engine, 3);
  auto p = engine.Parse(
      "t(X) :- q(X, Y).\n"
      "answer(X) :- p(X), !t(X).\n");
  if (!p.ok()) return "parse error";
  auto pc = engine.NondetPossCert(*p, Dialect::kNDatalogNeg, db);
  if (!pc.ok()) return pc.status().ToString();
  return "images=" + std::to_string(pc->image_count) + "\nposs:\n" +
         pc->poss.ToString(engine.symbols()) + "cert:\n" +
         pc->cert.ToString(engine.symbols());
}

/// Example 5.5 — the N-Datalog¬⊥ version with abort control: every image
/// computes exactly P − πA(Q).
inline std::string Ex55ProjectionDiffBottom(int num_threads = 1) {
  Engine engine;
  engine.options().num_threads = num_threads;
  Instance db = ProjectionDiffInput(&engine, 3);
  auto p = engine.Parse(
      "proj(X) :- !done-with-proj, q(X, Y).\n"
      "done-with-proj.\n"
      "bottom :- done-with-proj, q(X, Y), !proj(X).\n"
      "answer(X) :- done-with-proj, p(X), !proj(X).\n");
  if (!p.ok()) return "parse error";
  auto pc = engine.NondetPossCert(*p, Dialect::kNDatalogBottom, db);
  if (!pc.ok()) return pc.status().ToString();
  return "images=" + std::to_string(pc->image_count) + "\nposs:\n" +
         pc->poss.ToString(engine.symbols()) + "cert:\n" +
         pc->cert.ToString(engine.symbols());
}

}  // namespace worked_examples
}  // namespace datalog

#endif  // UNCHAINED_TESTS_WORKED_EXAMPLES_H_

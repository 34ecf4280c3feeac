// Golden-trace tests (docs/observability.md): run two worked examples
// with tracing enabled and compare the deterministic span-tree rendering
// (RenderSpanTree — names, nesting and arguments only, no timestamps)
// against checked-in goldens. Any change to where the engines open spans
// shows up here as a readable tree diff.
//
// The last case checks that rings of exited threads are reused.
//
// Determinism notes: the golden runs force num_threads = 1 so every
// span lands on thread 0 in program order, and tracing is enabled only
// after parsing, so parser spans are not part of the tree.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "obs/export.h"
#include "obs/trace.h"

namespace datalog {
namespace {

/// Runs `body` under a fresh tracing session and renders the span tree.
template <typename Fn>
std::string TraceTree(Fn&& body) {
  obs::Tracer::Get().Enable();
  body();
  obs::Tracer::Get().Disable();
  std::vector<obs::TraceEvent> events = obs::Tracer::Get().Snapshot();
  EXPECT_EQ(obs::Tracer::Get().dropped(), 0);
  return obs::RenderSpanTree(events);
}

TEST(GoldenTraceTest, TransitiveClosureSpanTree) {
  // The quickstart TC program on a 4-edge chain: one seminaive.step with
  // round 1 (the base round: one eval.unit per rule) and the delta rounds
  // walking the chain, where only the recursive rule has a delta unit.
  Engine engine;
  engine.options().num_threads = 1;
  Result<Program> program = engine.Parse(
      "t(X, Y) :- g(X, Y).\n"
      "t(X, Y) :- g(X, Z), t(Z, Y).\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Instance db = engine.NewInstance();
  ASSERT_TRUE(
      engine.AddFacts("g(a, b). g(b, c). g(c, d). g(d, e).", &db).ok());

  const std::string tree = TraceTree([&] {
    Result<Instance> out = engine.MinimumModel(*program, db);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
  });
  const std::string golden =
      "thread 0:\n"
      "  seminaive.step\n"
      "    seminaive.round round=1\n"
      "      eval.unit rule=0\n"
      "        index.build pred=1 mask=0\n"
      "      eval.unit rule=1\n"
      "        index.build pred=0 mask=0\n"
      "    seminaive.round round=2\n"
      "      eval.unit rule=1\n"
      "        index.build pred=1 mask=2\n"
      "    seminaive.round round=3\n"
      "      eval.unit rule=1\n"
      "    seminaive.round round=4\n"
      "      eval.unit rule=1\n"
      "    seminaive.round round=5\n"
      "      eval.unit rule=1\n";
  EXPECT_EQ(tree, golden) << "actual tree:\n" << tree;
}

TEST(GoldenTraceTest, FlipFlopBudgetExhaustionSpanTree) {
  // The Section 4.2 flip-flop under noninflationary semantics with cycle
  // detection off: stages alternate until the 4-round budget, and the
  // budget-exhausted exit must still leave a well-formed trace.
  Engine engine;
  Result<Program> program = engine.Parse(
      "tf(0) :- tf(1).\n"
      "!tf(1) :- tf(1).\n"
      "tf(1) :- tf(0).\n"
      "!tf(0) :- tf(0).\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Instance db = engine.NewInstance();
  ASSERT_TRUE(engine.AddFacts("tf(0).", &db).ok());
  NonInflationaryOptions options;
  options.detect_cycles = false;
  options.eval.max_rounds = 4;
  options.eval.num_threads = 1;

  const std::string tree = TraceTree([&] {
    Result<NonInflationaryResult> r =
        engine.NonInflationary(*program, db, options);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kBudgetExhausted);
  });
  const std::string golden =
      "thread 0:\n"
      "  noninflationary.eval\n"
      "    noninflationary.stage stage=1\n"
      "    noninflationary.stage stage=2\n"
      "    noninflationary.stage stage=3\n"
      "    noninflationary.stage stage=4\n";
  EXPECT_EQ(tree, golden) << "actual tree:\n" << tree;
}

TEST(TraceRingReuseTest, SequentialThreadsShareOneRing) {
  // Every evaluation starts fresh pool workers; each exiting thread must
  // hand its ring on instead of leaving it allocated until the next
  // Enable. 32 threads started and joined one after another record into
  // at most two rings: the one they pass along, plus this thread's
  // should it ever record.
  obs::Tracer::Get().Enable(64);
  for (int i = 0; i < 32; ++i) {
    std::thread worker([i] { OBS_SPAN("reuse.span", {{"i", i}}); });
    worker.join();
  }
  obs::Tracer::Get().Disable();
  const std::vector<obs::TraceEvent> events = obs::Tracer::Get().Snapshot();
  ASSERT_EQ(events.size(), 32u);
  std::set<uint32_t> tids;
  for (const obs::TraceEvent& e : events) {
    tids.insert(e.tid);
    EXPECT_EQ(e.depth, 0u);
  }
  EXPECT_LE(tids.size(), 2u);
  EXPECT_EQ(obs::Tracer::Get().dropped(), 0);
}

}  // namespace
}  // namespace datalog

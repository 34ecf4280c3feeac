// eval_family: the paper's worked queries through Engine at the default
// EvalOptions but for the worker count: parallel rounds on two workers,
// on two CPUs (kEvalCpus).
// None of these engines is reached by the server. A pass evaluates all
// six queries once; the run makes one untimed warm-up pass whose results
// are checked against the reference computations of checks.h, then
// timed passes until the run's seconds are used up, each result compared
// with the checked one.

#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "core/engine.h"
#include "workload/graphs.h"
#include "workloads.h"

namespace perfbench {
namespace {

using datalog::Engine;
using datalog::GraphBuilder;
using datalog::Instance;
using datalog::PredId;
using datalog::Program;
using datalog::Tuple;

// Input sizes: each query takes 5 to 35 ms on a 4-vCPU Xeon VM, so a
// run holds a few hundred passes. The TC and complement graphs have 100
// nodes (t at most 10k facts), so that a query's relations fit a core's
// 2 MB L2 cache rather than the L3 that all CPUs share.
constexpr int kTcNodes = 100;
constexpr int kTcEdges = 300;
constexpr int kComplementNodes = 100;
constexpr int kComplementEdges = 300;
constexpr int kGameNodes = 600;
constexpr int kGameMoves = 1200;
constexpr int kCloserChain = 12;
constexpr int kStripChain = 120;
/// Seed of the random graphs' shapes. The run's seed only renames their
/// nodes (RelabelledDigraph): with the shape drawn from the run's seed, a
/// pass cost up to a third more on one seed than on another.
constexpr uint64_t kShapeSeed = 1;
/// Workers and CPUs of the evaluations. Every round hands its work to the
/// pool's workers and waits for the slowest. With one worker per hardware
/// thread on all four CPUs of a shared VM the pass p90 spread by 0.19 over
/// five runs of the same code, against 0.08 with two workers on two CPUs
/// in runs alternating with them.
constexpr int kEvalCpus = 2;
/// Input build + parse repetitions behind setup_s, half before the timed
/// passes and half after them: about a second of work, since one build
/// takes about a millisecond, sampling the host at both ends of the run.
constexpr int kSetupReps = 1000;

constexpr char kTc[] =
    "t(X, Y) :- g(X, Y).\n"
    "t(X, Y) :- t(X, Z), g(Z, Y).\n";
constexpr char kComplement[] =
    "st(X, Y) :- g(X, Y).\n"
    "st(X, Y) :- g(X, Z), st(Z, Y).\n"
    "sct(X, Y) :- !st(X, Y).\n";
constexpr char kWin[] = "win(X) :- moves(X, Y), !win(Y).\n";
constexpr char kCloser[] =
    "t(X, Y) :- g(X, Y).\n"
    "t(X, Y) :- t(X, Z), g(Z, Y).\n"
    "closer(X, Y, X2, Y2) :- t(X, Y), !t(X2, Y2).\n";
constexpr char kStrip[] =
    "!out(X) :- out(X).\n"
    "out(X) :- g(X, Y).\n"
    "init0.\n"
    "!g(X, Y) :- init0, g(X, Y), !out(Y).\n";

const char* const kLangs[] = {"positive",   "columnar",     "stratified",
                              "wellfounded", "inflationary", "noninflationary"};
constexpr int kNumLangs = 6;

int IntOf(const Engine& engine, datalog::Value v) {
  return std::stoi(engine.symbols().NameOf(v));
}

EdgeSet EdgesOf(const Engine& engine, const Instance& db, PredId pred) {
  EdgeSet edges;
  if (pred < 0) return edges;
  for (const Tuple& t : db.Rel(pred)) {
    edges.insert({IntOf(engine, t[0]), IntOf(engine, t[1])});
  }
  return edges;
}

/// One query: its own Engine (so catalogs stay apart), program and input.
struct Query {
  std::unique_ptr<Engine> engine = std::make_unique<Engine>();
  Program program;
  std::unique_ptr<Instance> input;
  /// The checked result of the warm-up pass; later passes must equal it.
  std::unique_ptr<Instance> expected;
};

struct Family {
  Query q[kNumLangs];
};

/// GraphBuilder::RandomDigraph(n, m, shape_seed) with node i renamed to
/// perm[i], for a permutation of 0..n-1 drawn from `seed`.
Instance RelabelledDigraph(Query* q, GraphBuilder* graphs, int n, int m,
                           uint64_t shape_seed, uint64_t seed) {
  const Instance shape = graphs->RandomDigraph(n, m, shape_seed);
  std::vector<int> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  uint64_t rng = seed * 0x9e3779b97f4a7c15ULL + 1;
  for (int i = n - 1; i > 0; --i) {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(perm[static_cast<size_t>(i)],
              perm[(rng >> 33) % static_cast<uint64_t>(i + 1)]);
  }
  auto renamed = [&](datalog::Value v) {
    return graphs->Node(perm[static_cast<size_t>(IntOf(*q->engine, v))]);
  };
  Instance db(&q->engine->catalog());
  for (const Tuple& t : shape.Rel(graphs->edge_pred())) {
    db.Insert(graphs->edge_pred(), {renamed(t[0]), renamed(t[1])});
  }
  return db;
}

bool Parse(Query* q, const char* text) {
  auto parsed = q->engine->Parse(text);
  if (!parsed.ok()) return false;
  q->program = std::move(*parsed);
  return true;
}

/// Parses the six programs and builds their inputs from `seed`, which
/// changes the inputs' node names but not their shapes.
bool BuildFamily(uint64_t seed, Family* f) {
  for (int i = 0; i < 2; ++i) {
    Query& q = f->q[i];
    if (!Parse(&q, kTc)) return false;
    GraphBuilder graphs(&q.engine->catalog(), &q.engine->symbols());
    q.input = std::make_unique<Instance>(
        RelabelledDigraph(&q, &graphs, kTcNodes, kTcEdges, kShapeSeed, seed));
  }
  for (Query& q : f->q) q.engine->options().num_threads = kEvalCpus;
  f->q[1].engine->options().storage = datalog::storage::StorageBackend::kColumnar;
  {
    Query& q = f->q[2];
    if (!Parse(&q, kComplement)) return false;
    GraphBuilder graphs(&q.engine->catalog(), &q.engine->symbols());
    q.input = std::make_unique<Instance>(
        RelabelledDigraph(&q, &graphs, kComplementNodes, kComplementEdges,
                          kShapeSeed + 1, seed));
  }
  {
    Query& q = f->q[3];
    if (!Parse(&q, kWin)) return false;
    // RandomGameGraph's graph: RandomDigraph under the predicate moves.
    GraphBuilder graphs(&q.engine->catalog(), &q.engine->symbols(), "moves");
    q.input = std::make_unique<Instance>(RelabelledDigraph(
        &q, &graphs, kGameNodes, kGameMoves, kShapeSeed + 2, seed));
  }
  {
    Query& q = f->q[4];
    if (!Parse(&q, kCloser)) return false;
    GraphBuilder graphs(&q.engine->catalog(), &q.engine->symbols());
    q.input = std::make_unique<Instance>(graphs.Chain(kCloserChain));
  }
  {
    // A long chain whose first node also sits on a 2-cycle: stripping
    // eats the chain back to front and leaves the cycle.
    Query& q = f->q[5];
    if (!Parse(&q, kStrip)) return false;
    GraphBuilder graphs(&q.engine->catalog(), &q.engine->symbols());
    q.input = std::make_unique<Instance>(graphs.Chain(kStripChain));
    const datalog::Value head = graphs.Node(0);
    const datalog::Value loop = graphs.Node(kStripChain + static_cast<int>(seed % 7));
    q.input->Insert(graphs.edge_pred(), {head, loop});
    q.input->Insert(graphs.edge_pred(), {loop, head});
  }
  return true;
}

/// Evaluates query `i`; the result instance, or null on an error.
std::unique_ptr<Instance> Evaluate(Query* q, int i, std::string* error) {
  Engine& e = *q->engine;
  auto fail = [error](const datalog::Status& st) {
    *error = st.message();
    return nullptr;
  };
  switch (i) {
    case 0:
    case 1: {
      auto r = e.MinimumModel(q->program, *q->input);
      if (!r.ok()) return fail(r.status());
      return std::make_unique<Instance>(std::move(*r));
    }
    case 2: {
      auto r = e.Stratified(q->program, *q->input);
      if (!r.ok()) return fail(r.status());
      return std::make_unique<Instance>(std::move(*r));
    }
    case 3: {
      // The well-founded model as one instance: true facts under win,
      // and undefined ones (possible but not true) under win_undef.
      auto r = e.WellFounded(q->program, *q->input);
      if (!r.ok()) return fail(r.status());
      auto out = std::make_unique<Instance>(r->true_facts);
      const PredId win = e.catalog().Find("win");
      auto declared = e.catalog().Declare("win_undef", 1);
      if (!declared.ok()) return fail(declared.status());
      const PredId undef = *declared;
      for (const Tuple& t : r->possible_facts.Rel(win)) {
        if (!r->true_facts.Contains(win, t)) out->Insert(undef, t);
      }
      return out;
    }
    case 4: {
      auto r = e.Inflationary(q->program, *q->input);
      if (!r.ok()) return fail(r.status());
      return std::make_unique<Instance>(std::move(r->instance));
    }
    default: {
      auto r = e.NonInflationary(q->program, *q->input);
      if (!r.ok()) return fail(r.status());
      return std::make_unique<Instance>(std::move(r->instance));
    }
  }
}

/// Checks query `i`'s result against the reference computation; "" or
/// the first difference.
std::string CheckResult(const Query& q, int i, const Instance& got) {
  const Engine& e = *q.engine;
  const PredId g = e.catalog().Find(i == 3 ? "moves" : "g");
  const EdgeSet input = EdgesOf(e, *q.input, g);
  switch (i) {
    case 0:
    case 1:
      return EdgesOf(e, got, e.catalog().Find("t")) == Closure(input)
                 ? ""
                 : "t differs from the BFS closure";
    case 2: {
      const EdgeSet closure = Closure(input);
      if (EdgesOf(e, got, e.catalog().Find("st")) != closure) {
        return "st differs from the BFS closure";
      }
      EdgeSet complement;
      const std::set<int> nodes = Nodes(input);
      for (int x : nodes) {
        for (int y : nodes) {
          if (closure.count({x, y}) == 0) complement.insert({x, y});
        }
      }
      return EdgesOf(e, got, e.catalog().Find("sct")) == complement
                 ? ""
                 : "sct differs from the complement of the BFS closure";
    }
    case 3: {
      const auto solved = SolveGame(input);
      const PredId win = e.catalog().Find("win");
      const PredId undef = e.catalog().Find("win_undef");
      size_t won = 0;
      size_t drawn = 0;
      for (const auto& [node, outcome] : solved) {
        const Tuple t{e.symbols().Find(std::to_string(node))};
        const bool is_won = got.Contains(win, t);
        const bool is_drawn = got.Contains(undef, t);
        if (is_won != (outcome == Outcome3::kWon) ||
            is_drawn != (outcome == Outcome3::kDrawn)) {
          return "win differs from retrograde analysis at node " +
                 std::to_string(node);
        }
        won += is_won;
        drawn += is_drawn;
      }
      return got.Rel(win).size() == won && got.Rel(undef).size() == drawn
                 ? ""
                 : "win holds facts outside the game graph";
    }
    case 4: {
      // closer(x, y, x2, y2) iff d(x, y) < d(x2, y2), with d infinite for
      // unreachable pairs, over the active domain (Example 4.1).
      const auto dist = Distances(input);
      const std::set<int> nodes = Nodes(input);
      const int64_t pairs =
          static_cast<int64_t>(nodes.size()) * static_cast<int64_t>(nodes.size());
      std::map<int, int64_t> by_distance;
      for (const auto& entry : dist) ++by_distance[entry.second];
      const int64_t unreachable = pairs - static_cast<int64_t>(dist.size());
      int64_t expected = static_cast<int64_t>(dist.size()) * unreachable;
      for (const auto& [d1, c1] : by_distance) {
        for (const auto& [d2, c2] : by_distance) {
          if (d1 < d2) expected += c1 * c2;
        }
      }
      const auto& closer = got.Rel(e.catalog().Find("closer"));
      if (static_cast<int64_t>(closer.size()) != expected) {
        return "closer has " + std::to_string(closer.size()) +
               " facts, BFS distances give " + std::to_string(expected);
      }
      for (const Tuple& t : closer) {
        auto near = dist.find({IntOf(e, t[0]), IntOf(e, t[1])});
        auto far = dist.find({IntOf(e, t[2]), IntOf(e, t[3])});
        if (near == dist.end() ||
            (far != dist.end() && far->second <= near->second)) {
          return "closer holds a pair that is not closer";
        }
      }
      return "";
    }
    default:
      return EdgesOf(e, got, g) == StripSinks(input)
                 ? ""
                 : "g differs from the direct sink-stripping loop";
  }
}

}  // namespace

void RunEvalWorkload(const Args& args, Outcome* out) {
  const NarrowCpus cpus(kEvalCpus);
  std::vector<double> setup_s;
  std::unique_ptr<Family> family;
  // Times `reps` builds and keeps the last family; false on a failure.
  auto build = [&](int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = Clock::now();
      auto built = std::make_unique<Family>();
      const bool ok = BuildFamily(args.seed, built.get());
      setup_s.push_back(MsSince(start) / 1000.0);
      if (!ok) {
        out->Fail("could not build the family's inputs");
        return false;
      }
      family = std::move(built);
    }
    return true;
  };
  if (!build(kSetupReps / 2)) return;

  // Warm-up pass: untimed, checked against the reference computations.
  for (int i = 0; i < kNumLangs; ++i) {
    Query& q = family->q[i];
    std::string error;
    ++out->attempted;
    q.expected = Evaluate(&q, i, &error);
    if (q.expected == nullptr) {
      ++out->failed;
      out->Fail(std::string(kLangs[i]) + ": " + error);
      continue;
    }
    const std::string diff = CheckResult(q, i, *q.expected);
    out->Check(diff.empty(), std::string(kLangs[i]) + ": " + diff);
  }
  if (!out->correct) return;

  std::vector<double> pass_ms;
  std::vector<double> lang_ms[kNumLangs];
  const auto start = Clock::now();
  while (MsSince(start) < args.seconds * 1000.0) {
    double pass = 0;
    for (int i = 0; i < kNumLangs; ++i) {
      Query& q = family->q[i];
      std::string error;
      ++out->attempted;
      const auto eval_start = Clock::now();
      std::unique_ptr<Instance> got = Evaluate(&q, i, &error);
      const double ms = MsSince(eval_start);
      if (got == nullptr) {
        ++out->failed;
        continue;
      }
      pass += ms;
      lang_ms[i].push_back(ms);
      out->Check(*got == *q.expected,
                 std::string(kLangs[i]) + ": result changed between passes");
    }
    pass_ms.push_back(pass);
  }
  const double wall_s = MsSince(start) / 1000.0;
  const double peak_rss_mb = PeakRssMb();
  family.reset();
  if (!build(kSetupReps - kSetupReps / 2)) return;

  out->Info("setup_s over " + std::to_string(setup_s.size()) +
            " input builds + parses: q1 " + Num(Quantile(setup_s, 0.25)) +
            ", q3 " + Num(Quantile(setup_s, 0.75)));
  out->e2e.push_back({"setup_s", Median(setup_s), "s"});
  out->e2e.push_back({"p50_ms", ChunkedQuantile(pass_ms, 0.5), "ms"});
  out->e2e.push_back({"tail_ms", ChunkedQuantile(pass_ms, 0.9), "ms"});
  out->e2e.push_back(
      {"ops_per_s",
       static_cast<double>(pass_ms.size()) * kNumLangs / wall_s, "1/s"});
  out->e2e.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
  out->Info("passes " + std::to_string(pass_ms.size()) +
            " (p50_ms and tail_ms are medians over " +
            std::to_string(kWindows) +
            " consecutive chunks of the chunk's p50 and p90 of a pass; over "
            "all: p50 " +
            Num(Median(pass_ms)) + ", p90 " + Num(Quantile(pass_ms, 0.9)) +
            ")");
  std::string per_lang = "eval medians:";
  for (int i = 0; i < kNumLangs; ++i) {
    per_lang += std::string(" eval_") + kLangs[i] + "_s " +
                Num(Median(lang_ms[i]) / 1000.0);
  }
  out->Info(per_lang);
}

void EvalLayerProbes(const Args& args, Outcome* out) {
  const NarrowCpus cpus(kEvalCpus);
  // ast: Engine::Parse per program.
  std::vector<double> parse_ms;
  for (int rep = 0; rep < 200; ++rep) {
    Engine engine;
    const auto start = Clock::now();
    for (const char* text : {kTc, kComplement, kWin, kCloser, kStrip}) {
      (void)engine.Parse(text);
    }
    parse_ms.push_back(MsSince(start) / 5.0);
  }
  out->Layer("ast.parse_us", Median(parse_ms) * 1000.0, "us");

  Family family;
  if (!BuildFamily(args.seed, &family)) return;
  int64_t index_builds = 0;
  int64_t index_rebuilds = 0;
  int64_t index_appended = 0;
  double busy_ms = 0;
  double worker_ms = 0;
  int64_t steals = 0;
  for (int i = 0; i < kNumLangs; ++i) {
    Query& q = family.q[i];
    std::string error;
    const auto start = Clock::now();
    const bool ok = Evaluate(&q, i, &error) != nullptr;
    const double ms = MsSince(start);
    const datalog::EvalStats& stats = q.engine->LastRunStats();
    const std::string prefix = std::string("eval.") + kLangs[i];
    out->Layer(prefix + ".ms", ok ? ms : 0, "ms");
    out->Layer(prefix + ".rounds", stats.rounds, "count");
    out->Layer(prefix + ".instantiations",
               static_cast<double>(stats.instantiations), "count");
    if (i == 0 || i == 2 || i == 3) {
      index_builds += stats.index_builds;
      index_rebuilds += stats.index_rebuilds;
      index_appended += stats.index_appended;
    }
    if (i == 1) {
      // The delta joins probe g, which never grows, so on this input the
      // sorted runs are built once and then only hit.
      out->Layer("ra.storage_builds",
                 static_cast<double>(stats.storage_builds), "count");
      out->Layer("ra.storage_hits", static_cast<double>(stats.storage_hits),
                 "count");
      out->Layer("ra.storage_rows_appended",
                 static_cast<double>(stats.storage_rows_appended), "count");
      out->Layer("ra.storage_compactions",
                 static_cast<double>(stats.storage_compactions), "count");
    }
    if (i == 0 || i == 2) {
      for (const auto& w : stats.per_worker) {
        busy_ms += w.busy_ms;
        worker_ms += stats.total_ms;
        steals += w.steals;
      }
    }
  }
  out->Layer("ra.index_builds", static_cast<double>(index_builds), "count");
  out->Layer("ra.index_rebuilds", static_cast<double>(index_rebuilds),
             "count");
  out->Layer("ra.index_appended", static_cast<double>(index_appended),
             "count");
  out->Layer("base.pool_busy_share", worker_ms > 0 ? busy_ms / worker_ms : 0,
             "ratio");
  out->Layer("base.pool_steals", static_cast<double>(steals), "count");
}

}  // namespace perfbench

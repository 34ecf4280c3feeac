// Durable commit throughput (docs/durability.md): the same toggle-edge
// update stream committed through the scheduler-driven server under a
// sweep of fsync policies — per-commit fsync, a group-commit window of
// 8, no fsync at all, with and without snapshot compaction — against the
// in-memory server as the zero-durability baseline. Reported per row:
// wall time, commits/s, mean and max per-commit latency, WAL bytes left
// after the run, fsyncs issued and snapshots cut.
//
// Every durable row self-checks the recovery contract: after a clean
// shutdown a *fresh* engine recovers the directory (snapshot load + WAL
// replay) and its served snapshot must be byte-identical to a sequential
// IncrementalView replay of all committed batches. Any divergence fails
// the binary.
//
// Usage: wal_throughput [--json=<path>]

#include <stdlib.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "eval/incremental.h"
#include "server/server.h"
#include "server/session.h"
#include "server/wire.h"
#include "store/snapshotter.h"
#include "store/store.h"

namespace {

using datalog::Engine;
using datalog::FactUpdate;
using datalog::IncrementalView;
using datalog::Instance;
using datalog::Program;
using datalog::StatusCode;
namespace server = datalog::server;
namespace store = datalog::store;

constexpr int kChain = 64;
constexpr int kCommits = 192;

const char kProgram[] =
    "t(X, Y) :- e1(X, Y).\n"
    "t(X, Z) :- t(X, Y), e1(Y, Z).\n";

std::string ChainFacts() {
  std::string facts;
  for (int i = 0; i < kChain; ++i) {
    facts += "e1(" + std::to_string(i) + ", " + std::to_string(i + 1) +
             ").\n";
  }
  return facts;
}

/// The i-th committed batch: toggle one private off-chain edge so every
/// commit changes the model and none is a no-op. Both endpoints lie past
/// the chain's last node (kChain), so the edge stays private — a 2-fact
/// delta — at any chain length.
std::string Tokens(int i) {
  return std::string(i % 2 == 0 ? "+" : "-") + "e1(" +
         std::to_string(kChain + 1) + "," + std::to_string(kChain + 2) + ")";
}

/// A throwaway store directory, cleaned up on destruction.
class ScratchDir {
 public:
  ScratchDir() {
    const char* base = ::getenv("TMPDIR");
    std::string templ = std::string(base != nullptr ? base : "/tmp") +
                        "/unchained-walbench.XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    char* made = ::mkdtemp(buf.data());
    if (made != nullptr) dir_ = made;
  }
  ~ScratchDir() {
    if (dir_.empty()) return;
    ::unlink(store::WalPath(dir_).c_str());
    ::unlink(store::SnapshotPath(dir_).c_str());
    ::unlink(store::SnapshotTmpPath(dir_).c_str());
    ::rmdir(dir_.c_str());
  }
  bool ok() const { return !dir_.empty(); }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

struct Row {
  std::string name;
  int sync_every = 1;
  int snapshot_every = 0;
  bool durable = false;
  double wall_ms = 0;
  double max_commit_ms = 0;
  int64_t commits = 0;
  int64_t wal_bytes = 0;
  int64_t syncs = 0;
  int64_t snapshots = 0;
  bool agree = false;

  double commit_qps() const {
    return wall_ms > 0 ? static_cast<double>(commits) * 1000.0 / wall_ms
                       : 0;
  }
  double avg_commit_ms() const {
    return commits > 0 ? wall_ms / static_cast<double>(commits) : 0;
  }
};

/// Drives `kCommits` toggle commits through a scheduler-driven server
/// (durable when `dir` is non-empty) and fills the timing columns.
/// Returns false on any refused commit.
bool RunCommits(const std::string& dir, Row* row) {
  Engine engine;
  datalog::Result<Program> program = engine.Parse(kProgram);
  if (!program.ok()) return false;
  Instance base(&engine.catalog());
  if (!engine.AddFacts(ChainFacts(), &base).ok()) return false;

  server::ServerOptions options;
  options.durability.dir = dir;
  options.durability.sync_every = row->sync_every;
  options.durability.snapshot_every = row->snapshot_every;
  auto srv = server::Server::Create(*program, &engine.catalog(),
                                    &engine.symbols(), base, options);
  if (!srv.ok()) {
    std::fprintf(stderr, "Create failed: %s\n",
                 srv.status().message().c_str());
    return false;
  }

  datalog::bench::Timer wall;
  for (int i = 0; i < kCommits; ++i) {
    datalog::bench::Timer commit;
    datalog::Result<int64_t> ticket = (*srv)->SubmitUpdate(Tokens(i));
    if (!ticket.ok() || !(*srv)->ApplyOneQueued()) return false;
    server::Response response;
    if (!(*srv)->UpdateOutcome(*ticket, &response) ||
        response.status != StatusCode::kOk) {
      return false;
    }
    const double ms = commit.ElapsedMs();
    if (ms > row->max_commit_ms) row->max_commit_ms = ms;
  }
  if (!(*srv)->FlushStore().ok()) return false;
  row->wall_ms = wall.ElapsedMs();
  row->commits = (*srv)->epoch();
  if ((*srv)->store() != nullptr) {
    row->wal_bytes = (*srv)->store()->wal().size();
    row->syncs = (*srv)->store()->wal().syncs();
    row->snapshots = (*srv)->store()->snapshots();
  }
  return row->commits == kCommits;
}

/// The recovery self-check: a fresh engine recovers `dir` and serves
/// bytes identical to a from-scratch sequential replay of all batches.
bool RecoverAgrees(const std::string& dir, const Row& row) {
  Engine engine;
  datalog::Result<Program> program = engine.Parse(kProgram);
  if (!program.ok()) return false;
  Instance base(&engine.catalog());
  if (!engine.AddFacts(ChainFacts(), &base).ok()) return false;

  server::ServerOptions options;
  options.durability.dir = dir;
  options.durability.sync_every = row.sync_every;
  options.durability.snapshot_every = row.snapshot_every;
  auto srv = server::Server::Create(*program, &engine.catalog(),
                                    &engine.symbols(), base, options);
  if (!srv.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 srv.status().message().c_str());
    return false;
  }
  if (!(*srv)->recovery().ran || (*srv)->epoch() != kCommits) return false;

  server::Response snapshot = (*srv)->ServeQuery(server::Request{
      server::Request::Kind::kSnapshotQuery, "", 0, nullptr});
  if (snapshot.status != StatusCode::kOk) return false;

  Instance replay_base(&engine.catalog());
  if (!engine.AddFacts(ChainFacts(), &replay_base).ok()) return false;
  auto view =
      IncrementalView::Create(*program, engine.catalog(), replay_base);
  if (!view.ok()) return false;
  for (int i = 0; i < kCommits; ++i) {
    std::vector<FactUpdate> batch;
    if (!server::ParseUpdateTokens(Tokens(i), engine.catalog(),
                                   &engine.symbols(), &batch)) {
      return false;
    }
    if (!(*view)->ApplyBatch(batch).ok()) return false;
  }
  return snapshot.body == (*view)->model().SerializeSnapshot();
}

}  // namespace

int main(int argc, char** argv) {
  datalog::bench::ObsArgs obs(argc, argv);
  datalog::bench::Header(
      "WAL commit throughput vs fsync policy (TC chain, n=64)");
  const std::string json_path =
      datalog::bench::JsonPathFromArgs(argc, argv);

  std::printf("  %d toggle commits per scenario, clean shutdown, then a "
              "fresh-engine recovery\n\n",
              kCommits);
  std::printf("  %-18s %9s %10s %8s %8s %10s %6s %5s %6s\n", "scenario",
              "wall(ms)", "commit_qps", "avg(ms)", "max(ms)", "wal_bytes",
              "syncs", "snaps", "agree");
  datalog::bench::Rule();

  struct Scenario {
    const char* name;
    bool durable;
    int sync_every;
    int snapshot_every;
  };
  const Scenario scenarios[] = {
      {"memory", false, 0, 0},
      {"sync=1", true, 1, 0},
      {"sync=1 snap=32", true, 1, 32},
      {"sync=8", true, 8, 0},
      {"sync=0", true, 0, 0},
  };

  std::vector<Row> rows;
  bool ok = true;
  for (const Scenario& scenario : scenarios) {
    Row row;
    row.name = scenario.name;
    row.durable = scenario.durable;
    row.sync_every = scenario.sync_every;
    row.snapshot_every = scenario.snapshot_every;

    if (scenario.durable) {
      ScratchDir dir;
      if (!dir.ok() || !RunCommits(dir.path(), &row)) {
        ok = false;
      } else {
        row.agree = RecoverAgrees(dir.path(), row);
      }
    } else {
      // The in-memory baseline has no directory to recover; it "agrees"
      // by finishing all commits.
      row.agree = RunCommits("", &row);
    }
    ok = ok && row.agree;

    std::printf("  %-18s %9.1f %10.0f %8.3f %8.3f %10lld %6lld %5lld %6s\n",
                row.name.c_str(), row.wall_ms, row.commit_qps(),
                row.avg_commit_ms(), row.max_commit_ms,
                static_cast<long long>(row.wal_bytes),
                static_cast<long long>(row.syncs),
                static_cast<long long>(row.snapshots),
                row.agree ? "yes" : "NO");
    rows.push_back(row);
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write --json file %s\n",
                   json_path.c_str());
      return 1;
    }
    out << "[\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      char buf[320];
      std::snprintf(
          buf, sizeof(buf),
          "  {\"name\": \"%s\", \"durable\": %s, \"sync_every\": %d, "
          "\"snapshot_every\": %d, \"ms\": %.3f, \"commits\": %lld, "
          "\"commit_qps\": %.1f, \"avg_commit_ms\": %.4f, "
          "\"max_commit_ms\": %.4f, \"wal_bytes\": %lld, \"syncs\": %lld, "
          "\"snapshots\": %lld, \"agree\": %s}",
          r.name.c_str(), r.durable ? "true" : "false", r.sync_every,
          r.snapshot_every, r.wall_ms, static_cast<long long>(r.commits),
          r.commit_qps(), r.avg_commit_ms(), r.max_commit_ms,
          static_cast<long long>(r.wal_bytes),
          static_cast<long long>(r.syncs),
          static_cast<long long>(r.snapshots), r.agree ? "true" : "false");
      out << buf << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

  std::printf(
      "\nSelf-check: fresh-engine recovery byte-identical to the "
      "sequential replay in every durable scenario: %s\n",
      ok ? "yes" : "NO");
  return ok ? 0 : 1;
}

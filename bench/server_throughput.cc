// Concurrent Datalog server throughput (docs/server.md): mixed
// reader/writer client load against the threaded Server over a
// transitive-closure view of a 128-edge chain, swept across reader-pool
// sizes. Writers toggle private edges through the wire-format kUpdate
// path (each commit publishes a fresh MVCC snapshot); readers alternate
// full-snapshot and per-predicate queries pinned to whatever epoch is
// current.
//
// Every row self-checks byte-identity: after the load drains, the final
// served snapshot must equal a *sequential* IncrementalView replay of the
// commits the writers were acked, in epoch order, against the same base
// — the torn-read check of oracle pair #10, applied to the real threaded
// path. Any divergence, or an acked epoch sequence other than 1..n, fails
// the binary.
//
// On a single-core host the thread sweep reports scheduling overhead, not
// parallel speedup; the interesting numbers are QPS under contention and
// the zero-divergence check.
//
// Usage: server_throughput [--json=<path>]

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "eval/incremental.h"
#include "server/scheduler.h"
#include "server/server.h"
#include "server/session.h"
#include "server/wire.h"

namespace {

using datalog::Engine;
using datalog::IncrementalView;
using datalog::Instance;
using datalog::Program;
using datalog::StatusCode;
namespace server = datalog::server;

constexpr int kChain = 128;
constexpr int kWriters = 2;
constexpr int kUpdatesPerWriter = 40;
constexpr int kReaders = 4;
constexpr int kQueriesPerReader = 150;

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

struct Row {
  std::string name;
  int num_readers = 0;
  double wall_ms = 0;
  int64_t reads = 0;
  int64_t writes = 0;
  int64_t final_epoch = 0;
  bool agree = false;

  double read_qps() const {
    return wall_ms > 0 ? static_cast<double>(reads) * 1000.0 / wall_ms : 0;
  }
  double write_qps() const {
    return wall_ms > 0 ? static_cast<double>(writes) * 1000.0 / wall_ms : 0;
  }
};

/// One mixed-load scenario at `num_readers` reader threads. Returns false
/// on any failed request or a failed self-check.
bool RunScenario(int num_readers, Row* row) {
  Engine engine;
  datalog::Result<Program> program = engine.Parse(kProgram);
  if (!program.ok()) return false;
  const std::string facts = ChainFacts();
  Instance base(&engine.catalog());
  if (!engine.AddFacts(facts, &base).ok()) return false;

  server::ServerOptions options;
  options.num_readers = num_readers;
  auto srv = server::Server::Create(*program, &engine.catalog(),
                                    &engine.symbols(), base, options);
  if (!srv.ok()) {
    std::fprintf(stderr, "Create failed: %s\n",
                 srv.status().message().c_str());
    return false;
  }
  (*srv)->Start();

  std::atomic<int> failed{0};
  std::atomic<int64_t> reads{0};
  std::atomic<int64_t> writes{0};
  datalog::bench::Timer timer;

  // Each writer records its own acks; merged after the join.
  std::vector<std::vector<server::AckedCommit>> acked(kWriters);
  std::vector<std::thread> clients;
  for (int w = 0; w < kWriters; ++w) {
    clients.emplace_back([&, w] {
      // Toggle a private off-chain edge: insert, retract, insert, ... —
      // every request commits (no no-op batches), the model stays
      // bounded, and each commit publishes a snapshot.
      const std::string edge = "e1(" + std::to_string(1000 + w) + "," +
                               std::to_string(2000 + w) + ")";
      for (int i = 0; i < kUpdatesPerWriter; ++i) {
        const std::string tokens = (i % 2 == 0 ? "+" : "-") + edge;
        server::Response r = (*srv)->Call(server::Request{
            server::Request::Kind::kUpdate, tokens, 0, nullptr});
        if (r.status == StatusCode::kOk) {
          acked[static_cast<size_t>(w)].push_back({r.epoch, tokens});
        } else {
          failed.fetch_add(1);
        }
        writes.fetch_add(1);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    clients.emplace_back([&] {
      int64_t last_epoch = -1;
      for (int i = 0; i < kQueriesPerReader; ++i) {
        server::Request request{i % 2 == 0
                                    ? server::Request::Kind::kSnapshotQuery
                                    : server::Request::Kind::kQuery,
                                i % 2 == 0 ? "" : "t", 0, nullptr};
        server::Response response = (*srv)->Call(request);
        if (response.status != StatusCode::kOk ||
            response.epoch < last_epoch) {
          failed.fetch_add(1);
        }
        last_epoch = response.epoch;
        reads.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  row->wall_ms = timer.ElapsedMs();
  (*srv)->Stop();

  row->num_readers = num_readers;
  row->name = "mixed/readers=" + std::to_string(num_readers);
  row->reads = reads.load();
  row->writes = writes.load();
  row->final_epoch = (*srv)->epoch();

  // Byte-identity self-check: final served snapshot == sequential replay
  // of the acked commits, whose epochs must be exactly 1..final_epoch.
  std::vector<server::AckedCommit> commits;
  for (std::vector<server::AckedCommit>& mine : acked) {
    commits.insert(commits.end(), mine.begin(), mine.end());
  }
  std::sort(commits.begin(), commits.end(),
            [](const server::AckedCommit& a, const server::AckedCommit& b) {
              return a.epoch < b.epoch;
            });
  server::Response final_snapshot = (*srv)->ServeQuery(server::Request{
      server::Request::Kind::kSnapshotQuery, "", 0, nullptr});
  Instance replay_base(&engine.catalog());
  if (!engine.AddFacts(facts, &replay_base).ok()) return false;
  auto view =
      IncrementalView::Create(*program, engine.catalog(), replay_base);
  if (!view.ok()) return false;
  bool contiguous = row->final_epoch == static_cast<int64_t>(commits.size());
  for (size_t i = 0; i < commits.size(); ++i) {
    contiguous = contiguous && commits[i].epoch == static_cast<int64_t>(i) + 1;
    std::vector<datalog::FactUpdate> batch;
    if (!server::ParseUpdateTokens(commits[i].update_tokens,
                                   engine.catalog(), &engine.symbols(),
                                   &batch) ||
        !(*view)->ApplyBatch(batch).ok()) {
      return false;
    }
  }
  row->agree = contiguous && final_snapshot.status == StatusCode::kOk &&
               final_snapshot.body == (*view)->model().SerializeSnapshot();

  // Reclamation must have quiesced: one live snapshot, no pins.
  const server::SnapshotRegistry& registry = (*srv)->snapshots();
  const server::SnapshotRegistry::Counters c = registry.counters();
  row->agree = row->agree && registry.pinned() == 0 &&
               registry.live() == 1 && c.pins == c.unpins &&
               c.reclaimed == c.retired && c.retired == c.published - 1;
  return failed.load() == 0;
}

}  // namespace

int main(int argc, char** argv) {
  datalog::bench::ObsArgs obs(argc, argv);
  datalog::bench::Header(
      "Concurrent server throughput (TC chain, n=128, MVCC snapshots)");
  const std::string json_path =
      datalog::bench::JsonPathFromArgs(argc, argv);

  std::printf("  %d writer clients x %d updates, %d reader clients x %d "
              "queries\n\n",
              kWriters, kUpdatesPerWriter, kReaders, kQueriesPerReader);
  std::printf("  %-20s %10s %10s %10s %8s %6s\n", "scenario", "wall(ms)",
              "read_qps", "write_qps", "epochs", "agree");
  datalog::bench::Rule();

  std::vector<Row> rows;
  bool ok = true;
  for (int num_readers : {1, 2, 8}) {
    Row row;
    if (!RunScenario(num_readers, &row)) ok = false;
    ok = ok && row.agree;
    std::printf("  %-20s %10.1f %10.0f %10.0f %8lld %6s\n",
                row.name.c_str(), row.wall_ms, row.read_qps(),
                row.write_qps(), static_cast<long long>(row.final_epoch),
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
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "  {\"name\": \"%s\", \"readers\": %d, \"ms\": %.3f, "
                    "\"reads\": %lld, \"writes\": %lld, "
                    "\"read_qps\": %.1f, \"write_qps\": %.1f, "
                    "\"epochs\": %lld, \"agree\": %s}",
                    r.name.c_str(), r.num_readers, r.wall_ms,
                    static_cast<long long>(r.reads),
                    static_cast<long long>(r.writes), r.read_qps(),
                    r.write_qps(), static_cast<long long>(r.final_epoch),
                    r.agree ? "true" : "false");
      out << buf << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

  std::printf(
      "\nSelf-check: served snapshot byte-identical to the sequential "
      "commit-log replay in every scenario: %s\n",
      ok ? "yes" : "NO");
  return ok ? 0 : 1;
}

// The three server workloads. All serve transitive closure t over the
// chain e1(0,1) ... e1(n-1,n) from a durable Server (fdatasync on every
// commit, a snapshot every kSnapshotEvery commits) behind the localhost
// socket listener; the clients are threads of this process, each with
// its own connection. read_mixed runs on two CPUs (NarrowCpus).
//
// Every batch flips the model between two states, so the state at epoch
// e is state e % 2, and the expected bytes of both states are computed
// once, by BFS over the edge set, before the server starts. The checks
// use only what a client sees (its acks, epochs and response bytes) and
// the publish hook; they never read the server's commit log.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "checks.h"
#include "core/engine.h"
#include "dist/transport.h"
#include "eval/incremental.h"
#include "obs/trace.h"
#include "server/server.h"
#include "server/session.h"
#include "server/snapshot.h"
#include "server/wire.h"
#include "store/snapshotter.h"
#include "store/store.h"
#include "store/wal.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace server = datalog::server;
namespace store = datalog::store;
using datalog::Engine;
using datalog::FactUpdate;
using datalog::IncrementalView;
using datalog::Instance;
using datalog::PredId;
using datalog::Program;
using datalog::StatusCode;
using server::Request;
using server::Response;

constexpr char kProgram[] =
    "t(X, Y) :- e1(X, Y).\n"
    "t(X, Z) :- t(X, Y), e1(Y, Z).\n";

/// Chain length: about 33k facts in t. commit_dred serves two copies of
/// a shorter chain (about 37k facts in all), because its per-commit
/// over-deletion grows like n^2 and a run must hold a few hundred commits.
constexpr int kChain = 256;
constexpr int kDredChain = 192;
/// Snapshot compaction cadence. Commit loops make half a round of
/// untimed warm-up commits (the first commits of a fresh server run
/// measurably cheaper than the steady state), then whole rounds, so every
/// run ends half a round past its last snapshot and leaves recovery the
/// same WAL tail to replay.
constexpr int kSnapshotEvery = 32;
constexpr int kWarmupCommits = kSnapshotEvery / 2;
/// The publish hook compares the full model bytes every this many epochs.
constexpr int64_t kSampleEvery = 8;
/// Server::Create repetitions behind setup_s, half before the load and
/// half after it: about 2 s of work, sampling the host at both ends of the
/// run, since a single Create moves by up to half within a second on a
/// shared host. Restarts behind recover_s.
constexpr int kSetupReps = 26;
constexpr int kRecoverReps = 5;
/// read_mixed: the writer's fixed commit rate and the reader sessions.
/// One reader session: with two, two busy threads of another process cut
/// reader throughput by a quarter and raised the t read p90 by a third,
/// against a tenth and no change with one reader.
constexpr int kWriterRate = 10;
constexpr int kReaders = 1;
/// Server reader threads: one for the reader session, one for the
/// writer's read-your-write.
constexpr int kServerReaders = 2;
/// CPUs read_mixed runs on. A sub-millisecond request hands off between
/// four threads (client, connection, server reader, connection); on all
/// four CPUs of a shared VM those handoffs often land on an idle CPU, and
/// waking it cost what the host's load made it: the reader's requests/s
/// in one-second windows of one run swung between 1.5k and 5k. On two
/// CPUs, which the reader and writer keep busy, windows held within 15%.
constexpr int kReadMixedCpus = 2;

enum class Kind { kOffchain, kDred, kReadMixed };

bool KindOf(const std::string& name, Kind* kind) {
  if (name == "commit_offchain") {
    *kind = Kind::kOffchain;
  } else if (name == "commit_dred") {
    *kind = Kind::kDred;
  } else if (name == "read_mixed") {
    *kind = Kind::kReadMixed;
  } else {
    return false;
  }
  return true;
}

std::string Atom(const Edge& e) {
  return "e1(" + std::to_string(e.first) + "," + std::to_string(e.second) +
         ")";
}

/// Program, base facts, the two alternating batches and the expected
/// bytes of both model states, all owned by one Engine (its catalog and
/// symbols must outlive any server built from it).
class Fixture {
 public:
  /// Builds the inputs of `kind` for `seed`; "" or the reason the
  /// derived edges break the workload's preconditions.
  std::string Build(Kind kind, uint64_t seed) {
    const int n = kind == Kind::kDred ? kDredChain : kChain;
    EdgeSet chain;
    for (int i = 0; i < n; ++i) chain.insert({i, i + 1});
    if (kind == Kind::kDred) {
      // Two disjoint copies of the chain, each with bypasses e1(i, i+2)
      // for even i, which keep every node past a cut chain edge
      // reachable: a retraction over-deletes about n^2/4 t facts and
      // rederives nearly all of them. The swapped edges sit at the same
      // place in the two copies, so both batches cost the same. The seed
      // sets the gap between the copies' node numbers, which changes the
      // spelling of the inputs but not their shape.
      const int base = n + 1 + static_cast<int>(seed % 16);
      EdgeSet graph;
      for (int copy : {0, base}) {
        for (int i = 0; i < n; ++i) graph.insert({copy + i, copy + i + 1});
        for (int i = 0; i + 2 <= n; i += 2) {
          graph.insert({copy + i, copy + i + 2});
        }
      }
      const Edge a{n / 2, n / 2 + 1};
      const Edge b{base + n / 2, base + n / 2 + 1};
      if (a.first % 2 != 0 || graph.count(a) == 0 || graph.count(b) == 0 ||
          graph.count({a.first, a.first + 2}) == 0 ||
          graph.count({b.first, b.first + 2}) == 0 || base <= n) {
        return "dred edges are not bypassed mid-chain edges of two copies";
      }
      state_edges_[0] = graph;
      state_edges_[0].erase(b);
      state_edges_[1] = graph;
      state_edges_[1].erase(a);
      batch_[1] = "-" + Atom(a) + " +" + Atom(b);
      batch_[0] = "-" + Atom(b) + " +" + Atom(a);
    } else {
      // The private edge lies past the chain's last node, so toggling it
      // changes e1 and t by one fact each whatever n is.
      const int from = n + 2 + 2 * static_cast<int>(seed % 16);
      const Edge toggle{from, from + 1};
      const std::set<int> chain_nodes = Nodes(chain);
      if (chain_nodes.count(toggle.first) != 0 ||
          chain_nodes.count(toggle.second) != 0 || chain.count(toggle) != 0) {
        return "toggle edge " + Atom(toggle) + " touches the chain";
      }
      state_edges_[0] = chain;
      state_edges_[1] = chain;
      state_edges_[1].insert(toggle);
      batch_[1] = "+" + Atom(toggle);
      batch_[0] = "-" + Atom(toggle);
    }

    auto program = engine_.Parse(kProgram);
    if (!program.ok()) return "parse: " + program.status().message();
    program_ = std::move(*program);
    std::string facts;
    for (const Edge& e : state_edges_[0]) facts += Atom(e) + ".\n";
    base_ = std::make_unique<Instance>(&engine_.catalog());
    auto st = engine_.AddFacts(facts, base_.get());
    if (!st.ok()) return "facts: " + st.message();
    e1_ = engine_.catalog().Find("e1");
    t_ = engine_.catalog().Find("t");
    for (int s = 0; s < 2; ++s) {
      Relations model;
      model[static_cast<uint32_t>(e1_)] = ToRows(state_edges_[s]);
      model[static_cast<uint32_t>(t_)] = ToRows(Closure(state_edges_[s]));
      const std::map<uint32_t, uint32_t> arity{
          {static_cast<uint32_t>(e1_), 2}, {static_cast<uint32_t>(t_), 2}};
      full_[s] = EncodeSnapshot(model, arity);
      Relations e1_only{{static_cast<uint32_t>(e1_),
                       model[static_cast<uint32_t>(e1_)]}};
      Relations t_only{{static_cast<uint32_t>(t_),
                      model[static_cast<uint32_t>(t_)]}};
      e1_bytes_[s] = EncodeSnapshot(e1_only, arity);
      t_bytes_[s] = EncodeSnapshot(t_only, arity);
    }
    return "";
  }

  Engine& engine() { return engine_; }
  const Program& program() const { return program_; }
  const Instance& base() const { return *base_; }
  PredId t() const { return t_; }
  /// The batch that creates epoch `epoch` (>= 1).
  const std::string& batch(int64_t epoch) const { return batch_[epoch % 2]; }
  const std::string& full(int64_t epoch) const { return full_[epoch % 2]; }
  const std::string& e1_bytes(int64_t epoch) const {
    return e1_bytes_[epoch % 2];
  }
  const std::string& t_bytes(int64_t epoch) const {
    return t_bytes_[epoch % 2];
  }

 private:
  /// Interns the nodes as it goes, so the toggle edge's nodes get their
  /// ids here, before the server parses the first batch that names them.
  Rows ToRows(const EdgeSet& edges) {
    Rows rows;
    for (const Edge& e : edges) {
      rows.push_back({static_cast<uint32_t>(engine_.symbols().Intern(
                          std::to_string(e.first))),
                      static_cast<uint32_t>(engine_.symbols().Intern(
                          std::to_string(e.second)))});
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  Engine engine_;
  Program program_;
  std::unique_ptr<Instance> base_;
  PredId e1_ = -1;
  PredId t_ = -1;
  EdgeSet state_edges_[2];
  std::string batch_[2];
  std::string full_[2];
  std::string e1_bytes_[2];
  std::string t_bytes_[2];
};

/// A fresh directory under the run's work directory.
std::string FreshDir(const Args& args, const std::string& name) {
  const std::string dir = args.workdir + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

server::ServerOptions Options(const std::string& dir) {
  server::ServerOptions options;
  options.num_readers = kServerReaders;
  options.durability.dir = dir;
  options.durability.sync_every = 1;
  options.durability.snapshot_every = kSnapshotEvery;
  return options;
}

/// A started server with its accept loop on an ephemeral localhost port.
class Running {
 public:
  Running(std::unique_ptr<server::Server> srv, std::string* error)
      : srv_(std::move(srv)) {
    srv_->Start();
    auto listener = datalog::SocketListener::Listen(0);
    if (!listener.ok()) {
      *error = "listen: " + listener.status().message();
      return;
    }
    listener_ = std::move(*listener);
    accept_ = std::thread([this] { srv_->ServeListener(listener_.get()); });
  }
  ~Running() { Stop(); }
  Running(const Running&) = delete;
  Running& operator=(const Running&) = delete;

  server::Server* srv() { return srv_.get(); }
  int port() const { return listener_ ? listener_->port() : -1; }

  /// Stops accepting, stops the server's threads and destroys it (which
  /// flushes the store).
  void Stop() {
    if (listener_) listener_->Close();
    if (accept_.joinable()) accept_.join();
    srv_.reset();
  }

 private:
  std::unique_ptr<server::Server> srv_;
  std::unique_ptr<datalog::SocketListener> listener_;
  std::thread accept_;
};

/// One client session over its own socket connection.
class Client {
 public:
  bool Connect(int port) {
    auto channel = datalog::SocketConnect(port);
    if (!channel.ok()) return false;
    channel_ = std::move(*channel);
    return true;
  }
  ~Client() {
    if (channel_) {
      server::WriteFrame(channel_.get(),
                         server::EncodeRequest(Request{
                             Request::Kind::kClose, "", 0, nullptr}));
      channel_->Close();
    }
  }
  /// Sends `request` and waits for the response; false if the
  /// connection broke. `bytes` receives the response frame's size.
  bool Call(Request::Kind kind, const std::string& text, Response* response,
            size_t* bytes = nullptr) {
    if (!server::WriteFrame(channel_.get(), server::EncodeRequest(Request{
                                                kind, text, 0, nullptr}))) {
      return false;
    }
    std::string payload;
    if (!server::ReadFrame(channel_.get(), &payload)) return false;
    if (bytes != nullptr) *bytes = payload.size();
    return server::DecodeResponse(payload, response);
  }

 private:
  std::unique_ptr<datalog::ByteChannel> channel_;
};

/// What the publish hook saw, written on the server's writer thread.
struct PublishLog {
  std::mutex mu;
  int64_t last_epoch = 0;
  bool consecutive = true;
  int64_t sampled = 0;
  int64_t sample_mismatches = 0;
};

server::Server::PublishHook HookFor(const Fixture* fixture, PublishLog* log) {
  return [fixture, log](int64_t epoch, const std::string& bytes) {
    std::lock_guard<std::mutex> lock(log->mu);
    if (epoch != log->last_epoch + 1) log->consecutive = false;
    log->last_epoch = epoch;
    if (epoch % kSampleEvery == 0) {
      ++log->sampled;
      if (bytes != fixture->full(epoch)) ++log->sample_mismatches;
    }
  };
}

/// Times `reps` Server::Create calls, each on the emptied store directory
/// `name` of the work directory, and returns the last server.
std::unique_ptr<server::Server> CreateTimed(const Args& args,
                                           Fixture* fixture,
                                           const std::string& name, int reps,
                                           std::vector<double>* setup_s,
                                           Outcome* out) {
  std::unique_ptr<server::Server> kept;
  for (int rep = 0; rep < reps; ++rep) {
    kept.reset();
    const std::string dir = FreshDir(args, name);
    const auto start = Clock::now();
    auto srv = server::Server::Create(
        fixture->program(), &fixture->engine().catalog(),
        &fixture->engine().symbols(), fixture->base(), Options(dir));
    setup_s->push_back(MsSince(start) / 1000.0);
    if (!srv.ok()) {
      out->Fail("Server::Create: " + srv.status().message());
      return nullptr;
    }
    kept = std::move(*srv);
    out->Check(kept->epoch() == 0, "a fresh store must start at epoch 0");
  }
  return kept;
}

/// After the clients are done: no pin is held and every superseded
/// snapshot was reclaimed.
void CheckQuiescent(server::Server* srv, Outcome* out) {
  const server::SnapshotRegistry& reg = srv->snapshots();
  const auto c = reg.counters();
  out->Check(reg.pinned() == 0 && c.pins == c.unpins,
             "pins did not drain at quiescence");
  out->Check(reg.live() == 1 && c.retired == c.published - 1 &&
                 c.reclaimed == c.retired,
             "retired snapshots were not all reclaimed");
}

/// Restarts a fresh server (its own Engine, as a new process would) on
/// `dir`, checks that it serves the bytes of `acked_epoch`, and returns
/// the seconds each of `reps` restarts took.
std::vector<double> Restart(const Args& args, Kind kind,
                            const std::string& dir, int64_t acked_epoch,
                            int reps, Outcome* out) {
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    Fixture fixture;
    const std::string error = fixture.Build(kind, args.seed);
    if (!error.empty()) {
      out->Fail(error);
      return seconds;
    }
    const auto start = Clock::now();
    auto srv = server::Server::Create(
        fixture.program(), &fixture.engine().catalog(),
        &fixture.engine().symbols(), fixture.base(), Options(dir));
    seconds.push_back(MsSince(start) / 1000.0);
    if (!srv.ok()) {
      out->Fail("recovery: " + srv.status().message());
      return seconds;
    }
    if (rep > 0) continue;
    out->Check((*srv)->recovery().ran && (*srv)->epoch() == acked_epoch,
               "recovered epoch differs from the last acked epoch");
    const Response snap = (*srv)->ServeQuery(
        Request{Request::Kind::kSnapshotQuery, "", 0, nullptr});
    out->Check(snap.status == StatusCode::kOk &&
                   snap.body == fixture.full(acked_epoch),
               "recovered server does not serve the acked state");
  }
  return seconds;
}

/// Closed-loop commits on one write-only session: kWarmupCommits, then
/// whole rounds of kSnapshotEvery commits until `seconds` have passed.
/// Returns the last acked epoch.
int64_t CommitLoop(const Args& args, const Fixture& fixture, int port,
                   std::vector<double>* latency_ms, double* wall_s,
                   Outcome* out) {
  Client client;
  if (!client.Connect(port)) {
    out->Fail("connect failed");
    return 0;
  }
  int64_t epoch = 0;
  auto commit = [&](bool timed) {
    const int64_t next = epoch + 1;
    Response response;
    const auto sent = Clock::now();
    const bool ok =
        client.Call(Request::Kind::kUpdate, fixture.batch(next), &response);
    if (timed) latency_ms->push_back(MsSince(sent));
    ++out->attempted;
    if (!ok || response.status != StatusCode::kOk) {
      ++out->failed;
      return;
    }
    out->Check(response.epoch == next, "ack epochs are not consecutive");
    epoch = response.epoch;
  };
  for (int i = 0; i < kWarmupCommits; ++i) commit(false);
  const auto start = Clock::now();
  while (MsSince(start) < args.seconds * 1000.0) {
    for (int i = 0; i < kSnapshotEvery; ++i) commit(true);
  }
  *wall_s = MsSince(start) / 1000.0;

  Response snap;
  const bool ok = client.Call(Request::Kind::kSnapshotQuery, "", &snap);
  ++out->attempted;
  if (!ok || snap.status != StatusCode::kOk) {
    ++out->failed;
  } else {
    out->Check(snap.epoch == epoch, "final snapshot is not the last ack");
    out->Check(snap.body == fixture.full(epoch),
               "final snapshot differs from the BFS closure");
  }
  return epoch;
}

/// The readers' kQuery t and kQuery e1 are two cost modes (t is about 99%
/// of the model's bytes and takes over twice as long), so their latencies
/// are kept apart: a median over the 1:1 mix would fall between the two
/// modes. The windowed p50 and p90 are over t reads.
struct ReadStats {
  std::vector<double> t_ms;         // reader kQuery t
  std::vector<double> e1_ms;        // reader kQuery e1
  /// Per window: reader t read latencies, reader requests.
  std::vector<double> window_t_ms[kWindows];
  int64_t window_requests[kWindows] = {};
  std::vector<double> snapshot_ms;  // reader kSnapshotQuery
  std::vector<double> fresh_ms;     // writer's read-your-write of t
  std::vector<double> commit_ms;    // writer, from the commit's due time
  double late_ms_max = 0;
  int64_t reader_requests = 0;
};

/// read_mixed: one open-loop writer at kWriterRate commits/s that reads
/// t right after each ack, and kReaders closed-loop reader session(s)
/// cycling through kQuery e1, kQuery t and kSnapshotQuery in a seeded
/// order. Returns the last acked epoch.
int64_t ReadMixedLoop(const Args& args, const Fixture& fixture, int port,
                      ReadStats* stats, Outcome* out) {
  std::mutex mu;  // guards out and stats across the client threads
  std::atomic<bool> writer_done{false};
  const int64_t commits = static_cast<int64_t>(args.seconds) * kWriterRate;
  const double window_ms = args.seconds * 1000.0 / kWindows;
  int64_t last_epoch = 0;
  const auto start = Clock::now();

  auto reader = [&](int id) {
    Client client;
    if (!client.Connect(port)) {
      std::lock_guard<std::mutex> lock(mu);
      out->Fail("reader connect failed");
      return;
    }
    uint64_t rng = args.seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(id);
    int order[3] = {0, 1, 2};
    int64_t seen_epoch = 0;
    std::vector<double> by_kind_ms[3];  // e1, t, snapshot
    std::vector<double> window_t_ms[kWindows];
    int64_t window_requests[kWindows] = {};
    int64_t requests = 0;
    int64_t failed = 0;
    std::string why;
    while (!writer_done.load()) {
      // A seeded shuffle of the three request kinds per cycle.
      for (int i = 2; i > 0; --i) {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        std::swap(order[i], order[(rng >> 33) % static_cast<uint64_t>(i + 1)]);
      }
      for (int k : order) {
        Response response;
        const auto sent = Clock::now();
        const bool ok =
            k == 2 ? client.Call(Request::Kind::kSnapshotQuery, "", &response)
                   : client.Call(Request::Kind::kQuery, k == 0 ? "e1" : "t",
                                 &response);
        const double ms = MsSince(sent);
        const auto window = static_cast<size_t>(MsSince(start) / window_ms);
        ++requests;
        if (!ok || response.status != StatusCode::kOk) {
          ++failed;
          continue;
        }
        by_kind_ms[k].push_back(ms);
        if (window < kWindows) {
          ++window_requests[window];
          if (k == 1) window_t_ms[window].push_back(ms);
        }
        if (response.epoch < seen_epoch && why.empty()) {
          why = "reader epochs are not monotone";
        }
        seen_epoch = std::max(seen_epoch, response.epoch);
        const std::string& expected =
            k == 0 ? fixture.e1_bytes(response.epoch)
                   : k == 1 ? fixture.t_bytes(response.epoch)
                            : fixture.full(response.epoch);
        if (response.body != expected && why.empty()) {
          why = "reader saw bytes that differ from the BFS closure at epoch " +
                std::to_string(response.epoch);
        }
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    out->attempted += requests;
    out->failed += failed;
    if (!why.empty()) out->Fail(why);
    auto append = [](std::vector<double>* to, const std::vector<double>& v) {
      to->insert(to->end(), v.begin(), v.end());
    };
    append(&stats->e1_ms, by_kind_ms[0]);
    append(&stats->t_ms, by_kind_ms[1]);
    append(&stats->snapshot_ms, by_kind_ms[2]);
    stats->reader_requests += requests;
    for (size_t w = 0; w < kWindows; ++w) {
      append(&stats->window_t_ms[w], window_t_ms[w]);
      stats->window_requests[w] += window_requests[w];
    }
  };

  std::vector<std::thread> readers;
  for (int id = 0; id < kReaders; ++id) readers.emplace_back(reader, id);

  Client writer;
  if (!writer.Connect(port)) {
    out->Fail("writer connect failed");
  } else {
    const auto period = std::chrono::microseconds(1000000 / kWriterRate);
    for (int64_t i = 1; i <= commits; ++i) {
      const auto due = start + period * (i - 1);
      std::this_thread::sleep_until(due);
      const double late = MsSince(due);
      Response ack;
      const bool ok =
          writer.Call(Request::Kind::kUpdate, fixture.batch(i), &ack);
      const double commit_ms = MsSince(due);
      Response fresh;
      const auto read_sent = Clock::now();
      const bool read_ok =
          ok && writer.Call(Request::Kind::kQuery, "t", &fresh);
      const double fresh_ms = MsSince(read_sent);
      std::lock_guard<std::mutex> lock(mu);
      out->attempted += 2;
      stats->late_ms_max = std::max(stats->late_ms_max, late);
      if (!ok || ack.status != StatusCode::kOk) {
        out->failed += 2;
        continue;
      }
      stats->commit_ms.push_back(commit_ms);
      out->Check(ack.epoch == i, "ack epochs are not consecutive");
      last_epoch = ack.epoch;
      if (!read_ok || fresh.status != StatusCode::kOk) {
        ++out->failed;
        continue;
      }
      stats->fresh_ms.push_back(fresh_ms);
      out->Check(fresh.epoch == ack.epoch,
                 "read-your-write did not see the acked epoch");
      out->Check(fresh.body == fixture.t_bytes(ack.epoch),
                 "read-your-write differs from the BFS closure");
    }
  }
  writer_done.store(true);
  for (std::thread& t : readers) t.join();
  return last_epoch;
}

/// Median duration, in ms, of the program's own spans named `name`.
double SpanMedianMs(const std::vector<datalog::obs::TraceEvent>& events,
                    const std::string& name, size_t* count) {
  std::vector<double> ms;
  for (const auto& e : events) {
    if (e.name != nullptr && name == e.name) {
      ms.push_back(static_cast<double>(e.dur_us) / 1000.0);
    }
  }
  *count = ms.size();
  return Median(ms);
}

}  // namespace

bool IsServerWorkload(const std::string& name) {
  Kind kind;
  return KindOf(name, &kind);
}

void RunServerWorkload(const Args& args, Outcome* out) {
  Kind kind = Kind::kOffchain;
  KindOf(args.workload, &kind);
  std::unique_ptr<NarrowCpus> cpus;
  if (kind == Kind::kReadMixed) {
    cpus = std::make_unique<NarrowCpus>(kReadMixedCpus);
  }
  Fixture fixture;
  const std::string error = fixture.Build(kind, args.seed);
  if (!error.empty()) {
    out->Fail(error);
    return;
  }
  const std::string dir = args.workdir + "/store";
  std::vector<double> setup_s;
  std::unique_ptr<server::Server> srv =
      CreateTimed(args, &fixture, "store", kSetupReps / 2, &setup_s, out);
  if (srv == nullptr) return;
  PublishLog published;
  srv->set_on_publish(HookFor(&fixture, &published));
  std::string listen_error;
  Running running(std::move(srv), &listen_error);
  if (!listen_error.empty()) {
    out->Fail(listen_error);
    return;
  }

  int64_t acked = 0;
  std::vector<double> commit_ms;
  double wall_s = 0;
  ReadStats reads;
  if (kind == Kind::kReadMixed) {
    acked = ReadMixedLoop(args, fixture, running.port(), &reads, out);
  } else {
    acked = CommitLoop(args, fixture, running.port(), &commit_ms, &wall_s,
                       out);
  }
  const double peak_rss_mb = PeakRssMb();
  CheckQuiescent(running.srv(), out);
  const int64_t syncs = running.srv()->store()->wal().syncs();
  const int64_t snapshots = running.srv()->store()->snapshots();
  running.Stop();
  {
    std::lock_guard<std::mutex> lock(published.mu);
    out->Check(published.consecutive && published.last_epoch == acked,
               "published epochs are not consecutive up to the last ack");
    out->Check(published.sampled > 0 && published.sample_mismatches == 0,
               "a sampled epoch's model differs from the BFS closure");
  }
  out->Check(syncs >= acked, "fewer fsyncs than commits");

  const std::vector<double> recover_s = Restart(
      args, kind, dir, acked, kind == Kind::kOffchain ? kRecoverReps : 1, out);
  CreateTimed(args, &fixture, "setup", kSetupReps - kSetupReps / 2, &setup_s,
              out);

  out->Info("commits acked " + std::to_string(acked) + ", fsyncs " +
            std::to_string(syncs) + ", snapshots cut " +
            std::to_string(snapshots) + ", epochs sampled by the hook " +
            std::to_string(published.sampled));
  out->Info("recover_s " + Num(Median(recover_s)) + " (median of " +
            std::to_string(recover_s.size()) + " restarts)");
  out->Info("setup_s over " + std::to_string(setup_s.size()) +
            " Server::Create: q1 " + Num(Quantile(setup_s, 0.25)) + ", q3 " +
            Num(Quantile(setup_s, 0.75)));
  out->e2e.push_back({"setup_s", Median(setup_s), "s"});
  if (kind == Kind::kReadMixed) {
    std::vector<double> p50;
    std::vector<double> p90;
    std::vector<double> qps;
    for (size_t w = 0; w < kWindows; ++w) {
      p50.push_back(Median(reads.window_t_ms[w]));
      p90.push_back(Quantile(reads.window_t_ms[w], 0.9));
      qps.push_back(static_cast<double>(reads.window_requests[w]) * kWindows /
                    args.seconds);
    }
    out->e2e.push_back({"p50_ms", Median(p50), "ms"});
    out->e2e.push_back({"tail_ms", Median(p90), "ms"});
    out->e2e.push_back({"ops_per_s", Median(qps), "1/s"});
    out->Info("reader t reads " + std::to_string(reads.t_ms.size()) +
              " (p50_ms, tail_ms and ops_per_s are medians over " +
              std::to_string(kWindows) +
              " windows of the window's t read p50, p90 and reader "
              "requests/s), e1 reads " +
              std::to_string(reads.e1_ms.size()) + ", snapshot reads " +
              std::to_string(reads.snapshot_ms.size()));
    out->Info("fresh_read_p50_ms " + Num(Median(reads.fresh_ms)) +
              ", e1_read_p50_ms " + Num(Median(reads.e1_ms)) +
              ", snapshot_p50_ms " + Num(Median(reads.snapshot_ms)));
    out->Info("writer commit p50 " + Num(Median(reads.commit_ms)) +
              " ms, p95 " + Num(Quantile(reads.commit_ms, 0.95)) +
              " ms (from each commit's due time); generator late by at "
              "most " +
              Num(reads.late_ms_max) + " ms");
  } else {
    out->e2e.push_back({"p50_ms", ChunkedQuantile(commit_ms, 0.5), "ms"});
    out->e2e.push_back({"tail_ms", ChunkedQuantile(commit_ms, 0.9), "ms"});
    out->e2e.push_back(
        {"ops_per_s", static_cast<double>(commit_ms.size()) / wall_s, "1/s"});
    out->Info("commit latencies " + std::to_string(commit_ms.size()) +
              " (p50_ms and tail_ms are medians over " +
              std::to_string(kWindows) +
              " consecutive chunks of the chunk's p50 and p90; over all: p50 " +
              Num(Median(commit_ms)) + ", p90 " +
              Num(Quantile(commit_ms, 0.9)) + ")");
  }
  out->e2e.push_back({"peak_rss_mb", peak_rss_mb, "MB"});

  if (!args.trace) return;
  const auto events = datalog::obs::Tracer::Get().Snapshot();
  for (const char* span :
       {"server.apply_batch", "server.wal_append", "server.publish",
        "server.compact", "server.query", "server.recover"}) {
    size_t count = 0;
    const double ms = SpanMedianMs(events, span, &count);
    out->Info(std::string("span ") + span + ": median " + Num(ms) +
              " ms over " + std::to_string(count));
  }
}

// ---------------------------------------------------------------------
// Layer probes: each module's public entry point timed from here, on the
// workload's own inputs (commit_offchain's for eval_family, whose traced
// run reports every layer metric too), except ApplyBatch, which always
// runs on commit_dred's inputs.

namespace {

template <typename F>
std::vector<double> TimeMs(int reps, F&& body) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    body(i);
    ms.push_back(MsSince(start));
  }
  return ms;
}

/// eval: IncrementalView::ApplyBatch with its Stats deltas on commit_dred's
/// inputs, so that every traced run measures one DRed over-deletion and
/// rederivation per batch; false if the view could not be built.
bool DredApplyProbe(const Args& args, Outcome* out) {
  // Single DRed applies spread widely, so take enough of them for the
  // median to settle.
  constexpr int kApplyReps = 32;
  Fixture fixture;
  const std::string error = fixture.Build(Kind::kDred, args.seed);
  if (!error.empty()) {
    out->Fail("probe: " + error);
    return false;
  }
  auto& catalog = fixture.engine().catalog();
  auto& symbols = fixture.engine().symbols();
  auto made =
      IncrementalView::Create(fixture.program(), catalog, fixture.base());
  if (!made.ok()) {
    out->Fail("probe: IncrementalView::Create failed");
    return false;
  }
  std::unique_ptr<IncrementalView> view = std::move(*made);
  std::vector<std::vector<FactUpdate>> batches(2);
  for (int64_t e = 1; e <= 2; ++e) {
    server::ParseUpdateTokens(fixture.batch(e), catalog, &symbols,
                              &batches[static_cast<size_t>(e % 2)]);
  }
  const IncrementalView::Stats before = view->stats();
  const auto apply_ms = TimeMs(kApplyReps, [&](int i) {
    (void)view->ApplyBatch(batches[static_cast<size_t>((i + 1) % 2)]);
  });
  const IncrementalView::Stats after = view->stats();
  const double per = static_cast<double>(kApplyReps);
  out->Layer("eval.apply_ms", Median(apply_ms), "ms");
  out->Layer("eval.overdeleted",
             static_cast<double>(after.overdeleted - before.overdeleted) / per,
             "count");
  out->Layer("eval.rederived",
             static_cast<double>(
                 (after.rederived_base + after.rederived_provenance +
                  after.rederived_query) -
                 (before.rederived_base + before.rederived_provenance +
                  before.rederived_query)) /
                 per,
             "count");
  out->Layer("eval.facts_added",
             static_cast<double>(after.facts_added - before.facts_added) / per,
             "count");
  return true;
}

}  // namespace

void ServerLayerProbes(const Args& args, Outcome* out) {
  Kind kind = Kind::kOffchain;
  KindOf(args.workload, &kind);
  Fixture fixture;
  if (!fixture.Build(kind, args.seed).empty()) return;
  auto& catalog = fixture.engine().catalog();
  auto& symbols = fixture.engine().symbols();

  // server/session: ParseUpdateTokens.
  std::vector<FactUpdate> parsed;
  const auto parse_ms = TimeMs(2000, [&](int i) {
    parsed.clear();
    server::ParseUpdateTokens(fixture.batch(i + 1), catalog, &symbols,
                              &parsed);
  });
  out->Layer("server.parse_us", Median(parse_ms) * 1000.0, "us");

  // eval: IncrementalView::Create (ApplyBatch: DredApplyProbe).
  std::unique_ptr<IncrementalView> view;
  const auto create_ms = TimeMs(3, [&](int) {
    auto made = IncrementalView::Create(fixture.program(), catalog,
                                        fixture.base());
    if (made.ok()) view = std::move(*made);
  });
  out->Layer("eval.create_ms", Median(create_ms), "ms");
  if (view == nullptr) {
    out->Fail("probe: IncrementalView::Create failed");
    return;
  }
  std::vector<std::vector<FactUpdate>> batches(2);
  for (int64_t e = 1; e <= 2; ++e) {
    server::ParseUpdateTokens(fixture.batch(e), catalog, &symbols,
                              &batches[static_cast<size_t>(e % 2)]);
  }
  if (!DredApplyProbe(args, out)) return;

  // ra: the publish path's model copy and full serialization.
  const Instance& model = view->model();
  std::string bytes;
  const auto copy_ms = TimeMs(5, [&](int) {
    Instance copy = model;
    (void)copy;
  });
  const auto serialize_ms =
      TimeMs(5, [&](int) { bytes = model.SerializeSnapshot(); });
  out->Layer("ra.copy_ms", Median(copy_ms), "ms");
  out->Layer("ra.serialize_ms", Median(serialize_ms), "ms");
  out->Layer("ra.publish_bytes", static_cast<double>(bytes.size()), "bytes");

  // server/snapshot: PredBytes cold and warm, Pin plus release.
  std::vector<double> cold_ms;
  std::vector<double> warm_ms;
  for (int rep = 0; rep < 5; ++rep) {
    server::Snapshot snapshot(rep, model, bytes);
    auto start = Clock::now();
    (void)snapshot.PredBytes(fixture.t());
    cold_ms.push_back(MsSince(start));
    start = Clock::now();
    for (int i = 0; i < 1000; ++i) (void)snapshot.PredBytes(fixture.t());
    warm_ms.push_back(MsSince(start));
  }
  out->Layer("server.pred_bytes_cold_ms", Median(cold_ms), "ms");
  out->Layer("server.pred_bytes_warm_us", Median(warm_ms), "us");
  {
    server::SnapshotRegistry registry;
    registry.Publish(std::make_unique<server::Snapshot>(0, model, bytes));
    const auto pin_ms = TimeMs(5, [&](int) {
      for (int i = 0; i < 1000; ++i) {
        server::SnapshotPin pin = registry.Pin();
        pin.Release();
      }
    });
    out->Layer("server.pin_us", Median(pin_ms), "us");
  }

  // server/wire: EncodeResponse of a t body and of a full-model body.
  const std::string t_body = fixture.t_bytes(0);
  const auto encode_t = TimeMs(21, [&](int) {
    (void)server::EncodeResponse(Response{StatusCode::kOk, 1, t_body, ""});
  });
  const auto encode_full = TimeMs(21, [&](int) {
    (void)server::EncodeResponse(Response{StatusCode::kOk, 1, bytes, ""});
  });
  out->Layer("server.encode_t_us", Median(encode_t) * 1000.0, "us");
  out->Layer("server.encode_full_us", Median(encode_full) * 1000.0, "us");

  // store: AppendCommit with per-commit fsync, MaybeCompact when due. The
  // appends stop half a round past the last snapshot, so the directory
  // has the shape a commit run leaves for recovery.
  store::StoreOptions options;
  options.dir = FreshDir(args, "probe-store");
  {
    options.sync_every = 1;
    options.snapshot_every = kSnapshotEvery;
    auto opened = store::DurableStore::Open(options);
    if (!opened.ok()) {
      out->Fail("probe: DurableStore::Open failed");
      return;
    }
    std::unique_ptr<store::DurableStore> st = std::move(*opened);
    std::vector<double> append_ms;
    std::vector<double> compact_ms;
    std::vector<std::string> spellings;
    for (int v = 0; v < symbols.size(); ++v) {
      spellings.push_back(symbols.NameOf(static_cast<datalog::Value>(v)));
    }
    const std::string base_bytes = view->base().SerializeSnapshot();
    std::vector<double> record_bytes;
    for (int64_t e = 1; e <= 4 * kSnapshotEvery + kWarmupCommits; ++e) {
      const int64_t size_before = st->wal().size();
      auto start = Clock::now();
      (void)st->AppendCommit(e, fixture.batch(e));
      append_ms.push_back(MsSince(start));
      record_bytes.push_back(
          static_cast<double>(st->wal().size() - size_before));
      if (st->CompactionDue()) {
        start = Clock::now();
        (void)st->MaybeCompact(e, base_bytes, spellings);
        compact_ms.push_back(MsSince(start));
      }
    }
    const double appends = static_cast<double>(st->wal().appends());
    out->Layer("store.append_ms", Median(append_ms), "ms");
    out->Layer("store.compact_ms", Median(compact_ms), "ms");
    out->Layer("store.syncs_per_commit",
               static_cast<double>(st->wal().syncs()) / appends, "count");
    out->Layer("store.wal_bytes_per_commit", Median(record_bytes), "bytes");
  }

  // store: the recovery split, on the directory the appends left.
  const std::string& dir = options.dir;
  bool found = false;
  store::SnapshotData snap;
  const auto load_ms = TimeMs(5, [&](int) {
    auto loaded = store::LoadSnapshot(dir, &found);
    if (loaded.ok()) snap = std::move(*loaded);
  });
  store::WalScan scan;
  const auto scan_ms = TimeMs(5, [&](int) {
    auto scanned = store::ScanWal(store::WalPath(dir));
    if (scanned.ok()) scan = std::move(*scanned);
  });
  out->Layer("store.load_ms", Median(load_ms), "ms");
  out->Layer("store.scan_ms", Median(scan_ms), "ms");
  // Replay: a view at the snapshot's state, then the scanned tail.
  auto replay_view =
      IncrementalView::Create(fixture.program(), catalog, fixture.base());
  if (!replay_view.ok()) return;
  if (found && snap.epoch % 2 == 1) {
    (void)(*replay_view)->ApplyBatch(batches[1]);
  }
  int64_t replayed = 0;
  const auto start = Clock::now();
  for (const store::WalRecord& record : scan.records) {
    if (found && record.epoch <= snap.epoch) continue;
    std::vector<FactUpdate> batch;
    server::ParseUpdateTokens(record.update_tokens, catalog, &symbols, &batch);
    (void)(*replay_view)->ApplyBatch(batch);
    ++replayed;
  }
  out->Layer("store.replay_ms", MsSince(start), "ms");
  out->Layer("store.replayed", static_cast<double>(replayed), "count");

  // dist: kPing round trip over the socket channel; t response bytes.
  auto srv = server::Server::Create(fixture.program(), &catalog, &symbols,
                                    fixture.base(), server::ServerOptions{});
  if (!srv.ok()) return;
  std::string listen_error;
  Running running(std::move(*srv), &listen_error);
  Client client;
  Client reader;
  if (!listen_error.empty() || !client.Connect(running.port()) ||
      !reader.Connect(running.port())) {
    return;
  }
  Response response;
  const auto ping_ms = TimeMs(500, [&](int) {
    client.Call(Request::Kind::kPing, "", &response);
  });
  size_t read_bytes = 0;
  client.Call(Request::Kind::kQuery, "t", &response, &read_bytes);
  out->Layer("dist.ping_us", Median(ping_ms) * 1000.0, "us");
  out->Layer("dist.read_bytes", static_cast<double>(read_bytes), "bytes");

  // server/snapshot: the most snapshots alive at once while a reader
  // session reads t beside a writer session's commits, sampled after every
  // response of either session.
  std::atomic<int64_t> live_max{0};
  auto sample = [&] {
    const int64_t live = running.srv()->snapshots().live();
    int64_t seen = live_max.load();
    while (live > seen && !live_max.compare_exchange_weak(seen, live)) {
    }
  };
  std::atomic<bool> writing{true};
  std::thread read_loop([&] {
    Response got;
    while (writing.load() && reader.Call(Request::Kind::kQuery, "t", &got)) {
      sample();
    }
  });
  for (int64_t e = 1; e <= kSnapshotEvery / 4; ++e) {
    if (!client.Call(Request::Kind::kUpdate, fixture.batch(e), &response)) {
      break;
    }
    sample();
  }
  writing.store(false);
  read_loop.join();
  out->Layer("server.live_snapshots_max", static_cast<double>(live_max.load()),
             "count");
}

}  // namespace perfbench

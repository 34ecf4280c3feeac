#ifndef UNCHAINED_SERVER_SERVER_H_
#define UNCHAINED_SERVER_SERVER_H_

// A long-lived concurrent Datalog service (docs/server.md): one writer
// drains a mutation op-queue through IncrementalView::ApplyBatch and
// publishes an immutable epoch-versioned snapshot after every batch; N
// readers answer queries by pinning the current snapshot and serving its
// frozen bytes — MVCC snapshot reads with epoch-based reclamation
// (snapshot.h). Per-request budgets reuse EvalOptions::deadline_ms /
// CancelToken semantics; `server.*` metrics and spans plug into the
// observability layer (docs/observability.md).
//
// The class has two driving modes sharing one engine room:
//
//   * Scheduler-driven (single-threaded): SubmitUpdate / ApplyOneQueued /
//     ServeQuery expose each writer and reader step as an explicit call,
//     which is what the deterministic virtual-clock scheduler
//     (scheduler.h) and oracle pair #10 interleave and replay.
//   * Threaded: Start() spawns the writer thread and a reader pool;
//     Call() is the thread-safe blocking client surface, and
//     Serve/ServeListener pump wire frames (wire.h) from in-process or
//     socket channels (dist/transport.h) into Call.
//
// Consistency contract (what pair #10 checks): the bytes published for
// epoch e are byte-identical to a sequential IncrementalView replay of
// the first e committed batches; epochs observed by any one session are
// monotone; a reader pinned at epoch e sees the same bytes no matter how
// many batches commit meanwhile; and at quiescence no pins are held and
// every retired snapshot has been reclaimed.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>
#include <condition_variable>

#include "ast/ast.h"
#include "base/result.h"
#include "eval/incremental.h"
#include "server/snapshot.h"
#include "server/wire.h"
#include "store/store.h"

namespace datalog {

class ByteChannel;
class SocketListener;

namespace server {

struct ServerOptions {
  /// Reader threads in threaded mode (>= 1). The scheduler-driven mode
  /// has no threads at all.
  int num_readers = 2;
  /// Evaluation options of the underlying IncrementalView (storage
  /// backend, thread pool for the initial evaluation, ...). The
  /// per-request deadline/cancel fields are ignored here — budgets ride
  /// the requests.
  EvalOptions eval;
  /// Durability (docs/durability.md). When `durability.dir` is non-empty
  /// Create recovers from that directory (snapshot + WAL replay) before
  /// publishing, and the writer logs every committed batch through a
  /// DurableStore — WAL append between apply and publish, so an acked
  /// commit is in the log, plus periodic snapshot compaction. An empty
  /// dir keeps the PR-9 in-memory behavior. The embedded fault schedule
  /// drives the crash fuzzing (store/fault.h).
  store::StoreOptions durability;
};

class Server {
 public:
  /// Evaluates the initial model (epoch 0 is published before Create
  /// returns) and wires the writer machinery. `catalog` and `symbols`
  /// must outlive the server; `program` and `base` are copied as needed
  /// by the underlying view. Fails like IncrementalView::Create
  /// (kUnsupported / kNotStratifiable on out-of-fragment programs).
  static Result<std::unique_ptr<Server>> Create(const Program& program,
                                                const Catalog* catalog,
                                                SymbolTable* symbols,
                                                const Instance& base,
                                                const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // -- Scheduler-driven surface (no internal threads) -------------------

  /// Parses the signed update tokens and enqueues the batch; returns the
  /// ticket to poll with UpdateOutcome. kSchemaError on malformed tokens
  /// or unknown/wrong-arity predicates (nothing is enqueued).
  Result<int64_t> SubmitUpdate(const std::string& tokens);

  /// One writer step: applies the oldest queued batch through the view,
  /// logs it (when durable), publishes the next epoch and settles the
  /// ticket. False if the queue was empty.
  bool ApplyOneQueued();

  /// True once `ticket`'s batch was applied (or rejected); fills the
  /// update's response (epoch created, or the rejection status) and
  /// forgets the ticket — a settled ticket is read once.
  bool UpdateOutcome(int64_t ticket, Response* response);

  int64_t pending_updates() const;

  /// One reader step: serves a read request against the currently
  /// published snapshot. Budget/cancellation are checked before pinning
  /// and again between pin and payload serialization; a refused request
  /// holds no pin on return. `admit` is the budget's start point —
  /// threaded mode passes the moment the request entered the server.
  Response ServeQuery(const Request& request);
  Response ServeQuery(const Request& request,
                      std::chrono::steady_clock::time_point admit);

  // -- Threaded mode ----------------------------------------------------

  /// Spawns the writer thread and `num_readers` reader threads. Idempotent.
  void Start();
  /// Drains nothing: pending updates stay queued, in-flight Calls are
  /// completed, then threads exit. Idempotent; called by the destructor.
  void Stop();

  /// Thread-safe blocking request: updates wait for their commit (their
  /// response carries the created epoch), reads are dispatched to the
  /// reader pool. Requires Start().
  Response Call(const Request& request);

  /// Pumps frames from one connection until kClose, EOF, or a malformed
  /// frame. Requires Start(). Blocking — run on the connection's thread.
  void Serve(ByteChannel* channel);

  /// Accept loop: one connection-pump thread per accepted channel.
  /// Returns when the listener is closed. A pump whose client closed is
  /// joined and dropped at the next accept; the rest are joined by
  /// Stop().
  void ServeListener(SocketListener* listener);

  /// Connections ServeListener holds: the live ones plus any closed one
  /// not yet reaped by a later accept.
  size_t connections() const;

  // -- Introspection ----------------------------------------------------

  /// What recovery-on-start found (all defaults when the server runs
  /// without durability or from a fresh directory).
  struct RecoveryInfo {
    /// True when Create ran recovery (durability.dir was non-empty).
    bool ran = false;
    /// Epoch recovered to — the first publish; the first commit after
    /// recovery is acked with epoch + 1.
    int64_t epoch = 0;
    int64_t replayed = 0;
    bool from_snapshot = false;
    bool truncated_tail = false;
  };
  const RecoveryInfo& recovery() const { return recovery_; }
  /// The durable store, or null when running in-memory. The store is the
  /// writer's — readers may only touch the const counters at quiescence.
  const store::DurableStore* store() const { return store_.get(); }
  /// Closes the store's group-commit window now — the shutdown flush the
  /// destructor would otherwise issue. Lets a caller that needs the
  /// store's final state (oracle pair #11) settle it first: a scheduled
  /// crash pending on the fsync path fires here, not mid-destruction.
  /// OK when running in-memory or when the store already crashed.
  Status FlushStore();

  /// Epoch of the currently published snapshot (0 right after Create).
  int64_t epoch() const { return registry_.current_epoch(); }
  const SnapshotRegistry& snapshots() const { return registry_; }
  const Catalog& catalog() const { return *catalog_; }
  /// The underlying view's deterministic maintenance counters. Only
  /// meaningful at quiescence (the writer thread mutates them).
  IncrementalView::Stats view_stats() const;

  /// Writer-side hook, invoked after each publish with the new epoch and
  /// its canonical model bytes — the virtual scheduler and tests capture
  /// the per-epoch byte stream here. Runs on the writer('s thread);
  /// must not call back into the server. Set before any writer step.
  using PublishHook =
      std::function<void(int64_t epoch, const std::string& bytes)>;
  void set_on_publish(PublishHook hook) { on_publish_ = std::move(hook); }

 private:
  struct PendingUpdate {
    int64_t ticket = 0;
    std::vector<FactUpdate> batch;
  };
  struct TicketState {
    bool done = false;
    Response response;
  };
  /// One read request waiting for (or on) a reader thread.
  struct QueryJob {
    Request request;
    std::chrono::steady_clock::time_point admit;
    Response response;
    bool done = false;
  };

  Server(std::unique_ptr<IncrementalView> view, const Catalog* catalog,
         SymbolTable* symbols, const ServerOptions& options);

  /// Serializes the view's current model — or `stale`, the pre-apply
  /// copy the planted torn-publish bug keeps (test_hooks.h) — and
  /// publishes it as `epoch`. Writer only.
  void PublishCurrentModel(int64_t epoch,
                           std::optional<Instance> stale = std::nullopt);

  /// Applies `batch` to the view, logs `tokens` (its canonical update
  /// tokens) when durable, publishes the next epoch and fills the ack —
  /// or the rejection. Writer only.
  void CommitBatch(const std::vector<FactUpdate>& batch,
                   const std::string& tokens, Response* response);

  void WriterLoop();
  void ReaderLoop();
  /// Serve's frame loop, without its final channel Close: the
  /// ServeListener pump marks itself done in between.
  void ServeFrames(ByteChannel* channel);

  /// One accepted connection, owned here so Stop can Close the channel to
  /// unblock its pump thread.
  struct Connection {
    std::unique_ptr<ByteChannel> channel;
    std::thread pump;
    /// Set by the pump once it stops reading, before it closes the
    /// channel, so a client that saw the close finds it reapable.
    std::atomic<bool> done{false};
  };

  const Catalog* catalog_;
  SymbolTable* symbols_;
  ServerOptions options_;
  /// Mutated only by the writer (thread or ApplyOneQueued caller).
  std::unique_ptr<IncrementalView> view_;
  /// Durable commit path (null = in-memory). Writer-only, like view_;
  /// flushed (group-commit window closed) by the destructor on a clean
  /// shutdown.
  std::unique_ptr<store::DurableStore> store_;
  RecoveryInfo recovery_;
  SnapshotRegistry registry_;
  PublishHook on_publish_;

  /// Guards the writer queue and tickets.
  mutable std::mutex mu_;
  std::condition_variable writer_cv_;   // queue non-empty or stopping
  std::condition_variable tickets_cv_;  // a ticket settled
  std::deque<PendingUpdate> queue_;
  std::unordered_map<int64_t, TicketState> tickets_;
  int64_t next_ticket_ = 1;

  /// Guards the reader job queue.
  std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;       // job available or stopping
  std::condition_variable jobs_done_cv_;  // a job finished
  std::deque<QueryJob*> jobs_;

  mutable std::mutex threads_mu_;  // guards the thread containers + started_
  bool started_ = false;
  bool stopping_ = false;  // written under mu_ AND jobs_mu_ when set
  std::thread writer_thread_;
  std::vector<std::thread> reader_threads_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace server
}  // namespace datalog

#endif  // UNCHAINED_SERVER_SERVER_H_

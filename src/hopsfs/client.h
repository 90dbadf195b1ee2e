// HopsFS client library.
//
// Clients pick one metadata server and stick to it until it fails
// (§II-A2). With AZ awareness (§IV-B3) the client fetches the active-NN
// list — which carries each NN's locationDomainId via the extended leader
// election — from a seed namenode and prefers a namenode in its own AZ,
// falling back to a random one. Large-file data flows through the block
// layer: writes run a replication pipeline, reads pick the AZ-closest
// replica (§IV-C).
//
// Overload protection (src/resilience/): every op carries an absolute
// deadline; retries draw from a token-bucket retry budget instead of
// retrying unboundedly; a per-NN circuit breaker evicts grey-slow
// namenodes from rotation (AZ-local first, cross-AZ fallback); server
// sheds (OVERLOADED) are retried against a different NN under the same
// budget; and read-only ops can hedge to a second NN past a latency
// percentile threshold, first response wins.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "blocks/datanode.h"
#include "hopsfs/namenode.h"
#include "metrics/counters.h"
#include "resilience/circuit_breaker.h"
#include "resilience/latency_tracker.h"
#include "resilience/retry_budget.h"
#include "sim/network.h"
#include "util/rng.h"

namespace repro::hopsfs {

// The client's resilience constants (retry budget, breaker thresholds,
// hedge delay, SLO threshold, message sizes) live in client.cc; these are
// the settings some caller changes.
struct ClientConfig {
  bool az_aware = true;
  Nanos rpc_timeout = 5 * kSecond;

  // Default absolute deadline stamped on each op at Submit (0 = none).
  // Far above healthy latencies: it only binds when the system is in
  // real trouble, converting doomed work into fast failures.
  Nanos op_deadline = 30 * kSecond;

  // Token-bucket retry budget and per-NN circuit breaker. Deployment's
  // `resilience` switch clears it for the unprotected baseline.
  bool resilience = true;

  // Hedged reads to a second namenode (off by default: hedging perturbs
  // traffic-shape experiments; benches opt in).
  bool hedged_reads = false;

  // Optional resilience counter registry (shared per deployment).
  metrics::Registry* metrics = nullptr;
};

class HopsFsClient {
 public:
  HopsFsClient(Simulation& sim, Network& network,
               std::vector<Namenode*> namenodes, HostId host, AzId az,
               blocks::DnRegistry* dn_registry = nullptr,
               ClientConfig config = {});

  HostId host() const { return host_; }
  AzId az() const { return az_; }
  Namenode* current_nn() const { return nn_; }

  // Identity attached to every request (empty = superuser).
  void set_user(std::string user) { user_ = std::move(user); }
  const std::string& user() const { return user_; }

  // Full-result entry point (includes RPC retry / failover).
  void Submit(FsRequest req, FsResultCb cb);

  // Deadline-safety audit: number of times a *successful* completion
  // arrived after this op had already reported DEADLINE_EXCEEDED to the
  // caller. Must stay zero — the chaos harness asserts it as an
  // invariant.
  int64_t post_deadline_successes() const { return post_deadline_successes_; }

  // Ops submitted through Submit() — the telemetry scraper polls this as
  // the client host's progress counter.
  int64_t ops_submitted() const { return ops_submitted_; }

  const resilience::RetryBudget& retry_budget() const { return budget_; }

  // Convenience wrappers. Data movement for large files (block pipeline
  // writes / AZ-local replica reads) is included in the callback time.
  using StatusCb = std::function<void(Status)>;
  void Mkdir(const std::string& path, StatusCb cb);
  void Create(const std::string& path, int64_t size, StatusCb cb);
  void ReadFile(const std::string& path, StatusCb cb);
  void Stat(const std::string& path, StatusCb cb);
  void Delete(const std::string& path, StatusCb cb);
  void ListDir(const std::string& path, StatusCb cb);
  void Rename(const std::string& from, const std::string& to, StatusCb cb);
  void Chmod(const std::string& path, uint32_t permissions, StatusCb cb);
  void Chown(const std::string& path, const std::string& owner, StatusCb cb);
  void SetTimes(const std::string& path, Nanos mtime, StatusCb cb);
  void Append(const std::string& path, int64_t bytes, StatusCb cb);
  void DeleteRecursive(const std::string& path, StatusCb cb);
  // cb(status, files, dirs, bytes)
  using SummaryCb =
      std::function<void(Status, int64_t, int64_t, int64_t)>;
  void ContentSummary(const std::string& path, SummaryCb cb);

 private:
  // One client operation across all its attempts and hedges.
  struct OpState {
    FsRequest req;
    FsResultCb cb;
    int attempt = 1;
    Nanos start = 0;
    bool done = false;    // first completion wins; later ones are dropped
    bool hedge_sent = false;
    bool reported_deadline_exceeded = false;
    uint16_t answered = 0;   // one bit per attempt; see Attempt
    trace::SpanId span = 0;  // root span of the op's trace (0 = unsampled)
  };
  using OpPtr = std::shared_ptr<OpState>;

  // One RPC attempt, hedge or seed-list exchange of an op with one
  // namenode. Its timeout and its reply each carry a copy; whichever gets
  // there first answers it, in the op, so the record costs no allocation
  // of its own.
  struct Attempt {
    OpPtr op;
    Namenode* nn = nullptr;
    trace::SpanId span = 0;
    bool is_hedge = false;
    // 1 for the op's one hedge; 1 << n for attempt n, 1 << (n + 4) for
    // its seed-list exchange.
    uint16_t bit = 0;

    bool answered() const { return (op->answered & bit) != 0; }
    void Answer() const { op->answered |= bit; }
  };

  // One end of a network hop.
  struct Peer {
    HostId host;
    AzId az;
  };
  Peer self() const { return {host_, az_}; }
  template <typename Node>
  static Peer PeerOf(const Node* node) {
    return {node->host(), node->az()};
  }
  // Sends `bytes` from `from` to `to` under a network span `name` (child
  // of `parent`) and runs `then` when the message arrives.
  template <typename F>
  void Hop(trace::SpanId parent, const char* name, trace::Layer layer,
           Peer from, Peer to, int64_t bytes, F then);

  void StartAttempt(OpPtr op);
  // Asks a random alive seed namenode for the active list, picks the
  // sticky namenode from it and sends the op there.
  void PickNamenode(OpPtr op);
  // Ends the pick span and sends the op to the picked namenode, if any.
  void FinishPick(OpPtr op, trace::SpanId pick);
  void SendToNn(OpPtr op, Namenode* nn, bool is_hedge);
  void OnTimeout(const Attempt& at);
  void OnReply(const Attempt& at, FsResult result);
  void RetryAfterFailure(const Attempt& at, Status give_up_status);
  void MaybeHedge(OpPtr op, Namenode* primary_nn);
  // `is_hedge`: the result came from a hedge attempt (a hedge win).
  void Deliver(OpPtr op, FsResult result, bool is_hedge = false);
  void HandleLargeFileIo(OpPtr op, FsResult result, bool is_hedge);
  // A large file's block transfer: the op's new blocks (writing) or its
  // existing ones, one block at a time.
  struct BlockIo {
    OpPtr op;
    FsResult result;
    bool writing = false;
    bool is_hedge = false;
  };
  // Transfers block i, then continues with i + 1; delivers the result
  // after the last block, or at the op's deadline.
  void BlockIoNext(std::shared_ptr<BlockIo> io, size_t i);
  // Submits a request whose caller only wants the status.
  void SubmitForStatus(FsRequest req, StatusCb cb);

  // The namenodes a pick may choose from, in list order: alive, not
  // `exclude`, and (with `use_breakers`) admitted by their breaker. Walks
  // `active` (an active-NN list) or, when null, every configured NN.
  // `local`, when given with `active`, also receives the candidates in the
  // client's AZ.
  void Candidates(const std::vector<ActiveNn>* active, int32_t exclude,
                  bool use_breakers, std::vector<Namenode*>* out,
                  std::vector<Namenode*>* local = nullptr);
  resilience::CircuitBreaker* breaker(const Namenode* nn);
  // Feeds one event to `nn`'s breaker and counts the state transition if
  // one happened.
  enum class BreakerEvent { kPicked, kSuccess, kFailure };
  void NoteBreaker(const Namenode* nn, BreakerEvent event);

  Simulation& sim_;
  Network& network_;
  std::vector<Namenode*> namenodes_;  // indexed by nn id
  HostId host_;
  AzId az_;
  blocks::DnRegistry* dn_registry_;
  ClientConfig config_;
  Rng rng_;

  Namenode* nn_ = nullptr;
  std::string user_;

  // Resilience state.
  resilience::RetryBudget budget_;
  std::vector<resilience::CircuitBreaker> breakers_;  // indexed by nn id
  resilience::LatencyTracker latency_;
  int32_t last_failed_nn_ = -1;  // excluded from the immediate re-pick
  int64_t post_deadline_successes_ = 0;
  int64_t ops_submitted_ = 0;

  metrics::Counter* ctr_retries_ = nullptr;
  metrics::Counter* ctr_budget_denied_ = nullptr;
  metrics::Counter* ctr_breaker_transitions_ = nullptr;
  metrics::Counter* ctr_hedges_ = nullptr;
  metrics::Counter* ctr_hedge_wins_ = nullptr;
  metrics::Counter* ctr_deadline_ = nullptr;
  metrics::Counter* ctr_shed_seen_ = nullptr;
  // Cluster-wide SLO counters (shared across clients; the SLO engine
  // evaluates burn rates over their scraped series).
  metrics::Counter* ctr_slo_total_ = nullptr;
  metrics::Counter* ctr_slo_good_ = nullptr;
  metrics::Counter* ctr_slo_latency_total_ = nullptr;
  metrics::Counter* ctr_slo_latency_good_ = nullptr;
  metrics::HistogramMetric* hist_latency_ = nullptr;
};

}  // namespace repro::hopsfs

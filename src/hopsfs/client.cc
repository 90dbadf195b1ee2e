#include "hopsfs/client.h"

#include <algorithm>

#include "resilience/deadline.h"
#include "util/logging.h"

namespace repro::hopsfs {

namespace {

// Resilience settings no caller tunes.
constexpr int kMaxRpcAttempts = 4;
constexpr int64_t kRequestBytes = 280;
constexpr int64_t kReplyBaseBytes = 220;
// Token-bucket retry budget: retries may add ~10% to the request rate.
constexpr resilience::RetryBudgetConfig kRetryBudget{
    /*token_ratio=*/0.1, /*max_tokens=*/50.0, /*initial_tokens=*/10.0};
// Per-NN circuit breaker: three consecutive failures open it for 2 s.
constexpr resilience::CircuitBreakerConfig kBreaker{
    /*failure_threshold=*/3, /*open_interval=*/2 * kSecond};
// Failover re-pick jitter: spreads the stampede when a popular NN dies
// (all its clients would otherwise re-pick at the same instant).
constexpr Nanos kFailoverJitter = 50 * kMillisecond;
// Hedge a read once it is slower than the recent p95, but never sooner
// than 1 ms.
constexpr double kHedgePercentile = 0.95;
constexpr Nanos kHedgeMinDelay = 1 * kMillisecond;
// Latency SLO: a completed op slower than this counts against the latency
// objective (the shared slo.latency.* counters the telemetry SLO engine
// consumes).
constexpr Nanos kSloLatencyThreshold = 100 * kMillisecond;

}  // namespace

HopsFsClient::HopsFsClient(Simulation& sim, Network& network,
                           std::vector<Namenode*> namenodes, HostId host,
                           AzId az, blocks::DnRegistry* dn_registry,
                           ClientConfig config)
    : sim_(sim), network_(network), namenodes_(std::move(namenodes)),
      host_(host), az_(az), dn_registry_(dn_registry), config_(config),
      rng_(sim.rng().Split()),
      budget_(kRetryBudget) {
  breakers_.assign(namenodes_.size(), resilience::CircuitBreaker(kBreaker));
  if (config_.metrics != nullptr) {
    ctr_retries_ = config_.metrics->GetCounter("hopsfs.client.retries");
    ctr_budget_denied_ =
        config_.metrics->GetCounter("hopsfs.client.retry_budget_denied");
    ctr_breaker_transitions_ =
        config_.metrics->GetCounter("hopsfs.client.breaker_transitions");
    ctr_hedges_ = config_.metrics->GetCounter("hopsfs.client.hedges_sent");
    ctr_hedge_wins_ = config_.metrics->GetCounter("hopsfs.client.hedge_wins");
    ctr_deadline_ =
        config_.metrics->GetCounter("hopsfs.client.deadline_exceeded");
    ctr_shed_seen_ =
        config_.metrics->GetCounter("hopsfs.client.sheds_observed");
    ctr_slo_total_ = config_.metrics->GetCounter("slo.requests.total");
    ctr_slo_good_ = config_.metrics->GetCounter("slo.requests.good");
    ctr_slo_latency_total_ = config_.metrics->GetCounter("slo.latency.total");
    ctr_slo_latency_good_ = config_.metrics->GetCounter("slo.latency.good");
    hist_latency_ = config_.metrics->GetHistogram(
        "hopsfs.client.op_latency_seconds",
        {0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
         5.0, 10.0});
  }
}

template <typename F>
void HopsFsClient::Hop(trace::SpanId parent, const char* name,
                       trace::Layer layer, Peer from, Peer to, int64_t bytes,
                       F then) {
  const trace::SpanId hop =
      sim_.tracer().StartSpan(parent, name, layer,
                              trace::NetCause(from.az, to.az), from.host,
                              from.az, to.az);
  network_.Send(from.host, to.host, bytes,
                [this, hop, then = std::move(then)]() mutable {
                  sim_.tracer().EndSpan(hop);
                  then();
                });
}

resilience::CircuitBreaker* HopsFsClient::breaker(const Namenode* nn) {
  if (!config_.resilience || nn == nullptr) return nullptr;
  const size_t id = static_cast<size_t>(nn->id());
  return id < breakers_.size() ? &breakers_[id] : nullptr;
}

void HopsFsClient::NoteBreaker(const Namenode* nn, BreakerEvent event) {
  resilience::CircuitBreaker* b = breaker(nn);
  if (b == nullptr) return;
  const int64_t before = b->transitions();
  switch (event) {
    case BreakerEvent::kPicked: b->OnPicked(sim_.now()); break;
    case BreakerEvent::kSuccess: b->OnSuccess(); break;
    case BreakerEvent::kFailure: b->OnFailure(sim_.now()); break;
  }
  if (b->transitions() != before) metrics::Bump(ctr_breaker_transitions_);
}

void HopsFsClient::Candidates(const std::vector<ActiveNn>* active,
                              int32_t exclude, bool use_breakers,
                              std::vector<Namenode*>* out,
                              std::vector<Namenode*>* local) {
  const Nanos now = sim_.now();
  const size_t n = active != nullptr ? active->size() : namenodes_.size();
  for (size_t i = 0; i < n; ++i) {
    const int32_t id =
        active != nullptr ? (*active)[i].nn_id : static_cast<int32_t>(i);
    if (id < 0 || id >= static_cast<int32_t>(namenodes_.size())) continue;
    Namenode* nn = namenodes_[id];
    if (!nn->alive() || id == exclude) continue;
    // Circuit breaker: grey-slow NNs are out of rotation until their
    // half-open probe readmits them.
    resilience::CircuitBreaker* b = use_breakers ? breaker(nn) : nullptr;
    if (b != nullptr && !b->CanAttempt(now)) continue;
    out->push_back(nn);
    if (local != nullptr && (*active)[i].az == az_) local->push_back(nn);
  }
}

void HopsFsClient::PickNamenode(OpPtr op) {
  const trace::SpanId pick = sim_.tracer().StartSpan(
      op->span, "pick_nn", trace::Layer::kClient, trace::Cause::kWork, host_,
      az_);
  // Ask a random alive seed namenode for the active list (the leader
  // election gossips each NN's AZ), then prefer an AZ-local namenode.
  std::vector<Namenode*> alive;
  Candidates(nullptr, /*exclude=*/-1, /*use_breakers=*/false, &alive);
  if (alive.empty()) {
    nn_ = nullptr;
    FinishPick(std::move(op), pick);
    return;
  }
  Namenode* seed = alive[rng_.NextBelow(alive.size())];
  // The list exchange is an attempt to the seed: a seed that is up but
  // unreachable times out like any RPC, and the op fails over instead of
  // waiting for an answer that never comes.
  const Attempt at{op, seed, pick, /*is_hedge=*/false,
                   static_cast<uint16_t>(1 << (op->attempt + 4))};
  sim_.After(resilience::ClampToDeadline(config_.rpc_timeout,
                                         op->req.deadline, sim_.now()),
             [this, at] { OnTimeout(at); });
  Hop(pick, "net.nn_list_req", trace::Layer::kClient, self(), PeerOf(seed),
      kRequestBytes, [this, at] {
        // The NN we just timed out on is excluded from the immediate
        // re-pick (it is usually still in the active list — detection
        // lags the failure).
        const auto& active = at.nn->active_nns();
        std::vector<Namenode*> candidates;
        std::vector<Namenode*> local;
        Candidates(&active, last_failed_nn_, /*use_breakers=*/true,
                   &candidates, &local);
        // Everything filtered (all breakers open / only the failed NN
        // left): degrade to any alive NN rather than refusing service.
        if (candidates.empty()) {
          Candidates(&active, /*exclude=*/-1, /*use_breakers=*/false,
                     &candidates);
        }
        if (candidates.empty()) candidates.push_back(at.nn);
        // §IV-B3: AZ-local if possible (and AZ-awareness is on and the
        // client has a locationDomainId), else random.
        if (config_.az_aware && az_ != kNoAz && !local.empty()) {
          nn_ = local[rng_.NextBelow(local.size())];
        } else {
          nn_ = candidates[rng_.NextBelow(candidates.size())];
        }
        NoteBreaker(nn_, BreakerEvent::kPicked);
        last_failed_nn_ = -1;
        Hop(at.span, "net.nn_list_reply", trace::Layer::kClient,
            PeerOf(at.nn), self(), kReplyBaseBytes, [this, at] {
              if (at.answered()) return;  // timed out: the retry owns the op
              at.Answer();
              FinishPick(at.op, at.span);
            });
      });
}

void HopsFsClient::FinishPick(OpPtr op, trace::SpanId pick) {
  sim_.tracer().EndSpan(pick);
  if (nn_ == nullptr) {
    FsResult r;
    r.status = Unavailable("no namenode available");
    Deliver(std::move(op), std::move(r));
    return;
  }
  SendToNn(std::move(op), nn_, /*is_hedge=*/false);
}

void HopsFsClient::Submit(FsRequest req, FsResultCb cb) {
  req.client_az = az_;
  if (req.user.empty()) req.user = user_;
  if (req.deadline == 0 && config_.op_deadline > 0) {
    req.deadline = sim_.now() + config_.op_deadline;
  }
  budget_.OnRequest();  // first attempts accrue retry tokens
  ++ops_submitted_;
  auto op = std::make_shared<OpState>();
  op->req = std::move(req);
  op->cb = std::move(cb);
  op->start = sim_.now();
  // Deterministic 1-in-N sampling decides here; 0 makes every tracer
  // call below a no-op.
  op->span = sim_.tracer().StartTrace(FsOpName(op->req.op),
                                      trace::Layer::kClient, host_, az_);
  StartAttempt(std::move(op));
}

void HopsFsClient::StartAttempt(OpPtr op) {
  if (op->done) return;
  const Nanos now = sim_.now();
  if (resilience::DeadlineExpired(op->req.deadline, now)) {
    FsResult r;
    r.status = DeadlineExceeded("client: deadline passed before attempt");
    Deliver(std::move(op), std::move(r));
    return;
  }
  if (op->attempt > kMaxRpcAttempts) {
    FsResult r;
    r.status = Unavailable("all namenode RPC attempts failed");
    Deliver(std::move(op), std::move(r));
    return;
  }
  // The sticky NN is abandoned when dead or when its breaker is open.
  if (nn_ != nullptr) {
    resilience::CircuitBreaker* b = breaker(nn_);
    if (!nn_->alive() || (b != nullptr && !b->CanAttempt(now))) {
      nn_ = nullptr;
    }
  }
  if (nn_ == nullptr) {
    PickNamenode(std::move(op));
    return;
  }
  NoteBreaker(nn_, BreakerEvent::kPicked);
  SendToNn(std::move(op), nn_, /*is_hedge=*/false);
}

void HopsFsClient::SendToNn(OpPtr op, Namenode* nn, bool is_hedge) {
  if (op->done) return;
  // One span per RPC attempt; a hedge attempt is blamed on the resilience
  // stack (kRetry), so hedge-won ops attribute the duplicated work.
  const trace::SpanId span = sim_.tracer().StartSpan(
      op->span, is_hedge ? "rpc.hedge" : "rpc", trace::Layer::kClient,
      is_hedge ? trace::Cause::kRetry : trace::Cause::kWork, host_, az_);
  const Attempt at{op, nn, span, is_hedge,
                   static_cast<uint16_t>(is_hedge ? 1 : 1 << op->attempt)};

  // The attempt timer never outlives the deadline: at equal timestamps
  // the earlier-scheduled timeout wins the event-order tie-break, so a
  // success can never race past an expired deadline through this path.
  const Nanos timeout = resilience::ClampToDeadline(
      config_.rpc_timeout, op->req.deadline, sim_.now());
  sim_.After(timeout, [this, at] { OnTimeout(at); });

  if (!is_hedge) MaybeHedge(op, nn);

  Hop(span, "net.request", trace::Layer::kClient, self(), PeerOf(nn),
      kRequestBytes + static_cast<int64_t>(op->req.path.size()), [this, at] {
        FsRequest req = at.op->req;  // each attempt sends its own copy
        req.span = at.span;  // the NN parents its spans under the attempt
        at.nn->HandleRequest(std::move(req), [this, at](FsResult result) {
          // Reply hop: size grows with listing / block payloads.
          int64_t bytes = kReplyBaseBytes;
          for (const auto& c : result.children) {
            bytes += static_cast<int64_t>(c.size()) + 16;
          }
          bytes += 48 * static_cast<int64_t>(result.blocks.size() +
                                             result.new_blocks.size());
          Hop(at.span, "net.reply", trace::Layer::kClient, PeerOf(at.nn),
              self(), bytes,
              [this, at, result = std::move(result)]() mutable {
                OnReply(at, std::move(result));
              });
        });
      });
}

void HopsFsClient::OnTimeout(const Attempt& at) {
  if (at.answered()) return;
  at.Answer();
  sim_.tracer().EndSpan(at.span);
  NoteBreaker(at.nn, BreakerEvent::kFailure);
  if (at.op->done || at.is_hedge) return;  // a hedge timeout retries nothing
  // A timed-out attempt is a request the client observed to fail, even
  // though the op will be retried: it burns availability error budget
  // (total without good) exactly like a load balancer counting each
  // 5xx/timeout per try. Without this, requests stuck against a dark
  // AZ are invisible to the SLI until their final deadline.
  metrics::Bump(ctr_slo_total_);
  RetryAfterFailure(at, Unavailable("namenode RPC timed out"));
}

void HopsFsClient::OnReply(const Attempt& at, FsResult result) {
  sim_.tracer().EndSpan(at.span);
  // Timed out already: the timeout answered the attempt and its retry
  // owns the op, so the late reply is dropped.
  if (at.answered()) return;
  at.Answer();
  if (result.status.code() == Code::kResourceExhausted) {
    // Server shed us (OVERLOADED). The NN is healthy — no breaker strike
    // — but spread the retry to a different NN under the budget.
    metrics::Bump(ctr_shed_seen_);
    if (at.op->done || at.is_hedge) return;
    RetryAfterFailure(at, std::move(result.status));
    return;
  }
  NoteBreaker(at.nn, BreakerEvent::kSuccess);
  HandleLargeFileIo(at.op, std::move(result), at.is_hedge);
}

// Shared failure path for timeouts and server sheds: drop the sticky NN,
// exclude it from the re-pick, consult the retry budget, then re-attempt
// after a jittered backoff (herd control).
void HopsFsClient::RetryAfterFailure(const Attempt& at,
                                     Status give_up_status) {
  if (nn_ == at.nn) nn_ = nullptr;
  last_failed_nn_ = at.nn->id();
  OpPtr op = at.op;
  if (config_.resilience && !budget_.Withdraw()) {
    metrics::Bump(ctr_budget_denied_);
    FsResult r;
    r.status = std::move(give_up_status);
    Deliver(std::move(op), std::move(r));
    return;
  }
  metrics::Bump(ctr_retries_);
  op->attempt += 1;
  const Nanos jitter = static_cast<Nanos>(
      rng_.NextBelow(static_cast<uint64_t>(kFailoverJitter)));
  if (jitter > 0) {
    const Nanos now = sim_.now();
    sim_.tracer().AddSpanAt(op->span, "retry.backoff", trace::Layer::kClient,
                            trace::Cause::kRetry, host_, az_, now,
                            now + jitter);
  }
  sim_.After(jitter, [this, op = std::move(op)]() mutable {
    StartAttempt(std::move(op));
  });
}

void HopsFsClient::MaybeHedge(OpPtr op, Namenode* primary_nn) {
  if (!config_.hedged_reads || op->hedge_sent) return;
  const FsOp fsop = op->req.op;
  const bool read_only = fsop == FsOp::kOpenRead || fsop == FsOp::kStat ||
                         fsop == FsOp::kListDir ||
                         fsop == FsOp::kContentSummary;
  if (!read_only) return;
  // Hedge once the primary is slower than the recent p95 ("The Tail at
  // Scale"). Until enough samples exist the tracker returns 0 → no hedge
  // (cold hedging would double traffic at startup).
  Nanos delay = latency_.Percentile(kHedgePercentile, 0);
  if (delay <= 0) return;
  delay = std::max(delay, kHedgeMinDelay);
  op->hedge_sent = true;
  sim_.After(delay, [this, op, primary_nn] {
    if (op->done) return;
    if (resilience::DeadlineExpired(op->req.deadline, sim_.now())) return;
    // Pick a different, breaker-admitted NN for the hedge.
    std::vector<Namenode*> others;
    Candidates(nullptr, primary_nn->id(), /*use_breakers=*/true, &others);
    if (others.empty()) return;
    Namenode* alt = others[rng_.NextBelow(others.size())];
    NoteBreaker(alt, BreakerEvent::kPicked);
    metrics::Bump(ctr_hedges_);
    SendToNn(op, alt, /*is_hedge=*/true);
  });
}

// Single completion choke point: enforces first-response-wins, converts
// successes that slipped past the deadline, and audits the invariant
// that nothing completes successfully after DEADLINE_EXCEEDED was
// reported.
void HopsFsClient::Deliver(OpPtr op, FsResult result, bool is_hedge) {
  if (op->done) return;  // first response won; later ones are dropped
  const Nanos now = sim_.now();
  if (result.status.ok() &&
      resilience::DeadlineExpired(op->req.deadline, now)) {
    // Block-IO continuations can finish past the deadline; the caller
    // must still see DEADLINE_EXCEEDED, never a late success.
    result.status = DeadlineExceeded("client: completed past deadline");
  }
  op->done = true;
  if (result.status.code() == Code::kDeadlineExceeded) {
    op->reported_deadline_exceeded = true;
    metrics::Bump(ctr_deadline_);
  }
  if (result.status.ok()) {
    // Tripwire for the chaos invariant: by this point any success past
    // the deadline (or after a DEADLINE_EXCEEDED report) must have been
    // converted or dropped; a non-zero count means a delivery path
    // bypassed the enforcement above.
    if (resilience::DeadlineExpired(op->req.deadline, now) ||
        op->reported_deadline_exceeded) {
      ++post_deadline_successes_;
    }
    latency_.Record(now - op->start);
    if (is_hedge) metrics::Bump(ctr_hedge_wins_);
  }
  // SLO accounting: availability counts every completion; application
  // outcomes (NotFound, AlreadyExists, ...) are correct service and stay
  // "good" — only unavailability-class failures burn error budget. The
  // latency objective is judged on successful ops only.
  metrics::Bump(ctr_slo_total_);
  if (!result.status.counts_against_availability()) {
    metrics::Bump(ctr_slo_good_);
  }
  if (result.status.ok()) {
    const Nanos lat = now - op->start;
    metrics::Bump(ctr_slo_latency_total_);
    if (lat <= kSloLatencyThreshold) {
      metrics::Bump(ctr_slo_latency_good_);
    }
    if (hist_latency_ != nullptr) hist_latency_->Observe(ToSeconds(lat));
  }
  // Finalize the trace at the moment the caller observes completion; any
  // still-open span (losing hedge, in-flight reply) is clamped to now.
  sim_.tracer().EndTrace(op->span);
  op->cb(std::move(result));
}

void HopsFsClient::HandleLargeFileIo(OpPtr op, FsResult result,
                                     bool is_hedge) {
  if (dn_registry_ == nullptr || !result.status.ok()) {
    Deliver(std::move(op), std::move(result), is_hedge);
    return;
  }
  // Writes: push each new block through its replication pipeline.
  // Reads: fetch each block from the AZ-closest replica.
  const std::vector<BlockRow>* to_write =
      result.new_blocks.empty() ? nullptr : &result.new_blocks;
  const std::vector<BlockRow>* to_read =
      result.blocks.empty() ? nullptr : &result.blocks;
  if (to_write == nullptr && to_read == nullptr) {
    Deliver(std::move(op), std::move(result), is_hedge);
    return;
  }

  auto io = std::make_shared<BlockIo>();
  io->op = std::move(op);
  io->result = std::move(result);
  io->writing = to_write != nullptr;
  io->is_hedge = is_hedge;
  BlockIoNext(std::move(io), 0);
}

void HopsFsClient::BlockIoNext(std::shared_ptr<BlockIo> io, size_t i) {
  const OpPtr& op = io->op;
  if (op->done) return;  // a hedge already answered this op
  const auto& blocks = io->writing ? io->result.new_blocks : io->result.blocks;
  if (i >= blocks.size()) {
    Deliver(op, std::move(io->result), io->is_hedge);
    return;
  }
  // Deadline check between blocks: a multi-block transfer must not keep
  // streaming for an op nobody is waiting on anymore.
  const Nanos deadline = op->req.deadline;
  if (resilience::DeadlineExpired(deadline, sim_.now())) {
    io->result.status = DeadlineExceeded("client: block io past deadline");
    Deliver(op, std::move(io->result), io->is_hedge);
    return;
  }
  const BlockRow& b = blocks[i];
  if (b.replicas.empty()) {
    BlockIoNext(std::move(io), i + 1);
    return;
  }
  if (io->writing) {
    std::vector<blocks::BlockDatanode*> pipeline;
    for (blocks::DnId d : b.replicas) {
      pipeline.push_back(dn_registry_->dn(d));
    }
    blocks::BlockDatanode* first = pipeline.front();
    pipeline.erase(pipeline.begin());
    // Stream the data to the first replica, which forwards downstream.
    const int64_t bytes = b.num_bytes;
    const trace::SpanId bspan = sim_.tracer().StartSpan(
        op->span, "block.write", trace::Layer::kBlocks, trace::Cause::kWork,
        host_, az_);
    Hop(bspan, "net.block_data", trace::Layer::kBlocks, self(), PeerOf(first),
        std::max<int64_t>(bytes, 1),
        [this, first, id = b.block_id, bytes, pipeline, io, i, deadline,
         bspan] {
          first->WriteBlock(id, bytes, pipeline,
                            [this, io, i, bspan](Status) {
                              sim_.tracer().EndSpan(bspan);
                              BlockIoNext(io, i + 1);
                            },
                            deadline, bspan);
        });
    return;
  }
  // AZ-closest replica (§IV-C): replicas in our AZ first.
  blocks::DnId chosen = b.replicas.front();
  if (config_.az_aware && az_ != kNoAz) {
    for (blocks::DnId d : b.replicas) {
      if (dn_registry_->az_of(d) == az_) {
        chosen = d;
        break;
      }
    }
  }
  blocks::BlockDatanode* dn = dn_registry_->dn(chosen);
  const trace::SpanId bspan = sim_.tracer().StartSpan(
      op->span, "block.read", trace::Layer::kBlocks, trace::Cause::kWork,
      host_, az_);
  Hop(bspan, "net.read_req", trace::Layer::kBlocks, self(), PeerOf(dn), 128,
      [this, dn, id = b.block_id, io, i, deadline, bspan] {
        dn->ReadBlock(id, host_,
                      [this, io, i, bspan](Expected<int64_t>) {
                        sim_.tracer().EndSpan(bspan);
                        BlockIoNext(io, i + 1);
                      },
                      deadline, bspan);
      });
}

// ---- convenience wrappers ----

namespace {
FsRequest Request(FsOp op, const std::string& path) {
  FsRequest r;
  r.op = op;
  r.path = path;
  return r;
}
}  // namespace

void HopsFsClient::SubmitForStatus(FsRequest req, StatusCb cb) {
  Submit(std::move(req),
         [cb = std::move(cb)](FsResult res) { cb(res.status); });
}

void HopsFsClient::Mkdir(const std::string& path, StatusCb cb) {
  FsRequest r = Request(FsOp::kMkdir, path);
  r.permissions = 0755;
  SubmitForStatus(std::move(r), std::move(cb));
}

void HopsFsClient::Create(const std::string& path, int64_t size,
                          StatusCb cb) {
  FsRequest r = Request(FsOp::kCreate, path);
  r.size = size;
  SubmitForStatus(std::move(r), std::move(cb));
}

void HopsFsClient::ReadFile(const std::string& path, StatusCb cb) {
  SubmitForStatus(Request(FsOp::kOpenRead, path), std::move(cb));
}

void HopsFsClient::Stat(const std::string& path, StatusCb cb) {
  SubmitForStatus(Request(FsOp::kStat, path), std::move(cb));
}

void HopsFsClient::Delete(const std::string& path, StatusCb cb) {
  SubmitForStatus(Request(FsOp::kDelete, path), std::move(cb));
}

void HopsFsClient::ListDir(const std::string& path, StatusCb cb) {
  SubmitForStatus(Request(FsOp::kListDir, path), std::move(cb));
}

void HopsFsClient::Rename(const std::string& from, const std::string& to,
                          StatusCb cb) {
  FsRequest r = Request(FsOp::kRename, from);
  r.path2 = to;
  SubmitForStatus(std::move(r), std::move(cb));
}

void HopsFsClient::Chmod(const std::string& path, uint32_t permissions,
                         StatusCb cb) {
  FsRequest r = Request(FsOp::kChmod, path);
  r.permissions = permissions;
  SubmitForStatus(std::move(r), std::move(cb));
}

void HopsFsClient::Chown(const std::string& path, const std::string& owner,
                         StatusCb cb) {
  FsRequest r = Request(FsOp::kChown, path);
  r.owner = owner;
  SubmitForStatus(std::move(r), std::move(cb));
}

void HopsFsClient::SetTimes(const std::string& path, Nanos mtime,
                            StatusCb cb) {
  FsRequest r = Request(FsOp::kSetTimes, path);
  r.mtime_ns = mtime;
  SubmitForStatus(std::move(r), std::move(cb));
}

void HopsFsClient::Append(const std::string& path, int64_t bytes,
                          StatusCb cb) {
  FsRequest r = Request(FsOp::kAppend, path);
  r.size = bytes;
  SubmitForStatus(std::move(r), std::move(cb));
}

void HopsFsClient::DeleteRecursive(const std::string& path, StatusCb cb) {
  SubmitForStatus(Request(FsOp::kDeleteRecursive, path), std::move(cb));
}

void HopsFsClient::ContentSummary(const std::string& path, SummaryCb cb) {
  Submit(Request(FsOp::kContentSummary, path),
         [cb = std::move(cb)](FsResult res) {
           cb(res.status, res.cs_files, res.cs_dirs, res.cs_bytes);
         });
}

}  // namespace repro::hopsfs

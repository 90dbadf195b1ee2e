#include "hopsfs/namenode.h"

#include <algorithm>
#include <cassert>

#include "hopsfs/op_context.h"
#include "prof/profiler.h"
#include "resilience/deadline.h"
#include "util/logging.h"
#include "util/strings.h"

namespace repro::hopsfs {

namespace {
constexpr const char* kLog = "hopsfs.nn";
}

const char* FsOpName(FsOp op) {
  switch (op) {
    case FsOp::kMkdir: return "mkdir";
    case FsOp::kCreate: return "createFile";
    case FsOp::kOpenRead: return "readFile";
    case FsOp::kStat: return "stat";
    case FsOp::kDelete: return "deleteFile";
    case FsOp::kListDir: return "listDir";
    case FsOp::kRename: return "rename";
    case FsOp::kChmod: return "chmod";
    case FsOp::kChown: return "chown";
    case FsOp::kSetTimes: return "setTimes";
    case FsOp::kAppend: return "append";
    case FsOp::kContentSummary: return "contentSummary";
    case FsOp::kDeleteRecursive: return "deleteSubtree";
  }
  return "?";
}

Namenode::Namenode(Simulation& sim, Network& network, ndb::NdbCluster& ndb,
                   const FsTables& tables, int32_t nn_id, HostId host,
                   AzId az, blocks::DnRegistry* dn_registry,
                   blocks::BlockPlacementPolicy* placement,
                   NamenodeConfig config)
    : sim_(sim), network_(network), ndb_(ndb), tables_(tables),
      nn_id_(nn_id), host_(host), az_(az), dn_registry_(dn_registry),
      placement_(placement), config_(config),
      rng_(sim.rng().Split()),
      limiter_(resilience::AimdLimiterConfig{
          config.admission_min_limit, config.admission_max_limit,
          config.admission_initial_limit, config.admission_latency_target,
          /*backoff_ratio=*/0.9, /*increase_per_ok=*/0.25,
          config.admission_decrease_cooldown}) {
  cpu_ = std::make_unique<ThreadPool>(sim, StrFormat("nn%d.cpu", nn_id),
                                      config_.cpu_threads);
  api_ = std::make_unique<ndb::NdbApiNode>(ndb, host, az);
  if (config_.ndb_hedge_delay > 0) {
    api_->set_hedge_read_delay(config_.ndb_hedge_delay);
  }
  if (config_.metrics != nullptr) {
    ctr_shed_ = config_.metrics->GetCounter("hopsfs.nn.admission_shed");
    ctr_deadline_ = config_.metrics->GetCounter("hopsfs.nn.deadline_exceeded");
    ctr_txn_retries_ = config_.metrics->GetCounter("hopsfs.nn.txn_retries");
    api_->set_counters(
        config_.metrics->GetCounter("ndb.api.hedges_sent"),
        config_.metrics->GetCounter("ndb.api.hedge_wins"),
        config_.metrics->GetCounter("ndb.api.deadline_exceeded"));
    // Per-host unavailability-error counter: the health model's
    // error-rate signal (scraped alongside the host.up / host.queue_ns /
    // host.ops callbacks the deployment registers).
    ctr_host_errors_ = config_.metrics->GetCounter(
        "host.errors",
        metrics::Labels{{"az", std::to_string(az)},
                        {"host", network.topology().name_of(host)}});
  }
  if (dn_registry_ != nullptr) {
    dn_known_dead_.assign(dn_registry_->size(), false);
  }
}

void Namenode::Crash() {
  alive_ = false;
  network_.topology().SetHostUp(host_, false);
  Stop();
}

void Namenode::Start() {
  // Stagger the election rounds across namenodes: synchronised rounds
  // would race every scan against every heartbeat write and make the
  // membership view flap.
  const Nanos phase =
      static_cast<Nanos>(rng_.NextBelow(
          static_cast<uint64_t>(config_.leader_interval)));
  LeaderElectionRound();  // have a leader quickly after start-up
  sim_.After(phase, [this] {
    if (!alive_) return;
    LeaderElectionRound();
    le_timer_ = sim_.Every(config_.leader_interval, [this] {
      if (alive_) LeaderElectionRound();
    });
  });
}

void Namenode::Stop() {
  le_timer_.Cancel();
  rep_timer_.Cancel();
  is_leader_ = false;
}

void Namenode::OnDnHeartbeat(blocks::DnId dn) {
  if (dn_registry_ != nullptr) dn_registry_->MarkHeartbeat(dn, sim_.now());
}

void Namenode::PrimePathCache(const std::string& path, InodeId id,
                              const std::string& row_key) {
  path_cache_[path] = CachedPath{id, row_key};
}

// ---------------------------------------------------------------------------
// Request plumbing
// ---------------------------------------------------------------------------

void Namenode::HandleRequest(FsRequest req, FsResultCb done) {
  if (!alive_) return;  // the client's RPC timeout covers dead servers
  const Nanos now = sim_.now();
  // Deadline check *before* queueing: an op whose remaining budget cannot
  // even cover the CPU queue is doomed — fail fast instead of wasting a
  // thread slot on it (deadline propagation, hop 2).
  if (resilience::HasDeadline(req.deadline) &&
      now + cpu_->Backlog() + config_.op_cpu_cost >= req.deadline) {
    metrics::Bump(ctr_deadline_);
    FsResult r;
    r.status = DeadlineExceeded("nn: queue would overrun deadline");
    done(std::move(r));
    return;
  }
  auto ctx = std::make_shared<OpCtx>();
  ctx->req = std::move(req);
  ctx->done = std::move(done);
  // Admission control: shed excess load with a retryable OVERLOADED
  // status honoured by the client's retry budget, instead of queueing
  // unboundedly and collapsing.
  if (config_.admission_enabled) {
    if (!limiter_.TryAcquire()) {
      metrics::Bump(ctr_shed_);
      FsResult r;
      r.status = ResourceExhausted("nn: overloaded, shedding");
      ctx->done(std::move(r));
      return;
    }
    ctx->admitted = true;
    ctx->admit_time = now;
  }
  const Booking b = cpu_->Submit(config_.op_cpu_cost, [this, ctx] {
    if (alive_) RunAttempt(ctx);
  });
  if (ctx->req.span != 0) {
    trace::Tracer& tr = sim_.tracer();
    if (b.queued() > 0) {
      tr.AddSpanAt(ctx->req.span, "nn.queue", trace::Layer::kNamenode,
                   trace::Cause::kCpuQueue, host_, az_, b.submit, b.start);
    }
    tr.AddSpanAt(ctx->req.span, "nn.cpu", trace::Layer::kNamenode,
                 trace::Cause::kCpu, host_, az_, b.start, b.finish);
  }
}

void Namenode::Finish(std::shared_ptr<OpCtx> ctx, FsResult result) {
  sim_.tracer().EndSpan(ctx->txn_span);
  ctx->txn_span = 0;
  if (ctx->admitted) {
    ctx->admitted = false;
    limiter_.Release(sim_.now() - ctx->admit_time, sim_.now());
  }
  if (result.status.code() == Code::kDeadlineExceeded) {
    metrics::Bump(ctr_deadline_);
  }
  // Health signal: final unavailability-class failures served by this
  // host (admission sheds are flow control, not host sickness, and are
  // counted separately above).
  if (result.status.counts_against_availability()) {
    metrics::Bump(ctr_host_errors_);
  }
  ++ops_served_;
  ctx->done(std::move(result));
}

void Namenode::MaybeRetry(std::shared_ptr<OpCtx> ctx, const Status& failure) {
  sim_.tracer().EndSpan(ctx->txn_span);
  ctx->txn_span = 0;
  if (ctx->txn != 0) {
    api_->Abort(ctx->txn);
    ctx->txn = 0;
  }
  // A NotFound under a cached path hint may only mean the hint was stale
  // (rename/delete elsewhere): drop the cache and re-resolve once.
  if (failure.code() == Code::kNotFound && ctx->used_cache &&
      !ctx->cache_retry_done) {
    ctx->cache_retry_done = true;
    path_cache_.clear();
    RunAttempt(ctx);
    return;
  }
  const Nanos now = sim_.now();
  if (resilience::DeadlineExpired(ctx->req.deadline, now)) {
    FsResult r;
    r.status = DeadlineExceeded("nn: deadline passed during txn");
    Finish(ctx, std::move(r));
    return;
  }
  if (!failure.retryable() || ctx->attempt >= config_.max_txn_retries) {
    FsResult r;
    r.status = failure;
    Finish(ctx, std::move(r));
    return;
  }
  // Retry with exponential backoff + jitter: HopsFS's backpressure to
  // NDB. Cap and ceiling are configurable, and the wait never exceeds
  // the op's remaining deadline (a retry scheduled past the deadline
  // would burn a slot on work nobody is waiting for).
  ++txn_retries_;
  metrics::Bump(ctr_txn_retries_);
  const Nanos backoff = resilience::RetryBackoff(
      config_.retry_backoff, ctx->attempt, config_.retry_backoff_exp_cap,
      config_.max_retry_backoff,
      static_cast<Nanos>(rng_.NextBelow(config_.retry_backoff)),
      ctx->req.deadline, now);
  sim_.tracer().AddSpanAt(ctx->req.span, "nn.retry_backoff",
                          trace::Layer::kNamenode, trace::Cause::kRetry,
                          host_, az_, now, now + backoff);
  sim_.After(backoff, [this, ctx] {
    if (alive_) RunAttempt(ctx);
  });
}

void Namenode::ResolveDir(std::shared_ptr<OpCtx> ctx, std::string_view path,
                          ResolveCb cb) {
  if (path == "/") {
    cb(kRootInode, InodeKey(0, ""));
    return;
  }
  // Fast path: HopsFS resolves cached path prefixes from the NN-side
  // inode hint cache without re-reading the upper directories — re-reading
  // "/user"-style top components on every operation would funnel the whole
  // cluster's load onto one partition's LDM thread. The hint is validated
  // implicitly: the operation's own locked read on the target/parent row
  // (keyed "parentId/name") misses if the hint went stale, which flows
  // through MaybeRetry's cache-flush-and-re-resolve path.
  auto hit = path_cache_.find(path);
  if (hit != path_cache_.end()) {
    ctx->used_cache = true;
    cb(hit->second.id, hit->second.row_key);
    return;
  }

  auto parts_sv = SplitPath(path);
  auto parts = std::make_shared<std::vector<std::string>>();
  for (auto p : parts_sv) parts->emplace_back(p);

  // The walk state holds the self-referencing step closure; the step
  // captures only a weak reference to the state, so the cycle resolves
  // itself once the last in-flight read callback (which holds a strong
  // reference) returns. Never reset `step` from inside itself: that
  // destroys the executing closure's captures.
  struct WalkState {
    std::function<void(size_t, InodeId, std::string)> step;
    Namenode::ResolveCb cb;
  };
  auto ws = std::make_shared<WalkState>();
  ws->cb = std::move(cb);
  std::weak_ptr<WalkState> weak = ws;
  ws->step = [this, ctx, parts, weak](size_t i, InodeId cur,
                                      std::string cur_row_key) {
    auto ws = weak.lock();
    if (!ws) return;
    if (i == parts->size()) {
      ws->cb(cur, cur_row_key);
      return;
    }
    const std::string key = InodeKey(cur, (*parts)[i]);
    api_->Read(
        ctx->txn, tables_.inodes, key, ndb::LockMode::kReadCommitted,
        [this, ctx, parts, ws, i, key](Code code,
                                       std::optional<std::string> value) {
          if (code != Code::kOk) {
            MaybeRetry(ctx, Status(code, "path read failed"));
            return;
          }
          if (!value) {
            if (ctx->used_cache) {
              MaybeRetry(ctx, NotFound("path component missing"));
            } else {
              api_->Abort(ctx->txn);
              ctx->txn = 0;
              FsResult r;
              r.status = NotFound("path component missing");
              Finish(ctx, std::move(r));
            }
            return;
          }
          InodeRow row;
          if (!InodeRow::Decode(*value, &row) || !row.is_dir) {
            api_->Abort(ctx->txn);
            ctx->txn = 0;
            FsResult r;
            r.status =
                FailedPrecondition("path component is not a directory");
            Finish(ctx, std::move(r));
            return;
          }
          // Cache this prefix: "/p0/.../pi" -> row.id.
          std::string prefix;
          for (size_t k = 0; k <= i; ++k) {
            prefix += '/';
            prefix += (*parts)[k];
          }
          path_cache_[prefix] = CachedPath{row.id, key};
          ws->step(i + 1, row.id, key);
        });
  };
  ws->step(0, kRootInode, InodeKey(0, ""));
}

void Namenode::InvalidateSubtreeHints(const std::string& path) {
  PROF_ZONE("nn.hint.invalidate");
  path_cache_.erase(path);
  // The descendants of "/a/b" are exactly the keys in ["/a/b/", "/a/b0"):
  // '0' is the character after '/'. Siblings such as "/a/b-x" or "/a/b.r"
  // sort between "/a/b" and "/a/b/", so they fall outside the range.
  std::string bound;
  bound.reserve(path.size() + 1);
  bound.append(path) += '/';
  const auto first = path_cache_.lower_bound(bound);
  bound.back() = '0';
  path_cache_.erase(first, path_cache_.lower_bound(bound));
}

// ---------------------------------------------------------------------------
// Operation dispatch
// ---------------------------------------------------------------------------

void Namenode::RunAttempt(std::shared_ptr<OpCtx> ctx) {
  PROF_ZONE("nn.op.dispatch");
  if (resilience::DeadlineExpired(ctx->req.deadline, sim_.now())) {
    FsResult r;
    r.status = DeadlineExceeded("nn: deadline passed before attempt");
    Finish(ctx, std::move(r));
    return;
  }
  ++ctx->attempt;
  ctx->used_cache = false;
  ctx->arena.Reset();
  // One span per transaction attempt; NDB op spans hang under it via
  // SetTxnTrace below.
  ctx->txn_span = sim_.tracer().StartSpan(
      ctx->req.span, "nn.txn", trace::Layer::kNamenode, trace::Cause::kWork,
      host_, az_);

  const std::string_view path = ctx->req.path;
  std::string_view parent;
  if (path == "/") {
    parent = {};
    ctx->base = {};
  } else {
    // Both views alias req.path, which is stable for the op's lifetime.
    auto [p, b] = SplitParentView(path);
    parent = p;
    ctx->base = b;
  }

  // Start the transaction with the best partition-key hint available.
  // Built in the arena: the hint is only hashed by Begin, never stored.
  std::string_view hint;
  if (path == "/") {
    hint = ctx->arena.InodeKeyIn(0, "");
  } else {
    auto it = path_cache_.find(parent);
    hint = ctx->arena.InodeKeyIn(
        it != path_cache_.end() ? it->second.id : kRootInode, ctx->base);
  }
  ctx->txn = api_->Begin(tables_.inodes, hint);
  if (ctx->txn == 0) {
    MaybeRetry(ctx, Unavailable("no NDB datanode reachable"));
    return;
  }
  // Deadline propagation, hop 3: every NDB op of this transaction carries
  // the deadline and clamps its timeout to the remaining budget.
  api_->SetTxnDeadline(ctx->txn, ctx->req.deadline);
  api_->SetTxnTrace(ctx->txn, ctx->txn_span);

  auto dispatch = [this, ctx] {
    switch (ctx->req.op) {
      case FsOp::kMkdir: DoMkdir(ctx); return;
      case FsOp::kCreate: DoCreate(ctx); return;
      case FsOp::kOpenRead: DoOpenRead(ctx); return;
      case FsOp::kStat: DoStat(ctx); return;
      case FsOp::kDelete: DoDelete(ctx); return;
      case FsOp::kListDir: DoListDir(ctx); return;
      case FsOp::kRename: DoRename(ctx); return;
      case FsOp::kChmod:
      case FsOp::kChown:
      case FsOp::kSetTimes: DoSetAttr(ctx); return;
      case FsOp::kAppend: DoAppend(ctx); return;
      case FsOp::kContentSummary: DoContentSummary(ctx); return;
      case FsOp::kDeleteRecursive: DoDeleteRecursive(ctx); return;
    }
  };

  if (path == "/") {
    // Target is the root itself.
    ctx->dir = 0;
    ctx->dir_row_key = {};
    dispatch();
    return;
  }
  ResolveDir(ctx, parent,
             [ctx, dispatch](InodeId dir, std::string_view row_key) {
               ctx->dir = dir;
               // The view may alias the path cache or a walk-local key;
               // pin a copy the deferred transaction callbacks can use.
               ctx->dir_row_key = ctx->arena.Intern(row_key);
               dispatch();
             });
}

// The per-operation transaction bodies live in namenode_ops.cc; the
// leadership protocols in leader.cc.

}  // namespace repro::hopsfs

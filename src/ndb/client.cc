#include "ndb/client.h"

#include <algorithm>
#include <cassert>

#include "resilience/deadline.h"
#include "util/logging.h"

namespace repro::ndb {

NdbApiNode::NdbApiNode(NdbCluster& cluster, HostId host,
                       AzId location_domain_id)
    : cluster_(cluster), host_(host), az_(location_domain_id) {
  id_ = cluster_.RegisterApi(this);
}

NdbApiNode::~NdbApiNode() { cluster_.UnregisterApi(id_); }

NodeId NdbApiNode::PickTc(const TableDef* td, TableId table,
                          std::string_view hint_key) {
  auto& layout = cluster_.layout();
  const bool az_aware = cluster_.flags().az_aware && az_ != kNoAz;

  if (td != nullptr) {
    const PartitionId part = layout.PartitionOf(table, hint_key);
    if (td->read_backup && !td->fully_replicated) {
      // Case 1: any replica of the partition, closest AZ first.
      return layout.PickByProximity(az_, layout.ReplicaChain(part), az_aware,
                                    rr_++);
    }
    if (td->fully_replicated) {
      // Case 2: every node holds the data; pick by proximity.
      std::vector<NodeId> all(layout.num_nodes());
      for (int n = 0; n < layout.num_nodes(); ++n) all[n] = n;
      return layout.PickByProximity(az_, all, az_aware, rr_++);
    }
    // Case 3: nodes derived from the partition key. AZ-aware picks the
    // same-AZ member (reads still reroute to the primary); classic NDB
    // picks the primary replica (distribution awareness).
    if (az_aware) {
      return layout.PickByProximity(az_, layout.ReplicaChain(part), true,
                                    rr_++);
    }
    return layout.PrimaryOf(part);
  }

  // Case 4: no hint — all datanodes ordered by proximity.
  std::vector<NodeId> all(layout.num_nodes());
  for (int n = 0; n < layout.num_nodes(); ++n) all[n] = n;
  return layout.PickByProximity(az_, all, az_aware, rr_++);
}

TxnId NdbApiNode::Begin(TableId hint_table, std::string_view hint_key) {
  const TableDef& td = cluster_.catalog().table(hint_table);
  const NodeId tc = PickTc(&td, hint_table, hint_key);
  if (tc == kNoNode) return 0;
  const TxnId txn = cluster_.NextTxnId();
  *txns_.Emplace(txn).first = TxnState{tc, false, 0};
  return txn;
}

TxnId NdbApiNode::BeginNoHint() {
  const NodeId tc = PickTc(nullptr, 0, {});
  if (tc == kNoNode) return 0;
  const TxnId txn = cluster_.NextTxnId();
  *txns_.Emplace(txn).first = TxnState{tc, false, 0};
  return txn;
}

NdbApiNode::TxnState* NdbApiNode::FindTxn(TxnId txn) {
  return txns_.Find(txn);
}

void NdbApiNode::SetTxnDeadline(TxnId txn, Nanos deadline) {
  if (TxnState* t = FindTxn(txn)) t->deadline = deadline;
}

void NdbApiNode::SetTxnTrace(TxnId txn, trace::SpanId span) {
  if (TxnState* t = FindTxn(txn)) t->span = span;
}

uint64_t NdbApiNode::RegisterOp(TxnId txn, PendingOp op) {
  const uint64_t op_id = next_op_id_++;
  op.txn = txn;
  *pending_.Emplace(op_id).first = std::move(op);
  // The local timer never outlives the op's deadline: the op fails
  // exactly at the deadline with no extra pending events.
  Nanos timeout = op_timeout_;
  if (TxnState* t = FindTxn(txn)) {
    t->inflight += 1;
    timeout = resilience::ClampToDeadline(timeout, t->deadline,
                                          cluster_.sim().now());
  }

  // The timer resolves the API node by id at fire time: if the node was
  // destroyed in the meantime, the slot is null and the timer is a no-op
  // instead of a use-after-free.
  cluster_.sim().After(timeout, [cluster = &cluster_, id = id_, op_id] {
    NdbApiNode* self = cluster->api(id);
    if (self != nullptr) self->OnOpTimeout(op_id);
  });
  return op_id;
}

void NdbApiNode::OnOpTimeout(uint64_t op_id) {
  PendingOp* p = pending_.Find(op_id);
  if (p == nullptr) return;  // already answered
  ++timeouts_;
  TxnState* t = FindTxn(p->txn);
  if (t != nullptr) t->broken = true;
  // An op that ran out of *deadline* (not the op timeout) reports
  // kDeadlineExceeded so the caller fails fast instead of retrying.
  const bool past_deadline =
      t != nullptr &&
      resilience::DeadlineExpired(t->deadline, cluster_.sim().now());
  if (past_deadline) metrics::Bump(deadline_exceeded_);
  FailOp(op_id, past_deadline ? Code::kDeadlineExceeded : Code::kTimedOut);
}

void NdbApiNode::FailOp(uint64_t op_id, Code code) {
  PendingOp* slot = pending_.Find(op_id);
  if (slot == nullptr) return;
  PendingOp op = std::move(*slot);
  pending_.Erase(op_id);
  cluster_.sim().tracer().EndSpan(op.span);
  cluster_.sim().tracer().EndSpan(op.hedge_span);
  if (TxnState* t = FindTxn(op.txn)) t->inflight -= 1;
  if (op.erase_txn) txns_.Erase(op.txn);
  Fail(op, code);
}

void NdbApiNode::Fail(PendingOp& op, Code code) {
  if (op.read_cb) op.read_cb(code, std::nullopt);
  if (op.write_cb) op.write_cb(code);
  if (op.scan_cb) op.scan_cb(code, {});
}

NdbApiNode::TxnState* NdbApiNode::AdmitOp(TxnId txn, PendingOp& op) {
  TxnState* t = FindTxn(txn);
  if (t == nullptr || t->broken || !cluster_.cluster_up() ||
      !cluster_.layout().alive(t->tc)) {
    Fail(op, t == nullptr || t->broken ? Code::kAborted
                                       : Code::kUnavailable);
    return nullptr;
  }
  // Fail fast before spending a network round trip on doomed work.
  if (resilience::DeadlineExpired(t->deadline, cluster_.sim().now())) {
    metrics::Bump(deadline_exceeded_);
    Fail(op, Code::kDeadlineExceeded);
    return nullptr;
  }
  return t;
}

void NdbApiNode::SendKeyOp(TxnId txn, KeyOpReq req, PendingOp op) {
  TxnState* t = AdmitOp(txn, op);
  if (t == nullptr) return;
  req.txn = txn;
  req.api = id_;
  req.deadline = t->deadline;
  op.span = cluster_.sim().tracer().StartSpan(
      t->span, req.is_write ? "ndb.write" : "ndb.read", trace::Layer::kNdb,
      trace::Cause::kWork, host_, az_);
  req.span = op.span;
  req.op_id = RegisterOp(txn, std::move(op));
  const bool hedgeable = hedge_read_delay_ > 0 && !req.is_write &&
                         req.mode == LockMode::kReadCommitted;
  const int64_t bytes =
      cluster_.cost().msg_read_req + static_cast<int64_t>(req.value.size());
  if (hedgeable) MaybeHedgeRead(txn, req.op_id, req);
  const trace::SpanId span = req.span;
  SendToTc(txn, t->tc, bytes,
           [req = std::move(req)](NdbDatanode& n) mutable {
             n.TcKeyOp(std::move(req));
           },
           span);
}

void NdbApiNode::MaybeHedgeRead(TxnId txn, uint64_t op_id,
                                const KeyOpReq& req) {
  // Same destruction fence as the op timer: resolve by id at fire time.
  cluster_.sim().After(
      hedge_read_delay_,
      [cluster = &cluster_, id = id_, txn, op_id, req]() mutable {
        NdbApiNode* self = cluster->api(id);
        if (self != nullptr) self->HedgeReadNow(txn, op_id, std::move(req));
      });
}

void NdbApiNode::HedgeReadNow(TxnId txn, uint64_t op_id, KeyOpReq req) {
  PendingOp* p = pending_.Find(op_id);
  if (p == nullptr) return;  // answered in time: no hedge
  TxnState* t = FindTxn(txn);
  if (t == nullptr || t->broken || !cluster_.cluster_up()) return;
  // Send the same op (same op_id) to a backup replica of the
  // partition; OnOpReply's pending-op erase makes the race benign.
  auto& layout = cluster_.layout();
  const PartitionId part = layout.PartitionOf(req.table, req.key);
  NodeId alt = kNoNode;
  for (NodeId n : layout.ReplicaChain(part)) {
    if (n != t->tc && layout.alive(n)) {
      alt = n;
      break;
    }
  }
  if (alt == kNoNode) return;  // no second replica to hedge to
  p->hedge_tc = alt;
  metrics::Bump(hedges_sent_);
  const int64_t bytes = cluster_.cost().msg_read_req;
  // The duplicated work is blamed on the resilience stack (kRetry).
  const trace::SpanId hspan = cluster_.sim().tracer().StartSpan(
      req.span, "ndb.read_hedge", trace::Layer::kNdb, trace::Cause::kRetry,
      host_, az_);
  p->hedge_span = hspan;
  req.span = hspan;
  SendToTc(txn, alt, bytes,
           [hreq = std::move(req)](NdbDatanode& n) mutable {
             n.TcKeyOp(std::move(hreq));
           },
           hspan);
}

void NdbApiNode::Read(TxnId txn, TableId table, Key key, LockMode mode,
                      ReadCb cb) {
  KeyOpReq req;
  req.table = table;
  req.key = std::move(key);
  req.mode = mode;
  PendingOp op;
  op.read_cb = std::move(cb);
  SendKeyOp(txn, std::move(req), std::move(op));
}

void NdbApiNode::SendWrite(TxnId txn, TableId table, Key key,
                           WriteType type, bool insert_only, bool must_exist,
                           std::string value, WriteCb cb) {
  KeyOpReq req;
  req.table = table;
  req.key = std::move(key);
  req.is_write = true;
  req.write_type = type;
  req.insert_only = insert_only;
  req.must_exist = must_exist;
  req.value = std::move(value);
  PendingOp op;
  op.write_cb = std::move(cb);
  SendKeyOp(txn, std::move(req), std::move(op));
}

void NdbApiNode::Insert(TxnId txn, TableId table, Key key, std::string value,
                        WriteCb cb) {
  SendWrite(txn, table, std::move(key), WriteType::kPut, /*insert_only=*/true,
            /*must_exist=*/false, std::move(value), std::move(cb));
}

void NdbApiNode::Update(TxnId txn, TableId table, Key key, std::string value,
                        WriteCb cb) {
  SendWrite(txn, table, std::move(key), WriteType::kPut, /*insert_only=*/false,
            /*must_exist=*/true, std::move(value), std::move(cb));
}

void NdbApiNode::Write(TxnId txn, TableId table, Key key, std::string value,
                       WriteCb cb) {
  SendWrite(txn, table, std::move(key), WriteType::kPut, /*insert_only=*/false,
            /*must_exist=*/false, std::move(value), std::move(cb));
}

void NdbApiNode::Delete(TxnId txn, TableId table, Key key, WriteCb cb) {
  SendWrite(txn, table, std::move(key), WriteType::kDelete,
            /*insert_only=*/false, /*must_exist=*/true, {}, std::move(cb));
}

void NdbApiNode::ScanPrefix(TxnId txn, TableId table, Key prefix, ScanCb cb) {
  PendingOp op;
  op.scan_cb = std::move(cb);
  TxnState* t = AdmitOp(txn, op);
  if (t == nullptr) return;
  ScanReq req;
  req.txn = txn;
  req.api = id_;
  req.table = table;
  req.prefix = std::move(prefix);
  req.deadline = t->deadline;
  op.span = cluster_.sim().tracer().StartSpan(
      t->span, "ndb.scan", trace::Layer::kNdb, trace::Cause::kWork, host_,
      az_);
  req.span = op.span;
  req.op_id = RegisterOp(txn, std::move(op));
  const trace::SpanId span = req.span;
  SendToTc(txn, t->tc, cluster_.cost().msg_scan_req,
           [req = std::move(req)](NdbDatanode& n) mutable {
             n.TcScan(std::move(req));
           },
           span);
}

void NdbApiNode::Commit(TxnId txn, WriteCb cb) {
  TxnState* t = FindTxn(txn);
  if (t == nullptr) {
    cb(Code::kAborted);
    return;
  }
  if (t->broken || !cluster_.cluster_up() ||
      !cluster_.layout().alive(t->tc)) {
    Abort(txn);
    cb(Code::kAborted);
    return;
  }
  if (resilience::DeadlineExpired(t->deadline, cluster_.sim().now())) {
    metrics::Bump(deadline_exceeded_);
    Abort(txn);
    cb(Code::kDeadlineExceeded);
    return;
  }
  PendingOp op;
  op.write_cb = std::move(cb);
  op.erase_txn = true;  // drop txn state when the commit is answered
  op.span = cluster_.sim().tracer().StartSpan(
      t->span, "ndb.commit", trace::Layer::kNdb, trace::Cause::kWork, host_,
      az_);
  const trace::SpanId cspan = op.span;
  const uint64_t op_id = RegisterOp(txn, std::move(op));
  const NodeId tc = t->tc;
  SendToTc(txn, tc, cluster_.cost().msg_small,
           [txn, op_id, api = id_, cspan](NdbDatanode& n) {
             n.TcCommit(txn, op_id, api, cspan);
           },
           cspan);
}

void NdbApiNode::Abort(TxnId txn) {
  TxnState* t = FindTxn(txn);
  if (t == nullptr) return;
  if (cluster_.layout().alive(t->tc) && cluster_.cluster_up()) {
    SendToTc(txn, t->tc, cluster_.cost().msg_small,
             [txn](NdbDatanode& n) { n.TcAbort(txn); });
  }
  txns_.Erase(txn);
}

void NdbApiNode::OnOpReply(OpReply reply) {
  PendingOp* slot = pending_.Find(reply.op_id);
  if (slot == nullptr) return;  // late reply after timeout / hedge loss
  PendingOp op = std::move(*slot);
  pending_.Erase(reply.op_id);
  cluster_.sim().tracer().EndSpan(op.span);
  cluster_.sim().tracer().EndSpan(op.hedge_span);
  if (TxnState* t = FindTxn(op.txn)) t->inflight -= 1;
  if (op.erase_txn) txns_.Erase(op.txn);
  if (op.hedge_tc != kNoNode && reply.from == op.hedge_tc) {
    metrics::Bump(hedge_wins_);
  }

  if (op.read_cb) {
    if (reply.code == Code::kOk || reply.code == Code::kNotFound) {
      op.read_cb(reply.code == Code::kNotFound ? Code::kNotFound : Code::kOk,
                 std::move(reply.value));
    } else {
      op.read_cb(reply.code, std::nullopt);
    }
  }
  if (op.write_cb) op.write_cb(reply.code);
  if (op.scan_cb) op.scan_cb(reply.code, std::move(reply.rows));
}

}  // namespace repro::ndb

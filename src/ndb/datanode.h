// An NDB datanode: transaction coordinator (TC) + local data manager (LDM).
//
// Each datanode models the multi-threaded architecture of Table II: 12 LDM
// threads own table partitions, 7 TC threads coordinate transactions, 3
// RECV / 2 SEND threads handle the wire, and the REP/IO/MAIN singles act
// as helpers when RECV/SEND back up (the effect behind Fig. 11).
//
// The commit protocol is the paper's linear 2PC (Fig. 2):
//
//   execute(write):  TC --Prepare--> primary --Prepare--> B --> B'
//                    B' --Prepared--> TC            (locks taken at primary)
//   commit:          TC --Commit--> B' --> B --> primary
//                    primary applies + unlocks, --Committed--> TC
//   complete:        TC --Complete--> each backup (applies its pending)
//                    backup --Completed--> TC
//
// Classic NDB acks the client after all Committed messages; backups are
// only up to date after Complete, hence committed reads are redirected to
// the primary. With the Read Backup table option (§IV-A3) the TC delays
// the ack until all Completed messages have arrived, making every replica
// safe for committed reads — the enabler for AZ-local reads.
//
// Each signal is built in one private step that every sender shares, so a
// re-drive or a NACK sends exactly what a first attempt does. The redo
// journal, its group commit, local checkpoints and backpressure are on.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ndb/config.h"
#include "ndb/lock_manager.h"
#include "sim/callback.h"
#include "ndb/redo_journal.h"
#include "ndb/row_store.h"
#include "ndb/schema.h"
#include "ndb/types.h"
#include "sim/network.h"
#include "sim/resources.h"
#include "util/status.h"

namespace repro::ndb {

class NdbCluster;
class NdbApiNode;

// ---- Wire messages ------------------------------------------------------

// API -> TC: key operation.
struct KeyOpReq {
  TxnId txn = 0;
  ApiNodeId api = -1;
  uint64_t op_id = 0;
  TableId table = 0;
  Key key;
  LockMode mode = LockMode::kReadCommitted;  // reads
  bool is_write = false;
  WriteType write_type = WriteType::kPut;
  bool insert_only = false;   // fail with kAlreadyExists if row exists
  bool must_exist = false;    // fail with kNotFound (delete/update strict)
  std::string value;
  // Absolute deadline propagated from the client op (0 = none). The TC
  // rejects work whose deadline already passed instead of routing it.
  Nanos deadline = 0;
  // Trace span of this operation at the API node (0 = not sampled); TC
  // and LDM work on the op parents its spans here.
  trace::SpanId span = 0;
};

// API -> TC: partition-pruned prefix scan (directory listing).
struct ScanReq {
  TxnId txn = 0;
  ApiNodeId api = -1;
  uint64_t op_id = 0;
  TableId table = 0;
  Key prefix;
  Nanos deadline = 0;       // see KeyOpReq::deadline
  trace::SpanId span = 0;   // see KeyOpReq::span
};

// TC/LDM -> API: completion of one operation (or of commit/abort).
struct OpReply {
  TxnId txn = 0;
  uint64_t op_id = 0;
  Code code = Code::kOk;
  std::optional<std::string> value;
  std::vector<std::pair<Key, std::string>> rows;  // scans
  // Responding datanode, stamped by SendToApi: lets the API node tell a
  // hedged read's winner from the original.
  NodeId from = kNoNode;
};

// Chain messages (Fig. 2).
struct PrepareReq {
  TxnId txn = 0;
  NodeId tc = kNoNode;
  uint64_t op_id = 0;
  ApiNodeId api = -1;
  TableId table = 0;
  Key key;
  PartitionId part = 0;
  WriteType type = WriteType::kPut;
  bool insert_only = false;
  bool must_exist = false;
  std::string value;
  std::vector<NodeId> chain;  // primary first
  int pos = 0;                // index of the receiving replica
  int busy_retries = 0;       // waits on a predecessor's pending write
  trace::SpanId span = 0;     // op span the chain hops trace under
};

struct CommitChainReq {
  TxnId txn = 0;
  NodeId tc = kNoNode;
  TableId table = 0;
  Key key;
  PartitionId part = 0;
  // GCP epoch the TC assigned the whole transaction at commit decision
  // time; every replica stamps its redo record with it, so one commit's
  // records can never straddle a GCP tick.
  int64_t epoch = 0;
  std::vector<NodeId> chain;
  int pos = 0;  // traverses from chain.size()-1 down to 0 (the primary)
  trace::SpanId span = 0;  // the txn's ndb.commit span
};

struct CompleteReq {
  TxnId txn = 0;
  NodeId tc = kNoNode;
  TableId table = 0;
  Key key;
  PartitionId part = 0;
  int64_t epoch = 0;  // see CommitChainReq::epoch
  bool is_primary = false;
  trace::SpanId span = 0;  // the txn's ndb.commit span
};

// ---- Datanode -----------------------------------------------------------

class NdbDatanode {
 public:
  NdbDatanode(NdbCluster& cluster, NodeId id, HostId host);

  NodeId id() const { return id_; }
  HostId host() const { return host_; }
  AzId az() const;
  bool alive() const { return alive_; }

  // Grey failure injection: degrades this node's compute and disk service
  // times without killing it — heartbeats still flow (slowly), so the
  // failure detector does NOT evict the node and the cluster limps along
  // with a straggler. Factors of 1.0 restore normal speed.
  void SetGreySlowdown(double cpu_factor, double disk_factor);
  bool grey_degraded() const { return grey_degraded_; }
  // Grey-slow / saturated redo log disk only: the data disk and CPUs stay
  // at full speed, so the node limps exactly where real deployments do —
  // group commits stretch, the unflushed backlog grows, and redo
  // backpressure kicks in. 1.0 restores normal speed.
  void SetLogDiskSlowdown(double factor);
  bool log_disk_slow() const { return log_disk_slow_; }

  // TEST-ONLY fault hook: when set, this node's TC acknowledges write
  // operations as kOk without ever staging them on any replica — a
  // deliberate lost-acked-write bug used to prove the chaos harness's
  // durability invariant actually detects violations. Never set outside
  // tests/benchmarks.
  void set_test_lose_acked_writes(bool v) { test_lose_acked_writes_ = v; }

  // Graceful shutdown (lost arbitration / operator stop): stops serving.
  void Shutdown();
  // Brings a stopped node back into service (node recovery; data must
  // already have been resynchronised by the cluster).
  void Revive();
  // True if any transaction this node coordinates touches the partition
  // (fences streaming per-partition catch-up during node rejoin).
  bool HasTxnTouchingPartition(PartitionId part) const;

  // -- entry points (invoked after RECV-thread queueing) --
  void TcKeyOp(KeyOpReq req);
  void TcScan(ScanReq req);
  void TcCommit(TxnId txn, uint64_t op_id, ApiNodeId api,
                trace::SpanId span = 0);
  void TcAbort(TxnId txn);

  void LdmCommittedRead(KeyOpReq req);
  void LdmLockedRead(PrepareReq probe);  // reuses chain fields for routing
  void LdmPrepare(PrepareReq req);
  void LdmCommitChain(CommitChainReq req);
  void LdmComplete(CompleteReq req);
  void LdmAbortRow(TxnId txn, TableId table, Key key, PartitionId part);
  // Releases a shared/exclusive read lock without touching pending writes
  // (used at the commit point for rows that were only read).
  void LdmUnlock(TxnId txn, TableId table, Key key, PartitionId part);
  void LdmScanExec(ScanReq req, PartitionId part);

  // TC-side protocol confirmations.
  void TcLockedReadResult(TxnId txn, uint64_t op_id, Code code,
                          std::optional<std::string> value, TableId table,
                          Key key, PartitionId part, trace::SpanId span = 0);
  void TcPrepared(TxnId txn, uint64_t op_id, Code code, TableId table,
                  Key key, PartitionId part, std::vector<NodeId> chain,
                  trace::SpanId span = 0);
  void TcCommitted(TxnId txn);
  void TcCompleted(TxnId txn);

  // Failure handling: aborts transactions that involve the given node.
  void AbortTxnsInvolving(NodeId failed);
  // Take-over support: surrenders every row touched by transactions this
  // node coordinates, so survivors can release locks and pending writes
  // after this coordinator dies. Clears the coordinator state.
  struct TakeoverRow {
    TxnId txn;
    TableId table;
    Key key;
    PartitionId part;
    NodeId node;
    // True if the coordinator had passed its commit point: take-over must
    // roll the row forward (apply the pending write), not back — the
    // primary may already have applied, and aborting the backups' pending
    // copies would leave the replicas diverged forever.
    bool commit_forward = false;
    // The dead coordinator's commit-decision epoch (commit_forward rows):
    // roll-forward redo records must carry the same epoch the already-
    // applied replicas logged, or the take-over itself would straddle.
    int64_t epoch = 0;
  };
  std::vector<TakeoverRow> DrainTxnRowsForTakeover();
  // Applies one drained row on a surviving replica: commit or abort the
  // pending write per `commit_forward`, release the row lock.
  void ResolveTakenOverRow(const TakeoverRow& row);
  // Aborts transactions whose API client is considered gone, and reaps
  // pending writes whose coordinating transaction no longer exists.
  void SweepInactiveTxns();
  // Whether this node (as TC) still tracks the transaction.
  bool HasActiveTxn(TxnId txn) const { return txns_.count(txn) > 0; }

  RowStore& store() { return store_; }
  LockManager& locks() { return locks_; }
  Disk& disk() { return *disk_; }
  // Dedicated redo-log device: group commits and recovery log reads queue
  // here, so a saturated data disk cannot stall the redo path (and vice
  // versa) — and a slow log disk is a distinct, injectable failure mode.
  Disk& log_disk() { return *log_disk_; }

  // ---- durability: write-ahead redo journal ----
  RedoJournal& journal() { return journal_; }
  const RedoJournal& journal() const { return journal_; }
  // The cluster announced a new GCP epoch: commit decisions from now on
  // are stamped with it. Deliberately does NOT close the previous epoch —
  // transactions that took their commit decision under it may still have
  // chain messages in flight, and their redo records must land inside the
  // epoch. The cluster closes epochs separately (CloseGcpEpoch) once no
  // committing transaction at or below them remains.
  void set_gcp_epoch(int64_t epoch) { gcp_epoch_ = epoch; }
  int64_t gcp_epoch() const { return gcp_epoch_; }
  // The cluster determined every transaction of epochs <= epoch has
  // finished committing: record the epoch boundary in the journal.
  void CloseGcpEpoch(int64_t epoch) { journal_.CloseEpoch(epoch); }
  // True if this node coordinates a transaction that took its commit
  // decision at or below `epoch` and has not finished its commit/complete
  // chain — the cluster must not close the epoch yet.
  bool HasCommittingTxnAtOrBelow(int64_t epoch) const;
  // Highest GCP epoch this node's flushed log + checkpoint cover.
  int64_t durable_gcp_epoch() const { return journal_.durable_epoch(); }
  // Starts a local checkpoint if one is due: captures the image at the
  // cluster-durable epoch boundary, charges the image write to the disk,
  // then truncates the journal. No-op while one is already running.
  void StartLocalCheckpoint(int64_t cluster_durable_epoch);
  bool lcp_in_progress() const { return lcp_inflight_; }
  // Bootstrap data is durable by definition (loaded before the run).
  void LogBootstrap(TableId table, const Key& key, const std::string& value) {
    journal_.BootstrapRow(table, key, value);
  }

  // ---- node recovery state machine (down -> replaying -> resyncing ->
  // serving), driven by NdbCluster::RestartDatanode ----
  enum class RecoveryPhase { kServing, kDown, kReplaying, kResyncing };
  RecoveryPhase recovery_phase() const { return recovery_phase_; }
  bool recovering() const {
    return recovery_phase_ == RecoveryPhase::kReplaying ||
           recovery_phase_ == RecoveryPhase::kResyncing;
  }
  // Bumped whenever a crash/install invalidates in-flight recovery or
  // flush continuations; they compare generations and bail when stale.
  uint64_t recovery_generation() const { return recovery_gen_; }
  void BeginRecovery();
  void SetRecoveryPhase(RecoveryPhase phase) { recovery_phase_ = phase; }

  // Replays checkpoint + durable log (epoch <= max_epoch) into the row
  // store, auditing that two independent replays produce byte-identical
  // images and that exactly the planned durable prefix was applied.
  struct ReplayResult {
    int64_t entries = 0;
    uint64_t digest = 0;
    bool deterministic = false;  // replay-twice digests agreed
    bool covered = false;        // applied == planned durable entries
  };
  ReplayResult ReplayFromJournal(int64_t max_epoch);
  // Collapses the journal onto the store's current committed image "as
  // of `epoch`" — the checkpoint a restarting node completes after
  // adopting the resync image, before it serves again.
  void CheckpointAdoptedImage(int64_t epoch);
  // Epoch-filtered journal adoption during node rejoin: rebuilds this
  // node's journal from the resync source's, with the base image cut
  // exactly at `cut_epoch` (the cluster-durable epoch) and everything
  // beyond it re-adopted as ordinary log records. The rejoined node can
  // therefore never smuggle post-durable commits into an immediately
  // following cluster recovery: its base attests cut_epoch, and the
  // fresher rows sit in the log where a recovery cut drops them.
  struct AdoptResult {
    int64_t image_bytes = 0;  // base image write (data disk)
    int64_t tail_bytes = 0;   // adopted post-cut records (log disk)
  };
  AdoptResult AdoptJournalFrom(const NdbDatanode& source, int64_t cut_epoch,
                               int64_t cluster_closed_epoch, Nanos now);
  // Order-sensitive digest of the committed row image.
  uint64_t DigestStore() const;

  // ---- streaming catch-up (serve reads mid-resync) ----
  // While rejoining, a node accepts LDM traffic (committed reads for
  // already-resynced partitions, and backup chain hops so resynced
  // partitions stay fresh) before it is layout-alive again.
  void SetCatchupAccepting(bool v) { catchup_accepting_ = v; }
  bool catchup_accepting() const { return catchup_accepting_; }
  // Committed reads this node served while not yet fully rejoined.
  int64_t catchup_reads_served() const { return catchup_reads_served_; }

  // Cumulative time the redo backlog spent above the stall limit (the
  // `ndb.redo.stall_ns` telemetry series; includes an ongoing stall).
  Nanos redo_stall_ns() const;

  // -- infrastructure used by the cluster --
  void ReceiveMsg(SmallFn handle);
  // `span` != 0 wraps the hop (SEND-thread queue + wire) in a network
  // span under it; local delivery (dst == this node) records nothing.
  void SendToNode(NodeId dst, int64_t bytes,
                  SmallCall<void(NdbDatanode&)> fn,
                  trace::SpanId span = 0);
  void SendToApi(ApiNodeId api, int64_t bytes, OpReply reply,
                 trace::SpanId span = 0);
  // Run* submit the closure as-is: the caller's closure body must begin
  // with its own alive_/accepting() re-check (the old allocation-heavy
  // liveness wrappers are gone; see RunTc in datanode.cc).
  Booking RunTc(Nanos cost, SmallFn fn);
  Booking RunLdm(PartitionId part, Nanos cost, SmallFn fn);
  void RunIo(Nanos cost, SmallFn fn);
  void FlushRedo();

  // Thread pools, exposed for utilisation reporting (Fig. 11).
  const ThreadPool& ldm_pool() const { return *ldm_; }
  const ThreadPool& tc_pool() const { return *tc_; }
  const ThreadPool& recv_pool() const { return *recv_; }
  const ThreadPool& send_pool() const { return *send_; }
  const ThreadPool& rep_pool() const { return *rep_; }
  const ThreadPool& io_pool() const { return *io_; }
  const ThreadPool& main_pool() const { return *main_; }
  void ResetStats();
  int64_t active_txns() const { return static_cast<int64_t>(txns_.size()); }

  // Protocol message counters (validated against Fig. 2 by tests).
  struct ProtocolStats {
    int64_t prepares = 0;         // LdmPrepare executions
    int64_t commit_hops = 0;      // LdmCommitChain executions
    int64_t completes = 0;        // LdmComplete executions
    int64_t commit_redrives = 0;  // stalled commit/complete re-drives
    int64_t committed_reads = 0;  // LdmCommittedRead executions
    int64_t locked_reads = 0;     // LdmLockedRead executions
    int64_t scans = 0;
  };
  const ProtocolStats& protocol_stats() const { return proto_stats_; }

 private:
  struct TcTxn {
    ApiNodeId api = -1;
    bool delay_ack = false;
    bool committing = false;
    bool aborted = false;
    // GCP epoch assigned atomically at the commit decision; 0 until then.
    int64_t commit_epoch = 0;
    struct WriteRow {
      TableId table;
      Key key;
      PartitionId part;
      std::vector<NodeId> chain;
    };
    std::vector<WriteRow> writes;
    // Partitions with a prepare chain launched but not yet acknowledged.
    // `writes` is only recorded once the whole chain has prepared, so a
    // mid-chain transaction is invisible through it — the restart fence
    // (HasTxnTouchingPartition) must see these too or it can adopt a peer
    // image that predates a write the chain is about to commit.
    std::vector<PartitionId> inflight_parts;
    struct HeldLock {
      TableId table;
      Key key;
      PartitionId part;
      NodeId node;
    };
    std::vector<HeldLock> read_locks;
    int pending_commits = 0;
    int pending_completes = 0;
    uint64_t commit_op_id = 0;
    trace::SpanId commit_span = 0;  // ndb.commit span (0 = unsampled)
    Nanos last_activity = 0;
  };

  TcTxn& Txn(TxnId txn, ApiNodeId api);
  void Touch(TcTxn& t);
  // Visits every row a transaction holds: each replica of each prepared
  // write (`write` = true), then each read lock.
  template <typename F>
  static void ForEachRow(const TcTxn& t, F&& f);
  // Chooses the replica that serves a committed read (§IV-A4 routing).
  NodeId RouteCommittedRead(TableId table, PartitionId part,
                            int* replica_idx);
  // Stages the primary's pending write under the already-held row lock,
  // waiting out a previous chain's pending write if the primary role
  // moved (failover or catch-up rejoin).
  void LdmPrimaryStage(PrepareReq req);
  void StartCompletePhase(TxnId txn, TcTxn& t);
  void RedriveStalledCommit(TxnId txn, TcTxn& t);
  void FinishCommit(TxnId txn, TcTxn& t);
  void AbortTxnInternal(TxnId txn, TcTxn& t, bool notify_api, Code code);
  void ForwardPrepare(PrepareReq req);

  // ---- signal steps: each protocol signal is built and sent here ----
  void AbortRowAt(NodeId node, TxnId txn, TableId table, const Key& key,
                  PartitionId part);  // LdmAbortRow
  void UnwindChain(const PrepareReq& req);  // abort rows at chain[0..pos)
  void ReplyPrepared(PrepareReq req, Code code);  // TcPrepared ack / NACK
  void ReplyToApi(ApiNodeId api, TxnId txn, uint64_t op_id, Code code,
                  trace::SpanId span = 0);  // payload-free OpReply
  void SendCommitChain(TxnId txn, const TcTxn& t, const TcTxn::WriteRow& w,
                       std::vector<NodeId> chain);  // to chain.back()
  void SendComplete(TxnId txn, const TcTxn& t, const TcTxn::WriteRow& w,
                    size_t i);  // to w.chain[i]
  // Retries a prepare whose row slot holds another txn's pending write
  // every 200 µs, up to 1,000 times, then NACKs kTimedOut.
  void WaitForBusySlot(PrepareReq req);
  // One partition's image write of a local checkpoint round, then the next.
  void CheckpointFragment(int64_t cut, uint64_t gen, PartitionId part);
  // Emits queue/service spans for a thread-pool booking under `parent`
  // (no-op when the op is unsampled). `what` names the span: "<what>" for
  // the service slice, "<what>.queue" for any wait before it.
  void TraceCpu(trace::SpanId parent, const char* what, const Booking& b);

  NdbCluster& cluster_;
  NodeId id_;
  HostId host_;
  bool alive_ = true;

  std::unique_ptr<ThreadPool> ldm_, tc_, recv_, send_, rep_, io_, main_;
  std::unique_ptr<Disk> disk_;
  std::unique_ptr<Disk> log_disk_;
  RowStore store_;
  LockManager locks_;

  void LogRedo(int64_t epoch, PartitionId part, TxnId txn, TableId table,
               const Key& key,
               const std::optional<RowStore::AppliedWrite>& applied);
  // Transitions the stall clock when the backlog crosses the limit;
  // called after every journal append and flush completion.
  void UpdateRedoStallAccounting();
  // Accepts LDM-side traffic: fully alive, or rejoining with streaming
  // catch-up enabled (reads/chain hops for resynced partitions).
  bool accepting() const { return alive_ || catchup_accepting_; }

  std::unordered_map<TxnId, TcTxn> txns_;
  uint64_t rr_counter_ = 0;      // proximity tie-break round robin
  ProtocolStats proto_stats_;
  RedoJournal journal_;
  int64_t gcp_epoch_ = 0;
  RecoveryPhase recovery_phase_ = RecoveryPhase::kServing;
  uint64_t recovery_gen_ = 0;
  bool lcp_inflight_ = false;
  bool grey_degraded_ = false;
  bool log_disk_slow_ = false;
  bool test_lose_acked_writes_ = false;
  bool catchup_accepting_ = false;
  int64_t catchup_reads_served_ = 0;
  // Redo backpressure stall clock (see redo_stall_ns()).
  bool redo_stalled_ = false;
  Nanos redo_stall_since_ = 0;
  Nanos redo_stall_accum_ = 0;
};

}  // namespace repro::ndb

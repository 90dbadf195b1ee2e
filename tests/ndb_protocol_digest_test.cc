// Pins the NDB protocol paths the metadata benchmark rarely or never runs:
// locked reads, scans, every write kind, the AlreadyExists / NotFound
// prepare NACKs, lock-wait timeouts, TC aborts, redo backpressure, both
// busy-slot timeouts, a commit re-drive and local checkpoints. Each op's
// (code, completion sim time) and each node's committed image, protocol
// counters and journal position fold into one FNV-1a digest: any change
// to a signal a node sends, its size, its cost or its order moves a
// completion time or a counter, and so the digest.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ndb_test_util.h"
#include "util/strings.h"

namespace repro::ndb {
namespace {

using testing::TestCluster;

enum class WriteKind { kInsert, kUpdate, kWrite, kDelete };

class DigestRun {
 public:
  explicit DigestRun(NdbNodeConfig node)
      : tc(6, 3, /*az_aware=*/true, /*read_backup=*/true, node) {
    tc.cluster->StartProtocols();
  }

  void Fold(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xff;
      digest *= 1099511628211ull;  // FNV prime
    }
  }
  // One op finished: fold its code and the sim time it completed at.
  void Done(Code code) {
    Fold(static_cast<uint64_t>(code));
    Fold(static_cast<uint64_t>(tc.sim->now()));
  }

  // A one-write transaction: commit if the write succeeded, else abort.
  // Returns the commit's code, or the write's when it failed.
  Code WriteTxn(WriteKind kind, const Key& key,
                const std::string& value = "v") {
    const TxnId txn = tc.api->Begin(tc.inode_table, key);
    Code out = Code::kInternal;
    bool done = false;
    auto after = [this, txn, &out, &done](Code c) {
      Done(c);
      out = c;
      if (c != Code::kOk) {
        tc.api->Abort(txn);
        done = true;
        return;
      }
      tc.api->Commit(txn, [this, &out, &done](Code c2) {
        Done(c2);
        out = c2;
        done = true;
      });
    };
    const TableId t = tc.inode_table;
    switch (kind) {
      case WriteKind::kInsert: tc.api->Insert(txn, t, key, value, after); break;
      case WriteKind::kUpdate: tc.api->Update(txn, t, key, value, after); break;
      case WriteKind::kWrite: tc.api->Write(txn, t, key, value, after); break;
      case WriteKind::kDelete: tc.api->Delete(txn, t, key, after); break;
    }
    tc.RunUntil(done);
    return out;
  }

  // A one-read transaction, committed unless the read failed.
  Code ReadTxn(const Key& key, LockMode mode) {
    const TxnId txn = tc.api->Begin(tc.inode_table, key);
    Code out = Code::kInternal;
    bool done = false;
    tc.api->Read(txn, tc.inode_table, key, mode,
                 [this, txn, &out, &done](Code c,
                                          std::optional<std::string> v) {
                   Done(c);
                   Fold(v ? v->size() + 1 : 0);
                   out = c;
                   if (c != Code::kOk && c != Code::kNotFound) {
                     tc.api->Abort(txn);
                     done = true;
                     return;
                   }
                   tc.api->Commit(txn, [this, &done](Code c2) {
                     Done(c2);
                     done = true;
                   });
                 });
    tc.RunUntil(done);
    return out;
  }

  Code ScanTxn(const Key& prefix) {
    const TxnId txn = tc.api->Begin(tc.inode_table, prefix);
    Code out = Code::kInternal;
    bool done = false;
    tc.api->ScanPrefix(
        txn, tc.inode_table, prefix,
        [this, txn, &out, &done](
            Code c, std::vector<std::pair<Key, std::string>> rows) {
          Done(c);
          Fold(rows.size());
          out = c;
          tc.api->Commit(txn, [this, &done](Code c2) {
            Done(c2);
            done = true;
          });
        });
    tc.RunUntil(done);
    return out;
  }

  // Stages a pending write of a transaction no coordinator knows on the
  // replica at `pos` of the key's chain: the next writer finds the slot
  // busy for good. Returns the replica.
  NodeId PlantPending(const Key& key, int pos) {
    auto& layout = tc.cluster->layout();
    const PartitionId part = layout.PartitionOf(tc.inode_table, key);
    const NodeId n = layout.ReplicaChain(tc.inode_table, part)[pos];
    EXPECT_TRUE(tc.cluster->datanode(n).store().Prepare(
        tc.inode_table, key, WriteType::kPut, "planted", kPlantedTxn,
        kNoNode, tc.sim->now()));
    return n;
  }
  void Unplant(NodeId n, const Key& key) {
    tc.cluster->datanode(n).store().Abort(tc.inode_table, key, kPlantedTxn);
  }

  static constexpr TxnId kPlantedTxn = 999999;
  TestCluster tc;
  uint64_t digest = 1469598103934665603ull;  // FNV-1a offset basis
};

TEST(NdbProtocolDigest, EveryPathMatchesPinnedDigest) {
  NdbNodeConfig node;
  node.redo_stall_backlog_bytes = 16 << 10;  // backpressure engages fast
  DigestRun run(node);
  TestCluster& tc = run.tc;
  constexpr Code kOk = Code::kOk;
  using W = WriteKind;

  // Every write kind, and the primary's AlreadyExists / NotFound NACKs.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(run.WriteTxn(W::kInsert, StrFormat("%d/f", i)), kOk);
  }
  EXPECT_EQ(run.WriteTxn(W::kInsert, "0/f"), Code::kAlreadyExists);
  EXPECT_EQ(run.WriteTxn(W::kUpdate, "1/f", "v2"), kOk);
  EXPECT_EQ(run.WriteTxn(W::kUpdate, "0/none"), Code::kNotFound);
  EXPECT_EQ(run.WriteTxn(W::kWrite, "2/f", "v3"), kOk);
  EXPECT_EQ(run.WriteTxn(W::kWrite, "0/g", "new"), kOk);
  EXPECT_EQ(run.WriteTxn(W::kDelete, "3/f"), kOk);
  EXPECT_EQ(run.WriteTxn(W::kDelete, "3/f"), Code::kNotFound);

  // Committed, shared and exclusive reads, and a scan.
  EXPECT_EQ(run.ReadTxn("1/f", LockMode::kReadCommitted), kOk);
  EXPECT_EQ(run.ReadTxn("1/f", LockMode::kShared), kOk);
  EXPECT_EQ(run.ReadTxn("2/f", LockMode::kExclusive), kOk);
  EXPECT_EQ(run.ReadTxn("3/f", LockMode::kShared), Code::kNotFound);
  EXPECT_EQ(run.ScanTxn("0/"), kOk);

  // A transaction that X-locks one row, writes it and a second row, and
  // X-locks a third it never writes: the commit unlocks the third.
  {
    const TxnId txn = tc.api->Begin(tc.inode_table, "4/f");
    bool done = false;
    tc.api->Read(txn, tc.inode_table, "4/f", LockMode::kExclusive,
                 [&](Code c, std::optional<std::string>) {
      run.Done(c);
      tc.api->Write(txn, tc.inode_table, "4/f", "w4", [&](Code c2) {
        run.Done(c2);
        tc.api->Read(txn, tc.inode_table, "5/f", LockMode::kExclusive,
                     [&](Code c3, std::optional<std::string>) {
          run.Done(c3);
          tc.api->Write(txn, tc.inode_table, "6/f", "w6", [&](Code c4) {
            run.Done(c4);
            tc.api->Commit(txn, [&](Code c5) {
              run.Done(c5);
              EXPECT_EQ(c5, kOk);
              done = true;
            });
          });
        });
      });
    });
    tc.RunUntil(done);
  }

  // Lock-wait timeouts behind an X lock, on the write and the locked-read
  // paths; then TC aborts of the lock holder and of a staged write.
  {
    const TxnId holder = tc.api->Begin(tc.inode_table, "4/f");
    bool locked = false;
    tc.api->Read(holder, tc.inode_table, "4/f", LockMode::kExclusive,
                 [&](Code c, std::optional<std::string>) {
                   run.Done(c);
                   locked = true;
                 });
    tc.RunUntil(locked);
    EXPECT_EQ(run.WriteTxn(W::kWrite, "4/f"), Code::kTimedOut);
    EXPECT_EQ(run.ReadTxn("4/f", LockMode::kShared), Code::kTimedOut);
    tc.api->Abort(holder);

    const TxnId staged = tc.api->Begin(tc.inode_table, "5/f");
    bool done = false;
    tc.api->Write(staged, tc.inode_table, "5/f", "never", [&](Code c) {
      run.Done(c);
      tc.api->Abort(staged);
      done = true;
    });
    tc.RunUntil(done);
    tc.sim->RunFor(10 * kMillisecond);
    EXPECT_EQ(run.WriteTxn(W::kWrite, "4/f", "after"), kOk);
    EXPECT_EQ(run.WriteTxn(W::kWrite, "5/f", "after"), kOk);
  }

  // Aborts that overtake their op: the TC forgets the transaction before
  // the prepare chain (or the lock grant) reports back, so it rolls the
  // staged row back (or releases the stray lock); the op times out.
  {
    int answered = 0;
    const TxnId w = tc.api->Begin(tc.inode_table, "1/f");
    tc.api->Write(w, tc.inode_table, "1/f", "raced", [&](Code c) {
      run.Done(c);
      ++answered;
    });
    tc.sim->After(100 * kMicrosecond, [&] { tc.api->Abort(w); });
    const TxnId r = tc.api->Begin(tc.inode_table, "2/f");
    tc.api->Read(r, tc.inode_table, "2/f", LockMode::kShared,
                 [&](Code c, std::optional<std::string>) {
                   run.Done(c);
                   ++answered;
                 });
    tc.sim->After(100 * kMicrosecond, [&] { tc.api->Abort(r); });
    tc.sim->RunFor(2 * kSecond);
    EXPECT_EQ(answered, 2);
    EXPECT_EQ(run.ReadTxn("1/f", LockMode::kExclusive), kOk);
  }

  // Busy-slot timeouts: a slot that never frees on the last backup, then
  // on the primary (which also holds the row lock while it waits).
  NodeId n = run.PlantPending("6/f", 2);
  EXPECT_EQ(run.WriteTxn(W::kWrite, "6/f"), Code::kTimedOut);
  run.Unplant(n, "6/f");
  n = run.PlantPending("7/f", 0);
  EXPECT_EQ(run.WriteTxn(W::kWrite, "7/f"), Code::kTimedOut);
  run.Unplant(n, "7/f");
  EXPECT_EQ(run.WriteTxn(W::kWrite, "7/f", "after"), kOk);

  // Redo backpressure: a crawling log disk on node 0 lets its unflushed
  // backlog pass the stall limit, so prepares there are refused (and the
  // chain members before it unwound) until the disk recovers.
  tc.cluster->datanode(0).SetLogDiskSlowdown(5000.0);
  int shed = 0;
  for (int i = 0; i < 120; ++i) {
    const Code c =
        run.WriteTxn(W::kWrite, StrFormat("%d/r", i), std::string(512, 'r'));
    if (c == Code::kResourceExhausted) ++shed;
  }
  EXPECT_GT(shed, 0);
  tc.cluster->datanode(0).SetLogDiskSlowdown(1.0);
  tc.sim->RunFor(2 * kSecond);

  // Commit re-drive: cut the TC's AZ (0, next to the API node) off from
  // the AZ of the chain's last replica at the commit point, so the commit
  // chain's first hop is lost; the inactivity sweep re-drives it.
  auto& layout = tc.cluster->layout();
  Key key;
  for (int i = 100; key.empty(); ++i) {
    const Key k = StrFormat("%d/c", i);
    const auto& chain =
        layout.ReplicaChain(tc.inode_table, layout.PartitionOf(tc.inode_table, k));
    if (layout.az_of(chain.back()) != 0) key = k;
  }
  const AzId last_az = layout.az_of(
      layout.ReplicaChain(tc.inode_table,
                          layout.PartitionOf(tc.inode_table, key))
          .back());
  {
    const TxnId txn = tc.api->Begin(tc.inode_table, key);
    bool done = false;
    tc.api->Write(txn, tc.inode_table, key, "redrive", [&](Code c) {
      run.Done(c);
      tc.topology->PartitionAzsOneWay(0, last_az);
      tc.api->Commit(txn, [&](Code c2) {
        run.Done(c2);
        done = true;
      });
      tc.sim->After(60 * kMillisecond,
                    [&] { tc.topology->HealAllPartitions(); });
    });
    tc.RunUntil(done);
  }
  tc.sim->RunFor(4 * kSecond);
  EXPECT_EQ(run.WriteTxn(W::kWrite, key, "after"), kOk);
  EXPECT_EQ(run.WriteTxn(W::kWrite, "6/f", "after"), kOk);
  tc.sim->RunFor(5 * kSecond);  // more LCP rounds

  int64_t redrives = 0;
  for (NodeId i = 0; i < tc.cluster->num_datanodes(); ++i) {
    const NdbDatanode& dn = tc.cluster->datanode(i);
    const auto& s = dn.protocol_stats();
    redrives += s.commit_redrives;
    EXPECT_GT(dn.journal().base_seqno(), 0) << "node " << i << " never LCPed";
    run.Fold(dn.DigestStore());
    for (int64_t v : {s.prepares, s.commit_hops, s.completes,
                      s.commit_redrives, s.committed_reads, s.locked_reads,
                      s.scans, dn.journal().durable_epoch(),
                      dn.journal().base_seqno()}) {
      run.Fold(static_cast<uint64_t>(v));
    }
  }
  EXPECT_GT(redrives, 0);
  EXPECT_EQ(StrFormat("%016llx", static_cast<unsigned long long>(run.digest)),
            "b36d72a82d9718f5");
}

}  // namespace
}  // namespace repro::ndb

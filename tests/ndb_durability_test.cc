// Durability and cluster-recovery tests: NDB's global checkpoints are the
// durability boundary (§II-B2) — a committed transaction survives a full
// cluster outage only once a global checkpoint covering it has reached
// disk on every node.
#include <gtest/gtest.h>

#include "ndb_test_util.h"
#include "util/strings.h"

namespace repro::ndb {
namespace {

class NdbDurabilityTest : public ::testing::Test {
 protected:
  NdbDurabilityTest() {
    sim = std::make_unique<Simulation>(77);
    topology = std::make_unique<Topology>(3, AzLatencyTable::UsWest1());
    topology->set_jitter_fraction(0);
    network = std::make_unique<Network>(*sim, *topology);
    TableDef inodes;
    inodes.name = "inodes";
    inodes.part_key = PartKeyRule::kPrefixBeforeSlash;
    inodes.read_backup = true;
    table = catalog.AddTable(inodes);
    NdbClusterConfig config;
    config.layout.num_datanodes = 6;
    config.layout.replication_factor = 3;
    config.layout.node_az = AssignNodeAzs(6, 3, {0, 1, 2});
    config.layout.num_ldm_threads = 4;
    config.flags.az_aware = true;
    cluster = std::make_unique<NdbCluster>(*sim, *network, &catalog, config);
    cluster->StartProtocols();
    const HostId host = topology->AddHost(0, "api");
    api = std::make_unique<NdbApiNode>(*cluster, host, 0);
  }

  Code InsertCommit(const Key& key, const std::string& value) {
    const TxnId txn = api->Begin(table, key);
    Code result = Code::kInternal;
    bool done = false;
    api->Insert(txn, table, key, value, [&](Code c) {
      if (c != Code::kOk) {
        api->Abort(txn);
        result = c;
        done = true;
        return;
      }
      api->Commit(txn, [&](Code c2) {
        result = c2;
        done = true;
      });
    });
    while (!done) sim->RunFor(kMillisecond);
    return result;
  }

  bool VisibleEverywhere(const Key& key) {
    const PartitionId p = cluster->layout().PartitionOf(table, key);
    for (NodeId n : cluster->layout().ReplicaChain(p)) {
      if (!cluster->datanode(n)
               .store()
               .Read(table, key, 0)
               .has_value()) {
        return false;
      }
    }
    return true;
  }

  Catalog catalog;
  TableId table = 0;
  std::unique_ptr<Simulation> sim;
  std::unique_ptr<Topology> topology;
  std::unique_ptr<Network> network;
  std::unique_ptr<NdbCluster> cluster;
  std::unique_ptr<NdbApiNode> api;
};

TEST_F(NdbDurabilityTest, CheckpointedWritesSurviveClusterRestart) {
  ASSERT_EQ(InsertCommit("1/a", "va"), Code::kOk);
  // Let at least one GCP (500 ms interval) become durable everywhere.
  sim->RunFor(2 * kSecond);
  ASSERT_GT(cluster->gcp_epoch(), 0);

  cluster->RecoverFromCheckpoint();
  EXPECT_TRUE(cluster->cluster_up());
  EXPECT_TRUE(VisibleEverywhere("1/a"))
      << "a checkpointed commit must survive the outage";
  // The recovered cluster serves new transactions.
  EXPECT_EQ(InsertCommit("1/b", "vb"), Code::kOk);
}

TEST_F(NdbDurabilityTest, PostCheckpointCommitsAreLostOnRecovery) {
  ASSERT_EQ(InsertCommit("2/old", "v"), Code::kOk);
  sim->RunFor(2 * kSecond);  // "2/old" covered by a durable GCP

  // Freeze checkpointing progress by recovering right after a commit
  // that no GCP has covered yet.
  ASSERT_EQ(InsertCommit("2/new", "v"), Code::kOk);
  cluster->RecoverFromCheckpoint();

  EXPECT_TRUE(VisibleEverywhere("2/old"));
  const PartitionId p = cluster->layout().PartitionOf(table, "2/new");
  const NodeId primary = cluster->layout().PrimaryOf(p);
  EXPECT_FALSE(cluster->datanode(primary)
                   .store()
                   .Read(table, "2/new", 0)
                   .has_value())
      << "a commit after the last durable GCP must be lost on recovery "
         "(NDB's durability boundary)";
}

TEST_F(NdbDurabilityTest, DeletesReplayCorrectly) {
  ASSERT_EQ(InsertCommit("3/x", "v"), Code::kOk);
  // Delete it, then checkpoint, then recover: the row must stay gone.
  const TxnId txn = api->Begin(table, "3/x");
  bool done = false;
  api->Delete(txn, table, "3/x", [&](Code c) {
    ASSERT_EQ(c, Code::kOk);
    api->Commit(txn, [&](Code c2) {
      ASSERT_EQ(c2, Code::kOk);
      done = true;
    });
  });
  while (!done) sim->RunFor(kMillisecond);
  sim->RunFor(2 * kSecond);

  cluster->RecoverFromCheckpoint();
  const PartitionId p = cluster->layout().PartitionOf(table, "3/x");
  for (NodeId n : cluster->layout().ReplicaChain(p)) {
    EXPECT_FALSE(
        cluster->datanode(n).store().Read(table, "3/x", 0).has_value())
        << "deleted row resurrected at node " << n;
  }
}

TEST_F(NdbDurabilityTest, BootstrapDataIsAlwaysDurable) {
  cluster->BootstrapPut(table, "9/boot", "img");
  cluster->RecoverFromCheckpoint();  // even with no GCP yet
  EXPECT_TRUE(VisibleEverywhere("9/boot"));
}

TEST_F(NdbDurabilityTest, GcpEpochAdvances) {
  const int64_t e0 = cluster->gcp_epoch();
  sim->RunFor(3 * kSecond);
  EXPECT_GE(cluster->gcp_epoch(), e0 + 5);  // 500 ms interval
  for (int n = 0; n < cluster->num_datanodes(); ++n) {
    EXPECT_GT(cluster->datanode(n).durable_gcp_epoch(), 0);
  }
}

}  // namespace
}  // namespace repro::ndb

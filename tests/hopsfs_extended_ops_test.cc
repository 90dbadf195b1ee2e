// Tests for the extended file-system operations: chown, setTimes, append
// (inline growth, threshold crossing, block allocation), content summary,
// and recursive subtree delete.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "hopsfs_test_util.h"
#include "util/strings.h"

namespace repro::hopsfs {
namespace {

using testing::TestFs;

Status RunOp(TestFs& fs, std::function<void(HopsFsClient::StatusCb)> op) {
  return fs.Run(std::move(op));
}

TEST(HopsFsExtendedOps, ChownChangesOwner) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/o").ok());
  ASSERT_TRUE(fs.Create("/o/f").ok());
  ASSERT_TRUE(
      RunOp(fs, [&](auto cb) { fs.client->Chown("/o/f", "alice", cb); }).ok());
  const auto r = fs.StatFull("/o/f");
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.inode.owner, "alice");
}

TEST(HopsFsExtendedOps, SetTimesUpdatesMtime) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/t").ok());
  ASSERT_TRUE(fs.Create("/t/f").ok());
  ASSERT_TRUE(RunOp(fs, [&](auto cb) {
                fs.client->SetTimes("/t/f", Seconds(1234), cb);
              }).ok());
  const auto r = fs.StatFull("/t/f");
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.inode.mtime_ns, Seconds(1234));
}

TEST(HopsFsExtendedOps, SetAttrOnMissingPathFails) {
  TestFs fs;
  EXPECT_EQ(RunOp(fs, [&](auto cb) {
              fs.client->Chown("/missing", "bob", cb);
            }).code(),
            Code::kNotFound);
}

TEST(HopsFsExtendedOps, AppendGrowsInlineFile) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Create("/a/f", 1000).ok());
  ASSERT_TRUE(
      RunOp(fs, [&](auto cb) { fs.client->Append("/a/f", 2000, cb); }).ok());
  const auto r = fs.Open("/a/f");
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.inode.size, 3000);
  EXPECT_TRUE(r.inode.has_inline_data);
  EXPECT_EQ(r.inline_bytes, 3000);
}

TEST(HopsFsExtendedOps, AppendCrossesSmallFileThreshold) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Create("/a/f", 100 << 10).ok());  // 100 KB inline
  // +40 KB crosses the 128 KB threshold: inline data is dropped and a
  // block is allocated (no datanodes configured -> empty replica list).
  ASSERT_TRUE(RunOp(fs, [&](auto cb) {
                fs.client->Append("/a/f", 40 << 10, cb);
              }).ok());
  const auto r = fs.Open("/a/f");
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.inode.size, 140 << 10);
  EXPECT_FALSE(r.inode.has_inline_data);
  EXPECT_EQ(r.inode.num_blocks, 1);
  ASSERT_EQ(r.blocks.size(), 1u);
  EXPECT_EQ(r.blocks[0].num_bytes, 140 << 10);
  EXPECT_EQ(r.inline_bytes, 0);
}

TEST(HopsFsExtendedOps, AppendToDirectoryFails) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  EXPECT_EQ(RunOp(fs, [&](auto cb) { fs.client->Append("/d", 10, cb); })
                .code(),
            Code::kFailedPrecondition);
}

TEST(HopsFsExtendedOps, ContentSummaryCountsSubtree) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/proj").ok());
  ASSERT_TRUE(fs.Mkdir("/proj/src").ok());
  ASSERT_TRUE(fs.Mkdir("/proj/doc").ok());
  ASSERT_TRUE(fs.Create("/proj/readme", 100).ok());
  ASSERT_TRUE(fs.Create("/proj/src/main", 2000).ok());
  ASSERT_TRUE(fs.Create("/proj/src/util", 3000).ok());

  Status status = Internal("hung");
  int64_t files = 0, dirs = 0, bytes = 0;
  bool done = false;
  fs.client->ContentSummary("/proj", [&](Status s, int64_t f, int64_t d,
                                         int64_t b) {
    status = s;
    files = f;
    dirs = d;
    bytes = b;
    done = true;
  });
  while (!done) fs.sim->RunFor(kMillisecond);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(files, 3);
  EXPECT_EQ(dirs, 3);  // proj, src, doc
  EXPECT_EQ(bytes, 5100);
}

TEST(HopsFsExtendedOps, ContentSummaryOfFile) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/x").ok());
  ASSERT_TRUE(fs.Create("/x/f", 42).ok());
  int64_t files = 0, dirs = 0, bytes = 0;
  bool done = false;
  fs.client->ContentSummary("/x/f", [&](Status s, int64_t f, int64_t d,
                                        int64_t b) {
    ASSERT_TRUE(s.ok());
    files = f;
    dirs = d;
    bytes = b;
    done = true;
  });
  while (!done) fs.sim->RunFor(kMillisecond);
  EXPECT_EQ(files, 1);
  EXPECT_EQ(dirs, 0);
  EXPECT_EQ(bytes, 42);
}

TEST(HopsFsExtendedOps, DeleteRecursiveRemovesSubtree) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/rm").ok());
  ASSERT_TRUE(fs.Mkdir("/rm/a").ok());
  ASSERT_TRUE(fs.Mkdir("/rm/a/b").ok());
  ASSERT_TRUE(fs.Create("/rm/a/b/f1", 500).ok());
  ASSERT_TRUE(fs.Create("/rm/top").ok());
  ASSERT_TRUE(RunOp(fs, [&](auto cb) {
                fs.client->DeleteRecursive("/rm/a", cb);
              }).ok());
  EXPECT_EQ(fs.Stat("/rm/a").code(), Code::kNotFound);
  EXPECT_EQ(fs.Stat("/rm/a/b/f1").code(), Code::kNotFound);
  EXPECT_TRUE(fs.Stat("/rm/top").ok()) << "sibling must survive";
  EXPECT_TRUE(fs.Stat("/rm").ok()) << "parent must survive";
}

TEST(HopsFsExtendedOps, DeleteRecursiveOfFileActsLikeDelete) {
  TestFs fs;
  ASSERT_TRUE(fs.Mkdir("/rf").ok());
  ASSERT_TRUE(fs.Create("/rf/f").ok());
  ASSERT_TRUE(RunOp(fs, [&](auto cb) {
                fs.client->DeleteRecursive("/rf/f", cb);
              }).ok());
  EXPECT_EQ(fs.Stat("/rf/f").code(), Code::kNotFound);
}

TEST(HopsFsExtendedOps, DeleteRecursiveRootRejected) {
  TestFs fs;
  EXPECT_EQ(RunOp(fs, [&](auto cb) {
              fs.client->DeleteRecursive("/", cb);
            }).code(),
            Code::kInvalidArgument);
}

TEST(HopsFsExtendedOps, DeleteRecursiveDropsBlockRows) {
  TestFs fs(PaperSetup::kHopsFsCl_3_3, /*num_nns=*/3, /*block_dns=*/6);
  ndb::NdbCluster& ndb = fs.deployment->ndb();
  const FsTables& tables = fs.deployment->tables();
  const auto rows = [&](ndb::TableId table) {
    int64_t n = 0;
    for (int i = 0; i < ndb.num_datanodes(); ++i) {
      n += ndb.datanode(i).store().row_count(table);
    }
    return n;
  };
  const auto replicas = [&] {
    int64_t n = 0;
    for (const auto& dn : fs.deployment->block_dns()) n += dn->block_count();
    return n;
  };
  ASSERT_TRUE(fs.Mkdir("/rb").ok());
  ASSERT_TRUE(fs.Mkdir("/rb/sub").ok());
  ASSERT_TRUE(fs.Create("/rb/sub/big", 140 << 10).ok());  // one block
  ASSERT_GT(rows(tables.blocks), 0);
  ASSERT_GT(rows(tables.dn_blocks), 0);
  ASSERT_GT(replicas(), 0);

  ASSERT_TRUE(RunOp(fs, [&](auto cb) {
                fs.client->DeleteRecursive("/rb", cb);
              }).ok());
  EXPECT_EQ(rows(tables.blocks), 0);
  EXPECT_EQ(rows(tables.dn_blocks), 0);
  fs.sim->RunFor(Seconds(1));  // the post-commit DeleteBlock sends land
  EXPECT_EQ(replicas(), 0);
}

// The leader's re-replication: when a block datanode holding a replica
// goes silent, the leader rewrites the block row to three live replicas,
// moves the dn_blocks index row to the replacement and copies the block
// there. The NDB image and protocol counters are pinned, so the repair
// transaction must issue the same calls.
TEST(HopsFsExtendedOps, LostBlockReplicaIsReReplicated) {
  TestFs fs(PaperSetup::kHopsFsCl_3_3, /*num_nns=*/3, /*block_dns=*/6);
  ndb::NdbCluster& ndb = fs.deployment->ndb();
  const FsTables& tables = fs.deployment->tables();
  blocks::DnRegistry& dns = *fs.deployment->dn_registry();
  const auto row = [&](ndb::TableId table, const std::string& key) {
    for (int i = 0; i < ndb.num_datanodes(); ++i) {
      auto v = ndb.datanode(i).store().Read(table, key, 0);
      if (v) return v;
    }
    return std::optional<std::string>();
  };
  ASSERT_TRUE(fs.Mkdir("/r").ok());
  ASSERT_TRUE(fs.Create("/r/big", 1 << 20).ok());
  const FsResult before = fs.Open("/r/big");
  ASSERT_TRUE(before.status.ok());
  ASSERT_EQ(before.blocks.size(), 1u);
  const BlockRow& b = before.blocks[0];
  ASSERT_EQ(b.replicas.size(), 3u);
  const blocks::DnId victim = b.replicas[0];
  dns.dn(victim)->Crash();
  fs.sim->RunFor(Seconds(20));  // heartbeat expiry + monitor round + copy

  const FsResult after = fs.Open("/r/big");
  ASSERT_TRUE(after.status.ok());
  ASSERT_EQ(after.blocks.size(), 1u);
  const std::vector<int32_t>& reps = after.blocks[0].replicas;
  ASSERT_EQ(reps.size(), 3u);
  blocks::DnId target = -1;
  for (blocks::DnId d : reps) {
    EXPECT_NE(d, victim);
    EXPECT_TRUE(dns.dn(d)->alive());
    EXPECT_TRUE(dns.dn(d)->HasBlock(b.block_id)) << "dn " << d;
    if (std::find(b.replicas.begin(), b.replicas.end(), d) ==
        b.replicas.end()) {
      target = d;
    }
  }
  ASSERT_GE(target, 0);
  EXPECT_FALSE(row(tables.dn_blocks, DnBlockKey(victim, b.block_id)));
  EXPECT_TRUE(row(tables.dn_blocks, DnBlockKey(target, b.block_id)));

  uint64_t digest = 1469598103934665603ull;  // FNV-1a offset basis
  const auto fold = [&digest](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xff;
      digest *= 1099511628211ull;  // FNV prime
    }
  };
  fold(static_cast<uint64_t>(target));
  for (int i = 0; i < ndb.num_datanodes(); ++i) {
    const ndb::NdbDatanode& dn = ndb.datanode(i);
    const auto& st = dn.protocol_stats();
    fold(dn.DigestStore());
    for (int64_t v : {st.prepares, st.commit_hops, st.completes,
                      st.committed_reads, st.locked_reads, st.scans}) {
      fold(static_cast<uint64_t>(v));
    }
  }
  EXPECT_EQ(StrFormat("%016llx", static_cast<unsigned long long>(digest)),
            "3f87b4f4d0963d83");
}

// Builds one FsRequest fluently (the test's op table stays one line per
// op).
struct Op {
  Op(FsOp op, std::string path) {
    req.op = op;
    req.path = std::move(path);
  }
  Op& To(std::string p) { return req.path2 = std::move(p), *this; }
  Op& Size(int64_t n) { return req.size = n, *this; }
  Op& Perm(uint32_t p) { return req.permissions = p, *this; }
  Op& Owner(std::string o) { return req.owner = std::move(o), *this; }
  Op& Mtime(int64_t t) { return req.mtime_ns = t, *this; }
  Op& As(std::string u) { return req.user = std::move(u), *this; }
  FsRequest req;
};

// Pins the simulated behaviour of every FsOp, including the ones the
// metadata benchmark never issues (append, chown, setTimes, content
// summary, recursive delete) and the NotFound, PermissionDenied,
// not-empty and bad-argument paths of each. Like mdbench's window
// digest, it folds each op's (op, status code, sim latency) into an
// FNV-1a hash, plus the sizes of its result payload; any change to the
// NDB calls an op issues moves a latency and so the digest.
TEST(HopsFsExtendedOps, EveryOpMatchesPinnedDigest) {
  TestFs fs(PaperSetup::kHopsFsCl_3_3, /*num_nns=*/3, /*block_dns=*/6);
  struct Step {
    Op op;
    Code want;
  };
  constexpr Code kOk = Code::kOk;
  constexpr Code kMissing = Code::kNotFound;
  constexpr Code kDenied = Code::kPermissionDenied;
  const std::vector<Step> steps = {
      {Op(FsOp::kMkdir, "/d").Perm(0755), kOk},
      {Op(FsOp::kMkdir, "/d"), Code::kAlreadyExists},
      {Op(FsOp::kMkdir, "/"), Code::kAlreadyExists},
      {Op(FsOp::kMkdir, "/nope/x"), kMissing},
      {Op(FsOp::kMkdir, "/d/sub").Perm(0755), kOk},
      {Op(FsOp::kMkdir, "/d/sub/deep").Perm(0755), kOk},
      {Op(FsOp::kMkdir, "/d/priv").Perm(0700), kOk},
      {Op(FsOp::kCreate, "/d/small").Size(1000), kOk},
      {Op(FsOp::kCreate, "/d/big").Size(200 << 10), kOk},
      {Op(FsOp::kCreate, "/d/empty"), kOk},
      {Op(FsOp::kCreate, "/d/sub/f").Size(500), kOk},
      {Op(FsOp::kCreate, "/d/sub/deep/g").Size(10), kOk},
      {Op(FsOp::kCreate, "/d/priv/s").Perm(0600), kOk},
      {Op(FsOp::kCreate, "/d/small"), Code::kAlreadyExists},
      {Op(FsOp::kCreate, "/nope/f"), kMissing},
      {Op(FsOp::kStat, "/d/small"), kOk},
      {Op(FsOp::kStat, "/"), kOk},
      {Op(FsOp::kStat, "/d/none"), kMissing},
      {Op(FsOp::kOpenRead, "/d/small"), kOk},
      {Op(FsOp::kOpenRead, "/d/big"), kOk},
      {Op(FsOp::kOpenRead, "/d/empty"), kOk},
      {Op(FsOp::kOpenRead, "/d"), Code::kFailedPrecondition},
      {Op(FsOp::kOpenRead, "/d/none"), kMissing},
      {Op(FsOp::kListDir, "/d"), kOk},
      {Op(FsOp::kListDir, "/d/small"), kOk},
      {Op(FsOp::kListDir, "/"), kOk},
      {Op(FsOp::kListDir, "/d/none"), kMissing},
      {Op(FsOp::kContentSummary, "/d"), kOk},
      {Op(FsOp::kContentSummary, "/d/small"), kOk},
      {Op(FsOp::kContentSummary, "/d/none"), kMissing},
      {Op(FsOp::kChmod, "/d/small").Perm(0640), kOk},
      {Op(FsOp::kChown, "/d/small").Owner("alice"), kOk},
      {Op(FsOp::kSetTimes, "/d/small").Mtime(77), kOk},
      {Op(FsOp::kChmod, "/d/none"), kMissing},
      {Op(FsOp::kAppend, "/d/small").Size(2000), kOk},
      {Op(FsOp::kAppend, "/d/empty").Size(200 << 10), kOk},
      {Op(FsOp::kAppend, "/d/big").Size(1000), kOk},
      {Op(FsOp::kAppend, "/d"), Code::kFailedPrecondition},
      {Op(FsOp::kAppend, "/d/none"), kMissing},
      {Op(FsOp::kRename, "/d/small").To("/d/sub/s2"), kOk},
      {Op(FsOp::kRename, "/d/sub/f").To("/d/sub/deep/f"), kOk},
      // A rename within one directory locks it once.
      {Op(FsOp::kRename, "/d/sub/deep/f").To("/d/sub/deep/h"), kOk},
      {Op(FsOp::kRename, "/d/empty").To("/d/sub"), Code::kAlreadyExists},
      {Op(FsOp::kRename, "/d/none").To("/d/x"), kMissing},
      {Op(FsOp::kRename, "/").To("/x"), Code::kInvalidArgument},
      {Op(FsOp::kRename, "/d/sub").To("/d/sub/deep/x"), Code::kInvalidArgument},
      {Op(FsOp::kDelete, "/d/sub"), Code::kFailedPrecondition},
      {Op(FsOp::kDelete, "/d/big"), kOk},
      {Op(FsOp::kDelete, "/d/priv/s"), kOk},
      {Op(FsOp::kDelete, "/d/priv"), kOk},
      {Op(FsOp::kDelete, "/d/none"), kMissing},
      {Op(FsOp::kMkdir, "/d/locked").Perm(0700), kOk},
      // A stranger: "other" bits only.
      {Op(FsOp::kCreate, "/d/b").As("bob"), kDenied},
      {Op(FsOp::kMkdir, "/d/b").As("bob"), kDenied},
      {Op(FsOp::kStat, "/d/sub/s2").As("bob"), kDenied},
      {Op(FsOp::kOpenRead, "/d/sub/s2").As("bob"), kDenied},
      {Op(FsOp::kListDir, "/d/locked").As("bob"), kDenied},
      {Op(FsOp::kChmod, "/d/empty").As("bob"), kDenied},
      {Op(FsOp::kChown, "/d/empty").Owner("bob").As("bob"), kDenied},
      {Op(FsOp::kSetTimes, "/d/empty").As("bob"), kDenied},
      {Op(FsOp::kAppend, "/d/empty").Size(1).As("bob"), kDenied},
      {Op(FsOp::kDelete, "/d/empty").As("bob"), kDenied},
      {Op(FsOp::kRename, "/d/empty").To("/d/e2").As("bob"), kDenied},
      {Op(FsOp::kDeleteRecursive, "/d/sub").As("bob"), kDenied},
      {Op(FsOp::kContentSummary, "/d").As("bob"), kOk},
      // Recursive delete over a subtree of inline-only files.
      {Op(FsOp::kDeleteRecursive, "/"), Code::kInvalidArgument},
      {Op(FsOp::kDeleteRecursive, "/d/none"), kMissing},
      {Op(FsOp::kDeleteRecursive, "/d/sub"), kOk},
      {Op(FsOp::kDeleteRecursive, "/d/locked"), kOk},
      {Op(FsOp::kStat, "/d/sub/deep/g"), kMissing},
      {Op(FsOp::kListDir, "/d"), kOk},
      {Op(FsOp::kContentSummary, "/"), kOk},
  };

  uint64_t digest = 1469598103934665603ull;  // FNV-1a offset basis
  const auto fold = [&digest](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xff;
      digest *= 1099511628211ull;  // FNV prime
    }
  };
  for (const Step& step : steps) {
    const FsRequest& req = step.op.req;
    FsResult result;
    Nanos finished = -1;
    const Nanos start = fs.sim->now();
    fs.client->Submit(req, [&](FsResult r) {
      result = std::move(r);
      finished = fs.sim->now();
    });
    while (finished < 0 && fs.sim->now() < start + 30 * kSecond) {
      fs.sim->RunUntil(fs.sim->now() + kMillisecond);
    }
    ASSERT_GE(finished, 0) << FsOpName(req.op) << " " << req.path;
    EXPECT_EQ(result.status.code(), step.want)
        << FsOpName(req.op) << " " << req.path << ": "
        << result.status.ToString();
    fold(static_cast<uint64_t>(req.op));
    fold(static_cast<uint64_t>(result.status.code()));
    fold(static_cast<uint64_t>(finished - start));
    fold(result.children.size());
    fold(result.blocks.size() + result.new_blocks.size());
    fold(static_cast<uint64_t>(result.inline_bytes));
    fold(static_cast<uint64_t>(result.cs_files + result.cs_dirs +
                               result.cs_bytes));
  }
  EXPECT_EQ(StrFormat("%016llx", static_cast<unsigned long long>(digest)),
            "bf566cd12ad78353");
}

}  // namespace
}  // namespace repro::hopsfs

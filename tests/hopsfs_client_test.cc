// Tests for the HopsFS client's RPC path: namenode pick and failover,
// admission-shed retries, the retry budget, the per-NN circuit breaker,
// hedged reads, deadlines and the block-layer data path.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hopsfs/deployment.h"
#include "util/strings.h"

namespace repro::hopsfs {
namespace {

// A small HopsFS-CL (3,3) deployment with one client in AZ 0 and every
// operation traced.
struct Rig {
  explicit Rig(int num_nns, int block_dns = 0,
               const std::function<void(DeploymentOptions&)>& tweak = {}) {
    sim = std::make_unique<Simulation>(7);
    auto options =
        DeploymentOptions::FromPaperSetup(PaperSetup::kHopsFsCl_3_3, num_nns);
    options.ndb_datanodes = 6;
    options.block_datanodes = block_dns;
    options.client.rpc_timeout = 300 * kMillisecond;
    if (tweak) tweak(options);
    dep = std::make_unique<Deployment>(*sim, options);
    dep->topology().set_jitter_fraction(0);
    dep->Start();
    sim->RunFor(Seconds(3));  // leader election settles
    client = dep->AddClient(0);
  }

  struct Pending {
    FsResult result;
    Nanos finished = -1;
  };
  std::shared_ptr<Pending> Start(FsRequest req) {
    auto p = std::make_shared<Pending>();
    client->Submit(std::move(req), [this, p](FsResult r) {
      p->result = std::move(r);
      p->finished = sim->now();
    });
    return p;
  }
  void Await(const std::vector<std::shared_ptr<Pending>>& ops) {
    const Nanos limit = sim->now() + 60 * kSecond;
    for (const auto& p : ops) {
      while (p->finished < 0 && sim->now() < limit) {
        sim->RunUntil(sim->now() + kMillisecond);
      }
      ASSERT_GE(p->finished, 0) << "client op never completed";
    }
  }
  FsResult Run(FsRequest req) {
    auto p = Start(std::move(req));
    Await({p});
    return p->result;
  }
  int64_t Counter(const char* name) {
    return dep->metrics().GetCounter(name)->value();
  }
  int32_t CurrentNn() const {
    return client->current_nn() == nullptr ? -1 : client->current_nn()->id();
  }
  // Takes a namenode's host off the network while its process stays up:
  // the client still sees it as alive and in the active list.
  void SetNnReachable(int32_t nn, bool up) {
    dep->topology().SetHostUp(dep->namenode(nn)->host(), up);
  }

  std::unique_ptr<Simulation> sim;
  std::unique_ptr<Deployment> dep;
  HopsFsClient* client = nullptr;
};

FsRequest Req(FsOp op, std::string path, int64_t size = 0) {
  FsRequest r;
  r.op = op;
  r.path = std::move(path);
  r.size = size;
  return r;
}

class Digest {
 public:
  void Fold(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      value_ ^= (v >> (8 * i)) & 0xff;
      value_ *= 1099511628211ull;  // FNV prime
    }
  }
  void Fold(const std::string& s) {
    Fold(s.size());
    for (char c : s) Fold(static_cast<uint64_t>(static_cast<uint8_t>(c)));
  }
  // One op finished: its code, when, and its result payload sizes.
  void Op(const Rig::Pending& p) {
    Fold(static_cast<uint64_t>(p.result.status.code()));
    Fold(static_cast<uint64_t>(p.finished));
    Fold(p.result.children.size());
    Fold(p.result.blocks.size() + p.result.new_blocks.size());
  }
  // Every span of every finished trace: pins each hop, attempt, pick and
  // backoff span the client opens, with its timing.
  void Traces(Rig& rig) {
    for (const trace::Trace& t : rig.sim->tracer().TakeFinished()) {
      Fold(t.name);
      for (const trace::Span& s : t.spans) {
        Fold(s.name);
        Fold(static_cast<uint64_t>(s.parent));
        Fold(static_cast<uint64_t>(s.layer));
        Fold(static_cast<uint64_t>(s.cause));
        Fold(static_cast<uint64_t>(s.host));
        Fold(static_cast<uint64_t>(s.dst_az));
        Fold(static_cast<uint64_t>(s.start));
        Fold(static_cast<uint64_t>(s.end));
      }
    }
  }
  // The client's counters, its traffic and where it is pointed.
  void Client(Rig& rig) {
    for (const char* name :
         {"hopsfs.client.retries", "hopsfs.client.retry_budget_denied",
          "hopsfs.client.breaker_transitions", "hopsfs.client.hedges_sent",
          "hopsfs.client.hedge_wins", "hopsfs.client.deadline_exceeded",
          "hopsfs.client.sheds_observed", "slo.requests.total",
          "slo.requests.good", "slo.latency.total", "slo.latency.good"}) {
      Fold(static_cast<uint64_t>(rig.Counter(name)));
    }
    const HostNetStats& net = rig.dep->network().host_stats(rig.client->host());
    Fold(static_cast<uint64_t>(net.messages_sent));
    Fold(static_cast<uint64_t>(net.bytes_sent));
    Fold(static_cast<uint64_t>(net.messages_received));
    Fold(static_cast<uint64_t>(net.bytes_received));
    Fold(static_cast<uint64_t>(rig.CurrentNn()));
    Fold(static_cast<uint64_t>(rig.client->post_deadline_successes()));
    Fold(static_cast<uint64_t>(rig.sim->now()));
    Traces(rig);
  }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 1469598103934665603ull;  // FNV-1a offset basis
};

// Pins the client paths the metadata benchmark rarely runs. Each op's
// (code, completion time, payload sizes), every traced span, the client's
// resilience and SLO counters and its network traffic fold into one
// FNV-1a digest: any change to a message the client sends, a timer it
// arms or a random draw it makes moves a time or a count, and so the
// digest.
TEST(HopsFsClientDigest, EveryPathMatchesPinnedDigest) {
  Digest digest;

  // NN crash with a request in flight, then a timeout on an NN that is
  // up but unreachable: each failover excludes the NN that just failed,
  // which is still in the active list. Then no namenode at all.
  {
    Rig rig(3);
    rig.sim->tracer().set_sample_every(1);
    ASSERT_TRUE(rig.Run(Req(FsOp::kMkdir, "/a")).status.ok());
    auto warm = rig.Start(Req(FsOp::kStat, "/a"));
    rig.Await({warm});
    digest.Op(*warm);
    const int32_t first = rig.CurrentNn();
    ASSERT_GE(first, 0);

    auto in_flight = rig.Start(Req(FsOp::kStat, "/a"));
    rig.sim->RunFor(100 * kMicrosecond);
    rig.dep->namenode(first)->Crash();
    rig.Await({in_flight});
    digest.Op(*in_flight);
    EXPECT_TRUE(in_flight->result.status.ok());
    const int32_t second = rig.CurrentNn();
    EXPECT_NE(second, first);

    // Unreachable for the attempt's whole timeout, back before the retry
    // asks a seed for the active list.
    rig.SetNnReachable(second, false);
    rig.sim->After(290 * kMillisecond,
                   [&rig, second] { rig.SetNnReachable(second, true); });
    auto timed_out = rig.Start(Req(FsOp::kStat, "/a"));
    rig.Await({timed_out});
    digest.Op(*timed_out);
    EXPECT_TRUE(timed_out->result.status.ok());
    EXPECT_NE(rig.CurrentNn(), second) << "failover re-picked the failed NN";
    EXPECT_NE(rig.CurrentNn(), first);
    EXPECT_GE(rig.Counter("hopsfs.client.retries"), 1);

    for (int i = 0; i < 3; ++i) {
      if (rig.dep->namenode(i)->alive()) rig.dep->namenode(i)->Crash();
    }
    auto none = rig.Start(Req(FsOp::kStat, "/a"));
    rig.Await({none});
    digest.Op(*none);
    EXPECT_EQ(none->result.status.code(), Code::kUnavailable);
    EXPECT_NE(none->result.status.message().find("no namenode available"),
              std::string::npos);
    digest.Client(rig);
  }

  // Admission sheds: a burst against one-slot namenodes is shed, retried
  // on another NN, and stops retrying once the retry budget runs dry.
  {
    Rig rig(3, 0, [](DeploymentOptions& o) {
      o.nn.admission_min_limit = 1;
      o.nn.admission_initial_limit = 1;
      o.nn.admission_max_limit = 1;
    });
    rig.sim->tracer().set_sample_every(1);
    rig.Run(Req(FsOp::kMkdir, "/s"));
    std::vector<std::shared_ptr<Rig::Pending>> burst;
    for (int i = 0; i < 40; ++i) {
      burst.push_back(rig.Start(Req(FsOp::kStat, "/s")));
    }
    rig.Await(burst);
    for (const auto& p : burst) digest.Op(*p);
    EXPECT_GT(rig.Counter("hopsfs.client.sheds_observed"), 0);
    EXPECT_GT(rig.Counter("hopsfs.client.retries"), 0);
    EXPECT_GT(rig.Counter("hopsfs.client.retry_budget_denied"), 0);
    digest.Client(rig);
  }

  // Circuit breaker: three timeouts on the sticky NN open its breaker,
  // and once the open interval has passed the next pick of that NN is a
  // half-open probe whose success closes it again.
  {
    Rig rig(2);
    rig.sim->tracer().set_sample_every(1);
    rig.Run(Req(FsOp::kMkdir, "/b"));
    const int32_t sticky = rig.CurrentNn();
    ASSERT_GE(sticky, 0);
    rig.SetNnReachable(sticky, false);
    rig.sim->After(290 * kMillisecond,
                   [&rig, sticky] { rig.SetNnReachable(sticky, true); });
    std::vector<std::shared_ptr<Rig::Pending>> three;
    for (int i = 0; i < 3; ++i) {
      three.push_back(rig.Start(Req(FsOp::kStat, "/b")));
    }
    rig.Await(three);
    for (const auto& p : three) digest.Op(*p);
    EXPECT_NE(rig.CurrentNn(), sticky);
    EXPECT_EQ(rig.Counter("hopsfs.client.breaker_transitions"), 1);  // open

    rig.sim->RunFor(Seconds(2));
    rig.dep->namenode(rig.CurrentNn())->Crash();
    auto probe = rig.Run(Req(FsOp::kStat, "/b"));
    EXPECT_TRUE(probe.status.ok());
    EXPECT_EQ(rig.CurrentNn(), sticky);
    // open -> half-open -> closed
    EXPECT_EQ(rig.Counter("hopsfs.client.breaker_transitions"), 3);
    digest.Client(rig);
  }

  // Hedged reads: once the latency tracker is warm, a read slower than
  // the recent p95 is hedged to a second NN. The hedge wins when the
  // primary cannot answer, and loses when the primary is merely slow.
  {
    Rig rig(3, 0, [](DeploymentOptions& o) { o.client.hedged_reads = true; });
    rig.sim->tracer().set_sample_every(1);
    std::vector<std::string> files;
    for (int i = 0; i < 64; ++i) files.push_back(StrFormat("/h/f%d", i));
    rig.dep->BootstrapNamespace({"/h"}, files);
    for (int i = 0; i < 24; ++i) {
      auto p = rig.Start(Req(FsOp::kStat, "/h/f0"));
      rig.Await({p});
      digest.Op(*p);
    }
    const int64_t hedges = rig.Counter("hopsfs.client.hedges_sent");
    const int64_t wins = rig.Counter("hopsfs.client.hedge_wins");
    const int32_t primary = rig.CurrentNn();
    rig.SetNnReachable(primary, false);
    const Nanos sent = rig.sim->now();
    auto won = rig.Start(Req(FsOp::kStat, "/h/f1"));
    rig.Await({won});
    rig.SetNnReachable(primary, true);
    digest.Op(*won);
    EXPECT_TRUE(won->result.status.ok());
    EXPECT_EQ(rig.Counter("hopsfs.client.hedges_sent"), hedges + 1);
    EXPECT_LT(won->finished - sent, 300 * kMillisecond)
        << "the hedge, not a retry, answered";
    EXPECT_EQ(rig.Counter("hopsfs.client.hedge_wins"), wins + 1);
    rig.sim->RunFor(Seconds(1));  // the primary attempt times out

    auto lost = rig.Start(Req(FsOp::kContentSummary, "/h"));
    rig.Await({lost});
    digest.Op(*lost);
    EXPECT_TRUE(lost->result.status.ok());
    EXPECT_EQ(lost->result.cs_files, 64);
    EXPECT_EQ(rig.Counter("hopsfs.client.hedges_sent"), hedges + 2);
    EXPECT_EQ(rig.Counter("hopsfs.client.hedge_wins"), wins + 1);
    rig.sim->RunFor(Seconds(1));  // the losing hedge's reply lands
    digest.Client(rig);
  }

  // Deadlines and the block layer: a deadline that expires while the
  // only attempt is unanswered fails before the retry's attempt; one that
  // expires during a multi-block write stops between blocks. A large file
  // is written through a replica pipeline and read from an AZ-local
  // replica.
  {
    Rig rig(3, 6);
    rig.sim->tracer().set_sample_every(1);
    rig.sim->RunFor(Seconds(4));  // block datanodes register
    rig.Run(Req(FsOp::kMkdir, "/d"));
    auto big = rig.Start(Req(FsOp::kCreate, "/d/big", 1 << 20));
    rig.Await({big});
    digest.Op(*big);
    EXPECT_TRUE(big->result.status.ok());
    auto read = rig.Start(Req(FsOp::kOpenRead, "/d/big"));
    rig.Await({read});
    digest.Op(*read);
    EXPECT_TRUE(read->result.status.ok());
    for (const auto& dn : rig.dep->block_dns()) {
      digest.Fold(static_cast<uint64_t>(dn->block_count()));
    }

    const int32_t sticky = rig.CurrentNn();
    rig.SetNnReachable(sticky, false);
    FsRequest expiring = Req(FsOp::kStat, "/d/big");
    expiring.deadline = rig.sim->now() + 100 * kMillisecond;
    auto before_attempt = rig.Start(expiring);
    rig.Await({before_attempt});
    rig.SetNnReachable(sticky, true);
    digest.Op(*before_attempt);
    EXPECT_EQ(before_attempt->result.status.code(), Code::kDeadlineExceeded);
    EXPECT_NE(before_attempt->result.status.message().find(
                  "deadline passed before attempt"),
              std::string::npos);

    const int64_t three_blocks = 3 * kDefaultBlockSize;
    const Nanos t0 = rig.sim->now();
    auto whole = rig.Start(Req(FsOp::kCreate, "/d/whole", three_blocks));
    rig.Await({whole});
    digest.Op(*whole);
    EXPECT_TRUE(whole->result.status.ok());
    FsRequest cut = Req(FsOp::kCreate, "/d/cut", three_blocks);
    cut.deadline = rig.sim->now() + (whole->finished - t0) / 2;
    auto between = rig.Start(cut);
    rig.Await({between});
    digest.Op(*between);
    EXPECT_EQ(between->result.status.code(), Code::kDeadlineExceeded);
    EXPECT_NE(
        between->result.status.message().find("block io past deadline"),
        std::string::npos)
        << between->result.status.ToString();
    rig.sim->RunFor(Seconds(2));
    for (const auto& dn : rig.dep->block_dns()) {
      digest.Fold(static_cast<uint64_t>(dn->block_count()));
    }
    EXPECT_EQ(rig.client->post_deadline_successes(), 0);
    digest.Client(rig);
  }

  EXPECT_EQ(StrFormat("%016llx",
                      static_cast<unsigned long long>(digest.value())),
            "ee281776d3e5add6");
}

// A reply that arrives after its attempt timed out is dropped: it must
// not complete the op behind the retry's back, and so skip the large-file
// block pipeline. A 1 MB create against a 2 ms RPC timeout therefore never
// reports OK without its three replicas written.
TEST(HopsFsClient, TimedOutLargeCreateNeverReportsOkWithoutReplicas) {
  Rig rig(3, 6, [](DeploymentOptions& o) {
    o.client.rpc_timeout = 2 * kMillisecond;
  });
  rig.sim->RunFor(Seconds(4));  // block datanodes register
  rig.dep->BootstrapNamespace({"/l"}, {});
  const FsResult r = rig.Run(Req(FsOp::kCreate, "/l/big", 1 << 20));
  rig.sim->RunFor(Seconds(2));  // any in-flight block write lands
  int64_t replicas = 0;
  for (const auto& dn : rig.dep->block_dns()) replicas += dn->block_count();
  if (r.status.ok()) {
    EXPECT_EQ(replicas, 3) << "create reported OK without its replicas";
  }
}

// The seed-list exchange of a re-pick is bounded like an RPC attempt: when
// every namenode is up but unreachable, the lost list request times out
// and the op fails over, instead of waiting for a reply that never comes.
TEST(HopsFsClient, LostSeedListRequestTimesOutAndFailsOver) {
  Rig rig(2);
  ASSERT_TRUE(rig.Run(Req(FsOp::kMkdir, "/p")).status.ok());
  for (int32_t nn = 0; nn < 2; ++nn) rig.SetNnReachable(nn, false);
  // Back after the RPC timeout (300 ms) and the retry's re-pick, but
  // before that re-pick's own timeout.
  rig.sim->After(400 * kMillisecond, [&rig] {
    for (int32_t nn = 0; nn < 2; ++nn) rig.SetNnReachable(nn, true);
  });
  const Nanos start = rig.sim->now();
  auto p = rig.Start(Req(FsOp::kStat, "/p"));
  rig.Await({p});
  EXPECT_TRUE(p->result.status.ok()) << p->result.status.ToString();
  EXPECT_GE(p->finished - start, 600 * kMillisecond)
      << "answered before both the RPC and the re-pick timed out";
  EXPECT_EQ(rig.Counter("hopsfs.client.retries"), 2);
}

}  // namespace
}  // namespace repro::hopsfs

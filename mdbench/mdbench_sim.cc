// mdbench_sim: one workload of the metadata-op benchmark.
//
//   mdbench_sim --workload <spotify|mutations|az_failover> --seed <n>
//               --seconds <s> --trace <0|1>
//
// Builds a HopsFS-CL (3,3) deployment, drives it with closed-loop
// simulated clients (DES actors, one op in flight each) and prints ONE JSON
// object of raw measurements on stdout; mdbench/run.py turns it into the
// benchmark's metrics and applies the correctness checks. Progress goes to
// stderr.
//
// A run repeats "set up, warm up, measure a fixed sim-time window" with the
// same seed, so every repetition simulates the same run: the host-side
// numbers (CPU per window and per sim-time slice, set-up CPU) get several
// samples while the simulated numbers and the digest must repeat exactly.
// Windows repeat until `--seconds` of host CPU has been spent measuring.
// A workload with several sub-runs (az_failover) simulates seeds
// seed + i * kSubSeedStride and pools them; each runs before any repeats.
//
// With --trace 1 the run measures one untraced window (sliced) and then
// the same window traced (unsliced): zone profiler installed, sim-tracer
// sampling on and the benchmark's own host-CPU spans recorded. The two
// digests must match, which proves that neither slicing nor tracing
// changes the simulated run.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "chaos/invariants.h"
#include "chaos/schedule.h"
#include "hopsfs/deployment.h"
#include "prof/profiler.h"
#include "trace/critical_path.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workload/fs_interface.h"
#include "workload/spotify.h"

namespace repro::mdbench {
namespace {

using hopsfs::FsOp;
using workload::SpotifyWorkload;

// ---- workload definitions ---------------------------------------------------

struct WorkloadSpec {
  const char* name;
  int namenodes;
  int clients_per_nn;
  int users;               // namespace: users x 4 dirs x 4 files
  bool mutations;          // write-only mix instead of the Spotify mix
  Nanos warmup;
  Nanos pre, fault, post;  // measured window = pre + fault + post
  AzId dark_az;            // AZ dark during the fault phase (-1 = none)
  int slices;              // fixed sim-time slices per window
  bool hedged_reads;
  int subruns;             // simulated runs per seed, pooled
};

// Phases of the fault-free workloads are plain thirds of the window; their
// goodput ratios are a steadiness control that should read ~1. The outage
// collapses goodput to a trickle, and the recovery after the restore
// varies from seed to seed, so az_failover pools four simulated runs.
constexpr WorkloadSpec kWorkloads[] = {
    {"spotify", 12, 32, 512, false, 200 * kMillisecond, 200 * kMillisecond,
     200 * kMillisecond, 200 * kMillisecond, -1, 200, false, 1},
    {"mutations", 6, 16, 2048, true, 200 * kMillisecond, 200 * kMillisecond,
     200 * kMillisecond, 200 * kMillisecond, -1, 200, false, 1},
    {"az_failover", 6, 48, 512, false, 200 * kMillisecond, 500 * kMillisecond,
     2 * kSecond, 2 * kSecond, 2, 450, true, 4},
};

// Write-only mix, uniform over the leaf directories: create 35%, mkdir 15%,
// rename 15%, chmod 15%, delete 20%. Renames and deletes consume files the
// same client created earlier (a create stands in while it has none).
class MutationMix {
 public:
  explicit MutationMix(const SpotifyWorkload& wl)
      : files_(wl.all_files()), mix_({35, 15, 15, 15, 20}) {
    for (const auto& d : wl.all_dirs()) {
      if (std::count(d.begin(), d.end(), '/') == 3) leaves_.push_back(d);
    }
  }

  SpotifyWorkload::Op Next(Rng& rng, std::vector<std::string>& owned) {
    static constexpr FsOp kOps[] = {FsOp::kCreate, FsOp::kMkdir,
                                    FsOp::kRename, FsOp::kChmod,
                                    FsOp::kDelete};
    SpotifyWorkload::Op op;
    op.op = kOps[mix_.Next(rng)];
    if (op.op == FsOp::kChmod) {
      op.path = files_[rng.NextBelow(files_.size())];
      return op;
    }
    if ((op.op == FsOp::kRename || op.op == FsOp::kDelete) && owned.empty()) {
      op.op = FsOp::kCreate;
    }
    if (op.op == FsOp::kCreate || op.op == FsOp::kMkdir) {
      op.path = StrFormat("%s/m%llu",
                          leaves_[rng.NextBelow(leaves_.size())].c_str(),
                          static_cast<unsigned long long>(++fresh_));
      if (op.op == FsOp::kCreate) owned.push_back(op.path);
      return op;
    }
    op.path = std::move(owned.back());
    owned.pop_back();
    if (op.op == FsOp::kRename) op.path2 = op.path + ".r";
    return op;
  }

 private:
  std::vector<std::string> leaves_;
  std::vector<std::string> files_;
  DiscreteDistribution mix_;
  uint64_t fresh_ = 0;
};

// ---- host clock and the benchmark's own spans --------------------------------

double CpuSecondsNow() { return static_cast<double>(prof::HostNowNs()) / 1e9; }

// Host-CPU spans around the benchmark's calls into the program, kept in
// memory and written out with the result. Parent = the span open when this
// one started (the sim is single-threaded, so spans nest strictly).
class SpanLog {
 public:
  enum Name : uint8_t { kGen, kSubmit, kComplete };
  static constexpr const char* kNames[] = {
      "workload.gen", "hopsfs.client.submit", "workload.complete"};

  struct Row {
    Name name;
    int32_t parent;
    uint64_t start;
    uint64_t end;
  };

  int32_t Open(Name name) {
    const int32_t idx = static_cast<int32_t>(rows_.size());
    rows_.push_back({name, open_.empty() ? -1 : open_.back(),
                     prof::HostNowNs(), 0});
    open_.push_back(idx);
    return idx;
  }
  void Close(int32_t idx) {
    rows_[idx].end = prof::HostNowNs();
    open_.pop_back();
  }
  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
  std::vector<int32_t> open_;
};

class SpanScope {
 public:
  SpanScope(SpanLog* log, SpanLog::Name name)
      : log_(log), idx_(log != nullptr ? log->Open(name) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->Close(idx_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  int32_t idx_;
};

// ---- machine-speed reference -------------------------------------------------

// A fixed chunk of host work run between slices of every window: a pointer
// chase over a 128 KB random cycle plus a multiply-add chain, run twice so
// the measured pass finds its data in L2 whatever the simulation left in
// the caches. Its CPU time tracks how fast this core runs right now (other
// tenants, clock speed); run.py scales host times by it. The simulator's
// code is deliberately not part of it, so a change to the program cannot
// move the reference.
class RefKernel {
 public:
  RefKernel() : next_(kSlots) {
    std::vector<uint32_t> order(kSlots);
    for (uint32_t i = 0; i < kSlots; ++i) order[i] = i;
    Rng rng(0x5eed);
    for (uint32_t i = kSlots - 1; i > 0; --i) {
      std::swap(order[i], order[rng.NextBelow(i + 1)]);
    }
    for (uint32_t i = 0; i < kSlots; ++i) {
      next_[order[i]] = order[(i + 1) % kSlots];
    }
  }

  // Runs one chunk; returns the host CPU nanoseconds of its warm pass.
  uint64_t Chunk() {
    uint64_t ns = 0;
    for (int pass = 0; pass < 2; ++pass) {
      const uint64_t t0 = prof::HostNowNs();
      uint32_t p = 0;
      for (int i = 0; i < kSteps; ++i) p = next_[p];
      uint64_t acc = p;
      for (uint64_t i = 0; i < kSteps; ++i) {
        acc = acc * 6364136223846793005ull + i;
      }
      sink_ = acc;
      ns = prof::HostNowNs() - t0;
    }
    return ns;
  }

 private:
  static constexpr uint32_t kSlots = 1u << 15;  // 128 KB of uint32
  static constexpr int kSteps = 200000;
  std::vector<uint32_t> next_;
  volatile uint64_t sink_ = 0;
};

// ---- closed-loop clients ----------------------------------------------------

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void Fold(uint64_t& h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

enum class PathState { kPresent, kAbsent, kUnknown };

// Closed loop: each client issues its next op when the previous completes.
// Ops issued and completed inside [window_start, window_end) are the
// measured ops; goodput per phase counts OK completions by completion time.
// (workload::ClosedLoopDriver runs its window in one RunFor and keeps no
// per-op state, so it cannot be sliced, spanned or read back.)
class ClosedLoop {
 public:
  using Source = std::function<SpotifyWorkload::Op(Rng&,
                                                   std::vector<std::string>&)>;

  ClosedLoop(Simulation& sim, std::vector<workload::FsTarget*> targets,
             Source source)
      : sim_(sim), source_(std::move(source)) {
    for (auto* t : targets) clients_.push_back({t, sim_.rng().Split(), {}});
  }

  void Start() {
    for (size_t i = 0; i < clients_.size(); ++i) IssueNext(i);
  }
  void StopIssuing() { issuing_ = false; }
  void SetSpans(SpanLog* spans) { spans_ = spans; }

  void OpenWindow(Nanos start, std::vector<Nanos> phase_ends) {
    window_start_ = start;
    phase_ends_ = std::move(phase_ends);
    phase_ok_.assign(phase_ends_.size(), 0);
  }

  int64_t in_flight() const { return in_flight_; }
  int64_t window_ok() const { return window_ok_; }
  int64_t window_failed() const { return window_failed_; }
  const std::vector<int64_t>& phase_ok() const { return phase_ok_; }
  // OK completions per kTimelineBin of the window.
  const std::vector<int64_t>& timeline_ok() const { return timeline_ok_; }
  static constexpr Nanos kTimelineBin = 100 * kMillisecond;
  const std::vector<Nanos>& latencies() const { return latencies_; }
  uint64_t digest() const { return digest_; }
  const std::map<int, int64_t>& errors() const { return errors_; }
  // Final state of every path a mutation touched.
  const std::unordered_map<std::string, PathState>& touched() const {
    return touched_;
  }

 private:
  struct Client {
    workload::FsTarget* target;
    Rng rng;
    std::vector<std::string> owned;
  };

  void IssueNext(size_t c) {
    if (!issuing_) return;
    Client& cl = clients_[c];
    SpotifyWorkload::Op op;
    {
      SpanScope s(spans_, SpanLog::kGen);
      op = source_(cl.rng, cl.owned);
    }
    ++in_flight_;
    // Execute takes the paths by reference, so they are copied before the
    // op moves into the completion closure.
    const FsOp type = op.op;
    const std::string path = op.path;
    const std::string path2 = op.path2;
    const int64_t size = op.size;
    auto done = [this, c, start = sim_.now(), op = std::move(op)](Status st) {
      SpanScope span(spans_, SpanLog::kComplete);
      OnDone(c, op, start, st);
    };
    SpanScope span(spans_, SpanLog::kSubmit);
    cl.target->Execute(type, path, path2, size, std::move(done));
  }

  void OnDone(size_t c, const SpotifyWorkload::Op& op, Nanos start,
              const Status& st) {
    --in_flight_;
    const Nanos now = sim_.now();
    // A failed mutation may still have committed (a retry after a lost
    // reply reports ALREADY_EXISTS or NOT_FOUND), so its paths become
    // unknown until a later OK op settles them.
    const PathState gone = st.ok() ? PathState::kAbsent : PathState::kUnknown;
    const PathState made = st.ok() ? PathState::kPresent : PathState::kUnknown;
    switch (op.op) {
      case FsOp::kCreate:
      case FsOp::kMkdir: touched_[op.path] = made; break;
      case FsOp::kDelete: touched_[op.path] = gone; break;
      case FsOp::kRename:
        touched_[op.path] = gone;
        touched_[op.path2] = made;
        break;
      default: break;
    }
    if (!phase_ends_.empty() && now >= window_start_ &&
        now < phase_ends_.back()) {
      if (st.ok()) {
        size_t p = 0;
        while (now >= phase_ends_[p]) ++p;
        ++phase_ok_[p];
        const size_t bin =
            static_cast<size_t>((now - window_start_) / kTimelineBin);
        if (bin >= timeline_ok_.size()) timeline_ok_.resize(bin + 1, 0);
        ++timeline_ok_[bin];
      }
      if (start >= window_start_) {
        Fold(digest_, static_cast<uint64_t>(op.op));
        Fold(digest_, static_cast<uint64_t>(st.code()));
        Fold(digest_, static_cast<uint64_t>(now - start));
        if (st.ok()) {
          ++window_ok_;
          latencies_.push_back(now - start);
        } else {
          ++window_failed_;
          ++errors_[static_cast<int>(st.code())];
        }
      }
    }
    IssueNext(c);
  }

  Simulation& sim_;
  Source source_;
  std::vector<Client> clients_;
  SpanLog* spans_ = nullptr;
  bool issuing_ = true;
  int64_t in_flight_ = 0;

  Nanos window_start_ = 0;
  std::vector<Nanos> phase_ends_;
  std::vector<int64_t> phase_ok_;
  std::vector<int64_t> timeline_ok_;
  int64_t window_ok_ = 0;
  int64_t window_failed_ = 0;
  std::vector<Nanos> latencies_;
  std::map<int, int64_t> errors_;
  uint64_t digest_ = kFnvOffset;
  std::unordered_map<std::string, PathState> touched_;
};

// ---- one repetition: set-up, warm-up, measured window -------------------------

// Program counters read at the window edges (window delta = end - start).
struct Counters {
  int64_t events = 0, msgs = 0, bytes = 0, inter_az_bytes = 0, dropped = 0;
  int64_t nn_served = 0, nn_txn_retries = 0;
  int64_t lock_waits = 0, lock_wait_ns = 0, lock_timeouts = 0;
  int64_t disk_write_bytes = 0;
  int64_t retries = 0, hedges = 0, sheds = 0, breaker_transitions = 0;
};

int64_t CounterValue(hopsfs::Deployment& dep, const char* name) {
  return static_cast<int64_t>(dep.metrics().GetCounter(name)->value());
}

Counters ReadCounters(hopsfs::Deployment& dep) {
  Counters c;
  c.events = static_cast<int64_t>(dep.sim().events_processed());
  auto& net = dep.network();
  for (HostId h = 0; h < dep.topology().num_hosts(); ++h) {
    c.msgs += net.host_stats(h).messages_sent;
    c.bytes += net.host_stats(h).bytes_sent;
  }
  c.inter_az_bytes = net.inter_az_bytes();
  c.dropped = net.messages_dropped();
  for (const auto& nn : dep.namenodes()) {
    c.nn_served += nn->ops_served();
    c.nn_txn_retries += nn->txn_retries();
  }
  auto& ndb = dep.ndb();
  for (int n = 0; n < ndb.num_datanodes(); ++n) {
    auto& dn = ndb.datanode(n);
    c.lock_waits += dn.locks().total_waits();
    c.lock_wait_ns += dn.locks().total_wait_ns();
    c.lock_timeouts += dn.locks().total_timeouts();
    c.disk_write_bytes +=
        dn.disk().stats().bytes_written + dn.log_disk().stats().bytes_written;
  }
  c.retries = CounterValue(dep, "hopsfs.client.retries");
  c.hedges = CounterValue(dep, "hopsfs.client.hedges_sent") +
             CounterValue(dep, "ndb.api.hedges_sent");
  c.sheds = CounterValue(dep, "hopsfs.nn.admission_shed");
  c.breaker_transitions = CounterValue(dep, "hopsfs.client.breaker_transitions");
  return c;
}

struct CheckResult {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct WindowResult {
  int subrun = 0;
  double cpu_s = 0;
  std::vector<uint64_t> slice_clock_ns;  // CPU clock at each slice's start, end
  std::vector<uint64_t> ref_ns;          // reference chunks run in the window
  uint64_t digest = 0;
  int64_t ok = 0, failed = 0;
  std::vector<int64_t> phase_ok;
  std::vector<int64_t> timeline_ok;
  Counters delta;
  double nn_cpu_util = 0, ndb_cpu_util = 0;
  std::vector<Nanos> latencies;
  std::map<int, int64_t> errors;
  // Filled by Rep::Check: node recoveries that started in the window and
  // the post-window correctness checks.
  std::vector<ndb::NdbCluster::RecoveryStats> recoveries;
  std::vector<CheckResult> checks;
};

struct TraceCapture {
  SpanLog spans;
  std::unique_ptr<prof::Profiler> profiler;
  trace::BreakdownAggregator crit;
};

constexpr int kRefEvery = 10;  // slices between reference chunks

class Rep {
 public:
  Rep(const WorkloadSpec& spec, uint64_t seed) : spec_(spec), sim_(seed) {}

  // Deployment build, namespace bootstrap (hint caches primed on every
  // NN), client attach and settle. Returns the host CPU seconds it took.
  double Setup() {
    const double t0 = CpuSecondsNow();
    auto opts = hopsfs::DeploymentOptions::FromPaperSetup(
        hopsfs::PaperSetup::kHopsFsCl_3_3, spec_.namenodes);
    opts.client.hedged_reads = spec_.hedged_reads;
    dep_ = std::make_unique<hopsfs::Deployment>(sim_, opts);
    dep_->Start();
    wl_ = std::make_unique<SpotifyWorkload>(
        workload::NamespaceConfig{spec_.users, 4, 4, 0.75}, 0);
    dep_->BootstrapNamespace(wl_->all_dirs(), wl_->all_files());
    const int clients = spec_.namenodes * spec_.clients_per_nn;
    std::vector<workload::FsTarget*> ptrs;
    for (int i = 0; i < clients; ++i) {
      targets_.push_back(
          std::make_unique<workload::HopsFsTarget>(dep_->AddClient()));
      ptrs.push_back(targets_.back().get());
    }
    probe_ = dep_->AddClient();
    sim_.RunFor(3 * kSecond);  // leader election + client NN binding settle
    ClosedLoop::Source source;
    if (spec_.mutations) {
      auto mix = std::make_shared<MutationMix>(*wl_);
      source = [mix](Rng& r, std::vector<std::string>& o) {
        return mix->Next(r, o);
      };
    } else {
      source = [wl = wl_.get()](Rng& r, std::vector<std::string>& o) {
        return wl->Next(r, o);
      };
    }
    loop_ = std::make_unique<ClosedLoop>(sim_, std::move(ptrs),
                                         std::move(source));
    return CpuSecondsNow() - t0;
  }

  // Warm-up then the measured window, cut into `slices` equal sim-time
  // slices (1 = one RunUntil over the whole window). With `ref`, a
  // reference chunk runs after every kRefEvery-th slice, outside the
  // slices' clock readings.
  WindowResult Measure(int slices, TraceCapture* capture, RefKernel* ref) {
    if (spec_.dark_az >= 0) {
      checker_ = std::make_unique<chaos::InvariantChecker>(*dep_);
      checker_->StartSampling();
    }
    loop_->Start();
    sim_.RunFor(spec_.warmup);

    const Nanos ws = sim_.now();
    const Nanos window = spec_.pre + spec_.fault + spec_.post;
    loop_->OpenWindow(ws, {ws + spec_.pre, ws + spec_.pre + spec_.fault,
                           ws + window});
    if (spec_.dark_az >= 0) {
      chaos::FaultSchedule schedule;
      schedule.Add({spec_.pre, chaos::FaultType::kAzOutage, spec_.dark_az});
      schedule.Add({spec_.pre + spec_.fault, chaos::FaultType::kAzRestore,
                    spec_.dark_az});
      injector_ = std::make_unique<chaos::FaultInjector>(*dep_);
      injector_->Arm(schedule, ws);
    }
    dep_->ResetStats();
    recoveries_before_ = dep_->ndb().recovery_log().size();
    const Counters c0 = ReadCounters(*dep_);
    if (capture != nullptr) {
      sim_.tracer().set_keep_last(0);
      sim_.tracer().set_sink(
          [capture](const trace::Trace& t) { capture->crit.Add(t); });
      sim_.tracer().set_sample_every(16);
      loop_->SetSpans(&capture->spans);
      capture->profiler = std::make_unique<prof::Profiler>();
      capture->profiler->Install();
    }

    WindowResult r;
    r.slice_clock_ns.reserve(2 * slices);
    uint64_t window_ns = 0;
    for (int k = 1; k <= slices; ++k) {
      const uint64_t start = prof::HostNowNs();
      sim_.RunUntil(ws + window * k / slices);
      const uint64_t end = prof::HostNowNs();
      r.slice_clock_ns.push_back(start);
      r.slice_clock_ns.push_back(end);
      window_ns += end - start;
      if (ref != nullptr && k % kRefEvery == 0) {
        r.ref_ns.push_back(ref->Chunk());
      }
    }
    r.cpu_s = static_cast<double>(window_ns) / 1e9;

    if (capture != nullptr) {
      capture->profiler->Uninstall();
      loop_->SetSpans(nullptr);
      sim_.tracer().set_sample_every(0);
    }
    const Counters c1 = ReadCounters(*dep_);
    r.delta = Diff(c1, c0);
    for (const auto& nn : dep_->namenodes()) {
      r.nn_cpu_util += nn->cpu_pool().Utilization(ws);
    }
    r.nn_cpu_util /= static_cast<double>(dep_->namenodes().size());
    r.ndb_cpu_util = dep_->ndb().AverageThreadUtilization(ws).average();
    r.ok = loop_->window_ok();
    r.failed = loop_->window_failed();
    r.phase_ok = loop_->phase_ok();
    r.timeline_ok = loop_->timeline_ok();
    r.latencies = loop_->latencies();
    r.errors = loop_->errors();
    uint64_t d = loop_->digest();
    Fold(d, static_cast<uint64_t>(r.ok));
    Fold(d, static_cast<uint64_t>(r.failed));
    for (int64_t p : r.phase_ok) Fold(d, static_cast<uint64_t>(p));
    Fold(d, static_cast<uint64_t>(r.delta.events));
    Fold(d, static_cast<uint64_t>(r.delta.msgs));
    Fold(d, static_cast<uint64_t>(r.delta.bytes));
    r.digest = d;
    loop_->StopIssuing();
    return r;
  }

  // Post-window correctness: drain in-flight ops, read back a sample of
  // the paths OK mutations touched (present ones must stat OK, removed
  // ones NOT_FOUND) and, with a fault, run the chaos safety invariants.
  void Check(WindowResult& w) {
    const auto& log = dep_->ndb().recovery_log();
    w.recoveries.assign(
        log.begin() + static_cast<std::ptrdiff_t>(recoveries_before_),
        log.end());
    std::vector<CheckResult>& out = w.checks;
    const Nanos drain_deadline = sim_.now() + 60 * kSecond;
    while (loop_->in_flight() > 0 && sim_.now() < drain_deadline) {
      if (!sim_.RunOne()) break;
    }
    out.push_back({"drain", loop_->in_flight() == 0,
                   StrFormat("%lld ops in flight 60 s after the window",
                             static_cast<long long>(loop_->in_flight()))});

    std::map<std::string, bool> known;  // path -> exists
    for (const auto& [path, state] : loop_->touched()) {
      if (state != PathState::kUnknown) {
        known.emplace(path, state == PathState::kPresent);
      }
    }
    constexpr size_t kSample = 1000;
    const size_t stride = std::max<size_t>(1, known.size() / kSample);
    std::vector<std::pair<std::string, bool>> sample;
    size_t i = 0;
    for (const auto& kv : known) {
      if (i++ % stride == 0) sample.push_back(kv);
    }
    out.push_back(ReadBack(sample));

    if (checker_ != nullptr) {
      for (const auto& [path, exists] : sample) {
        if (exists) checker_->RecordAckedWrite(path);
      }
      const Nanos deadline = sim_.now() + 60 * kSecond;
      for (const auto& r :
           {checker_->CheckDurability(*probe_, deadline),
            checker_->CheckArbitration(), checker_->CheckLeadership(),
            checker_->CheckRecovery(), checker_->CheckDeadlines()}) {
        out.push_back({"chaos." + r.name, r.ok, r.detail});
      }
    }
  }

 private:
  static Counters Diff(const Counters& a, const Counters& b) {
    Counters d;
    d.events = a.events - b.events;
    d.msgs = a.msgs;  // network host stats restart at ResetStats
    d.bytes = a.bytes;
    d.inter_az_bytes = a.inter_az_bytes;
    d.dropped = a.dropped - b.dropped;
    d.nn_served = a.nn_served - b.nn_served;
    d.nn_txn_retries = a.nn_txn_retries - b.nn_txn_retries;
    d.lock_waits = a.lock_waits - b.lock_waits;
    d.lock_wait_ns = a.lock_wait_ns - b.lock_wait_ns;
    d.lock_timeouts = a.lock_timeouts - b.lock_timeouts;
    d.disk_write_bytes = a.disk_write_bytes - b.disk_write_bytes;
    d.retries = a.retries - b.retries;
    d.hedges = a.hedges - b.hedges;
    d.sheds = a.sheds - b.sheds;
    d.breaker_transitions = a.breaker_transitions - b.breaker_transitions;
    return d;
  }

  CheckResult ReadBack(const std::vector<std::pair<std::string, bool>>& paths) {
    CheckResult res{"readback", true, ""};
    constexpr int kMaxInFlight = 8;
    size_t next = 0;
    int in_flight = 0;
    int64_t wrong = 0;
    std::function<void()> pump = [&] {
      while (in_flight < kMaxInFlight && next < paths.size()) {
        const auto& [path, exists] = paths[next++];
        ++in_flight;
        probe_->Stat(path, [&, p = path, exists = exists](Status s) {
          --in_flight;
          const Code want = exists ? Code::kOk : Code::kNotFound;
          if (s.code() != want) {
            if (wrong++ == 0) {
              res.detail = StrFormat("%s: got %s, want %s", p.c_str(),
                                     CodeName(s.code()), CodeName(want));
            }
          }
          pump();
        });
      }
    };
    pump();
    const Nanos deadline = sim_.now() + 60 * kSecond;
    while ((in_flight > 0 || next < paths.size()) && sim_.now() < deadline) {
      if (!sim_.RunOne()) break;
    }
    const int64_t unprobed =
        static_cast<int64_t>(paths.size() - next) + in_flight;
    res.ok = wrong == 0 && unprobed == 0 && !paths.empty();
    if (res.ok) {
      res.detail = StrFormat("%zu touched paths read back", paths.size());
    } else if (wrong == 0) {
      res.detail = StrFormat("%zu paths sampled, %lld unprobed", paths.size(),
                             static_cast<long long>(unprobed));
    }
    return res;
  }

  const WorkloadSpec& spec_;
  // Declared first so it is destroyed last: pending events hold closures
  // that point into the deployment and the loop.
  Simulation sim_;
  std::unique_ptr<hopsfs::Deployment> dep_;
  std::unique_ptr<SpotifyWorkload> wl_;
  std::vector<std::unique_ptr<workload::HopsFsTarget>> targets_;
  hopsfs::HopsFsClient* probe_ = nullptr;
  std::unique_ptr<ClosedLoop> loop_;
  std::unique_ptr<chaos::InvariantChecker> checker_;
  std::unique_ptr<chaos::FaultInjector> injector_;
  size_t recoveries_before_ = 0;
};

// ---- JSON output ------------------------------------------------------------

class Json {
 public:
  void Key(const char* k) {
    Sep();
    out_ += '"';
    out_ += k;
    out_ += "\":";
    keyed_ = true;
  }
  void Open(char c) {
    Sep();
    out_ += c;
    first_ = true;
  }
  void Close(char c) {
    out_ += c;
    first_ = false;
  }
  void Num(double v) { Raw(StrFormat("%.17g", v)); }
  void Int(int64_t v) { Raw(std::to_string(v)); }
  void Bool(bool v) { Raw(v ? "true" : "false"); }
  void Str(const std::string& s) {
    std::string q = "\"";
    for (char ch : s) {
      if (ch == '"' || ch == '\\') q += '\\';
      if (static_cast<unsigned char>(ch) >= 0x20) q += ch;
    }
    q += '"';
    Raw(q);
  }
  const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (keyed_) {
      keyed_ = false;
      return;
    }
    if (!first_) out_ += ',';
    first_ = false;
  }
  void Raw(const std::string& s) {
    Sep();
    out_ += s;
  }
  std::string out_;
  bool first_ = true;
  bool keyed_ = false;
};

template <typename T>
void IntArray(Json& j, const char* key, const std::vector<T>& v) {
  j.Key(key);
  j.Open('[');
  for (const T& x : v) j.Int(static_cast<int64_t>(x));
  j.Close(']');
}

void WriteCounters(Json& j, const WindowResult& w) {
  const Counters& c = w.delta;
  j.Key("counters");
  j.Open('{');
  const std::pair<const char*, int64_t> fields[] = {
      {"events", c.events}, {"msgs", c.msgs}, {"bytes", c.bytes},
      {"inter_az_bytes", c.inter_az_bytes}, {"dropped", c.dropped},
      {"nn_served", c.nn_served}, {"nn_txn_retries", c.nn_txn_retries},
      {"lock_waits", c.lock_waits}, {"lock_wait_ns", c.lock_wait_ns},
      {"lock_timeouts", c.lock_timeouts},
      {"disk_write_bytes", c.disk_write_bytes}, {"retries", c.retries},
      {"hedges", c.hedges}, {"sheds", c.sheds},
      {"breaker_transitions", c.breaker_transitions}};
  for (const auto& [k, v] : fields) {
    j.Key(k);
    j.Int(v);
  }
  j.Key("nn_cpu_util");
  j.Num(w.nn_cpu_util);
  j.Key("ndb_cpu_util");
  j.Num(w.ndb_cpu_util);
  j.Close('}');
}

// `sim_data`: also write what the window simulated (latencies, counters,
// checks); repeats of a sub-run carry only their host timings and digest.
void WriteWindow(Json& j, const WindowResult& w, bool sim_data) {
  j.Open('{');
  j.Key("subrun");
  j.Int(w.subrun);
  j.Key("cpu_s");
  j.Num(w.cpu_s);
  j.Key("digest");
  j.Str(StrFormat("%016llx", static_cast<unsigned long long>(w.digest)));
  IntArray(j, "slice_clock_ns", w.slice_clock_ns);
  IntArray(j, "ref_ns", w.ref_ns);
  if (sim_data) {
    j.Key("ok");
    j.Int(w.ok);
    j.Key("failed");
    j.Int(w.failed);
    IntArray(j, "phase_ok", w.phase_ok);
    IntArray(j, "timeline_ok", w.timeline_ok);
    IntArray(j, "latency_ns", w.latencies);
    j.Key("errors");
    j.Open('{');
    for (const auto& [code, n] : w.errors) {
      j.Key(CodeName(static_cast<Code>(code)));
      j.Int(n);
    }
    j.Close('}');
    WriteCounters(j, w);
    j.Key("recoveries");
    j.Open('[');
    for (const auto& r : w.recoveries) {
      j.Open('{');
      j.Key("replay_entries");
      j.Int(r.replay_entries);
      j.Key("serving_s");
      j.Num(r.serving_at >= 0 ? ToSeconds(r.serving_at - r.started) : -1.0);
      j.Key("aborted");
      j.Bool(r.aborted);
      j.Close('}');
    }
    j.Close(']');
    j.Key("checks");
    j.Open('[');
    for (const auto& c : w.checks) {
      j.Open('{');
      j.Key("name");
      j.Str(c.name);
      j.Key("ok");
      j.Bool(c.ok);
      j.Key("detail");
      j.Str(c.detail);
      j.Close('}');
    }
    j.Close(']');
  }
  j.Close('}');
}

void WriteTrace(Json& j, const TraceCapture& cap) {
  j.Key("spans");
  j.Open('{');
  j.Key("names");
  j.Open('[');
  for (const char* n : SpanLog::kNames) j.Str(n);
  j.Close(']');
  j.Key("rows");
  j.Open('[');
  for (const auto& r : cap.spans.rows()) {
    j.Open('[');
    j.Int(r.name);
    j.Int(r.parent);
    j.Int(static_cast<int64_t>(r.start));
    j.Int(static_cast<int64_t>(r.end));
    j.Close(']');
  }
  j.Close(']');
  j.Close('}');

  // Zone paths with their exclusive (self) host CPU and allocations.
  j.Key("zones");
  j.Open('[');
  const auto& nodes = cap.profiler->nodes();
  for (int32_t n = 1; n < static_cast<int32_t>(nodes.size()); ++n) {
    const prof::ZoneStats self = cap.profiler->SelfOf(n);
    j.Open('{');
    j.Key("name");
    j.Str(prof::ZoneName(nodes[n].name));
    j.Key("path");
    j.Str(cap.profiler->PathOf(n));
    j.Key("calls");
    j.Int(static_cast<int64_t>(nodes[n].total.calls));
    j.Key("self_cpu_ns");
    j.Int(static_cast<int64_t>(self.cpu_ns));
    j.Key("self_allocs");
    j.Int(static_cast<int64_t>(self.allocs));
    j.Close('}');
  }
  j.Close(']');

  // Sampled critical paths in sim time, per root op name.
  j.Key("crit");
  j.Open('{');
  for (const auto& [op, b] : cap.crit.per_op()) {
    j.Key(op.c_str());
    j.Open('{');
    j.Key("ops");
    j.Int(b.ops);
    j.Key("total_ns");
    j.Int(b.total);
    j.Key("layer");
    j.Open('{');
    for (const auto& [layer, ns] : b.by_layer) {
      j.Key(trace::LayerName(layer));
      j.Int(ns);
    }
    j.Close('}');
    j.Key("cause");
    j.Open('{');
    for (const auto& [cause, ns] : b.by_cause) {
      j.Key(trace::CauseName(cause));
      j.Int(ns);
    }
    j.Close('}');
    j.Close('}');
  }
  j.Close('}');
}

double PeakRssMb() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "mdbench_sim: %s\nusage: mdbench_sim --workload "
               "<spotify|mutations|az_failover> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  double seconds = -1;
  int traced = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], &end, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(argv[i + 1], &end);
    } else if (flag == "--trace") {
      traced = static_cast<int>(std::strtol(argv[i + 1], &end, 10));
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : kWorkloads) {
    if (workload == w.name) spec = &w;
  }
  if (spec == nullptr) return Usage("unknown workload");
  if (!(seconds > 0) || (traced != 0 && traced != 1)) {
    return Usage("--seconds must be > 0 and --trace 0 or 1");
  }

  Json j;
  j.Open('{');
  j.Key("workload");
  j.Str(spec->name);
  j.Key("window_s");
  j.Num(ToSeconds(spec->pre + spec->fault + spec->post));
  IntArray(j, "phase_ns",
           std::vector<Nanos>{spec->pre, spec->fault, spec->post});

  // Sub-run i simulates seed + i * kSubSeedStride; windows cycle over the
  // sub-runs, and only the first window of each contributes simulated data
  // (the repeats must reproduce its digest).
  constexpr uint64_t kSubSeedStride = 1000003;
  std::vector<double> setups;
  std::vector<WindowResult> windows;
  TraceCapture capture;
  RefKernel ref;
  if (traced == 0) {
    // Windows until every sub-run ran once and --seconds of measuring CPU
    // is spent, then set-up-only repetitions up to nine set-up samples.
    double measured = 0;
    for (int i = 0; i < spec->subruns || measured < seconds; ++i) {
      const int sub = i % spec->subruns;
      Rep rep(*spec, seed + sub * kSubSeedStride);
      setups.push_back(rep.Setup());
      windows.push_back(rep.Measure(spec->slices, nullptr, &ref));
      windows.back().subrun = sub;
      measured += windows.back().cpu_s;
      std::fprintf(stderr, "[%s] window %d (sub-run %d): %.2f s cpu\n",
                   spec->name, i + 1, sub, windows.back().cpu_s);
      if (i < spec->subruns) rep.Check(windows.back());
    }
    while (setups.size() < 9) {
      Rep rep(*spec, seed);
      setups.push_back(rep.Setup());
    }
  } else {
    {
      Rep rep(*spec, seed);
      setups.push_back(rep.Setup());
      windows.push_back(rep.Measure(spec->slices, nullptr, &ref));
      rep.Check(windows.back());
    }
    Rep rep(*spec, seed);
    setups.push_back(rep.Setup());
    windows.push_back(rep.Measure(1, &capture, nullptr));
  }

  j.Key("setup_cpu_s");
  j.Open('[');
  for (double s : setups) j.Num(s);
  j.Close(']');
  j.Key("windows");
  j.Open('[');
  for (size_t i = 0; i < windows.size(); ++i) {
    const int sim_windows = traced == 1 ? 1 : spec->subruns;
    WriteWindow(j, windows[i],
                /*sim_data=*/i < static_cast<size_t>(sim_windows));
  }
  j.Close(']');
  if (traced == 1) WriteTrace(j, capture);
  j.Key("peak_rss_mb");
  j.Num(PeakRssMb());
  j.Close('}');
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace
}  // namespace repro::mdbench

int main(int argc, char** argv) { return repro::mdbench::Main(argc, argv); }

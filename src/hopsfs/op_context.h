// Per-operation context threaded through the namenode's transaction
// template (namenode.cc / namenode_ops.cc): every step takes it as an
// argument, so continuations capture no per-op state of their own.
#pragma once

#include <charconv>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hopsfs/namenode.h"

namespace repro::hopsfs {

// HDFS-style access check, reduced to owner/other classes (no groups).
// An empty user is the superuser. `want` is a POSIX permission bit mask
// evaluated against the owner triplet when the user owns the inode, the
// "other" triplet otherwise.
inline bool HasAccess(const InodeRow& inode, const std::string& user,
                      uint32_t want) {
  if (user.empty()) return true;  // superuser
  const uint32_t perms = inode.permissions;
  const uint32_t bits = user == inode.owner ? (perms >> 6) : perms;
  return (bits & want) == want;
}

constexpr uint32_t kRead = 04;
constexpr uint32_t kWrite = 02;

// Bump arena backing OpCtx's string_view fields: row keys and path
// slices live here instead of in per-field std::strings, so the dispatch
// hot path stops paying one heap allocation per component. The inline
// block covers every key of a typical operation; oversized interns spill
// to exact-size heap chunks freed on Reset. Reset runs at the top of
// each attempt — safe because every NDB op of attempt N resolves (reply
// or timeout) before MaybeRetry schedules attempt N+1, so no stale
// callback can read a recycled view.
class OpArena {
 public:
  char* Alloc(size_t n) {
    if (kInline - used_ >= n) {
      char* p = buf_ + used_;
      used_ += n;
      return p;
    }
    overflow_.push_back(std::make_unique<char[]>(n));
    return overflow_.back().get();
  }

  std::string_view Intern(std::string_view s) {
    if (s.empty()) return {};
    char* p = Alloc(s.size());
    std::memcpy(p, s.data(), s.size());
    return {p, s.size()};
  }

  // "parent/name" inode row key (fsschema InodeKey) built in the arena.
  std::string_view InodeKeyIn(InodeId parent, std::string_view name) {
    char digits[24];
    auto [dend, ec] = std::to_chars(digits, digits + sizeof(digits), parent);
    (void)ec;
    const size_t id_len = static_cast<size_t>(dend - digits);
    char* p = Alloc(id_len + 1 + name.size());
    std::memcpy(p, digits, id_len);
    p[id_len] = '/';
    if (!name.empty()) std::memcpy(p + id_len + 1, name.data(), name.size());
    return {p, id_len + 1 + name.size()};
  }

  void Reset() {
    used_ = 0;
    overflow_.clear();
  }

 private:
  // An attempt interns at most ~40 bytes on the mdbench workloads. The
  // block is kept small so OpCtx (one make_shared per op) stays within
  // the allocator's per-thread cache, which serves requests up to ~1 KB
  // in glibc; past that every op pays the slower general malloc path.
  static constexpr size_t kInline = 128;
  size_t used_ = 0;
  char buf_[kInline];
  std::vector<std::unique_ptr<char[]>> overflow_;
};

// An inode gathered for a subtree operation (du, delete, rmr), with the
// block rows a delete reclaims along with it.
struct SubtreeInode {
  std::string key;  // "parentId/name" row key
  InodeRow inode;
  std::vector<BlockRow> blocks;
};

struct Namenode::OpCtx {
  FsRequest req;
  FsResultCb done;
  FsResult result;              // the reply, accumulated by the attempt
  int attempt = 0;
  ndb::TxnId txn = 0;
  bool used_cache = false;      // this attempt relied on the path cache
  bool cache_retry_done = false;
  bool admitted = false;        // holds an admission-limiter slot
  Nanos admit_time = 0;         // when the slot was acquired
  trace::SpanId txn_span = 0;   // current transaction attempt's span

  // Backing store for the views below; reset per attempt.
  OpArena arena;

  // Filled by path resolution (parent directory of the target). The
  // views point into `req` or `arena`, both of which outlive every
  // callback of the attempt that wrote them.
  InodeId dir = 0;
  std::string_view dir_row_key;  // row key of the parent directory inode
  std::string_view base;         // final path component

  // Rename: destination parent.
  InodeId dst_dir = 0;
  std::string_view dst_dir_row_key;
  std::string_view dst_base;

  // ResolveDir's committed-read walk down one path, one component per
  // NDB read; `row_key` is the last directory reached (arena-backed).
  struct PathWalk {
    std::vector<std::string_view> parts;  // views into `req`
    size_t next = 0;
    InodeId dir = 0;
    std::string_view row_key;
    ResolveCb then;
  } walk;

  InodeRow parent;  // the parent row LockParent locked last

  // The attempt's write batch: writes still unacknowledged, and the
  // first failure among them.
  int pending_writes = 0;
  Code write_failure = Code::kOk;

  // Subtree operations: directories still to scan, every inode gathered
  // so far, and the next one whose block rows are still to be read.
  std::vector<InodeId> frontier;
  std::vector<SubtreeInode> subtree;
  size_t next_block_scan = 0;

  // Row key of the operation's target inode ("0/" for the root).
  std::string target_key() const { return InodeKey(dir, base); }

  // Clears the per-attempt state (safe for the reason OpArena gives).
  void ResetAttempt() {
    used_cache = false;
    arena.Reset();
    result = FsResult{};
    pending_writes = 0;
    write_failure = Code::kOk;
    frontier.clear();
    subtree.clear();
    next_block_scan = 0;
  }
};

}  // namespace repro::hopsfs

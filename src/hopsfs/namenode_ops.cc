// Transaction bodies of the file-system operations (§II-A2).
//
// Every operation runs through one transaction template, as in HopsFS:
// RunAttempt (namenode.cc) resolves the parent directory from the hint
// cache and begins the transaction; the body below locks and reads its
// rows with the shared steps (LockParent, ReadInode, Scan), issues its
// writes as one batch, and CommitAndFinish commits. Locking follows the
// hierarchical (implicit) discipline: a row lock only on the target inode
// and, for namespace mutations, on the parent directory, which is locked
// first; everything else is read with read committed. LockParent also
// validates the path hint the parent came from, so a hint that names a
// moved or re-created directory costs a re-resolve, never a misplaced
// entry. Rename is a single transaction over both directory entries —
// the atomic-rename capability object stores lack (§I).
//
// A step runs its continuation only on success and routes every failure
// to MaybeRetry (retryable codes, NotFound under a hint) or Fail
// (permission and precondition errors), so the bodies carry no error
// plumbing. Continuations receive the OpCtx as an argument, and per-op
// state lives in it, which keeps each NDB callback inside SmallCall's
// inline buffer.
#include <algorithm>
#include <memory>

#include "hopsfs/namenode.h"
#include "hopsfs/op_context.h"
#include "prof/profiler.h"
#include "resilience/deadline.h"
#include "util/strings.h"

namespace repro::hopsfs {

namespace {

using Rows = std::vector<std::pair<ndb::Key, std::string>>;

Status Denied(const char* what) {
  return Status(Code::kPermissionDenied, what);
}

std::vector<BlockRow> DecodeBlocks(const Rows& rows) {
  std::vector<BlockRow> blocks;
  for (const auto& [key, value] : rows) {
    BlockRow b;
    if (BlockRow::Decode(value, &b)) blocks.push_back(std::move(b));
  }
  return blocks;
}

}  // namespace

// ---------------------------------------------------------------------------
// Transaction template
// ---------------------------------------------------------------------------

template <typename Then>
void Namenode::LockParent(OpPtr ctx, std::string_view row_key,
                          InodeId expected_id, Then then) {
  api_->Read(ctx->txn, tables_.inodes, std::string(row_key),
             ndb::LockMode::kExclusive,
             [this, ctx, expected_id, then](
                 Code code, std::optional<std::string> value) {
               if (code != Code::kOk) {
                 return MaybeRetry(ctx, Status(code, "parent lock failed"));
               }
               InodeRow& parent = ctx->parent;
               if (!value || !InodeRow::Decode(*value, &parent) ||
                   !parent.is_dir || parent.id != expected_id) {
                 return MaybeRetry(ctx, NotFound("parent missing or moved"));
               }
               if (!HasAccess(parent, ctx->req.user, kWrite)) {
                 return Fail(ctx, Denied("no write access to parent"));
               }
               then(ctx);
             });
}

template <typename Then>
void Namenode::ReadInode(OpPtr ctx, std::string key, ndb::LockMode mode,
                         Then then) {
  api_->Read(ctx->txn, tables_.inodes, std::move(key), mode,
             [this, ctx, then](Code code, std::optional<std::string> value) {
               if (code != Code::kOk) {
                 return MaybeRetry(ctx, Status(code, "inode read failed"));
               }
               InodeRow row;
               if (!value || !InodeRow::Decode(*value, &row)) {
                 return MaybeRetry(ctx, NotFound("no such path"));
               }
               then(ctx, row);
             });
}

template <typename Then>
void Namenode::Scan(OpPtr ctx, ndb::TableId table, std::string prefix,
                    Then then) {
  api_->ScanPrefix(ctx->txn, table, std::move(prefix),
                   [this, ctx, then](Code code, Rows rows) {
                     if (code != Code::kOk) {
                       return MaybeRetry(ctx, Status(code, "scan failed"));
                     }
                     then(ctx, rows);
                   });
}

template <typename Then>
ndb::NdbApiNode::WriteCb Namenode::AfterWrite(OpPtr ctx, Then then) {
  return [this, ctx = std::move(ctx), then](Code code) {
    if (code != Code::kOk) return MaybeRetry(ctx, Status(code, "write failed"));
    then(ctx);
  };
}

ndb::NdbApiNode::WriteCb Namenode::Batched(OpPtr ctx) {
  ++ctx->pending_writes;
  return [this, ctx = std::move(ctx)](Code code) { WriteDone(ctx, code); };
}

void Namenode::OpenBatch(OpPtr ctx) { ctx->pending_writes = 1; }

void Namenode::CloseBatch(OpPtr ctx) { WriteDone(std::move(ctx), Code::kOk); }

void Namenode::WriteDone(OpPtr ctx, Code code) {
  if (code != Code::kOk && ctx->write_failure == Code::kOk) {
    ctx->write_failure = code;
  }
  if (--ctx->pending_writes > 0) return;
  if (ctx->write_failure != Code::kOk) {
    return MaybeRetry(ctx, Status(ctx->write_failure, "write failed"));
  }
  CommitAndFinish(std::move(ctx));
}

void Namenode::CommitAndFinish(OpPtr ctx) {
  api_->Commit(ctx->txn, [this, ctx](Code code) {
    ctx->txn = 0;
    if (code != Code::kOk) {
      return MaybeRetry(ctx, Status(code, "commit failed"));
    }
    if (ctx->req.op == FsOp::kRename) InvalidateSubtreeHints(ctx->req.path);
    // Tell the datanodes to drop the replicas of deleted files' blocks.
    if (dn_registry_ != nullptr) {
      for (const SubtreeInode& gone : ctx->subtree) {
        for (const BlockRow& b : gone.blocks) {
          for (blocks::DnId d : b.replicas) {
            auto* dn = dn_registry_->dn(d);
            network_.Send(host_, dn->host(), 96,
                          [dn, id = b.block_id] { dn->DeleteBlock(id); });
          }
        }
      }
    }
    Finish(ctx);
  });
}

void Namenode::TouchParent(OpPtr ctx) {
  ctx->parent.mtime_ns = sim_.now();
  api_->Update(ctx->txn, tables_.inodes, std::string(ctx->dir_row_key),
               ctx->parent.Encode(), Batched(ctx));
}

void Namenode::AddBlock(OpPtr ctx, InodeId file, int32_t index,
                        int64_t file_size) {
  BlockRow b;
  b.block_id = NextBlockId();
  b.num_bytes = std::min<int64_t>(
      kDefaultBlockSize, file_size - int64_t{index} * kDefaultBlockSize);
  if (dn_registry_ != nullptr && placement_ != nullptr) {
    const AzId writer =
        ctx->req.client_az != kNoAz ? ctx->req.client_az : az_;
    for (blocks::DnId d :
         placement_->ChooseTargets(config_.block_replication, writer,
                                   *dn_registry_, sim_.now(), rng_)) {
      b.replicas.push_back(d);
    }
  }
  const std::string key = BlockKey(file, index);
  api_->Insert(ctx->txn, tables_.blocks, key, b.Encode(), Batched(ctx));
  for (blocks::DnId d : b.replicas) {
    api_->Insert(ctx->txn, tables_.dn_blocks, DnBlockKey(d, b.block_id), key,
                 Batched(ctx));
  }
  ctx->result.new_blocks.push_back(std::move(b));
}

// Depth-first over directory partitions with committed scans (no locks:
// a concurrent mutation may be half-visible, like HDFS's du).
void Namenode::WalkSubtree(OpPtr ctx) {
  // A walk over a huge subtree can outlive its deadline: stop between
  // scan batches rather than finishing doomed work.
  if (resilience::DeadlineExpired(ctx->req.deadline, sim_.now())) {
    return MaybeRetry(ctx, DeadlineExceeded("subtree walk: deadline passed"));
  }
  if (ctx->frontier.empty()) {
    if (ctx->req.op == FsOp::kContentSummary) return FinishSummary(ctx);
    return DeleteSubtree(ctx);
  }
  const InodeId dir = ctx->frontier.back();
  ctx->frontier.pop_back();
  Scan(ctx, tables_.inodes, InodeChildrenPrefix(dir),
       [this](OpPtr ctx, Rows& rows) {
         for (auto& [key, value] : rows) {
           InodeRow child;
           if (!InodeRow::Decode(value, &child)) continue;
           if (child.is_dir) ctx->frontier.push_back(child.id);
           ctx->subtree.push_back({std::move(key), std::move(child), {}});
         }
         WalkSubtree(ctx);
       });
}

void Namenode::FinishSummary(OpPtr ctx) {
  FsResult& r = ctx->result;
  for (const SubtreeInode& n : ctx->subtree) {
    if (n.inode.is_dir) {
      r.cs_dirs += 1;
    } else {
      r.cs_files += 1;
      r.cs_bytes += n.inode.size;
    }
  }
  CommitAndFinish(std::move(ctx));
}

// Reads the block rows of each gathered file that has blocks, one scan at
// a time, then deletes the whole subtree in one write batch: inode rows,
// inline data, block rows and their per-datanode index rows. The replicas
// are dropped after the commit.
void Namenode::DeleteSubtree(OpPtr ctx) {
  std::vector<SubtreeInode>& subtree = ctx->subtree;
  size_t& next = ctx->next_block_scan;
  while (next < subtree.size() && subtree[next].inode.num_blocks == 0) ++next;
  if (next < subtree.size()) {
    return Scan(ctx, tables_.blocks,
                BlocksOfInodePrefix(subtree[next].inode.id),
                [this](OpPtr ctx, Rows& rows) {
                  ctx->subtree[ctx->next_block_scan++].blocks =
                      DecodeBlocks(rows);
                  DeleteSubtree(ctx);
                });
  }
  OpenBatch(ctx);
  for (const SubtreeInode& gone : subtree) {
    const InodeId id = gone.inode.id;
    api_->Delete(ctx->txn, tables_.inodes, gone.key, Batched(ctx));
    if (gone.inode.has_inline_data) {
      api_->Delete(ctx->txn, tables_.inline_data, InlineDataKey(id),
                   Batched(ctx));
    }
    for (size_t i = 0; i < gone.blocks.size(); ++i) {
      api_->Delete(ctx->txn, tables_.blocks,
                   BlockKey(id, static_cast<int32_t>(i)), Batched(ctx));
      for (blocks::DnId d : gone.blocks[i].replicas) {
        api_->Delete(ctx->txn, tables_.dn_blocks,
                     DnBlockKey(d, gone.blocks[i].block_id), Batched(ctx));
      }
    }
  }
  // A single-inode delete also bumps the parent's mtime; rmr does not.
  if (ctx->req.op == FsOp::kDelete) TouchParent(ctx);
  CloseBatch(std::move(ctx));
}

// ---------------------------------------------------------------------------
// Namespace mutations: mkdir, create, delete, rename, rmr
// ---------------------------------------------------------------------------

void Namenode::DoMkdir(OpPtr ctx) {
  PROF_ZONE("nn.op.mkdir");
  if (ctx->req.path == "/") return Finish(ctx, AlreadyExists("/"));
  // Exclusive lock on the parent directory serialises same-directory
  // namespace mutations (the implicit lock of the subtree entry).
  LockParent(ctx, ctx->dir_row_key, ctx->dir, [this](OpPtr ctx) {
    InodeRow child;
    child.id = NextInodeId();
    child.is_dir = true;
    child.permissions = ctx->req.permissions;
    child.owner = ctx->req.user;
    child.mtime_ns = sim_.now();
    api_->Insert(ctx->txn, tables_.inodes, ctx->target_key(), child.Encode(),
                 AfterWrite(ctx, [this](OpPtr ctx) { TouchParent(ctx); }));
  });
}

void Namenode::DoCreate(OpPtr ctx) {
  PROF_ZONE("nn.op.create");
  LockParent(ctx, ctx->dir_row_key, ctx->dir, [this](OpPtr ctx) {
    const int64_t size = ctx->req.size;
    InodeRow& file = ctx->result.inode;
    file.id = NextInodeId();
    file.is_dir = false;
    file.size = size;
    file.permissions = ctx->req.permissions;
    file.owner = ctx->req.user;
    file.mtime_ns = sim_.now();
    file.has_inline_data = size > 0 && size < kSmallFileThreshold;
    file.num_blocks =
        size >= kSmallFileThreshold
            ? static_cast<int32_t>((size + kDefaultBlockSize - 1) /
                                   kDefaultBlockSize)
            : 0;
    OpenBatch(ctx);
    api_->Insert(ctx->txn, tables_.inodes, ctx->target_key(), file.Encode(),
                 Batched(ctx));
    if (file.has_inline_data) {
      api_->Write(ctx->txn, tables_.inline_data, InlineDataKey(file.id),
                  std::string(static_cast<size_t>(size), 'd'), Batched(ctx));
    }
    for (int32_t i = 0; i < file.num_blocks; ++i) {
      AddBlock(ctx, file.id, i, size);
    }
    TouchParent(ctx);
    CloseBatch(ctx);
  });
}

void Namenode::DoDelete(OpPtr ctx) {
  PROF_ZONE("nn.op.delete");
  LockParent(ctx, ctx->dir_row_key, ctx->dir, [this](OpPtr ctx) {
    ReadInode(ctx, ctx->target_key(), ndb::LockMode::kExclusive,
              [this](OpPtr ctx, InodeRow& row) {
                ctx->subtree.push_back({ctx->target_key(), row, {}});
                if (!row.is_dir) return DeleteSubtree(ctx);
                Scan(ctx, tables_.inodes, InodeChildrenPrefix(row.id),
                     [this](OpPtr ctx, Rows& children) {
                       if (!children.empty()) {
                         return Fail(ctx, FailedPrecondition(
                                              "delete: directory not empty"));
                       }
                       DeleteSubtree(ctx);
                     });
              });
  });
}

void Namenode::DoRename(OpPtr ctx) {
  PROF_ZONE("nn.op.rename");
  const std::string& src_path = ctx->req.path;
  const std::string& dst_path = ctx->req.path2;
  // "dst under src" check without materialising src + "/".
  const bool dst_inside_src = StartsWith(dst_path, src_path) &&
                              dst_path.size() > src_path.size() &&
                              dst_path[src_path.size()] == '/';
  if (src_path == "/" || dst_path.empty() || dst_path == "/" ||
      dst_inside_src) {
    return Finish(ctx, InvalidArgument("rename: bad paths"));
  }
  // With both parents locked: move the entry.
  const auto move = [this](OpPtr ctx) {
    ReadInode(
        ctx, ctx->target_key(), ndb::LockMode::kExclusive,
        [this](OpPtr ctx, InodeRow& row) {
          api_->Insert(
              ctx->txn, tables_.inodes, InodeKey(ctx->dst_dir, ctx->dst_base),
              row.Encode(), AfterWrite(ctx, [this](OpPtr ctx) {
                api_->Delete(ctx->txn, tables_.inodes, ctx->target_key(),
                             Batched(ctx));
              }));
        });
  };
  auto [dst_parent, dst_base] = SplitParentView(dst_path);
  ctx->dst_base = dst_base;  // view into req.path2, stable for the op
  ResolveDir(ctx, dst_parent, [this, move](OpPtr ctx, InodeId dst_dir,
                                           std::string_view dst_key) {
    ctx->dst_dir = dst_dir;
    ctx->dst_dir_row_key = dst_key;
    // Lock the two parent directories in row-key order (deadlock
    // avoidance); a move within one directory locks it once.
    const bool src_first = ctx->dir_row_key <= ctx->dst_dir_row_key;
    LockParent(
        ctx, src_first ? ctx->dir_row_key : ctx->dst_dir_row_key,
        src_first ? ctx->dir : ctx->dst_dir, [this, move](OpPtr ctx) {
          if (ctx->dir_row_key == ctx->dst_dir_row_key) {
            // One row, two hints: both must name the locked directory.
            if (ctx->dst_dir != ctx->dir) {
              return MaybeRetry(ctx, NotFound("rename: stale parent hint"));
            }
            return move(ctx);
          }
          const bool dst_second = ctx->dir_row_key < ctx->dst_dir_row_key;
          LockParent(ctx,
                     dst_second ? ctx->dst_dir_row_key : ctx->dir_row_key,
                     dst_second ? ctx->dst_dir : ctx->dir, move);
        });
  });
}

void Namenode::DoDeleteRecursive(OpPtr ctx) {
  PROF_ZONE("nn.op.delete_recursive");
  if (ctx->req.path == "/") {
    return Finish(ctx, InvalidArgument("cannot delete the root"));
  }
  // Lock the parent and the subtree root exclusively (the implicit
  // subtree lock of HopsFS's subtree-operation protocol, condensed into
  // one transaction at simulator scale), gather the subtree, then delete
  // everything in one commit.
  LockParent(ctx, ctx->dir_row_key, ctx->dir, [this](OpPtr ctx) {
    ReadInode(ctx, ctx->target_key(), ndb::LockMode::kExclusive,
              [this](OpPtr ctx, InodeRow& row) {
                ctx->subtree.push_back({ctx->target_key(), row, {}});
                if (row.is_dir) ctx->frontier.push_back(row.id);
                WalkSubtree(ctx);
              });
  });
}

// ---------------------------------------------------------------------------
// Reads: stat, open, listdir, du
// ---------------------------------------------------------------------------

// Read-only operations (stat, listing, open) read the target inode with
// read committed instead of a shared lock (§I: "read and fstat ... prefer
// reading replicas local to the client's AZ - enabled by synchronous
// replication"): with Read Backup the commit ack guarantees every replica
// is current, so the lock-free read is consistent and AZ-local.
void Namenode::DoStat(OpPtr ctx) {
  PROF_ZONE("nn.op.stat");
  ReadInode(ctx, ctx->target_key(), ndb::LockMode::kReadCommitted,
            [this](OpPtr ctx, InodeRow& row) {
              if (!HasAccess(row, ctx->req.user, kRead)) {
                return Fail(ctx, Denied("stat: no read access"));
              }
              ctx->result.inode = std::move(row);
              CommitAndFinish(ctx);
            });
}

void Namenode::DoOpenRead(OpPtr ctx) {
  PROF_ZONE("nn.op.open_read");
  ReadInode(
      ctx, ctx->target_key(), ndb::LockMode::kReadCommitted,
      [this](OpPtr ctx, InodeRow& row) {
        if (!HasAccess(row, ctx->req.user, kRead)) {
          return Fail(ctx, Denied("read: no read access"));
        }
        if (row.is_dir) {
          return Fail(ctx, FailedPrecondition("read: is a directory"));
        }
        ctx->result.inode = row;
        if (row.has_inline_data) {
          // Small file: the payload lives with the metadata (§II-A3).
          return api_->Read(
              ctx->txn, tables_.inline_data, InlineDataKey(row.id),
              ndb::LockMode::kReadCommitted,
              [this, ctx](Code code, std::optional<std::string> data) {
                if (code != Code::kOk) {
                  return MaybeRetry(ctx, Status(code, "read: inline data"));
                }
                ctx->result.inline_bytes =
                    data ? static_cast<int64_t>(data->size()) : 0;
                CommitAndFinish(ctx);
              });
        }
        if (row.num_blocks == 0) return CommitAndFinish(ctx);
        Scan(ctx, tables_.blocks, BlocksOfInodePrefix(row.id),
             [this](OpPtr ctx, Rows& rows) {
               ctx->result.blocks = DecodeBlocks(rows);
               CommitAndFinish(ctx);
             });
      });
}

void Namenode::DoListDir(OpPtr ctx) {
  PROF_ZONE("nn.op.list_dir");
  ReadInode(ctx, ctx->target_key(), ndb::LockMode::kReadCommitted,
            [this](OpPtr ctx, InodeRow& row) {
              if (!HasAccess(row, ctx->req.user, kRead)) {
                return Fail(ctx, Denied("ls: no read access"));
              }
              ctx->result.inode = row;
              if (!row.is_dir) {
                // HDFS semantics: listing a file returns the file itself.
                ctx->result.children.emplace_back(ctx->base);
                return CommitAndFinish(ctx);
              }
              std::string prefix = InodeChildrenPrefix(row.id);
              const size_t skip = prefix.size();
              Scan(ctx, tables_.inodes, std::move(prefix),
                   [this, skip](OpPtr ctx, Rows& rows) {
                     for (const auto& [key, value] : rows) {
                       ctx->result.children.push_back(key.substr(skip));
                     }
                     CommitAndFinish(ctx);
                   });
            });
}

void Namenode::DoContentSummary(OpPtr ctx) {
  PROF_ZONE("nn.op.content_summary");
  ReadInode(ctx, ctx->target_key(), ndb::LockMode::kReadCommitted,
            [this](OpPtr ctx, InodeRow& row) {
              ctx->subtree.push_back({{}, row, {}});
              if (!row.is_dir) return FinishSummary(ctx);
              ctx->frontier.push_back(row.id);
              WalkSubtree(ctx);
            });
}

// ---------------------------------------------------------------------------
// Inode updates: chmod / chown / setTimes, append
// ---------------------------------------------------------------------------

void Namenode::DoSetAttr(OpPtr ctx) {
  PROF_ZONE("nn.op.set_attr");
  ReadInode(ctx, ctx->target_key(), ndb::LockMode::kExclusive,
            [this](OpPtr ctx, InodeRow& row) {
              // chmod/chown require ownership (or the superuser);
              // setTimes requires write access.
              const FsRequest& req = ctx->req;
              const bool is_owner = req.user.empty() || req.user == row.owner;
              switch (req.op) {
                case FsOp::kChmod:
                case FsOp::kChown:
                  if (!is_owner) {
                    return Fail(ctx, Denied("setattr: not the owner"));
                  }
                  if (req.op == FsOp::kChmod) {
                    row.permissions = req.permissions;
                  } else {
                    row.owner = req.owner;
                  }
                  row.mtime_ns = sim_.now();
                  break;
                default:  // kSetTimes
                  if (!HasAccess(row, req.user, kWrite)) {
                    return Fail(ctx, Denied("setattr: no write access"));
                  }
                  row.mtime_ns = req.mtime_ns;
                  break;
              }
              api_->Update(ctx->txn, tables_.inodes, ctx->target_key(),
                           row.Encode(), Batched(ctx));
            });
}

void Namenode::DoAppend(OpPtr ctx) {
  PROF_ZONE("nn.op.append");
  ReadInode(
      ctx, ctx->target_key(), ndb::LockMode::kExclusive,
      [this](OpPtr ctx, InodeRow& row) {
        if (!HasAccess(row, ctx->req.user, kWrite)) {
          return Fail(ctx, Denied("append: no write access"));
        }
        if (row.is_dir) {
          return Fail(ctx, FailedPrecondition("append: is a directory"));
        }
        InodeRow& file = ctx->result.inode;
        file = row;
        file.size += ctx->req.size;
        file.mtime_ns = sim_.now();
        OpenBatch(ctx);
        if (file.size < kSmallFileThreshold) {
          // Still small: grow the inline payload (§II-A3).
          file.has_inline_data = file.size > 0;
          if (file.has_inline_data) {
            api_->Write(ctx->txn, tables_.inline_data, InlineDataKey(file.id),
                        std::string(static_cast<size_t>(file.size), 'd'),
                        Batched(ctx));
          }
        } else {
          // Crosses (or is already past) the threshold: block storage.
          if (file.has_inline_data) {
            api_->Delete(ctx->txn, tables_.inline_data,
                         InlineDataKey(file.id), Batched(ctx));
            file.has_inline_data = false;
          }
          const int32_t needed = static_cast<int32_t>(
              (file.size + kDefaultBlockSize - 1) / kDefaultBlockSize);
          for (int32_t i = file.num_blocks; i < needed; ++i) {
            AddBlock(ctx, file.id, i, file.size);
          }
          file.num_blocks = needed;
        }
        api_->Update(ctx->txn, tables_.inodes, ctx->target_key(),
                     file.Encode(), Batched(ctx));
        CloseBatch(ctx);
      });
}

}  // namespace repro::hopsfs

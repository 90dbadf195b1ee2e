// RowStore's pending-write index against a reference model: random
// Prepare / Commit / Abort / BootstrapPut / BootstrapDelete / Clear
// sequences, with CollectPending checked after every step. The index keeps
// map iterators, so the steps that erase a row holding (or just dropping)
// a pending write are the ones that matter: a committed delete, an aborted
// insert with no committed image, and a bootstrap delete over a pending
// write. The test counts each and requires all three to occur.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ndb/row_store.h"
#include "util/rng.h"
#include "util/strings.h"

namespace repro::ndb {
namespace {

struct ModelPending {
  TxnId txn;
  NodeId tc;
  Nanos staged_at;
  WriteType type;
  std::string value;
};

struct ModelRow {
  std::optional<std::string> committed;
  std::optional<ModelPending> pending;
};

using Model = std::map<std::pair<TableId, Key>, ModelRow>;

std::vector<RowStore::PendingRow> Expected(
    const Model& model, const std::function<bool(TxnId, NodeId, Nanos)>& keep) {
  std::vector<RowStore::PendingRow> out;
  for (const auto& [tk, row] : model) {
    if (!row.pending) continue;
    const ModelPending& p = *row.pending;
    if (!keep(p.txn, p.tc, p.staged_at)) continue;
    out.push_back(RowStore::PendingRow{tk.first, tk.second, p.txn, p.tc,
                                       p.staged_at, p.type, p.value});
  }
  return out;
}

void ExpectSame(const std::vector<RowStore::PendingRow>& got,
                const std::vector<RowStore::PendingRow>& want, int step) {
  ASSERT_EQ(got.size(), want.size()) << "step " << step;
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(StrFormat("step %d row %zu", step, i));
    EXPECT_EQ(got[i].table, want[i].table);
    EXPECT_EQ(got[i].key, want[i].key);
    EXPECT_EQ(got[i].txn, want[i].txn);
    EXPECT_EQ(got[i].tc, want[i].tc);
    EXPECT_EQ(got[i].staged_at, want[i].staged_at);
    EXPECT_EQ(got[i].type, want[i].type);
    EXPECT_EQ(got[i].value, want[i].value);
  }
}

class RowStorePendingIndex : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RowStorePendingIndex, MatchesModelUnderRandomOps) {
  constexpr int kTables = 2;
  constexpr int kKeysPerTable = 100;
  constexpr int kSteps = 3000;
  constexpr TxnId kTxns = 6;

  Rng rng(GetParam());
  RowStore store(kTables);
  Model model;
  int commit_delete_erases = 0;
  int abort_insert_erases = 0;
  int bootstrap_deletes_over_pending = 0;

  const auto keep_all = [](TxnId, NodeId, Nanos) { return true; };
  const auto keep_odd = [](TxnId txn, NodeId, Nanos) { return txn % 2 == 1; };

  for (int step = 0; step < kSteps; ++step) {
    const auto table = static_cast<TableId>(rng.NextBelow(kTables));
    // Keys share "parent/" prefixes, like HopsFS inode rows.
    const int k = static_cast<int>(rng.NextBelow(kKeysPerTable));
    const Key key = StrFormat("%d/n%d", k % 7, k);
    ModelRow& row = model[{table, key}];
    // Most commits and aborts target the row's own pending txn.
    const TxnId txn = row.pending && rng.NextBool(0.8)
                          ? row.pending->txn
                          : 1 + static_cast<TxnId>(rng.NextBelow(kTxns));
    const uint64_t op = rng.NextBelow(100);
    if (op < 40) {
      const WriteType type =
          rng.NextBool(0.3) ? WriteType::kDelete : WriteType::kPut;
      const std::string value = StrFormat("v%d", step);
      const auto tc = static_cast<NodeId>(rng.NextBelow(4));
      const bool want = !row.pending || row.pending->txn == txn;
      EXPECT_EQ(store.Prepare(table, key, type, value, txn, tc, step), want)
          << "step " << step;
      if (want) row.pending = ModelPending{txn, tc, step, type, value};
    } else if (op < 65) {
      const bool hit = row.pending && row.pending->txn == txn;
      const auto applied = store.Commit(table, key, txn);
      EXPECT_EQ(applied.has_value(), hit) << "step " << step;
      if (hit) {
        if (row.pending->type == WriteType::kDelete) {
          ++commit_delete_erases;
          row.committed.reset();
        } else {
          row.committed = row.pending->value;
        }
        row.pending.reset();
      }
    } else if (op < 85) {
      if (row.pending && row.pending->txn == txn) {
        if (!row.committed) ++abort_insert_erases;
        row.pending.reset();
      }
      store.Abort(table, key, txn);
    } else if (op < 92) {
      const std::string value = StrFormat("b%d", step);
      store.BootstrapPut(table, key, value);
      row.committed = value;
    } else if (op < 99) {
      if (row.pending) ++bootstrap_deletes_over_pending;
      store.BootstrapDelete(table, key);
      row = ModelRow{};
    } else if (rng.NextBool(0.2)) {
      store.Clear();
      model.clear();
    }
    // Rows with neither image are erased by the store; drop them here too.
    for (auto it = model.begin(); it != model.end();) {
      if (!it->second.committed && !it->second.pending) {
        it = model.erase(it);
      } else {
        ++it;
      }
    }

    const auto m = model.find({table, key});
    const bool model_pending = m != model.end() && m->second.pending;
    EXPECT_EQ(store.HasPending(table, key), model_pending) << "step " << step;
    ExpectSame(store.CollectPending(keep_all), Expected(model, keep_all),
               step);
    ExpectSame(store.CollectPending(keep_odd), Expected(model, keep_odd),
               step);
    if (::testing::Test::HasFailure()) return;
  }
  for (TableId t = 0; t < kTables; ++t) {
    int64_t rows = 0;
    for (const auto& [tk, row] : model) rows += tk.first == t;
    EXPECT_EQ(store.row_count(t), rows);
  }
  EXPECT_GT(commit_delete_erases, 0);
  EXPECT_GT(abort_insert_erases, 0);
  EXPECT_GT(bootstrap_deletes_over_pending, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowStorePendingIndex,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace repro::ndb

#include "src/client/kv_client.h"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "src/ds/kv_content.h"
#include "src/net/network.h"
#include "src/obs/trace.h"

namespace jiffy {

namespace {

constexpr size_t kNoEntry = static_cast<size_t>(-1);

double Usage(const KvShard& shard) {
  return static_cast<double>(shard.used_bytes()) /
         static_cast<double>(shard.capacity());
}

// A kNotFound item is a correct answer (a miss), not an SLO error.
bool AnsweredOk(const Status& st) {
  return st.ok() || st.code() == StatusCode::kNotFound;
}

// --- Block operators, one per KV op ------------------------------------------
//
// Each operator names its items' keys and request bytes and applies a group
// of items to a shard under the block lock, one status per item, returning
// the reply's payload bytes; KvClient::RunBatch does everything else. A
// write operator also replays its applied items on the chain replicas and
// says which notification to publish and which pressure it can cause. A
// read operator (kRead) is served by the chain tail and re-sent when its
// reply is lost.

using KvPairs = std::vector<std::pair<std::string_view, std::string_view>>;

struct PutOp {
  static constexpr bool kRead = false;
  static constexpr Repartitioner::Pressure kPressure =
      Repartitioner::Pressure::kOverload;
  static constexpr const char* kPublish = KvClient::kPutOp;

  const KvPairs& pairs;
  const char* block_span;

  std::string_view Key(size_t i) const { return pairs[i].first; }
  size_t RequestBytes(size_t i) const {
    return pairs[i].first.size() + pairs[i].second.size();
  }
  size_t ReplicaBytes(size_t i) const { return RequestBytes(i); }
  size_t Apply(KvShard* shard, const std::vector<size_t>& group,
               std::vector<Status>* st) {
    for (size_t i : group) {
      st->push_back(shard->Put(pairs[i].first, pairs[i].second));
    }
    return 0;
  }
  void Replay(KvShard* replica, size_t i) const {
    replica->Put(pairs[i].first, pairs[i].second);
  }
};

struct DeleteOp {
  static constexpr bool kRead = false;
  static constexpr Repartitioner::Pressure kPressure =
      Repartitioner::Pressure::kUnderload;
  static constexpr const char* kPublish = KvClient::kDeleteOp;

  const std::vector<std::string_view>& keys;
  const char* block_span;

  std::string_view Key(size_t i) const { return keys[i]; }
  size_t RequestBytes(size_t i) const { return keys[i].size(); }
  size_t ReplicaBytes(size_t i) const { return keys[i].size(); }
  size_t Apply(KvShard* shard, const std::vector<size_t>& group,
               std::vector<Status>* st) {
    for (size_t i : group) {
      st->push_back(shard->Delete(keys[i]));
    }
    return 0;
  }
  void Replay(KvShard* replica, size_t i) const { replica->Delete(keys[i]); }
};

// Reads leave arena views in `out` (valid only where the final status is
// OK) and pin each arena they view while the block mutex still protects it,
// so the views outlive a concurrent chunked migration or compaction
// (DESIGN.md §11). No payload byte is copied.
struct GetOp {
  static constexpr bool kRead = true;

  const std::vector<std::string_view>& keys;
  const char* block_span;
  KvClient::PinnedValues* out;

  std::string_view Key(size_t i) const { return keys[i]; }
  size_t RequestBytes(size_t i) const { return keys[i].size(); }
  size_t Apply(KvShard* shard, const std::vector<size_t>& group,
               std::vector<Status>* st) {
    size_t reply = 0;
    for (size_t i : group) {
      Result<std::string_view> r = shard->Get(keys[i]);
      if (r.ok()) {
        reply += r.value().size();
        st->push_back(Status::Ok());
      } else {
        st->push_back(r.status());
      }
      out->values[i] = std::move(r);
    }
    out->pins.emplace_back(shard->arena());
    return reply;
  }
};

// Read-modify-write of one key as a single operator under the block lock.
// The old value stays a view for the merge callback; the only copy is the
// arena copy-in of the merged result. Replicas receive the merged value so
// the chain stays byte-identical.
struct AccumulateOp {
  static constexpr bool kRead = false;
  static constexpr Repartitioner::Pressure kPressure =
      Repartitioner::Pressure::kOverload;
  static constexpr const char* kPublish = KvClient::kPutOp;

  std::string_view key;
  std::string_view update;
  const KvClient::MergeFn& merge;
  const char* block_span;
  std::string merged;

  std::string_view Key(size_t) const { return key; }
  size_t RequestBytes(size_t) const { return key.size() + update.size(); }
  size_t ReplicaBytes(size_t) const { return key.size() + merged.size(); }
  size_t Apply(KvShard* shard, const std::vector<size_t>&,
               std::vector<Status>* st) {
    if (!shard->OwnsKey(key)) {
      st->push_back(StaleMetadata("slot moved"));
      return 0;
    }
    Result<std::string_view> old = shard->Get(key);
    merged = merge(old.ok() ? *old : std::string_view(), update);
    st->push_back(shard->Put(key, merged));
    return 0;
  }
  void Replay(KvShard* replica, size_t) const { replica->Put(key, merged); }
};

}  // namespace

constexpr char KvClient::kPutOp[];
constexpr char KvClient::kDeleteOp[];

std::vector<KvClient::Group> KvClient::GroupBySlot(
    const std::vector<uint32_t>& slots, const std::vector<size_t>& pending,
    std::vector<size_t>* unrouted) const {
  std::vector<Group> groups;
  std::lock_guard<std::mutex> lock(map_mu_);
  std::vector<size_t> group_of(map_.entries.size(), kNoEntry);
  for (size_t i : pending) {
    size_t e = 0;
    while (e < map_.entries.size() &&
           !(slots[i] >= map_.entries[e].lo && slots[i] < map_.entries[e].hi)) {
      ++e;
    }
    if (e == map_.entries.size()) {
      unrouted->push_back(i);
      continue;
    }
    if (group_of[e] == kNoEntry) {
      group_of[e] = groups.size();
      groups.push_back(Group{map_.entries[e], {}});
    }
    groups[group_of[e]].items.push_back(i);
  }
  return groups;
}

template <typename Op>
void KvClient::RunBatch(Op& op, std::vector<Status>* statuses) {
  const size_t n = statuses->size();
  std::vector<uint32_t> slots(n);
  for (size_t i = 0; i < n; ++i) {
    slots[i] = KvSlotOf(op.Key(i), config().kv_hash_slots);
  }
  // Items still awaiting a definitive status. A concurrent split re-pends
  // only the items whose slots moved; the rest of the batch is done.
  std::vector<size_t> pending(n);
  std::iota(pending.begin(), pending.end(), 0);
  std::vector<Status> item;  // Per-group operator statuses.
  std::vector<size_t> applied;
  for (StaleRetry retry = StaleLoop(); !pending.empty() && retry.Next();) {
    std::vector<size_t> still_pending;
    std::vector<Group> groups = GroupBySlot(slots, pending, &still_pending);
    bool need_refresh = !still_pending.empty();
    for (const Group& group : groups) {
      const PartitionEntry& entry = group.entry;
      // Chain reads are served by the tail replica (§4.2.2).
      const BlockId target = Op::kRead ? ReadTarget(entry) : entry.block;
      Block* block = Resolve(target);
      if (block == nullptr) {
        // The server failed: promote a chain replica. FailOver refreshed the
        // map, so the group is simply routed again.
        const Status fo = FailOver(entry);
        for (size_t i : group.items) {
          if (fo.ok()) {
            still_pending.push_back(i);
          } else {
            (*statuses)[i] = fo;
          }
        }
        continue;
      }
      const size_t k = group.items.size();
      size_t req_payload = 0;
      for (size_t i : group.items) {
        req_payload += op.RequestBytes(i);
      }
      size_t resp_payload = 0;
      bool content_gone = false;
      double usage = 0.0;
      uint32_t slot_span = 0;
      item.clear();
      {
        Block::OpLock lock(*block, "kv.block_wait");
        JIFFY_TRACE_SPAN(op.block_span, "block");
        auto* shard = ContentAs<KvShard>(block->content());
        if (shard == nullptr) {
          content_gone = true;
        } else {
          block->CountOps(k);
          resp_payload = op.Apply(shard, group.items, &item);
          usage = Usage(*shard);
          slot_span = shard->slot_span();
        }
      }
      if (content_gone) {
        need_refresh = true;
        still_pending.insert(still_pending.end(), group.items.begin(),
                             group.items.end());
        continue;
      }
      // One coalesced exchange for the whole group whatever the outcome: the
      // server saw and answered every item.
      const Status wire =
          DataExchangeBatch(target, k, BatchFrameBytes(k, req_payload),
                            BatchFrameBytes(k, resp_payload));
      if (!wire.ok()) {
        for (size_t i : group.items) {
          if (Op::kRead) {
            // Reads are idempotent: a reply lost beyond the wire retries
            // re-runs the read.
            still_pending.push_back(i);
          } else {
            // The writes were applied but their reply was lost
            // (at-least-once): the whole group reports the wire error.
            (*statuses)[i] = wire;
          }
        }
        continue;
      }
      applied.clear();
      size_t applied_bytes = 0;
      for (size_t g = 0; g < k; ++g) {
        const size_t i = group.items[g];
        if (item[g].code() == StatusCode::kStaleMetadata) {
          need_refresh = true;
          still_pending.push_back(i);
          continue;
        }
        (*statuses)[i] = std::move(item[g]);
        if constexpr (!Op::kRead) {
          if ((*statuses)[i].ok()) {
            applied.push_back(i);
            applied_bytes += op.ReplicaBytes(i);
          }
        }
      }
      if constexpr (!Op::kRead) {
        if (applied.empty()) {
          continue;
        }
        PropagateToReplicas<KvShard>(entry, applied.size(), applied_bytes,
                                     [&](KvShard* s) {
                                       for (size_t i : applied) {
                                         op.Replay(s, i);
                                       }
                                     });
        MaybePersist(entry);
        for (size_t i : applied) {
          Publish(Op::kPublish, op.Key(i));
        }
        // Overload hands the upper half of the slot range to a new block;
        // underload merges the block into a neighbour. A failure to scale
        // does not fail the write. Replicated prefixes do not repartition
        // (see DESIGN.md).
        const bool pressed =
            Op::kPressure == Repartitioner::Pressure::kOverload
                ? usage >= config().repartition_high_threshold && slot_span > 1
                : usage <= config().repartition_low_threshold &&
                      map_entry_count() > 1;
        if (pressed && entry.replicas.empty()) {
          SignalPressure(block, entry, Op::kPressure);
        }
      }
    }
    pending = std::move(still_pending);
    if (!pending.empty() && need_refresh) {
      const Status rs = RefreshMapInternal();
      if (!rs.ok()) {
        for (size_t i : pending) {
          (*statuses)[i] = rs;
        }
        return;
      }
    }
  }
  for (size_t i : pending) {
    (*statuses)[i] = StaleRetry::Exhausted("kv op");
  }
}

std::vector<Status> KvClient::PutBatch(const KvPairs& pairs,
                                       const char* client_span,
                                       const char* block_span) {
  obs::TraceSpan span(client_span, "client");
  span.SetAttr(tenant_attr());
  OpScope scope(this);
  std::vector<Status> statuses(pairs.size());
  PutOp op{pairs, block_span};
  RunBatch(op, &statuses);
  if (std::all_of(statuses.begin(), statuses.end(),
                  [](const Status& s) { return s.ok(); })) {
    scope.Success();
  }
  return statuses;
}

std::vector<Status> KvClient::DeleteBatch(
    const std::vector<std::string_view>& keys, const char* client_span,
    const char* block_span) {
  obs::TraceSpan span(client_span, "client");
  span.SetAttr(tenant_attr());
  OpScope scope(this);
  std::vector<Status> statuses(keys.size());
  DeleteOp op{keys, block_span};
  RunBatch(op, &statuses);
  if (std::all_of(statuses.begin(), statuses.end(), AnsweredOk)) {
    scope.Success();
  }
  return statuses;
}

KvClient::PinnedValues KvClient::GetPinnedBatch(
    const std::vector<std::string_view>& keys, const char* client_span,
    const char* block_span) {
  obs::TraceSpan span(client_span, "client");
  span.SetAttr(tenant_attr());
  OpScope scope(this);
  PinnedValues out;
  out.values.assign(keys.size(), NotFound(""));
  std::vector<Status> statuses(keys.size());
  GetOp op{keys, block_span, &out};
  RunBatch(op, &statuses);
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!statuses[i].ok()) {
      out.values[i] = std::move(statuses[i]);
    }
  }
  if (std::all_of(out.values.begin(), out.values.end(),
                  [](const Result<std::string_view>& r) {
                    return AnsweredOk(r.status());
                  })) {
    scope.Success();
  }
  return out;
}

Status KvClient::Put(std::string_view key, std::string_view value) {
  return PutBatch({{key, value}}, "kv.put", "block.kv_put")[0];
}

Result<std::string> KvClient::Get(std::string_view key) {
  PinnedValues pinned = GetPinnedBatch({key}, "kv.get", "block.kv_get");
  Result<std::string_view>& r = pinned.values[0];
  if (!r.ok()) {
    return r.status();
  }
  // The pin keeps the arena bytes alive: this is the single copy a read
  // pays (DESIGN.md §11).
  CopyMeter::Add(r.value().size());
  return std::string(r.value());
}

Status KvClient::Delete(std::string_view key) {
  return DeleteBatch({key}, "kv.delete", "block.kv_delete")[0];
}

Status KvClient::Accumulate(std::string_view key, std::string_view update,
                            const MergeFn& merge) {
  obs::TraceSpan span("kv.accumulate", "client");
  span.SetAttr(tenant_attr());
  OpScope scope(this);
  std::vector<Status> statuses(1);
  AccumulateOp op{key, update, merge, "block.kv_accumulate", {}};
  RunBatch(op, &statuses);
  if (statuses[0].ok()) {
    scope.Success();
  }
  return statuses[0];
}

Result<bool> KvClient::Exists(std::string_view key) {
  auto r = Get(key);
  if (r.ok()) {
    return true;
  }
  if (r.status().code() == StatusCode::kNotFound) {
    return false;
  }
  return r.status();
}

std::vector<Status> KvClient::MultiPut(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  KvPairs views;
  views.reserve(pairs.size());
  for (const auto& [k, v] : pairs) {
    views.emplace_back(k, v);
  }
  return MultiPut(views);
}

std::vector<Status> KvClient::MultiPut(const KvPairs& pairs) {
  return PutBatch(pairs, "kv.multi_put", "block.kv_multi_put");
}

WireValues KvClient::MultiGet(const std::vector<std::string>& keys) {
  std::vector<std::string_view> views(keys.begin(), keys.end());
  return MultiGet(views);
}

WireValues KvClient::MultiGet(const std::vector<std::string_view>& keys) {
  // The pinned read returns arena views; the owning shape pays exactly one
  // buffer for the whole batch — hits are packed back-to-back the way a
  // response frame's payload section lays them out — instead of one
  // std::string materialization per value.
  PinnedValues pinned = MultiGetPinned(keys);
  WireValues out;
  size_t total = 0;
  for (const auto& r : pinned.values) {
    if (r.ok()) {
      total += r.value().size();
    }
  }
  out.bufs.emplace_back();
  std::string& buf = out.bufs.back();
  buf.reserve(total);  // Exact: views below must survive every append.
  out.values.reserve(pinned.values.size());
  for (const auto& r : pinned.values) {
    if (r.ok()) {
      const size_t at = buf.size();
      buf.append(r.value());
      CopyMeter::Add(r.value().size());
      out.values.emplace_back(
          std::string_view(buf.data() + at, r.value().size()));
    } else {
      out.values.emplace_back(r.status());
    }
  }
  return out;
}

KvClient::PinnedValues KvClient::MultiGetPinned(
    const std::vector<std::string_view>& keys) {
  return GetPinnedBatch(keys, "kv.multi_get", "block.kv_multi_get");
}

std::vector<Status> KvClient::MultiDelete(const std::vector<std::string>& keys) {
  std::vector<std::string_view> views(keys.begin(), keys.end());
  return MultiDelete(views);
}

std::vector<Status> KvClient::MultiDelete(
    const std::vector<std::string_view>& keys) {
  return DeleteBatch(keys, "kv.multi_delete", "block.kv_multi_delete");
}

void KvClient::SignalPressure(Block* block, const PartitionEntry& entry,
                              Repartitioner::Pressure pressure) {
  Repartitioner* rp = repartitioner();
  if (rp == nullptr) {
    if (pressure == Repartitioner::Pressure::kOverload) {
      TrySplit(entry);
    } else {
      TryMerge(entry);
    }
    return;
  }
  Repartitioner::Hint hint;
  hint.job = job();
  hint.prefix = prefix();
  hint.block = entry.block;
  hint.type = DsType::kKvStore;
  hint.pressure = pressure;
  rp->Flag(block, std::move(hint));
}

Status KvClient::TrySplit(const PartitionEntry& entry) {
  bool expected = false;
  if (!state()->scaling_in_progress.compare_exchange_strong(expected, true)) {
    return Status::Ok();  // Another client is already repartitioning.
  }
  const TimeNs start = clock()->Now();
  ChargeRepartitionControl();
  Status st = [&]() -> Status {
    Block* block = Resolve(entry.block);
    if (block == nullptr) {
      return Internal("kv split: block missing");
    }
    uint32_t lo = 0, hi = 0;
    {
      // Re-validate against the live shard: a racing split may already have
      // relieved the pressure.
      Block::OpLock lock(*block);
      auto* shard = ContentAs<KvShard>(block->content());
      if (shard == nullptr || shard->slot_span() < 2) {
        return Status::Ok();
      }
      if (Usage(*shard) < config().repartition_high_threshold) {
        return Status::Ok();
      }
      lo = shard->slot_lo();
      hi = shard->slot_hi();
    }
    const uint32_t mid = lo + (hi - lo) / 2;
    // Phase 1: allocate and initialize the new block, unmapped and owning
    // no slots until the pairs move in (see Controller::AllocateUnmapped).
    auto new_id = controller()->AllocateUnmapped(job(), prefix(), mid, mid);
    if (!new_id.ok()) {
      return new_id.status();
    }
    // Phase 2: move the affected pairs block-to-block (the compute task
    // never sees the data — §3.3).
    Block* new_block = Resolve(*new_id);
    if (new_block == nullptr) {
      controller()->AbortUnmapped(*new_id);
      return Internal("kv split: new block missing");
    }
    Block* first = block;
    Block* second = new_block;
    if (second->id() < first->id()) {
      std::swap(first, second);
    }
    {
      Block::OpLock lock1(*first);
      Block::OpLock lock2(*second);
      auto* old_shard = ContentAs<KvShard>(block->content());
      auto* fresh = ContentAs<KvShard>(new_block->content());
      if (old_shard == nullptr || fresh == nullptr) {
        controller()->AbortUnmapped(*new_id);
        return Internal("kv split: shard vanished during move");
      }
      std::vector<std::pair<std::string, std::string>> pairs;
      old_shard->SplitOff(mid, &pairs);
      size_t moved_bytes = 0;
      for (const auto& [k, v] : pairs) {
        moved_bytes += k.size() + v.size();
      }
      const Status moved = fresh->Absorb(mid, hi, &pairs);
      if (!moved.ok()) {
        // All-or-nothing insert failed, so `pairs` is intact: put the range
        // and its data back on the source so nothing is lost, and release
        // the unmapped block.
        old_shard->Absorb(mid, hi, &pairs);
        controller()->AbortUnmapped(*new_id);
        return moved;
      }
      // Server-to-server transfer of half a block (Fig 11(b): a few hundred
      // ms at paper scale over 10 Gbps). Charged while both blocks are
      // locked — this is precisely the blocking migration the background
      // repartitioner exists to avoid.
      data_net()->RoundTrip(moved_bytes, FrameBytes(0));
    }
    // Phase 3: publish the new ownership atomically.
    PartitionEntry new_entry;
    new_entry.block = *new_id;
    new_entry.lo = mid;
    new_entry.hi = hi;
    JIFFY_RETURN_IF_ERROR(controller()->CommitSplit(job(), prefix(),
                                                    entry.block, lo, mid,
                                                    new_entry));
    state()->splits.fetch_add(1);
    return Status::Ok();
  }();
  state()->repartition_latency.Record(clock()->Now() - start);
  state()->scaling_in_progress.store(false);
  if (st.ok()) {
    return RefreshMapInternal();
  }
  return st;
}

Status KvClient::TryMerge(const PartitionEntry& entry) {
  bool expected = false;
  if (!state()->scaling_in_progress.compare_exchange_strong(expected, true)) {
    return Status::Ok();
  }
  const TimeNs start = clock()->Now();
  ChargeRepartitionControl();
  Status st = [&]() -> Status {
    // Refresh to get an up-to-date view of sibling ranges.
    JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
    PartitionMap map = CachedMap();
    const PartitionEntry* self = nullptr;
    for (const auto& e : map.entries) {
      if (e.block == entry.block) {
        self = &e;
        break;
      }
    }
    if (self == nullptr || map.entries.size() < 2) {
      return Status::Ok();  // Already merged away or last block.
    }
    // Pick the slot-adjacent sibling with the most headroom.
    const PartitionEntry* sibling = nullptr;
    for (const auto& e : map.entries) {
      if (e.block == self->block) {
        continue;
      }
      if (e.hi == self->lo || e.lo == self->hi) {
        if (sibling == nullptr) {
          sibling = &e;
        } else {
          Block* a = Resolve(e.block);
          Block* b = Resolve(sibling->block);
          if (a != nullptr && b != nullptr &&
              a->UsedBytes() < b->UsedBytes()) {
            sibling = &e;
          }
        }
      }
    }
    if (sibling == nullptr) {
      return Status::Ok();
    }
    Block* dying = Resolve(self->block);
    Block* target = Resolve(sibling->block);
    if (dying == nullptr || target == nullptr) {
      return Internal("kv merge: block missing");
    }
    // Merge only when the combined contents leave slack below the high
    // threshold, else we would immediately re-split.
    const size_t combined = dying->UsedBytes() + target->UsedBytes();
    if (static_cast<double>(combined) >
        config().repartition_high_threshold * 0.75 *
            static_cast<double>(config().block_size_bytes)) {
      return Status::Ok();
    }
    Block* first = dying;
    Block* second = target;
    if (second->id() < first->id()) {
      std::swap(first, second);
    }
    uint64_t new_lo = 0, new_hi = 0;
    {
      Block::OpLock lock1(*first);
      Block::OpLock lock2(*second);
      auto* src = ContentAs<KvShard>(dying->content());
      auto* dst = ContentAs<KvShard>(target->content());
      if (src == nullptr || dst == nullptr) {
        return Status::Ok();  // Raced with expiry; nothing to do.
      }
      // Ranges may have moved since the snapshot; re-check adjacency.
      if (src->slot_hi() != dst->slot_lo() && dst->slot_hi() != src->slot_lo()) {
        return Status::Ok();
      }
      const uint32_t src_lo = src->slot_lo();
      const uint32_t src_hi = src->slot_hi();
      std::vector<std::pair<std::string, std::string>> pairs;
      src->SplitOff(src_lo, &pairs);  // Extract everything; range → empty.
      size_t moved_bytes = 0;
      for (const auto& [k, v] : pairs) {
        moved_bytes += k.size() + v.size();
      }
      const Status absorbed = dst->Absorb(src_lo, src_hi, &pairs);
      if (!absorbed.ok()) {
        // All-or-nothing, so `pairs` is intact: give the range and its data
        // back to the source and leave both blocks as they were.
        src->Absorb(src_lo, src_hi, &pairs);
        return absorbed;
      }
      new_lo = dst->slot_lo();
      new_hi = dst->slot_hi();
      // Charged while both blocks are locked, like the split: the blocking
      // baseline pays the transfer on the data path.
      data_net()->RoundTrip(moved_bytes, FrameBytes(0));
    }
    JIFFY_RETURN_IF_ERROR(controller()->CommitMerge(
        job(), prefix(), self->block, sibling->block, new_lo, new_hi));
    state()->merges.fetch_add(1);
    return Status::Ok();
  }();
  state()->repartition_latency.Record(clock()->Now() - start);
  state()->scaling_in_progress.store(false);
  if (st.ok()) {
    return RefreshMapInternal();
  }
  return st;
}

Result<size_t> KvClient::CountPairs() {
  JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
  PartitionMap map = CachedMap();
  size_t total = 0;
  for (const auto& e : map.entries) {
    Block* block = Resolve(e.block);
    if (block == nullptr) {
      continue;
    }
    Block::OpLock lock(*block);
    auto* shard = ContentAs<KvShard>(block->content());
    if (shard != nullptr) {
      total += shard->pair_count();
    }
  }
  return total;
}

}  // namespace jiffy

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

// Index of the map entry owning `slot`; kNoEntry when the map is stale.
size_t EntryIndexForSlot(const PartitionMap& map, uint32_t slot) {
  for (size_t e = 0; e < map.entries.size(); ++e) {
    if (slot >= map.entries[e].lo && slot < map.entries[e].hi) {
      return e;
    }
  }
  return kNoEntry;
}

}  // namespace

constexpr char KvClient::kPutOp[];
constexpr char KvClient::kDeleteOp[];

bool KvClient::RouteSlot(uint32_t slot, PartitionEntry* out) const {
  std::lock_guard<std::mutex> lock(map_mu_);
  for (const auto& e : map_.entries) {
    if (slot >= e.lo && slot < e.hi) {
      *out = e;
      return true;
    }
  }
  return false;
}

Status KvClient::Put(std::string_view key, std::string_view value) {
  obs::TraceSpan span("kv.put", "client");
  span.SetAttr(tenant_attr());
  OpScope op(this);
  const uint32_t slot = KvSlotOf(key, config().kv_hash_slots);
  for (int attempt = 0; attempt < kMaxStaleRetries; ++attempt) {
    BackoffRetry(attempt);
    PartitionEntry entry;
    if (!RouteSlot(slot, &entry)) {
      JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
      continue;
    }
    Block* block = Resolve(entry.block);
    if (block == nullptr) {
      // Primary's server failed: promote a chain replica and retry.
      JIFFY_RETURN_IF_ERROR(FailOver(entry));
      continue;
    }
    Status st;
    double usage = 0.0;
    uint32_t slot_span = 0;
    bool content_gone = false;
    {
      Block::OpLock lock(*block, "kv.block_wait");
      JIFFY_TRACE_SPAN("block.kv_put", "block");
      auto* shard = ContentAs<KvShard>(block->content());
      if (shard == nullptr) {
        content_gone = true;
      } else {
        block->CountOp();
        st = shard->Put(key, value);
        usage = static_cast<double>(shard->used_bytes()) /
                static_cast<double>(shard->capacity());
        slot_span = shard->slot_span();
      }
    }
    if (content_gone || st.code() == StatusCode::kStaleMetadata) {
      JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
      continue;
    }
    if (!st.ok()) {
      return st;
    }
    // The put is applied server-side before the reply travels; a wire
    // failure that survives every retry is reported (at-least-once).
    JIFFY_RETURN_IF_ERROR(
        DataExchange(entry.block, FrameBytes(key.size() + value.size()),
                     FrameBytes(0)));
    PropagateToReplicas<KvShard>(entry, key.size() + value.size(),
                                 [&](KvShard* s) { s->Put(key, value); });
    MaybePersist(entry);
    Publish(kPutOp, key);
    if (usage >= config().repartition_high_threshold && slot_span > 1 &&
        entry.replicas.empty()) {
      // Overload: hand the upper half of the slot range to a new block.
      // Failure to scale (e.g. kOutOfMemory) does not fail the put — the
      // data is already stored; the block simply stays hot. Replicated
      // prefixes do not repartition (see DESIGN.md).
      SignalOverload(block, entry);
    }
    op.Success();
    return Status::Ok();
  }
  return Unavailable("kv put livelock (too many stale retries)");
}

Result<std::string> KvClient::Get(std::string_view key) {
  obs::TraceSpan span("kv.get", "client");
  span.SetAttr(tenant_attr());
  OpScope op(this);
  const uint32_t slot = KvSlotOf(key, config().kv_hash_slots);
  for (int attempt = 0; attempt < kMaxStaleRetries; ++attempt) {
    BackoffRetry(attempt);
    PartitionEntry entry;
    if (!RouteSlot(slot, &entry)) {
      JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
      continue;
    }
    // Chain reads are served by the tail replica (§4.2.2).
    Block* block = Resolve(ReadTarget(entry));
    if (block == nullptr) {
      JIFFY_RETURN_IF_ERROR(FailOver(entry));
      continue;
    }
    Result<std::string> r = NotFound("");
    bool content_gone = false;
    {
      Block::OpLock lock(*block, "kv.block_wait");
      JIFFY_TRACE_SPAN("block.kv_get", "block");
      auto* shard = ContentAs<KvShard>(block->content());
      if (shard == nullptr) {
        content_gone = true;
      } else {
        block->CountOp();
        // The shard returns a view into arena memory; materialize it here,
        // still under the block mutex — the single copy this read pays.
        Result<std::string_view> rv = shard->Get(key);
        if (rv.ok()) {
          CopyMeter::Add(rv.value().size());
          r = std::string(rv.value());
        } else {
          r = rv.status();
        }
      }
    }
    if (content_gone) {
      JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
      continue;
    }
    if (r.ok()) {
      // Reads are idempotent: a reply lost beyond the retry budget simply
      // re-executes the whole read.
      if (!DataExchange(ReadTarget(entry), FrameBytes(key.size()),
                        FrameBytes(r.value().size()))
               .ok()) {
        continue;
      }
      op.Success();
      return r;
    }
    if (r.status().code() == StatusCode::kStaleMetadata) {
      JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
      continue;
    }
    DataExchange(ReadTarget(entry), FrameBytes(key.size()), FrameBytes(0));
    op.Finish(r.status());
    return r.status();
  }
  return Unavailable("kv get livelock (too many stale retries)");
}

Status KvClient::Delete(std::string_view key) {
  obs::TraceSpan span("kv.delete", "client");
  span.SetAttr(tenant_attr());
  OpScope op(this);
  const uint32_t slot = KvSlotOf(key, config().kv_hash_slots);
  for (int attempt = 0; attempt < kMaxStaleRetries; ++attempt) {
    BackoffRetry(attempt);
    PartitionEntry entry;
    if (!RouteSlot(slot, &entry)) {
      JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
      continue;
    }
    Block* block = Resolve(entry.block);
    if (block == nullptr) {
      JIFFY_RETURN_IF_ERROR(FailOver(entry));
      continue;
    }
    Status st;
    double usage = 0.0;
    bool content_gone = false;
    {
      Block::OpLock lock(*block, "kv.block_wait");
      JIFFY_TRACE_SPAN("block.kv_delete", "block");
      auto* shard = ContentAs<KvShard>(block->content());
      if (shard == nullptr) {
        content_gone = true;
      } else {
        block->CountOp();
        st = shard->Delete(key);
        usage = static_cast<double>(shard->used_bytes()) /
                static_cast<double>(shard->capacity());
      }
    }
    if (content_gone || st.code() == StatusCode::kStaleMetadata) {
      JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
      continue;
    }
    if (!st.ok()) {
      return st;
    }
    JIFFY_RETURN_IF_ERROR(DataExchange(entry.block, FrameBytes(key.size()), FrameBytes(0)));
    PropagateToReplicas<KvShard>(entry, key.size(),
                                 [&](KvShard* s) { s->Delete(key); });
    MaybePersist(entry);
    Publish(kDeleteOp, key);
    if (usage <= config().repartition_low_threshold &&
        map_entry_count() > 1 && entry.replicas.empty()) {
      SignalUnderload(block, entry);
    }
    op.Finish(st);
    return Status::Ok();
  }
  return Unavailable("kv delete livelock (too many stale retries)");
}

Status KvClient::Accumulate(std::string_view key, std::string_view update,
                            const MergeFn& merge) {
  obs::TraceSpan span("kv.accumulate", "client");
  span.SetAttr(tenant_attr());
  OpScope op(this);
  const uint32_t slot = KvSlotOf(key, config().kv_hash_slots);
  for (int attempt = 0; attempt < kMaxStaleRetries; ++attempt) {
    BackoffRetry(attempt);
    PartitionEntry entry;
    if (!RouteSlot(slot, &entry)) {
      JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
      continue;
    }
    Block* block = Resolve(entry.block);
    if (block == nullptr) {
      JIFFY_RETURN_IF_ERROR(FailOver(entry));
      continue;
    }
    Status st;
    double usage = 0.0;
    uint32_t slot_span = 0;
    bool content_gone = false;
    std::string merged;
    {
      Block::OpLock lock(*block, "kv.block_wait");
      JIFFY_TRACE_SPAN("block.kv_accumulate", "block");
      auto* shard = ContentAs<KvShard>(block->content());
      if (shard == nullptr) {
        content_gone = true;
      } else if (!shard->OwnsKey(key)) {
        st = StaleMetadata("slot moved");
      } else {
        block->CountOp();
        // The old value stays a view for the merge callback — the only copy
        // is the arena copy-in of the merged result inside Put.
        Result<std::string_view> old = shard->Get(key);
        merged = merge(old.ok() ? *old : std::string_view(), update);
        st = shard->Put(key, merged);
        usage = static_cast<double>(shard->used_bytes()) /
                static_cast<double>(shard->capacity());
        slot_span = shard->slot_span();
      }
    }
    if (content_gone || st.code() == StatusCode::kStaleMetadata) {
      JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
      continue;
    }
    if (!st.ok()) {
      return st;
    }
    JIFFY_RETURN_IF_ERROR(
        DataExchange(entry.block, FrameBytes(key.size() + update.size()),
                     FrameBytes(0)));
    // The primary resolved the accumulator; replicas receive the merged
    // value so the chain stays byte-identical.
    PropagateToReplicas<KvShard>(entry, key.size() + merged.size(),
                                 [&](KvShard* s) { s->Put(key, merged); });
    MaybePersist(entry);
    Publish(kPutOp, key);
    if (usage >= config().repartition_high_threshold && slot_span > 1 &&
        entry.replicas.empty()) {
      SignalOverload(block, entry);
    }
    op.Success();
    return Status::Ok();
  }
  return Unavailable("kv accumulate livelock (too many stale retries)");
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
  std::vector<std::pair<std::string_view, std::string_view>> views;
  views.reserve(pairs.size());
  for (const auto& [k, v] : pairs) {
    views.emplace_back(k, v);
  }
  return MultiPut(views);
}

std::vector<Status> KvClient::MultiPut(
    const std::vector<std::pair<std::string_view, std::string_view>>& pairs) {
  obs::TraceSpan op_span("kv.multi_put", "client");
  op_span.SetAttr(tenant_attr());
  OpScope op(this);
  std::vector<Status> statuses(pairs.size(), Status::Ok());
  if (pairs.empty()) {
    return statuses;
  }
  std::vector<uint32_t> slots(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    slots[i] = KvSlotOf(pairs[i].first, config().kv_hash_slots);
  }
  // Indices still awaiting a definitive status. A concurrent split only
  // re-pends the items whose slots moved — the rest of the batch is done.
  std::vector<size_t> pending(pairs.size());
  std::iota(pending.begin(), pending.end(), 0);
  for (int attempt = 0; attempt < kMaxStaleRetries && !pending.empty();
       ++attempt) {
    BackoffRetry(attempt);
    const PartitionMap map = CachedMap();
    bool need_refresh = false;
    std::vector<std::vector<size_t>> groups(map.entries.size());
    std::vector<size_t> still_pending;
    for (size_t i : pending) {
      const size_t e = EntryIndexForSlot(map, slots[i]);
      if (e == kNoEntry) {
        need_refresh = true;
        still_pending.push_back(i);
      } else {
        groups[e].push_back(i);
      }
    }
    for (size_t e = 0; e < groups.size(); ++e) {
      const std::vector<size_t>& group = groups[e];
      if (group.empty()) {
        continue;
      }
      const PartitionEntry& entry = map.entries[e];
      Block* block = Resolve(entry.block);
      if (block == nullptr) {
        const Status fo = FailOver(entry);
        if (!fo.ok()) {
          for (size_t i : group) {
            statuses[i] = fo;
          }
        } else {
          // FailOver already refreshed the map; just re-route this group.
          still_pending.insert(still_pending.end(), group.begin(), group.end());
        }
        continue;
      }
      std::vector<std::pair<std::string_view, std::string_view>> ops;
      ops.reserve(group.size());
      size_t payload = 0;
      for (size_t i : group) {
        ops.emplace_back(pairs[i].first, pairs[i].second);
        payload += pairs[i].first.size() + pairs[i].second.size();
      }
      const size_t req_bytes = BatchFrameBytes(ops.size(), payload);
      std::vector<Status> item_status;
      bool content_gone = false;
      double usage = 0.0;
      uint32_t slot_span = 0;
      {
        Block::OpLock lock(*block, "kv.block_wait");
        JIFFY_TRACE_SPAN("block.kv_multi_put", "block");
        auto* shard = ContentAs<KvShard>(block->content());
        if (shard == nullptr) {
          content_gone = true;
        } else {
          block->CountOps(ops.size());
          shard->MultiPut(ops, &item_status);
          usage = static_cast<double>(shard->used_bytes()) /
                  static_cast<double>(shard->capacity());
          slot_span = shard->slot_span();
        }
      }
      if (content_gone) {
        need_refresh = true;
        still_pending.insert(still_pending.end(), group.begin(), group.end());
        continue;
      }
      // One coalesced exchange for the whole group regardless of outcome:
      // the server saw and answered every item. A wire failure that
      // survives every retry loses the per-item reply, so the whole group
      // reports it (the puts themselves were applied — at-least-once).
      const Status wire = DataExchangeBatch(entry.block, ops.size(), req_bytes,
                                            BatchFrameBytes(ops.size(), 0));
      if (!wire.ok()) {
        for (size_t i : group) {
          statuses[i] = wire;
        }
        continue;
      }
      std::vector<size_t> applied;
      size_t applied_bytes = 0;
      for (size_t g = 0; g < group.size(); ++g) {
        const size_t i = group[g];
        if (item_status[g].code() == StatusCode::kStaleMetadata) {
          need_refresh = true;
          still_pending.push_back(i);
        } else {
          statuses[i] = item_status[g];
          if (item_status[g].ok()) {
            applied.push_back(i);
            applied_bytes += pairs[i].first.size() + pairs[i].second.size();
          }
        }
      }
      if (!applied.empty()) {
        PropagateBatchToReplicas<KvShard>(
            entry, applied.size(), applied_bytes, [&](KvShard* s) {
              for (size_t i : applied) {
                s->Put(pairs[i].first, pairs[i].second);
              }
            });
        MaybePersist(entry);
        for (size_t i : applied) {
          Publish(kPutOp, pairs[i].first);
        }
        if (usage >= config().repartition_high_threshold && slot_span > 1 &&
            entry.replicas.empty()) {
          SignalOverload(block, entry);
        }
      }
    }
    pending = std::move(still_pending);
    if (!pending.empty() && need_refresh) {
      const Status rs = RefreshMapInternal();
      if (!rs.ok()) {
        for (size_t i : pending) {
          statuses[i] = rs;
        }
        return statuses;
      }
    }
  }
  for (size_t i : pending) {
    statuses[i] = Unavailable("kv multi-put livelock (too many stale retries)");
  }
  if (std::all_of(statuses.begin(), statuses.end(),
                  [](const Status& s) { return s.ok(); })) {
    op.Success();
  }
  return statuses;
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
  obs::TraceSpan op_span("kv.multi_get", "client");
  op_span.SetAttr(tenant_attr());
  OpScope op(this);
  PinnedValues out;
  out.values.assign(keys.size(), NotFound(""));
  std::vector<Result<std::string_view>>& results = out.values;
  if (keys.empty()) {
    op.Success();
    return out;
  }
  std::vector<uint32_t> slots(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    slots[i] = KvSlotOf(keys[i], config().kv_hash_slots);
  }
  std::vector<size_t> pending(keys.size());
  std::iota(pending.begin(), pending.end(), 0);
  for (int attempt = 0; attempt < kMaxStaleRetries && !pending.empty();
       ++attempt) {
    BackoffRetry(attempt);
    const PartitionMap map = CachedMap();
    bool need_refresh = false;
    std::vector<std::vector<size_t>> groups(map.entries.size());
    std::vector<size_t> still_pending;
    for (size_t i : pending) {
      const size_t e = EntryIndexForSlot(map, slots[i]);
      if (e == kNoEntry) {
        need_refresh = true;
        still_pending.push_back(i);
      } else {
        groups[e].push_back(i);
      }
    }
    for (size_t e = 0; e < groups.size(); ++e) {
      const std::vector<size_t>& group = groups[e];
      if (group.empty()) {
        continue;
      }
      const PartitionEntry& entry = map.entries[e];
      // Chain reads are served by the tail replica (§4.2.2).
      Block* block = Resolve(ReadTarget(entry));
      if (block == nullptr) {
        const Status fo = FailOver(entry);
        if (!fo.ok()) {
          for (size_t i : group) {
            results[i] = fo;
          }
        } else {
          still_pending.insert(still_pending.end(), group.begin(), group.end());
        }
        continue;
      }
      std::vector<std::string_view> ops;
      ops.reserve(group.size());
      size_t req_payload = 0;
      for (size_t i : group) {
        ops.emplace_back(keys[i]);
        req_payload += keys[i].size();
      }
      std::vector<Result<std::string_view>> item_results;
      bool content_gone = false;
      {
        Block::OpLock lock(*block, "kv.block_wait");
        JIFFY_TRACE_SPAN("block.kv_multi_get", "block");
        auto* shard = ContentAs<KvShard>(block->content());
        if (shard == nullptr) {
          content_gone = true;
        } else {
          block->CountOps(ops.size());
          shard->MultiGet(ops, &item_results);
          // Pin while the mutex still protects the arena: from here the
          // views stay valid even against a concurrent chunked migration
          // or compaction (DESIGN.md §11).
          out.pins.emplace_back(shard->arena());
        }
      }
      if (content_gone) {
        need_refresh = true;
        still_pending.insert(still_pending.end(), group.begin(), group.end());
        continue;
      }
      size_t resp_payload = 0;  // frame + 8 B/item accounted by BatchFrameBytes
      for (size_t g = 0; g < group.size(); ++g) {
        const size_t i = group[g];
        if (!item_results[g].ok() &&
            item_results[g].status().code() == StatusCode::kStaleMetadata) {
          need_refresh = true;
          still_pending.push_back(i);
        } else {
          if (item_results[g].ok()) {
            resp_payload += item_results[g].value().size();
          }
          results[i] = std::move(item_results[g]);
        }
      }
      const Status wire = DataExchangeBatch(
          ReadTarget(entry), ops.size(),
          BatchFrameBytes(ops.size(), req_payload),
          BatchFrameBytes(ops.size(), resp_payload));
      if (!wire.ok()) {
        for (size_t i : group) {
          results[i] = wire;
        }
      }
    }
    pending = std::move(still_pending);
    if (!pending.empty() && need_refresh) {
      const Status rs = RefreshMapInternal();
      if (!rs.ok()) {
        for (size_t i : pending) {
          results[i] = rs;
        }
        return out;
      }
    }
  }
  for (size_t i : pending) {
    results[i] = Unavailable("kv multi-get livelock (too many stale retries)");
  }
  if (std::all_of(results.begin(), results.end(),
                  [](const Result<std::string_view>& r) {
                    return r.ok() ||
                           r.status().code() == StatusCode::kNotFound;
                  })) {
    op.Success();
  }
  return out;
}

std::vector<Status> KvClient::MultiDelete(const std::vector<std::string>& keys) {
  std::vector<std::string_view> views(keys.begin(), keys.end());
  return MultiDelete(views);
}

std::vector<Status> KvClient::MultiDelete(
    const std::vector<std::string_view>& keys) {
  obs::TraceSpan op_span("kv.multi_delete", "client");
  op_span.SetAttr(tenant_attr());
  OpScope op(this);
  std::vector<Status> statuses(keys.size(), Status::Ok());
  if (keys.empty()) {
    return statuses;
  }
  std::vector<uint32_t> slots(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    slots[i] = KvSlotOf(keys[i], config().kv_hash_slots);
  }
  std::vector<size_t> pending(keys.size());
  std::iota(pending.begin(), pending.end(), 0);
  for (int attempt = 0; attempt < kMaxStaleRetries && !pending.empty();
       ++attempt) {
    BackoffRetry(attempt);
    const PartitionMap map = CachedMap();
    bool need_refresh = false;
    std::vector<std::vector<size_t>> groups(map.entries.size());
    std::vector<size_t> still_pending;
    for (size_t i : pending) {
      const size_t e = EntryIndexForSlot(map, slots[i]);
      if (e == kNoEntry) {
        need_refresh = true;
        still_pending.push_back(i);
      } else {
        groups[e].push_back(i);
      }
    }
    for (size_t e = 0; e < groups.size(); ++e) {
      const std::vector<size_t>& group = groups[e];
      if (group.empty()) {
        continue;
      }
      const PartitionEntry& entry = map.entries[e];
      Block* block = Resolve(entry.block);
      if (block == nullptr) {
        const Status fo = FailOver(entry);
        if (!fo.ok()) {
          for (size_t i : group) {
            statuses[i] = fo;
          }
        } else {
          still_pending.insert(still_pending.end(), group.begin(), group.end());
        }
        continue;
      }
      std::vector<std::string_view> ops;
      ops.reserve(group.size());
      size_t payload = 0;
      for (size_t i : group) {
        ops.emplace_back(keys[i]);
        payload += keys[i].size();
      }
      const size_t req_bytes = BatchFrameBytes(ops.size(), payload);
      std::vector<Status> item_status;
      bool content_gone = false;
      double usage = 0.0;
      {
        Block::OpLock lock(*block, "kv.block_wait");
        JIFFY_TRACE_SPAN("block.kv_multi_delete", "block");
        auto* shard = ContentAs<KvShard>(block->content());
        if (shard == nullptr) {
          content_gone = true;
        } else {
          block->CountOps(ops.size());
          shard->MultiDelete(ops, &item_status);
          usage = static_cast<double>(shard->used_bytes()) /
                  static_cast<double>(shard->capacity());
        }
      }
      if (content_gone) {
        need_refresh = true;
        still_pending.insert(still_pending.end(), group.begin(), group.end());
        continue;
      }
      const Status wire = DataExchangeBatch(entry.block, ops.size(), req_bytes,
                                            BatchFrameBytes(ops.size(), 0));
      if (!wire.ok()) {
        for (size_t i : group) {
          statuses[i] = wire;
        }
        continue;
      }
      std::vector<size_t> applied;
      size_t applied_bytes = 0;
      for (size_t g = 0; g < group.size(); ++g) {
        const size_t i = group[g];
        if (item_status[g].code() == StatusCode::kStaleMetadata) {
          need_refresh = true;
          still_pending.push_back(i);
        } else {
          statuses[i] = item_status[g];
          if (item_status[g].ok()) {
            applied.push_back(i);
            applied_bytes += keys[i].size();
          }
        }
      }
      if (!applied.empty()) {
        PropagateBatchToReplicas<KvShard>(
            entry, applied.size(), applied_bytes, [&](KvShard* s) {
              for (size_t i : applied) {
                s->Delete(keys[i]);
              }
            });
        MaybePersist(entry);
        for (size_t i : applied) {
          Publish(kDeleteOp, keys[i]);
        }
        if (usage <= config().repartition_low_threshold &&
            map_entry_count() > 1 && entry.replicas.empty()) {
          SignalUnderload(block, entry);
        }
      }
    }
    pending = std::move(still_pending);
    if (!pending.empty() && need_refresh) {
      const Status rs = RefreshMapInternal();
      if (!rs.ok()) {
        for (size_t i : pending) {
          statuses[i] = rs;
        }
        return statuses;
      }
    }
  }
  for (size_t i : pending) {
    statuses[i] =
        Unavailable("kv multi-delete livelock (too many stale retries)");
  }
  if (std::all_of(statuses.begin(), statuses.end(), [](const Status& s) {
        return s.ok() || s.code() == StatusCode::kNotFound;
      })) {
    op.Success();
  }
  return statuses;
}

void KvClient::SignalOverload(Block* block, const PartitionEntry& entry) {
  Repartitioner* rp = repartitioner();
  if (rp == nullptr) {
    TrySplit(entry);
    return;
  }
  Repartitioner::Hint hint;
  hint.job = job();
  hint.prefix = prefix();
  hint.block = entry.block;
  hint.type = DsType::kKvStore;
  hint.pressure = Repartitioner::Pressure::kOverload;
  rp->Flag(block, std::move(hint));
}

void KvClient::SignalUnderload(Block* block, const PartitionEntry& entry) {
  Repartitioner* rp = repartitioner();
  if (rp == nullptr) {
    TryMerge(entry);
    return;
  }
  Repartitioner::Hint hint;
  hint.job = job();
  hint.prefix = prefix();
  hint.block = entry.block;
  hint.type = DsType::kKvStore;
  hint.pressure = Repartitioner::Pressure::kUnderload;
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
      const double usage = static_cast<double>(shard->used_bytes()) /
                           static_cast<double>(shard->capacity());
      if (usage < config().repartition_high_threshold) {
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

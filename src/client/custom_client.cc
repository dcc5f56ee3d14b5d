#include "src/client/custom_client.h"

namespace jiffy {

CustomDsClient::CustomDsClient(JiffyCluster* cluster, std::string job,
                               std::string prefix, PartitionMap initial_map)
    : DsClient(cluster, std::move(job), std::move(prefix),
               std::move(initial_map), "custom") {
  type_name_ = CachedMap().custom_type;
  spec_ = CustomDsRegistry::Instance()->Find(type_name_);
}

Result<std::string> CustomDsClient::RunOp(
    OpKind kind, const std::string& op, const std::vector<std::string>& args) {
  obs::TraceSpan span("custom.run_op", "client");
  span.SetAttr(tenant_attr());
  OpScope scope(this);
  if (spec_ == nullptr) {
    return FailedPrecondition("custom type '" + type_name_ +
                              "' is not registered in this process");
  }
  size_t payload = op.size();
  for (const auto& a : args) {
    payload += a.size();
  }
  for (StaleRetry retry = StaleLoop(); retry.Next();) {
    PartitionMap map = CachedMap();
    if (map.entries.empty()) {
      JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
      continue;
    }
    // getBlock (Fig 6): the registered router picks the target entry.
    const size_t idx = spec_->route(op, args, map);
    if (idx >= map.entries.size()) {
      JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
      continue;
    }
    const PartitionEntry entry = map.entries[idx];
    const BlockId target =
        kind == OpKind::kRead ? ReadTarget(entry) : entry.block;
    Block* block = Resolve(target);
    if (block == nullptr) {
      JIFFY_RETURN_IF_ERROR(FailOver(entry));
      continue;
    }
    Result<std::string> r = Internal("unreached");
    bool content_gone = false;
    {
      Block::OpLock lock(*block, "custom.block_wait");
      JIFFY_TRACE_SPAN("block.custom_op", "block");
      auto* content = ContentAs<CustomContent>(block->content());
      if (content == nullptr) {
        content_gone = true;
      } else {
        switch (kind) {
          case OpKind::kWrite:
            r = content->WriteOp(op, args);
            break;
          case OpKind::kRead:
            r = content->ReadOp(op, args);
            break;
          case OpKind::kDelete:
            r = content->DeleteOp(op, args);
            break;
        }
      }
    }
    if (content_gone ||
        (!r.ok() && r.status().code() == StatusCode::kStaleMetadata)) {
      JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
      continue;
    }
    const Status wire =
        DataExchange(target, payload + 64, (r.ok() ? r->size() : 0) + 64);
    if (!wire.ok()) {
      if (kind == OpKind::kRead) {
        continue;  // Reads are idempotent: retry the whole op.
      }
      return wire;  // Mutation applied but the ack was lost (at-least-once).
    }
    if (r.ok() && kind != OpKind::kRead) {
      // Mutations propagate down the replica chain and hit the
      // write-through path, exactly like the built-in structures.
      PropagateToReplicas<CustomContent>(
          entry, 1, payload, [&](CustomContent* c) {
            if (kind == OpKind::kWrite) {
              c->WriteOp(op, args);
            } else {
              c->DeleteOp(op, args);
            }
          });
      MaybePersist(entry);
      Publish(op, args.empty() ? "" : args.front());
    }
    scope.Finish(r.status());
    return r;
  }
  return StaleRetry::Exhausted("custom op");
}

Result<std::string> CustomDsClient::WriteOp(
    const std::string& op, const std::vector<std::string>& args) {
  return RunOp(OpKind::kWrite, op, args);
}

Result<std::string> CustomDsClient::ReadOp(
    const std::string& op, const std::vector<std::string>& args) {
  return RunOp(OpKind::kRead, op, args);
}

Result<std::string> CustomDsClient::DeleteOp(
    const std::string& op, const std::vector<std::string>& args) {
  return RunOp(OpKind::kDelete, op, args);
}

Status CustomDsClient::CapAndGrow(uint64_t tail_end, uint64_t lo,
                                  uint64_t hi) {
  bool expected = false;
  if (!state()->scaling_in_progress.compare_exchange_strong(expected, true)) {
    return RefreshMapInternal();
  }
  const TimeNs start = clock()->Now();
  ChargeRepartitionControl();
  Status st = Status::Ok();
  PartitionMap map = CachedMap();
  if (map.entries.empty()) {
    st = FailedPrecondition("custom structure has no blocks");
  } else {
    const PartitionEntry tail = map.entries.back();
    st = controller()->UpdateEntryRange(job(), prefix(), tail.block, tail.lo,
                                        tail_end);
    if (st.ok()) {
      auto added = controller()->AddBlockIfTail(job(), prefix(), tail.block,
                                                lo, hi);
      if (added.ok()) {
        state()->repartition_latency.Record(clock()->Now() - start);
        state()->splits.fetch_add(1);
      } else if (added.status().code() != StatusCode::kFailedPrecondition) {
        st = added.status();
      }
    }
  }
  state()->scaling_in_progress.store(false);
  if (!st.ok()) {
    return st;
  }
  return RefreshMapInternal();
}

Status CustomDsClient::Grow(uint64_t lo, uint64_t hi) {
  bool expected = false;
  if (!state()->scaling_in_progress.compare_exchange_strong(expected, true)) {
    return RefreshMapInternal();
  }
  const TimeNs start = clock()->Now();
  ChargeRepartitionControl();
  auto added = controller()->AddBlock(job(), prefix(), lo, hi);
  if (added.ok()) {
    state()->repartition_latency.Record(clock()->Now() - start);
    state()->splits.fetch_add(1);
  }
  state()->scaling_in_progress.store(false);
  if (!added.ok()) {
    return added.status();
  }
  return RefreshMapInternal();
}

}  // namespace jiffy

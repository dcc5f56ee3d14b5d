#include "src/client/queue_client.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/ds/queue_content.h"
#include "src/net/network.h"
#include "src/obs/trace.h"

namespace jiffy {

constexpr char QueueClient::kEnqueueOp[];
constexpr char QueueClient::kDequeueOp[];

void QueueClient::SetMaxQueueLength(uint64_t n) {
  state()->max_queue_length.store(n);
}

void QueueClient::FlagGrowth(Block* block, BlockId id) {
  Repartitioner* rp = repartitioner();
  if (rp == nullptr) {
    return;
  }
  Repartitioner::Hint hint;
  hint.job = job();
  hint.prefix = prefix();
  hint.block = id;
  hint.type = DsType::kQueue;
  hint.pressure = Repartitioner::Pressure::kOverload;
  rp->Flag(block, std::move(hint));
}

Status QueueClient::GrowTail(BlockId tail_block, uint64_t last_index) {
  bool expected = false;
  if (!state()->scaling_in_progress.compare_exchange_strong(expected, true)) {
    return RefreshMapInternal();
  }
  const TimeNs start = clock()->Now();
  ChargeRepartitionControl();
  auto added = controller()->AddBlockIfTail(job(), prefix(), tail_block,
                                            last_index + 1, last_index + 1);
  if (added.ok()) {
    state()->repartition_latency.Record(clock()->Now() - start);
    state()->splits.fetch_add(1);
  }
  state()->scaling_in_progress.store(false);
  if (!added.ok() &&
      added.status().code() != StatusCode::kFailedPrecondition) {
    return added.status();
  }
  // kFailedPrecondition: another producer already grew the tail — just pick
  // up the new map.
  return RefreshMapInternal();
}

Status QueueClient::ShrinkHead(BlockId head_block) {
  bool expected = false;
  if (!state()->scaling_in_progress.compare_exchange_strong(expected, true)) {
    return RefreshMapInternal();
  }
  const TimeNs start = clock()->Now();
  ChargeRepartitionControl();
  Status st = controller()->RemoveBlock(job(), prefix(), head_block);
  state()->repartition_latency.Record(clock()->Now() - start);
  state()->merges.fetch_add(1);
  state()->scaling_in_progress.store(false);
  if (!st.ok() && st.code() != StatusCode::kNotFound) {
    return st;  // kNotFound: another client already removed it.
  }
  return RefreshMapInternal();
}

Status QueueClient::Enqueue(std::string_view item) {
  return EnqueueItems({item}, "queue.enqueue", "block.queue_enqueue");
}

Status QueueClient::EnqueueBatch(const std::vector<std::string>& items) {
  std::vector<std::string_view> views(items.begin(), items.end());
  return EnqueueBatch(views);
}

Status QueueClient::EnqueueBatch(const std::vector<std::string_view>& items) {
  return EnqueueItems(items, "queue.enqueue_batch", "block.queue_enqueue_batch");
}

Status QueueClient::EnqueueItems(const std::vector<std::string_view>& items,
                                 const char* client_span,
                                 const char* block_span) {
  obs::TraceSpan span(client_span, "client");
  span.SetAttr(tenant_attr());
  OpScope op(this);
  if (items.empty()) {
    op.Success();
    return Status::Ok();
  }
  const uint64_t bound = state()->max_queue_length.load();
  if (bound > 0 &&
      state()->queue_items.load(std::memory_order_relaxed) +
              static_cast<int64_t>(items.size()) >
          static_cast<int64_t>(bound)) {
    return Unavailable("queue at maxQueueLength=" + std::to_string(bound));
  }
  size_t done = 0;
  for (StaleRetry retry = StaleLoop(); done < items.size() && retry.Next();) {
    PartitionMap map = CachedMap();
    if (map.entries.empty()) {
      JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
      continue;
    }
    const PartitionEntry tail = map.entries.back();
    Block* block = Resolve(tail.block);
    if (block == nullptr) {
      JIFFY_RETURN_IF_ERROR(FailOver(tail));
      continue;
    }
    size_t accepted = 0;
    bool content_gone = false;
    double usage = 0.0;
    {
      Block::OpLock lock(*block, "queue.block_wait");
      JIFFY_TRACE_SPAN(block_span, "block");
      auto* seg = ContentAs<QueueSegment>(block->content());
      if (seg == nullptr) {
        content_gone = true;
      } else if (!seg->sealed()) {
        // Copies a prefix of items[done..] into the segment's arena; on
        // overflow the segment seals and the caller's suffix retries
        // against the new tail.
        accepted = seg->EnqueueBatch(items, done);
        block->CountOps(accepted);
        usage = static_cast<double>(seg->used_bytes()) /
                static_cast<double>(seg->capacity());
      }
    }
    if (content_gone) {
      JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
      continue;
    }
    if (accepted > 0) {
      size_t bytes = 0;
      for (size_t i = done; i < done + accepted; ++i) {
        bytes += items[i].size();
      }
      JIFFY_RETURN_IF_ERROR(DataExchangeBatch(tail.block, accepted,
                                              FrameBytes(bytes),
                                              FrameBytes(0)));
      if (!tail.replicas.empty()) {
        // Replicas replay the same caller-owned views.
        PropagateToReplicas<QueueSegment>(
            tail, accepted, bytes, [&](QueueSegment* s) {
              for (size_t i = done; i < done + accepted; ++i) {
                s->Enqueue(items[i]);
              }
            });
        MaybePersist(tail);
      }
      state()->queue_items.fetch_add(static_cast<int64_t>(accepted),
                                     std::memory_order_relaxed);
      for (size_t i = done; i < done + accepted; ++i) {
        if (Subscribed()) {
          Publish(kEnqueueOp, std::to_string(items[i].size()));
        }
      }
      done += accepted;
      retry.Progress();
      if (done == items.size() &&
          usage >= config().repartition_high_threshold &&
          tail.replicas.empty()) {
        // Whole batch landed but the tail is nearly full — grow it in the
        // background before the next producer overflows.
        FlagGrowth(block, tail.block);
      }
    }
    if (done < items.size()) {
      // Tail sealed mid-batch: grow, then re-send only the suffix.
      JIFFY_RETURN_IF_ERROR(GrowTail(tail.block, tail.lo));
      PartitionMap refreshed = CachedMap();
      if (!refreshed.entries.empty() &&
          refreshed.entries.back().block == tail.block) {
        JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
      }
    }
  }
  if (done < items.size()) {
    return StaleRetry::Exhausted("queue enqueue");
  }
  op.Success();
  return Status::Ok();
}

Result<std::string> QueueClient::Dequeue() {
  JIFFY_ASSIGN_OR_RETURN(
      std::vector<std::string> items,
      DequeueItems(1, "queue.dequeue", "block.queue_dequeue"));
  if (items.empty()) {
    return NotFound("queue empty");
  }
  return std::move(items[0]);
}

Result<std::vector<std::string>> QueueClient::DequeueBatch(size_t max_n) {
  return DequeueItems(max_n, "queue.dequeue_batch", "block.queue_dequeue_batch");
}

Result<std::vector<std::string>> QueueClient::DequeueItems(
    size_t max_n, const char* client_span, const char* block_span) {
  obs::TraceSpan span(client_span, "client");
  span.SetAttr(tenant_attr());
  OpScope op(this);
  std::vector<std::string> out;
  if (max_n == 0) {
    op.Success();
    return out;
  }
  // One token per wire chunk: a chunk whose reply is lost is re-sent under
  // the same token (the segment redelivers), and a fresh token is drawn only
  // after the chunk is acknowledged.
  uint64_t token =
      state()->next_delivery_token.fetch_add(1, std::memory_order_relaxed) + 1;
  StaleRetry retry = StaleLoop();
  while (out.size() < max_n) {
    if (!retry.Next()) {
      if (out.empty()) {
        return StaleRetry::Exhausted("queue dequeue");
      }
      break;  // Keep what was popped; the rest stays queued.
    }
    PartitionMap map = CachedMap();
    if (map.entries.empty()) {
      JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
      continue;
    }
    const PartitionEntry head = map.entries.front();
    Block* block = Resolve(head.block);
    if (block == nullptr) {
      JIFFY_RETURN_IF_ERROR(FailOver(head));
      continue;
    }
    bool drained = false;
    bool sealed = false;
    const bool head_is_tail = map.entries.size() == 1;
    std::vector<std::string> popped;
    bool content_gone = false;
    {
      Block::OpLock lock(*block, "queue.block_wait");
      JIFFY_TRACE_SPAN(block_span, "block");
      auto* seg = ContentAs<QueueSegment>(block->content());
      if (seg == nullptr) {
        content_gone = true;
      } else {
        std::vector<std::string_view> views;
        const size_t n =
            seg->DequeueBatchWithToken(token, max_n - out.size(), &views);
        block->CountOps(n);
        // Materialize the views while the mutex protects the segment (a
        // concurrent ShrinkHead may destroy it after unlock) — the single
        // copy per item on this path.
        popped.reserve(views.size());
        for (const std::string_view v : views) {
          CopyMeter::Add(v.size());
          popped.emplace_back(v);
        }
        drained = seg->Drained();
        sealed = seg->sealed();
      }
    }
    if (content_gone) {
      JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
      continue;
    }
    if (!popped.empty()) {
      const size_t n = popped.size();
      size_t bytes = 0;
      for (const std::string& s : popped) {
        bytes += s.size();
      }
      if (!DataExchangeBatch(head.block, n, FrameBytes(0), FrameBytes(bytes))
               .ok()) {
        // Chunk reply lost beyond the wire retries: retry under the same
        // token so the segment redelivers this chunk exactly once.
        continue;
      }
      token = state()->next_delivery_token.fetch_add(
                  1, std::memory_order_relaxed) +
              1;
      PropagateToReplicas<QueueSegment>(head, n, 8 * n, [n](QueueSegment* s) {
        for (size_t i = 0; i < n; ++i) {
          s->Dequeue();
        }
      });
      MaybePersist(head);
      state()->queue_items.fetch_sub(static_cast<int64_t>(n),
                                     std::memory_order_relaxed);
      for (const std::string& s : popped) {
        if (Subscribed()) {
          Publish(kDequeueOp, std::to_string(s.size()));
        }
      }
      std::move(popped.begin(), popped.end(), std::back_inserter(out));
      retry.Progress();
    }
    if (drained && !head_is_tail) {
      // Reclaim the drained head and keep filling from the next segment.
      JIFFY_RETURN_IF_ERROR(ShrinkHead(head.block));
      continue;
    }
    if (out.size() >= max_n) {
      break;
    }
    if (sealed) {
      // Sealed but not drained-and-removable: a successor exists; refresh.
      JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
      continue;
    }
    if (!head_is_tail) {
      // Unsealed yet interior per our map: a non-tail segment is sealed by
      // construction, so the head block was reclaimed and reused as a fresh
      // tail — the map is stale, not the queue exhausted.
      JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
      continue;
    }
    // Live tail segment is (now) empty: the queue is exhausted for this call.
    if (out.empty()) {
      DataExchange(head.block, FrameBytes(0), FrameBytes(0));
    }
    break;
  }
  op.Success();
  return out;
}

Result<std::string> QueueClient::DequeueWait(DurationNs timeout) {
  auto listener = Subscribe(kEnqueueOp);
  const TimeNs deadline = RealClock::Instance()->Now() + timeout;
  for (;;) {
    auto item = Dequeue();
    if (item.ok() || item.status().code() != StatusCode::kNotFound) {
      Unsubscribe(kEnqueueOp, listener);
      return item;
    }
    const DurationNs remaining = deadline - RealClock::Instance()->Now();
    if (remaining <= 0) {
      Unsubscribe(kEnqueueOp, listener);
      return Timeout("queue stayed empty for the full timeout");
    }
    auto n = listener->Get(remaining);
    if (!n.ok()) {
      Unsubscribe(kEnqueueOp, listener);
      return Timeout("queue stayed empty for the full timeout");
    }
  }
}

int64_t QueueClient::ApproxSize() const {
  // `state()` is non-const in the base; go through the registry snapshot.
  return const_cast<QueueClient*>(this)->state()->queue_items.load(
      std::memory_order_relaxed);
}

}  // namespace jiffy

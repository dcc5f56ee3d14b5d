// Client handle for the Jiffy FIFO queue (§5.2).
//
// The queue is a linked list of segments, one per block: enqueues go to the
// tail segment (allocating a new tail when it fills), dequeues to the head
// segment (freeing it once drained). Queues never repartition data; blocks
// are only added at the tail and removed at the head (Table 2). Consumers
// use notifications ("enqueue"/"dequeue") to detect data or space
// availability without polling (§5.2).

#ifndef SRC_CLIENT_QUEUE_CLIENT_H_
#define SRC_CLIENT_QUEUE_CLIENT_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/client/ds_client.h"

namespace jiffy {

class QueueClient : public DsClient {
 public:
  QueueClient(JiffyCluster* cluster, std::string job, std::string prefix,
              PartitionMap initial_map)
      : DsClient(cluster, std::move(job), std::move(prefix),
                 std::move(initial_map), "queue") {}

  // Bounds the queue to `n` items (0 = unbounded); enqueue returns
  // kUnavailable when full (paper's maxQueueLength).
  void SetMaxQueueLength(uint64_t n);

  // Adds an item at the tail. kUnavailable when the queue is at its bound.
  // The view must stay valid for the duration of the call: the segment
  // copies it into its arena (the single data-plane copy), and replica
  // propagation replays the same view — no defensive copies. Runs as
  // EnqueueBatch of one item.
  Status Enqueue(std::string_view item);

  // Removes the oldest item. kNotFound when the queue is empty. Runs as
  // DequeueBatch(1).
  Result<std::string> Dequeue();

  // Blocking convenience: waits (real time) for an item using an "enqueue"
  // subscription, up to `timeout`.
  Result<std::string> DequeueWait(DurationNs timeout);

  // --- Batched operations (DESIGN.md §7) ------------------------------------

  // Appends `items` at the tail in order, coalescing the run landing in each
  // tail segment into one transport exchange (Transport::RoundTripBatch) and
  // one lock hold. When the tail seals mid-batch, only the remaining suffix
  // is re-sent to the grown tail. All-or-nothing against maxQueueLength:
  // kUnavailable up front when the whole batch would exceed the bound.
  // Views must stay valid for the duration of the call (re-sent suffixes
  // and replica propagation reread them).
  Status EnqueueBatch(const std::vector<std::string_view>& items);
  Status EnqueueBatch(const std::vector<std::string>& items);

  // Removes up to `max_n` oldest items in FIFO order, draining whole head
  // segments per exchange. Returns the items removed — possibly fewer than
  // `max_n`, and empty (not kNotFound) when the queue is empty.
  Result<std::vector<std::string>> DequeueBatch(size_t max_n);

  // Approximate live item count.
  int64_t ApproxSize() const;

  static constexpr char kEnqueueOp[] = "enqueue";
  static constexpr char kDequeueOp[] = "dequeue";

 private:
  // The shared bodies of the public ops (a single op is a batch of one);
  // the span names keep single ops distinguishable from batches in traces.
  Status EnqueueItems(const std::vector<std::string_view>& items,
                      const char* client_span, const char* block_span);
  Result<std::vector<std::string>> DequeueItems(size_t max_n,
                                                const char* client_span,
                                                const char* block_span);

  // Allocates a new tail segment after `last_index`, conditional on
  // `tail_block` still being the queue's tail (stale growers no-op).
  Status GrowTail(BlockId tail_block, uint64_t last_index);
  // Frees the drained head segment.
  Status ShrinkHead(BlockId head_block);
  // Asks the background repartitioner, when one runs, to seal the nearly
  // full tail `block` and append a fresh one. Without it the tail grows
  // inline once it overflows.
  void FlagGrowth(Block* block, BlockId id);
};

}  // namespace jiffy

#endif  // SRC_CLIENT_QUEUE_CLIENT_H_

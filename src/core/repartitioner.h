// Background repartitioner: moves repartitioning off the data path
// (§3.3 made incremental; DESIGN.md §9).
//
// Data-path operations that observe block usage beyond the configured
// thresholds do not split/merge inline anymore — they set an atomic pressure
// hint on the block (Block::TryFlagRepartition, which dedupes) and enqueue a
// Hint here. One worker thread per cluster drains the queue and drives the
// scaling action for each built-in structure:
//
//   KV overload   → chunked live split: copy bounded chunks of the upper
//                   slot half into an unmapped block with the source lock
//                   released between chunks, reconcile the dirty delta in a
//                   short final hold, then CommitSplit.
//   KV underload  → chunked live merge into the slot-adjacent sibling with
//                   the most headroom, then CommitMerge.
//   Queue overload  → seal the tail segment and append a new tail block.
//   File overload   → cap the tail chunk and append a new tail block.
//
// A drained queue head is reclaimed inline by the client that drains it.
//
// The only data-path blocking a migration causes is the per-chunk lock hold
// (bounded by config.repartition_chunk_bytes) and one final catch-up hold —
// recorded in the "repartition.pause_ns" histogram.
//
// Lock-order rules (DESIGN.md §9): controller job mutex and block mutexes
// are never held together by this worker — every controller call runs with
// no block lock held; when the final hold needs both source and destination
// block locks they are acquired in ascending BlockId order.
//
// The repartitioner lives in src/core but reaches blocks / controller shards
// / per-DS state through the Hooks functions so it stays ignorant of the
// cluster assembly (same inversion as DataPlaneHooks).

#ifndef SRC_CORE_REPARTITIONER_H_
#define SRC_CORE_REPARTITIONER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/block/block.h"
#include "src/common/clock.h"
#include "src/common/config.h"
#include "src/core/controller.h"
#include "src/ds/registry.h"
#include "src/net/network.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace jiffy {

class Repartitioner {
 public:
  enum class Pressure : uint8_t { kOverload = 0, kUnderload = 1 };

  // One flagged block, as observed by a data-path op.
  struct Hint {
    std::string job;
    std::string prefix;
    BlockId block;
    DsType type = DsType::kKvStore;
    Pressure pressure = Pressure::kOverload;
    // Causal context of the data-path op that raised the flag. Filled in by
    // Flag() from the caller's thread-local trace context (callers may also
    // set it explicitly); the worker reopens its processing span under it,
    // so the exported trace links the background split/merge back to the
    // request that triggered it.
    obs::TraceContext origin;
  };

  // How the worker reaches the rest of the system.
  struct Hooks {
    // Block by id; nullptr when the hosting server failed / id is unknown.
    std::function<Block*(BlockId)> resolve;
    // Controller shard responsible for a job.
    std::function<Controller*(const std::string& job)> controller;
    // Per-DS shared state (scaling guard + Fig 11(b) instrumentation).
    std::function<std::shared_ptr<DsState>(const std::string& job,
                                           const std::string& prefix)>
        ds_state;
  };

  // `control_net` / `data_net` model the worker's controller RPCs and the
  // migration's data transfer (sleeping in kSleep transports, so benches
  // see realistic migration durations). Both must outlive the repartitioner.
  Repartitioner(const JiffyConfig& config, Clock* clock, Hooks hooks,
                Transport* control_net, Transport* data_net);
  ~Repartitioner();

  Repartitioner(const Repartitioner&) = delete;
  Repartitioner& operator=(const Repartitioner&) = delete;

  // Registers "repartition.*" metrics in `registry`. Call before Start().
  void BindMetrics(obs::MetricsRegistry* registry);

  void Start();
  void Stop();

  // Data-path entry point: flips the block's pressure flag and enqueues the
  // hint iff this call won the CAS — concurrent observers of the same
  // pressure are deduped to one queue entry. Wait-free apart from the queue
  // mutex on the winning path.
  void Flag(Block* block, Hint hint);

  // Blocks until every queued hint has been fully processed (including
  // re-flagged follow-ups). Test/bench synchronization only.
  void WaitIdle();

  // Cumulative actions (for tests; metrics carry the same via registry).
  uint64_t splits() const { return splits_.load(std::memory_order_relaxed); }
  uint64_t merges() const { return merges_.load(std::memory_order_relaxed); }
  uint64_t aborts() const { return aborts_.load(std::memory_order_relaxed); }

 private:
  void WorkerLoop();
  void Process(const Hint& hint);

  // Models the control-plane cost of one repartition event (§6.3), same as
  // the clients' inline path: connection setup + two control round trips.
  void ChargeControl();

  // Per-structure handlers. Each returns true when it performed a scaling
  // action and false when it declined (pressure resolved / lost a race /
  // aborted — all benign). The caller clears the block flag afterwards and
  // re-flags overloaded KV blocks that acted but are still over threshold,
  // so the system converges without waiting for more traffic.
  bool HandleKvOverload(const Hint& hint, Controller* ctl, DsState* state);
  bool HandleKvUnderload(const Hint& hint, Controller* ctl, DsState* state);
  bool HandleQueueOverload(const Hint& hint, Controller* ctl, DsState* state);
  bool HandleFileOverload(const Hint& hint, Controller* ctl, DsState* state);

  // Chunked KV migration shared by split ([from, end) → fresh unmapped
  // block) and merge (whole range → live sibling). Copies snapshot chunks
  // with the source lock released in between, reconciles the dirty delta
  // under the final two-block hold, calls `commit` (controller publish)
  // after the locks drop, and unwinds every abort path. `dest_unmapped`
  // distinguishes a split destination (fresh unmapped block, owns [from,
  // end) since InitBlock; aborted via AbortUnmapped) from a merge
  // destination (live sibling; gains the range via ExtendRange in the final
  // hold; aborted via DropRange).
  Status MigrateKvRange(const Hint& hint, Controller* ctl, Block* src,
                        Block* dest, uint32_t from_slot, uint32_t end_slot,
                        bool dest_unmapped,
                        const std::function<Status()>& commit);

  // Re-resolves the controller responsible for the hint's job at call time.
  // A replicated control plane can change leaders while a chunked migration
  // is in flight; commit/abort must land on the *current* controller, not
  // the (possibly demoted) one captured when the hint was dequeued. Falls
  // back to `fallback` when the job is no longer routable.
  Controller* CurrentController(const Hint& hint, Controller* fallback) const;

  // Reverses the phase-4 content flip after a rejected commit: extracts the
  // moved range's pairs out of `dest`, restores both shard slot ranges, and
  // reinstalls the pairs in `src` — so the authoritative partition map
  // (which still names the source for the range) matches the content again
  // and no data is orphaned in an unmapped or foreign block.
  void UnflipKvRange(Block* src, Block* dest, uint32_t from_slot,
                     uint32_t end_slot);

  // Abort helper: unwinds shard + controller migration state.
  void AbortKvMigration(const Hint& hint, Controller* ctl, Block* src,
                        Block* dest, bool dest_unmapped, uint32_t from_slot,
                        uint32_t end_slot);

  const JiffyConfig config_;
  Clock* clock_;
  Hooks hooks_;
  Transport* control_net_;
  Transport* data_net_;

  std::mutex mu_;
  std::condition_variable cv_;       // Worker wakeup.
  std::condition_variable idle_cv_;  // WaitIdle wakeup.
  std::deque<Hint> queue_;           // Guarded by mu_.
  bool in_flight_ = false;           // Guarded by mu_.
  bool stop_ = false;                // Guarded by mu_.
  std::thread worker_;
  bool started_ = false;

  std::atomic<uint64_t> splits_{0};
  std::atomic<uint64_t> merges_{0};
  std::atomic<uint64_t> aborts_{0};

  // Observability ("repartition.*"; null until BindMetrics).
  obs::Counter* m_flags_ = nullptr;
  obs::Counter* m_splits_ = nullptr;
  obs::Counter* m_merges_ = nullptr;
  obs::Counter* m_chunks_ = nullptr;
  obs::Counter* m_catchup_pairs_ = nullptr;
  obs::Counter* m_aborts_ = nullptr;
  Histogram* m_pause_ns_ = nullptr;
};

}  // namespace jiffy

#endif  // SRC_CORE_REPARTITIONER_H_

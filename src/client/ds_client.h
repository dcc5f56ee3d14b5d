// Shared machinery for data-structure client handles (§4.1 "handle ds that
// encapsulates physical locations of allocated blocks").
//
// A DsClient caches the data structure's partition map (block locations +
// responsibility ranges). Operations route directly to memory-server blocks
// through the data-plane transport; when the data plane reports
// kStaleMetadata (the map version moved because blocks were added/removed,
// §4.2.1), the client refetches the map from the controller and retries —
// exactly the paper's client protocol.

#ifndef SRC_CLIENT_DS_CLIENT_H_
#define SRC_CLIENT_DS_CLIENT_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "src/cluster/cluster.h"
#include "src/client/retry.h"
#include "src/common/hash.h"
#include "src/core/hierarchy.h"
#include "src/obs/slo.h"
#include "src/obs/trace.h"

namespace jiffy {

class DsClient {
 public:
  // `kind` is the attribution label for this handle's data-structure kind
  // ("kv", "queue", "file", "custom") — a string literal; it becomes the
  // `kind` label on every per-tenant metric this client records.
  DsClient(JiffyCluster* cluster, std::string job, std::string prefix,
           PartitionMap initial_map, const char* kind = "ds");
  virtual ~DsClient() = default;

  const std::string& job() const { return job_; }
  const std::string& prefix() const { return prefix_; }
  // Attribution tenant (job-id prefix before ':' or '.', see obs::TenantOf).
  const std::string& tenant() const { return tenant_; }

  // Subscribe to notifications for `op` on this data structure (Table 1).
  std::shared_ptr<Listener> Subscribe(const std::string& op);
  void Unsubscribe(const std::string& op, const std::shared_ptr<Listener>& l);

  // Snapshot of the cached partition map.
  PartitionMap CachedMap() const;
  uint64_t map_version() const;
  // Entry count without copying the map (hot-path overload checks).
  size_t map_entry_count() const {
    std::lock_guard<std::mutex> lock(map_mu_);
    return map_.entries.size();
  }

  // Forces a metadata refresh from the controller.
  Status RefreshMap();

  // Retry policy applied to every wire exchange this client issues.
  const RetryPolicy& retry_policy() const { return retry_policy_; }
  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }

 protected:
  // --- Per-op SLO / attribution scope ---------------------------------------
  //
  // Every public data-structure op opens one OpScope. On destruction it
  // reports (tenant, wall latency, ok) into the cluster's SloMonitor and
  // bumps the client's labeled op/error counters. Ops start presumed
  // failed; call Success() on the committed path so early error returns
  // count against the tenant's error budget without per-return bookkeeping.
  // When JIFFY_SLO and metrics are both disabled, construction is two
  // relaxed loads and no clock read.
  class OpScope {
   public:
    explicit OpScope(DsClient* client)
        : client_(client),
          start_(obs::SloEnabled() || obs::Enabled()
                     ? RealClock::Instance()->Now()
                     : kInactive) {}
    ~OpScope() {
      if (start_ == kInactive) {
        return;
      }
      client_->RecordOp(RealClock::Instance()->Now() - start_, ok_);
    }
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;

    void Success() { ok_ = true; }
    // For ops whose outcome is a Status in hand at the end. A kNotFound is
    // a correct answer (cache miss), not an SLO error.
    void Finish(const Status& st) {
      ok_ = st.ok() || st.code() == StatusCode::kNotFound;
    }

   private:
    static constexpr TimeNs kInactive = -1;
    DsClient* client_;
    TimeNs start_;
    bool ok_ = false;
  };

  // Interned tenant id for span attribution (stable process-lifetime
  // pointer; safe to attach to TraceSpan::SetAttr).
  const char* tenant_attr() const { return tenant_attr_; }

  // --- Fault-masked wire exchanges (DESIGN.md §10) --------------------------
  //
  // All data/control-plane charges go through these instead of raw
  // Transport::RoundTrip so injected faults (drops, transient errors,
  // outage windows) are retried per `retry_policy_` with exponential
  // backoff. A non-OK return means the fault survived every allowed retry
  // (budget/deadline/attempts exhausted) — callers treat it like any other
  // transient failure: fail over or surface it.

  // One data-plane exchange with the server hosting `target`.
  Status DataExchange(BlockId target, size_t req_bytes, size_t resp_bytes);

  // Batched data-plane exchange (one wire RPC carrying `n_ops` operations).
  Status DataExchangeBatch(BlockId target, size_t n_ops, size_t req_bytes,
                           size_t resp_bytes);

  // One control-plane exchange with this job's controller shard.
  Status ControlExchange(size_t req_bytes, size_t resp_bytes);
  // Charges one control-plane round trip and refetches the map.
  Status RefreshMapInternal();

  // Charges the control-plane cost of one repartition event (§6.3: the
  // memory server spends ~1-1.5 ms connecting to the controller plus two
  // round trips to trigger allocation/reclamation and update partition
  // metadata). Sleeps only in kSleep transports.
  void ChargeRepartitionControl();

  // Publishes a notification to subscribers of `op`. With no subscribers
  // (the hot-path common case) this is one relaxed atomic load — callers
  // that must *build* a payload (std::to_string etc.) should guard the
  // construction with Subscribed() so the data plane pays nothing.
  void Publish(std::string_view op, std::string_view payload);
  bool Subscribed() const { return state_->subscriptions.HasSubscribers(); }

  Block* Resolve(BlockId id) { return cluster_->ResolveBlock(id); }
  Controller* controller() { return cluster_->ControllerFor(job_); }
  Transport* data_net() { return cluster_->data_transport(); }
  Transport* control_net() { return cluster_->control_transport(); }
  const JiffyConfig& config() const { return cluster_->config(); }
  Clock* clock() { return cluster_->clock(); }
  DsState* state() { return state_.get(); }
  PersistentStore* backing() { return cluster_->backing(); }
  // Null when background repartitioning is disabled (inline fallback).
  Repartitioner* repartitioner() { return cluster_->repartitioner(); }

  // --- Chain replication (§4.2.2) -------------------------------------------

  // Applies `mutate` — a group of `n_ops` mutations totalling `bytes`, which
  // the caller already applied to the primary under one lock hold — to each
  // live replica of `entry` in chain order, as one coalesced chain hop per
  // replica. Replicas whose content vanished are skipped; RepairEntry /
  // ReReplicate rebuild them.
  template <typename ContentT, typename Fn>
  void PropagateToReplicas(const PartitionEntry& entry, size_t n_ops,
                           size_t bytes, Fn&& mutate) {
    if (n_ops == 0) {
      return;
    }
    for (const BlockId& rid : entry.replicas) {
      Block* rb = Resolve(rid);
      if (rb == nullptr) {
        continue;
      }
      {
        Block::OpLock lock(*rb, "chain.block_wait");
        JIFFY_TRACE_SPAN("block.chain_apply", "block");
        auto* content = ContentAs<ContentT>(rb->content());
        if (content != nullptr) {
          mutate(content);
        }
      }
      // A chain hop whose retries all fail is tolerated: the replica is
      // repaired wholesale by RepairEntry / re-replication.
      DataExchangeBatch(rid, n_ops, bytes + 64, 64);
    }
  }

  // Chain reads are served by the tail replica for strong consistency.
  BlockId ReadTarget(const PartitionEntry& entry) const {
    return entry.replicas.empty() ? entry.block : entry.replicas.back();
  }

  // Invoked when a block of `entry` turned out to be dead: asks the
  // controller to repair the chain (promote the first live replica) and
  // refreshes the map. kUnavailable when every replica is gone.
  Status FailOver(const PartitionEntry& entry);

  // Synchronous persistence (§4.2.2): when the prefix is configured with
  // persist_writes, writes through the just-mutated block to the external
  // store.
  void MaybePersist(const PartitionEntry& entry);

  // Map access under the client's map lock.
  mutable std::mutex map_mu_;
  PartitionMap map_;

  // The one stale-metadata loop every op of this client runs (route, find
  // the map stale, refresh, re-send), bounded by the retry policy's
  // `op_deadline` on the real clock it backs off on:
  //   for (StaleRetry retry = StaleLoop(); retry.Next();) { ... }
  StaleRetry StaleLoop() const { return StaleRetry(retry_policy_.op_deadline); }

 private:
  friend class OpScope;

  // Shared implementation of the fault-masked exchanges above.
  Status ExchangeWithRetry(Transport* net, uint32_t endpoint, size_t n_ops,
                           size_t req_bytes, size_t resp_bytes);

  // OpScope sink: labeled op/error counters + latency histogram + SLO.
  void RecordOp(DurationNs latency_ns, bool ok);

  JiffyCluster* cluster_;
  std::string job_;
  std::string prefix_;
  std::string tenant_;
  const char* kind_;
  std::shared_ptr<DsState> state_;
  RetryPolicy retry_policy_;
  // Backoff jitter; seeded from (job, prefix) so runs are reproducible.
  AtomicRng retry_rng_;

  // Per-tenant attribution, bound once at construction (the labeled
  // registry lookups intern the label set; the hot path only touches the
  // cached pointers).
  const char* tenant_attr_ = nullptr;
  obs::Counter* m_ops_ = nullptr;
  obs::Counter* m_errors_ = nullptr;
  obs::Counter* m_retries_ = nullptr;
  obs::Counter* m_masked_ = nullptr;
  obs::Counter* m_req_bytes_ = nullptr;
  obs::Counter* m_resp_bytes_ = nullptr;
  Histogram* m_op_latency_ = nullptr;
  obs::SloMonitor::TenantState* slo_ = nullptr;
};

}  // namespace jiffy

#endif  // SRC_CLIENT_DS_CLIENT_H_

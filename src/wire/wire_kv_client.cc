#include "src/wire/wire_kv_client.h"

#include <condition_variable>
#include <mutex>

#include "src/ds/kv_content.h"

namespace jiffy {

namespace {

constexpr size_t kNoRoute = static_cast<size_t>(-1);

Status CodeStatus(StatusCode code, const char* what) {
  if (code == StatusCode::kOk) {
    return Status::Ok();
  }
  return Status(code, what);
}

}  // namespace

size_t WireMap::Route(uint32_t slot) const {
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (slot >= ranges[i].slot_lo && slot < ranges[i].slot_hi) {
      return i;
    }
  }
  return kNoRoute;
}

WireMap WireMap::Even(std::vector<WireEndpoint> endpoints,
                      uint32_t total_slots,
                      const std::vector<uint64_t>& blocks) {
  WireMap map;
  map.total_slots = total_slots;
  map.endpoints = std::move(endpoints);
  const size_t n = blocks.size();
  for (size_t i = 0; i < n; ++i) {
    WireRange r;
    r.slot_lo = static_cast<uint32_t>(total_slots * i / n);
    r.slot_hi = static_cast<uint32_t>(total_slots * (i + 1) / n);
    r.block = blocks[i];
    r.endpoint = i % map.endpoints.size();
    map.ranges.push_back(r);
  }
  return map;
}

// Items bound for one block: one frame, one tag, one fault fate.
struct WireKvClient::Group {
  size_t range = 0;
  std::vector<size_t> items;
};

WireKvClient::WireKvClient(WireMap map, Options options)
    : map_(std::move(map)),
      options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock
                                       : RealClock::Instance()),
      pool_([this] {
        TcpConnection::Options defaults;
        defaults.max_in_flight = options_.max_in_flight;
        defaults.coalesce_min_inflight = options_.coalesce_min_inflight;
        defaults.coalesce_window_us = options_.coalesce_window_us;
        defaults.sndbuf = options_.sndbuf;
        defaults.rcvbuf = options_.rcvbuf;
        defaults.faults = options_.faults;
        defaults.faults_on = options_.faults_on;
        defaults.clock = clock_;
        return defaults;
      }()) {}

Status WireKvClient::Put(std::string_view key, std::string_view value) {
  return MultiPut({{key, value}})[0];
}

Result<std::string> WireKvClient::Get(std::string_view key) {
  WireValues values = MultiGet({key});
  if (!values[0].ok()) {
    return values[0].status();
  }
  return std::string(*values[0]);
}

Status WireKvClient::Delete(std::string_view key) {
  return MultiDelete({key})[0];
}

std::vector<Status> WireKvClient::MultiPut(
    const std::vector<std::pair<std::string_view, std::string_view>>& pairs) {
  std::vector<std::string_view> keys;
  keys.reserve(pairs.size());
  for (const auto& [k, v] : pairs) {
    keys.push_back(k);
  }
  std::vector<Status> statuses;
  Run(WireOp::kMultiPut, keys, &pairs, &statuses, nullptr);
  return statuses;
}

WireValues WireKvClient::MultiGet(const std::vector<std::string_view>& keys) {
  std::vector<Status> statuses;
  WireValues out;
  Run(WireOp::kMultiGet, keys, nullptr, &statuses, &out);
  return out;
}

std::vector<Status> WireKvClient::MultiDelete(
    const std::vector<std::string_view>& keys) {
  std::vector<Status> statuses;
  Run(WireOp::kMultiDelete, keys, nullptr, &statuses, nullptr);
  return statuses;
}

Status WireKvClient::Ping(size_t endpoint_index) {
  if (endpoint_index >= map_.endpoints.size()) {
    return InvalidArgument("no such endpoint");
  }
  const WireEndpoint& ep = map_.endpoints[endpoint_index];
  auto conn = pool_.Get(ep.host, ep.port, ep.server_id);
  JIFFY_RETURN_IF_ERROR(conn.status());
  const uint64_t tag = (*conn)->BeginTag();
  std::string frame;
  EncodePingRequest(tag, &frame);
  rpcs_.fetch_add(1, std::memory_order_relaxed);
  WireReply reply = (*conn)->Call(std::move(frame), tag);
  if (!reply.transport.ok()) {
    return reply.transport;
  }
  return CodeStatus(reply.overall, "ping");
}

WireReply WireKvClient::ExchangeGroup(
    WireOp op, const Group& group, const std::vector<std::string_view>& keys,
    const std::vector<std::pair<std::string_view, std::string_view>>* pairs) {
  const WireRange& range = map_.ranges[group.range];
  const WireEndpoint& ep = map_.endpoints[range.endpoint];

  std::vector<std::string_view> group_keys;
  std::vector<std::pair<std::string_view, std::string_view>> group_pairs;
  if (op == WireOp::kMultiPut) {
    group_pairs.reserve(group.items.size());
    for (size_t i : group.items) {
      group_pairs.push_back((*pairs)[i]);
    }
  } else {
    group_keys.reserve(group.items.size());
    for (size_t i : group.items) {
      group_keys.push_back(keys[i]);
    }
  }

  Retrier retrier(options_.retry, clock_, &retry_rng_, &retry_budget_);
  for (;;) {
    auto conn = pool_.Get(ep.host, ep.port, ep.server_id);
    if (!conn.ok()) {
      WireReply dead;
      dead.transport = conn.status();
      if (retrier.ShouldRetry(dead.transport)) {
        retries_.fetch_add(1, std::memory_order_relaxed);
        retrier.BackoffAlways();
        continue;
      }
      return dead;
    }
    const uint64_t tag = (*conn)->BeginTag();
    std::string frame;
    if (op == WireOp::kMultiPut) {
      EncodeMultiPutRequest(tag, range.block, group_pairs, &frame);
    } else {
      EncodeKeysRequest(op, tag, range.block, group_keys, &frame);
    }
    rpcs_.fetch_add(1, std::memory_order_relaxed);
    WireReply reply = (*conn)->Call(std::move(frame), tag);
    if (reply.transport.ok()) {
      Retrier::RecordSuccess(&retry_budget_);
      return reply;
    }
    if (!(*conn)->alive()) {
      pool_.Evict(ep.host, ep.port);  // Next attempt re-dials.
    }
    if (!retrier.ShouldRetry(reply.transport)) {
      return reply;
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    retrier.BackoffAlways();
  }
}

void WireKvClient::Run(
    WireOp op, const std::vector<std::string_view>& keys,
    const std::vector<std::pair<std::string_view, std::string_view>>* pairs,
    std::vector<Status>* statuses, WireValues* payload) {
  const size_t n = keys.size();
  statuses->assign(n, Unavailable("wire op not attempted"));
  if (payload != nullptr) {
    payload->values.assign(n, NotFound(""));
  }
  if (n == 0) {
    return;
  }

  std::vector<uint32_t> slots(n);
  for (size_t i = 0; i < n; ++i) {
    slots[i] = KvSlotOf(keys[i], map_.total_slots);
  }

  std::vector<size_t> pending(n);
  for (size_t i = 0; i < n; ++i) {
    pending[i] = i;
  }

  // Stale rounds are bounded by the op deadline, like the in-process
  // client's (DESIGN.md §10), not by a round count a slow split can use up.
  for (StaleRetry retry(options_.retry.op_deadline);
       !pending.empty() && retry.Next();) {
    // --- Route ------------------------------------------------------------
    std::vector<Group> groups;
    std::vector<size_t> stale;
    bool need_refresh = false;
    {
      std::vector<size_t> range_to_group(map_.ranges.size(), kNoRoute);
      for (size_t i : pending) {
        const size_t r = map_.Route(slots[i]);
        if (r == kNoRoute) {
          need_refresh = true;
          stale.push_back(i);
          continue;
        }
        if (range_to_group[r] == kNoRoute) {
          range_to_group[r] = groups.size();
          groups.push_back(Group{r, {}});
        }
        groups[range_to_group[r]].items.push_back(i);
      }
    }

    // --- First attempt: every group in flight concurrently ----------------
    // Encode + Submit without waiting; completions land out of order and
    // are matched by tag inside each connection.
    std::vector<WireReply> replies(groups.size());
    std::vector<bool> submitted(groups.size(), false);
    {
      std::mutex done_mu;
      std::condition_variable done_cv;
      size_t remaining = 0;
      for (size_t g = 0; g < groups.size(); ++g) {
        const WireRange& range = map_.ranges[groups[g].range];
        const WireEndpoint& ep = map_.endpoints[range.endpoint];
        auto conn = pool_.Get(ep.host, ep.port, ep.server_id);
        if (!conn.ok()) {
          replies[g].transport = conn.status();
          continue;
        }
        const uint64_t tag = (*conn)->BeginTag();
        std::string frame;
        if (op == WireOp::kMultiPut) {
          std::vector<std::pair<std::string_view, std::string_view>> ops;
          ops.reserve(groups[g].items.size());
          for (size_t i : groups[g].items) {
            ops.push_back((*pairs)[i]);
          }
          EncodeMultiPutRequest(tag, range.block, ops, &frame);
        } else {
          std::vector<std::string_view> ops;
          ops.reserve(groups[g].items.size());
          for (size_t i : groups[g].items) {
            ops.push_back(keys[i]);
          }
          EncodeKeysRequest(op, tag, range.block, ops, &frame);
        }
        rpcs_.fetch_add(1, std::memory_order_relaxed);
        submitted[g] = true;
        {
          std::lock_guard<std::mutex> lock(done_mu);
          ++remaining;
        }
        (*conn)->Submit(std::move(frame), tag,
                        [&replies, &done_mu, &done_cv, &remaining,
                         g](WireReply r) {
                          std::lock_guard<std::mutex> lock(done_mu);
                          replies[g] = std::move(r);
                          --remaining;
                          done_cv.notify_all();
                        });
      }
      std::unique_lock<std::mutex> lock(done_mu);
      done_cv.wait(lock, [&remaining] { return remaining == 0; });
    }

    // --- Retry loop for groups whose first flight failed -------------------
    for (size_t g = 0; g < groups.size(); ++g) {
      if (replies[g].transport.ok()) {
        if (submitted[g]) {
          Retrier::RecordSuccess(&retry_budget_);
        }
        continue;
      }
      if (RetryPolicy::IsRetryable(replies[g].transport.code())) {
        const WireRange& range = map_.ranges[groups[g].range];
        const WireEndpoint& ep = map_.endpoints[range.endpoint];
        pool_.Evict(ep.host, ep.port);
        retries_.fetch_add(1, std::memory_order_relaxed);
        replies[g] = ExchangeGroup(op, groups[g], keys, pairs);
      }
    }

    // --- Merge per-item outcomes -------------------------------------------
    for (size_t g = 0; g < groups.size(); ++g) {
      const Group& group = groups[g];
      WireReply& reply = replies[g];
      if (!reply.transport.ok()) {
        for (size_t i : group.items) {
          (*statuses)[i] = reply.transport;
          if (payload != nullptr) {
            (*payload)[i] = reply.transport;
          }
        }
        continue;
      }
      if (reply.overall != StatusCode::kOk ||
          reply.codes.size() != group.items.size()) {
        // kFailedPrecondition = the routed block's content is gone — a
        // split/merge landed after our snapshot (the in-process client's
        // "content vanished" signal). Stale, not fatal: refresh + re-route.
        if (reply.overall == StatusCode::kFailedPrecondition ||
            reply.overall == StatusCode::kStaleMetadata) {
          need_refresh = true;
          for (size_t i : group.items) {
            stale.push_back(i);
          }
          continue;
        }
        const Status st =
            reply.overall != StatusCode::kOk
                ? CodeStatus(reply.overall, "wire group failed")
                : Internal("wire response item count mismatch");
        for (size_t i : group.items) {
          (*statuses)[i] = st;
          if (payload != nullptr) {
            (*payload)[i] = st;
          }
        }
        continue;
      }
      // Values view reply.buf; record offsets before the buffer moves into
      // the caller's WireValues (SSO moves relocate bytes).
      std::vector<std::pair<size_t, size_t>> spans;
      if (payload != nullptr) {
        spans.reserve(group.items.size());
        for (size_t j = 0; j < group.items.size(); ++j) {
          const std::string_view v = reply.values[j];
          spans.emplace_back(
              v.empty() ? 0
                        : static_cast<size_t>(v.data() - reply.buf.data()),
              v.size());
        }
        payload->bufs.push_back(std::move(reply.buf));
      }
      const std::string& buf =
          payload != nullptr ? payload->bufs.back() : reply.buf;
      for (size_t j = 0; j < group.items.size(); ++j) {
        const size_t i = group.items[j];
        const StatusCode code = reply.codes[j];
        if (code == StatusCode::kStaleMetadata) {
          need_refresh = true;
          stale.push_back(i);
          continue;
        }
        (*statuses)[i] = CodeStatus(code, "wire item");
        if (payload != nullptr) {
          if (code == StatusCode::kOk) {
            (*payload)[i] = std::string_view(buf.data() + spans[j].first,
                                             spans[j].second);
          } else {
            (*payload)[i] = (*statuses)[i];
          }
        }
      }
    }

    pending = std::move(stale);
    if (!pending.empty()) {
      if (!need_refresh || !options_.map_refresher) {
        break;
      }
      Result<WireMap> refreshed = options_.map_refresher();
      if (!refreshed.ok()) {
        for (size_t i : pending) {
          (*statuses)[i] = refreshed.status();
          if (payload != nullptr) {
            (*payload)[i] = refreshed.status();
          }
        }
        return;
      }
      map_ = std::move(*refreshed);
    }
  }
  const Status left = options_.map_refresher
                          ? StaleRetry::Exhausted("wire kv op")
                          : StaleMetadata("wire route stale; no map refresher");
  for (size_t i : pending) {
    (*statuses)[i] = left;
    if (payload != nullptr) {
      (*payload)[i] = (*statuses)[i];
    }
  }
}

}  // namespace jiffy

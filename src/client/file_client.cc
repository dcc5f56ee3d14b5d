#include "src/client/file_client.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/ds/file_content.h"
#include "src/net/network.h"
#include "src/obs/trace.h"

namespace jiffy {

constexpr char FileClient::kWriteOp[];

Status FileClient::GrowTail(BlockId tail_block, uint64_t tail_lo,
                            uint64_t end_offset) {
  // Serialize growth across clients: losers refresh and find the new tail.
  bool expected = false;
  if (!state()->scaling_in_progress.compare_exchange_strong(expected, true)) {
    return RefreshMapInternal();
  }
  // Re-validate under the guard. GrowTail is now also called by retries that
  // merely *observe* a capped tail (the capper may have lost this CAS to the
  // background worker declining a stale hint, dropping the grow on the
  // floor), so a raced grow may already have published a fresh tail —
  // growing again would append an overlapping entry.
  {
    const Status rs = RefreshMapInternal();
    if (!rs.ok()) {
      state()->scaling_in_progress.store(false);
      return rs;
    }
    const PartitionMap cur = CachedMap();
    if (cur.entries.empty() || cur.entries.back().block != tail_block) {
      state()->scaling_in_progress.store(false);
      return Status::Ok();  // Someone else already grew past this tail.
    }
  }
  const TimeNs start = clock()->Now();
  ChargeRepartitionControl();
  // Cap the old tail entry at its true end, then append the next block.
  Status st = controller()->UpdateEntryRange(job(), prefix(), tail_block,
                                             tail_lo, end_offset);
  if (st.ok()) {
    auto added = controller()->AddBlock(job(), prefix(), end_offset,
                                        end_offset + config().block_size_bytes);
    st = added.ok() ? Status::Ok() : added.status();
  }
  state()->repartition_latency.Record(clock()->Now() - start);
  state()->splits.fetch_add(1);
  state()->scaling_in_progress.store(false);
  if (!st.ok()) {
    return st;
  }
  return RefreshMapInternal();
}

Result<uint64_t> FileClient::Append(std::string_view data) {
  return AppendPieces({data}, "file.append", "block.file_append");
}

Result<uint64_t> FileClient::AppendVec(
    const std::vector<std::string_view>& pieces) {
  return AppendPieces(pieces, "file.append_vec", "block.file_append_vec");
}

Result<uint64_t> FileClient::AppendPieces(
    const std::vector<std::string_view>& pieces, const char* client_span,
    const char* block_span) {
  obs::TraceSpan span(client_span, "client");
  span.SetAttr(tenant_attr());
  OpScope op(this);
  size_t total = 0;
  for (std::string_view p : pieces) {
    total += p.size();
  }
  if (total == 0) {
    op.Success();
    return uint64_t{0};
  }
  // Cursor into the scatter list: pieces before `piece_idx` (and the first
  // `piece_off` bytes of pieces[piece_idx]) are already durable.
  size_t piece_idx = 0;
  size_t piece_off = 0;
  uint64_t start_offset = 0;
  bool start_set = false;
  for (StaleRetry retry = StaleLoop(); retry.Next();) {
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
    std::vector<std::string_view> views;
    size_t remaining_total = 0;
    for (size_t i = piece_idx; i < pieces.size(); ++i) {
      std::string_view v = pieces[i];
      if (i == piece_idx) {
        v = v.substr(piece_off);
      }
      if (!v.empty()) {
        views.push_back(v);
        remaining_total += v.size();
      }
    }
    size_t accepted = 0;
    uint64_t end_offset = 0;
    bool grow = false;
    bool flag_bg = false;
    bool content_gone = false;
    bool tail_capped = false;
    {
      Block::OpLock lock(*block, "file.block_wait");
      JIFFY_TRACE_SPAN(block_span, "block");
      auto* chunk = ContentAs<FileChunk>(block->content());
      if (chunk == nullptr) {
        content_gone = true;
      } else {
        accepted = chunk->AppendVec(views);
        end_offset = chunk->end_offset();
        tail_capped = chunk->capped();
        const double usage = static_cast<double>(chunk->used_bytes()) /
                             static_cast<double>(chunk->capacity());
        if (accepted > 0 && !start_set) {
          start_offset = end_offset - accepted;
          start_set = true;
        }
        if (!chunk->capped()) {
          if (accepted < remaining_total) {
            chunk->Cap();
            grow = true;
          } else if (usage >= config().repartition_high_threshold) {
            if (repartitioner() != nullptr && tail.replicas.empty()) {
              flag_bg = true;  // Cap + grow happen off the critical path.
            } else {
              chunk->Cap();
              grow = true;
            }
          }
        }
      }
    }
    if (content_gone) {
      JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
      continue;
    }
    if (accepted > 0) {
      // The prefix of the scatter list this chunk absorbed, for replicas.
      std::vector<std::string_view> written;
      size_t left = accepted;
      for (std::string_view v : views) {
        const size_t k = std::min(left, v.size());
        written.push_back(v.substr(0, k));
        left -= k;
        if (left == 0) {
          break;
        }
      }
      block->CountOps(written.size());
      JIFFY_RETURN_IF_ERROR(DataExchangeBatch(tail.block, written.size(),
                                              FrameBytes(accepted),
                                              FrameBytes(0)));
      PropagateToReplicas<FileChunk>(
          tail, written.size(), accepted, [&](FileChunk* c) {
            for (std::string_view w : written) {
              c->Append(w);
            }
            if (grow) {
              c->Cap();
            }
          });
      MaybePersist(tail);
      if (Subscribed()) {
        Publish(kWriteOp, std::to_string(accepted));
      }
      // Advance the cursor by the accepted byte count.
      size_t adv = accepted;
      while (adv > 0 && piece_idx < pieces.size()) {
        const size_t avail = pieces[piece_idx].size() - piece_off;
        const size_t k = std::min(adv, avail);
        piece_off += k;
        adv -= k;
        if (piece_off == pieces[piece_idx].size()) {
          ++piece_idx;
          piece_off = 0;
        }
      }
      retry.Progress();
    } else if (grow) {
      PropagateToReplicas<FileChunk>(tail, 1, 0,
                                     [](FileChunk* c) { c->Cap(); });
    }
    if (grow) {
      JIFFY_RETURN_IF_ERROR(GrowTail(tail.block, tail.lo, end_offset));
    } else if (flag_bg) {
      Repartitioner::Hint hint;
      hint.job = job();
      hint.prefix = prefix();
      hint.block = tail.block;
      hint.type = DsType::kFile;
      hint.pressure = Repartitioner::Pressure::kOverload;
      repartitioner()->Flag(block, std::move(hint));
    }
    // Skip any empty (or now-exhausted) pieces at the cursor.
    while (piece_idx < pieces.size() &&
           piece_off == pieces[piece_idx].size()) {
      ++piece_idx;
      piece_off = 0;
    }
    if (piece_idx >= pieces.size()) {
      op.Success();
      return start_offset;
    }
    if (accepted == 0 && !grow) {
      if (tail_capped) {
        // A capped tail with no successor means the capper's grow was
        // dropped (it lost the scaling CAS, possibly to the background
        // worker declining a stale hint). Growth is idempotent now — retry
        // it here instead of waiting on a grow that may never come.
        JIFFY_RETURN_IF_ERROR(GrowTail(tail.block, tail.lo, end_offset));
      }
      // Pick up whichever map the winning grower published.
      JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
    }
  }
  return StaleRetry::Exhausted("file append");
}

Result<std::string> FileClient::Read(uint64_t offset, size_t len) {
  return std::move(
      ReadRanges({{offset, len}}, "file.read", "block.file_read")[0]);
}

std::vector<Result<std::string>> FileClient::ReadVec(
    const std::vector<std::pair<uint64_t, size_t>>& ranges) {
  return ReadRanges(ranges, "file.read_vec", "block.file_read_vec");
}

std::vector<Result<std::string>> FileClient::ReadRanges(
    const std::vector<std::pair<uint64_t, size_t>>& ranges,
    const char* client_span, const char* block_span) {
  obs::TraceSpan span(client_span, "client");
  span.SetAttr(tenant_attr());
  OpScope op(this);
  std::vector<Result<std::string>> results(ranges.size(), std::string());
  std::vector<std::string> acc(ranges.size());
  std::vector<bool> done(ranges.size(), false);
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (ranges[i].second == 0) {
      done[i] = true;
    }
  }
  bool refreshed = false;
  Status lost;  // The last reply lost beyond the wire retries.
  for (StaleRetry retry = StaleLoop();;) {
    if (!retry.Next()) {
      for (size_t i = 0; i < ranges.size(); ++i) {
        if (!done[i]) {
          results[i] = lost.ok() ? StaleRetry::Exhausted("file read") : lost;
        }
      }
      break;
    }
    const PartitionMap map = CachedMap();
    auto entry_for = [&map](uint64_t off) -> size_t {
      for (size_t e = 0; e < map.entries.size(); ++e) {
        if (off >= map.entries[e].lo && off < map.entries[e].hi) {
          return e;
        }
      }
      return static_cast<size_t>(-1);
    };
    // Each active range contributes its next-needed sub-read, grouped by
    // the chunk owning that offset; each group is one coalesced exchange.
    struct Sub {
      size_t i;
      uint64_t off;
      size_t len;
    };
    std::vector<std::vector<Sub>> groups(map.entries.size());
    std::vector<size_t> unrouted;
    bool any_active = false;
    for (size_t i = 0; i < ranges.size(); ++i) {
      if (done[i]) {
        continue;
      }
      any_active = true;
      const uint64_t cur = ranges[i].first + acc[i].size();
      const size_t need = ranges[i].second - acc[i].size();
      const size_t e = entry_for(cur);
      if (e == static_cast<size_t>(-1)) {
        unrouted.push_back(i);
      } else {
        groups[e].push_back(
            {i, cur,
             static_cast<size_t>(std::min<uint64_t>(
                 need, map.entries[e].hi - cur))});
      }
    }
    if (!any_active) {
      break;
    }
    bool progress = false;
    for (size_t e = 0; e < groups.size(); ++e) {
      const std::vector<Sub>& g = groups[e];
      if (g.empty()) {
        continue;
      }
      const PartitionEntry& entry = map.entries[e];
      Block* block = Resolve(ReadTarget(entry));
      if (block == nullptr) {
        const Status fo = FailOver(entry);
        if (!fo.ok()) {
          for (const Sub& s : g) {
            results[s.i] = fo;
            done[s.i] = true;
          }
        }
        progress = true;  // Either the chain was repaired or the range died.
        continue;
      }
      std::vector<std::pair<uint64_t, size_t>> subs;
      subs.reserve(g.size());
      size_t req_bytes = 64;
      for (const Sub& s : g) {
        subs.emplace_back(s.off, s.len);
        req_bytes += 16;
      }
      std::vector<Result<std::string_view>> outs;
      ArenaPin pin;
      bool content_gone = false;
      {
        Block::OpLock lock(*block, "file.block_wait");
        JIFFY_TRACE_SPAN(block_span, "block");
        auto* chunk = ContentAs<FileChunk>(block->content());
        if (chunk == nullptr) {
          content_gone = true;
        } else {
          block->CountOps(subs.size());
          chunk->ReadVec(subs, &outs);
          // Keeps the viewed bytes alive (and chunk-destruction safe) until
          // the acknowledged pieces are copied into the accumulators below.
          pin = ArenaPin(chunk->arena());
        }
      }
      if (content_gone) {
        const Status st =
            LeaseExpired("file block reclaimed; load the prefix first");
        for (const Sub& s : g) {
          results[s.i] = st;
          done[s.i] = true;
        }
        progress = true;
        continue;
      }
      size_t resp_payload = 0;
      for (const auto& r : outs) {
        resp_payload += r.ok() ? r.value().size() : 0;
      }
      const Status wire =
          DataExchangeBatch(ReadTarget(entry), subs.size(), req_bytes,
                            BatchFrameBytes(subs.size(), resp_payload));
      if (!wire.ok()) {
        // Reads are idempotent: a reply lost beyond the wire retries re-runs
        // these sub-reads next round.
        lost = wire;
        continue;
      }
      for (size_t k = 0; k < g.size(); ++k) {
        const Sub& s = g[k];
        if (!outs[k].ok()) {
          results[s.i] = outs[k].status();
          done[s.i] = true;
          progress = true;
          continue;
        }
        const std::string_view piece = outs[k].value();
        if (!piece.empty()) {
          CopyMeter::Add(piece.size());
          acc[s.i].append(piece.data(), piece.size());
          progress = true;
        }
        if (piece.size() < s.len) {
          done[s.i] = true;  // EOF inside this chunk: short read.
          progress = true;
        } else if (acc[s.i].size() == ranges[s.i].second) {
          done[s.i] = true;
        }
      }
    }
    if (!unrouted.empty()) {
      if (!refreshed) {
        const Status rs = RefreshMapInternal();
        if (!rs.ok()) {
          for (size_t i = 0; i < ranges.size(); ++i) {
            if (!done[i]) {
              results[i] = rs;
              done[i] = true;
            }
          }
          break;
        }
        refreshed = true;
        progress = true;
      } else {
        for (size_t i : unrouted) {
          done[i] = true;  // Past EOF even after a refresh: short read.
        }
        progress = true;
        refreshed = false;
      }
    }
    if (progress) {
      retry.Progress();
    }
  }
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (results[i].ok()) {
      results[i] = std::move(acc[i]);
    }
  }
  if (std::all_of(results.begin(), results.end(),
                  [](const Result<std::string>& r) { return r.ok(); })) {
    op.Success();
  }
  return results;
}

Result<uint64_t> FileClient::Size() {
  obs::TraceSpan span("file.size", "client");
  span.SetAttr(tenant_attr());
  OpScope op(this);
  JIFFY_RETURN_IF_ERROR(RefreshMapInternal());
  PartitionMap map = CachedMap();
  if (map.entries.empty()) {
    op.Success();
    return uint64_t{0};
  }
  const PartitionEntry tail = map.entries.back();
  Block* block = Resolve(ReadTarget(tail));
  if (block == nullptr) {
    JIFFY_RETURN_IF_ERROR(FailOver(tail));
    op.Success();   // Failover worked; the retry reports its own outcome.
    return Size();  // Recursive call owns its own scope.
  }
  Block::OpLock lock(*block, "file.block_wait");
  JIFFY_TRACE_SPAN("block.file_size", "block");
  auto* chunk = ContentAs<FileChunk>(block->content());
  if (chunk == nullptr) {
    return LeaseExpired("file block reclaimed; load the prefix first");
  }
  DataExchange(ReadTarget(tail), FrameBytes(0), FrameBytes(0));
  op.Success();
  return chunk->end_offset();
}

}  // namespace jiffy

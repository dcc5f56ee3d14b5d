#include "src/wire/block_service.h"

#include <utility>
#include <vector>

#include "src/block/arena.h"
#include "src/ds/kv_content.h"

namespace jiffy {

WireResponse WireBlockService::Handle(const DecodedRequest& req,
                                      const ExecContext& ctx) {
  if (req.op == WireOp::kPing) {
    return ResponseBuilder(WireOp::kPing, req.tag).Finish();
  }
  Block* block = resolver_ != nullptr ? resolver_(req.block) : nullptr;
  if (block == nullptr) {
    return ErrorResponse(req.op, req.tag, StatusCode::kUnavailable);
  }
  return HandleKv(req, block, ctx);
}

WireResponse WireBlockService::HandleKv(const DecodedRequest& req,
                                        Block* block,
                                        const ExecContext& ctx) {
  ResponseBuilder builder(req.op, req.tag, req.keys.size());
  double usage_after = -1.0;
  // Owner fast path: the batch runs without mu(). TryBeginBiasedOp only
  // succeeds when this loop holds the bias, and the handshake guarantees
  // every shared-mode accessor is either outside the block or spinning in
  // OpLock until EndBiasedOp.
  if (ctx.affine && block->TryBeginBiasedOp(ctx.loop_tag)) {
    ExecuteKv(req, block, &builder, &usage_after);
    block->EndBiasedOp();
  } else {
    // Shared path: one OpLock hold — the in-process batch cost. An affine
    // executor re-grants itself the bias on the way out (legal: grant
    // requires holding the OpLock), so the next batch is lock-free again.
    Block::OpLock lock(*block);
    ExecuteKv(req, block, &builder, &usage_after);
    if (ctx.affine) {
      block->GrantBias(ctx.loop_tag);
    }
  }
  // Pressure is reported outside the block hold, like the in-process
  // clients' SignalPressure (Flag is a CAS, no lock interaction).
  if (usage_after >= 0.0 && pressure_) {
    pressure_(block, usage_after);
  }
  return std::move(builder).Finish();
}

void WireBlockService::ExecuteKv(const DecodedRequest& req, Block* block,
                                 ResponseBuilder* builder,
                                 double* usage_after) {
  auto* shard = ContentAs<KvShard>(block->content());
  if (shard == nullptr) {
    builder->SetOverall(StatusCode::kFailedPrecondition);
    return;
  }
  switch (req.op) {
    case WireOp::kMultiPut: {
      std::vector<std::pair<std::string_view, std::string_view>> pairs;
      pairs.reserve(req.keys.size());
      for (size_t i = 0; i < req.keys.size(); ++i) {
        pairs.emplace_back(req.keys[i], req.values[i]);
      }
      std::vector<Status> statuses;
      block->CountOps(pairs.size());
      shard->MultiPut(pairs, &statuses);
      for (const Status& st : statuses) {
        builder->AddItem(st.code());
      }
      if (usage_after != nullptr && block->capacity() > 0) {
        *usage_after = static_cast<double>(shard->used_bytes()) /
                       static_cast<double>(block->capacity());
      }
      break;
    }
    case WireOp::kMultiGet: {
      std::vector<Result<std::string_view>> results;
      block->CountOps(req.keys.size());
      shard->MultiGet(req.keys, &results);
      // Pin while we still exclude migration/compaction (biased op or
      // OpLock): the views stay byte-stable until the response is fully
      // written (DESIGN.md §11). ArenaPin's count is atomic, so pinning is
      // legal on the lock-free path too.
      builder->AddKeepalive(
          std::make_shared<ArenaPin>(ArenaPin(shard->arena())));
      for (const auto& r : results) {
        if (r.ok()) {
          builder->AddItem(StatusCode::kOk, r.value());
        } else {
          builder->AddItem(r.status().code());
        }
      }
      break;
    }
    case WireOp::kMultiDelete: {
      std::vector<Status> statuses;
      block->CountOps(req.keys.size());
      shard->MultiDelete(req.keys, &statuses);
      for (const Status& st : statuses) {
        builder->AddItem(st.code());
      }
      break;
    }
    case WireOp::kPing:
      break;  // Handled by Handle().
  }
}

}  // namespace jiffy

// Client handle for the Jiffy File data structure (§5.1).
//
// Files are append-only collections of fixed-size chunks, one per block.
// Appends route to the tail block; when the tail crosses the high usage
// threshold the client triggers early allocation of the next block through
// the controller (Fig 8) — the residual tail space is abandoned, which is
// the fragmentation the Fig 14(c) threshold sweep measures. Reads route per
// offset through the cached partition map. Files never repartition data
// (Table 2).

#ifndef SRC_CLIENT_FILE_CLIENT_H_
#define SRC_CLIENT_FILE_CLIENT_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/client/ds_client.h"

namespace jiffy {

class FileClient : public DsClient {
 public:
  FileClient(JiffyCluster* cluster, std::string job, std::string prefix,
             PartitionMap initial_map)
      : DsClient(cluster, std::move(job), std::move(prefix),
                 std::move(initial_map), "file") {}

  // Appends `data`, growing the file across blocks as needed. Returns the
  // logical offset at which the data begins. Runs as AppendVec of one piece.
  Result<uint64_t> Append(std::string_view data);

  // Reads up to `len` bytes starting at `offset`; short reads indicate EOF.
  // Runs as ReadVec of one range.
  Result<std::string> Read(uint64_t offset, size_t len);

  // --- Batched operations (DESIGN.md §7) ------------------------------------

  // Appends the scatter list `pieces` back-to-back as one logical write.
  // The run of pieces landing in each tail chunk travels as one coalesced
  // transport exchange (Transport::RoundTripBatch) and is applied under a
  // single lock hold; when the tail fills mid-batch only the remaining
  // suffix moves to the next chunk. Returns the logical offset of the
  // first byte written.
  Result<uint64_t> AppendVec(const std::vector<std::string_view>& pieces);

  // Reads each (offset, len) range; per-range results follow Read semantics
  // (short reads at EOF). Ranges needing the same chunk share one coalesced
  // exchange and one lock hold.
  std::vector<Result<std::string>> ReadVec(
      const std::vector<std::pair<uint64_t, size_t>>& ranges);

  // Current logical size (refreshes metadata).
  Result<uint64_t> Size();

  // Notification op names.
  static constexpr char kWriteOp[] = "write";

 private:
  // The shared bodies of the public ops (a single op is a batch of one);
  // the span names keep single ops distinguishable from batches in traces.
  Result<uint64_t> AppendPieces(const std::vector<std::string_view>& pieces,
                                const char* client_span,
                                const char* block_span);
  std::vector<Result<std::string>> ReadRanges(
      const std::vector<std::pair<uint64_t, size_t>>& ranges,
      const char* client_span, const char* block_span);

  // Caps the tail chunk and allocates the next block (scale-up, Fig 8).
  // `end_offset` is the tail's current logical end.
  Status GrowTail(BlockId tail_block, uint64_t tail_lo, uint64_t end_offset);
};

}  // namespace jiffy

#endif  // SRC_CLIENT_FILE_CLIENT_H_

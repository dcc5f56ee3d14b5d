// Cuckoo hash map for the KV-store block shards (§5.3: "Jiffy employs
// cuckoo hashing for highly concurrent KV operations").
//
// Two hash functions, 4-way set-associative buckets, random-walk eviction
// with a bounded kick chain, and doubling rehash when a chain fails. Within
// Jiffy a shard is always accessed under its block's operation mutex, so the
// map itself is single-writer; the cuckoo layout still pays off via O(1)
// worst-case lookups (at most two buckets probed).
//
// Layout (the cache-friendly part): a bucket is four 8-byte slots — a
// 32-bit key fingerprint (tag, 0 = empty) plus a 32-bit index into a record
// table — so a whole bucket is one 32-byte probe and a negative lookup
// usually never touches key bytes. Key/value bytes live contiguously
// ([key][value]) in the owning shard's SlabArena; the record table holds
// {data, klen, vlen}. Cuckoo kicks move slots between buckets, i.e. each
// kick is an 8-byte swap — record bytes never move during placement.
//
// Ownership contract (DESIGN.md §11): Get/ForEach/ExtractIf return
// string_views into arena memory, valid under the block mutex or for the
// life of an ArenaPin taken before unlocking. Stored bytes are never
// mutated while any pin is outstanding: with pins, an overwrite appends a
// new record and the old bytes become garbage until CompactArena(), so
// pinned readers see immutable data. With zero pins (the common case — a
// pin can only be taken under the same block mutex the writer holds), an
// overwrite that fits the record's original allocation rewrites the value
// in place, which keeps steady-state overwrite workloads garbage-free.
// CompactArena() retires the arena's chunks and re-stores live records;
// retired chunks stay valid until the last pin drops.

#ifndef SRC_DS_CUCKOO_HASH_H_
#define SRC_DS_CUCKOO_HASH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "src/block/arena.h"

namespace jiffy {

class CuckooHashMap {
 public:
  // `initial_buckets` is rounded up to a power of two. The map stores all
  // key/value bytes in `arena` (a fresh private arena when null).
  explicit CuckooHashMap(std::shared_ptr<SlabArena> arena = nullptr,
                         size_t initial_buckets = 16);

  // Inserts or replaces, copying the operands into the arena (the data
  // plane's single copy-in). Returns the previous value's size if the key
  // was present (so callers can maintain byte accounting), or nullopt.
  std::optional<size_t> Put(std::string_view key, std::string_view value);

  // Returns a non-owning view of the stored value; valid under the block
  // mutex or for the life of an ArenaPin on this map's arena.
  std::optional<std::string_view> Get(std::string_view key) const;
  bool Contains(std::string_view key) const;

  // Removes the key; returns the erased (key,value) byte size, or nullopt.
  // The record bytes become arena garbage (still readable by pinned
  // readers) until CompactArena().
  std::optional<size_t> Erase(std::string_view key);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t bucket_count() const { return buckets_.size(); }

  // Visits every entry as arena views. The visitor must not mutate the map.
  void ForEach(
      const std::function<void(std::string_view, std::string_view)>& fn)
      const;

  // Removes every entry matching `pred` and hands it to `sink` as arena
  // views (the repartitioner copies them out of the pinned slabs). The
  // extracted bytes become arena garbage.
  size_t ExtractIf(
      const std::function<bool(std::string_view)>& pred,
      const std::function<void(std::string_view, std::string_view)>& sink);

  // Rewrites live records into fresh arena chunks and retires the old ones
  // (recycled once no pins remain). Call when garbage_ratio() says the
  // slabs are mostly dead — after a migration drops a key range, or after
  // heavy overwrite churn. Invalidates unpinned views.
  void CompactArena();

  // Fraction of stored arena bytes that are garbage (0 when empty).
  double GarbageRatio() const;

  // Load factor over bucket slots.
  double LoadFactor() const;

  const std::shared_ptr<SlabArena>& arena() const { return arena_; }

 private:
  // One 8-byte probe unit: tag is a key fingerprint (never 0 for occupied
  // slots), rec indexes records_.
  struct Slot {
    uint32_t tag = 0;
    uint32_t rec = 0;
  };
  static constexpr int kSlotsPerBucket = 4;
  static constexpr int kMaxKicks = 256;

  struct Bucket {
    Slot slots[kSlotsPerBucket];
  };
  static_assert(sizeof(Slot) == 8, "slot must be one 8-byte word");

  // Record bytes are [key][value] contiguous in the arena. cap is the
  // 8-byte-rounded allocation size, so a pin-free overwrite whose bytes
  // still fit can rewrite the value in place instead of appending garbage.
  struct Record {
    const char* data = nullptr;
    uint32_t klen = 0;
    uint32_t vlen = 0;
    uint32_t cap = 0;
    std::string_view key() const { return {data, klen}; }
    std::string_view value() const { return {data + klen, vlen}; }
  };

  size_t Index1(std::string_view key) const;
  size_t Index2(std::string_view key) const;
  static uint32_t Tag(std::string_view key);

  // Finds the slot holding `key`, or nullptr.
  const Slot* FindSlot(std::string_view key) const;
  Slot* FindSlotMutable(std::string_view key);

  // Copies [key][value] into the arena and fills `rec`.
  void StoreRecord(std::string_view key, std::string_view value, Record* rec);
  uint32_t AllocRecord(std::string_view key, std::string_view value);
  void FreeRecord(uint32_t rec);

  // Places a slot, kicking residents if needed; grows on failure. Pure
  // slot movement — record bytes are untouched.
  void Place(Slot s);

  // One placement attempt in the current table. On failure (out of kicks)
  // `*s` holds the slot left without a home, which may be a kicked resident.
  bool TryPlace(Slot* s);

  // Doubles the table until every resident and `homeless` fit.
  void Rehash(Slot homeless);

  std::shared_ptr<SlabArena> arena_;
  std::vector<Bucket> buckets_;
  std::vector<Record> records_;
  std::vector<uint32_t> free_recs_;
  size_t mask_;
  size_t size_ = 0;
  uint64_t kick_seed_ = 0x2545f4914f6cdd1dULL;
};

}  // namespace jiffy

#endif  // SRC_DS_CUCKOO_HASH_H_

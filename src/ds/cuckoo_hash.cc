#include "src/ds/cuckoo_hash.h"

#include <bit>
#include <cstring>
#include <utility>

#include "src/common/hash.h"
#include "src/common/logging.h"

namespace jiffy {

CuckooHashMap::CuckooHashMap(std::shared_ptr<SlabArena> arena,
                             size_t initial_buckets)
    : arena_(arena != nullptr ? std::move(arena)
                              : std::make_shared<SlabArena>()) {
  size_t n = std::bit_ceil(initial_buckets < 2 ? size_t{2} : initial_buckets);
  buckets_.resize(n);
  mask_ = n - 1;
}

size_t CuckooHashMap::Index1(std::string_view key) const {
  return HashKey1(key) & mask_;
}

size_t CuckooHashMap::Index2(std::string_view key) const {
  return HashKey2(key) & mask_;
}

uint32_t CuckooHashMap::Tag(std::string_view key) {
  // Fingerprint from the high hash bits (the bucket indexes use the low
  // bits); 0 is reserved for "empty slot".
  const uint32_t t = static_cast<uint32_t>(HashKey1(key) >> 32);
  return t == 0 ? 1 : t;
}

const CuckooHashMap::Slot* CuckooHashMap::FindSlot(
    std::string_view key) const {
  const uint32_t tag = Tag(key);
  for (const size_t idx : {Index1(key), Index2(key)}) {
    for (const Slot& s : buckets_[idx].slots) {
      // Tag filter first: a miss costs one 32-byte bucket line, no key
      // bytes touched unless a fingerprint collides.
      if (s.tag == tag && records_[s.rec].key() == key) {
        return &s;
      }
    }
  }
  return nullptr;
}

CuckooHashMap::Slot* CuckooHashMap::FindSlotMutable(std::string_view key) {
  return const_cast<Slot*>(FindSlot(key));
}

void CuckooHashMap::StoreRecord(std::string_view key, std::string_view value,
                                Record* rec) {
  // One contiguous [key][value] arena allocation: the single data-plane
  // copy-in. Stored bytes are never mutated afterwards (pinned readers may
  // hold views), so an overwrite comes back here with a fresh allocation.
  char* dst = arena_->Alloc(key.size() + value.size());
  if (!key.empty()) {
    std::memcpy(dst, key.data(), key.size());
  }
  if (!value.empty()) {
    std::memcpy(dst + key.size(), value.data(), value.size());
  }
  CopyMeter::Add(key.size() + value.size());
  rec->data = dst;
  rec->klen = static_cast<uint32_t>(key.size());
  rec->vlen = static_cast<uint32_t>(value.size());
  rec->cap = static_cast<uint32_t>((key.size() + value.size() + 7) & ~size_t{7});
}

uint32_t CuckooHashMap::AllocRecord(std::string_view key,
                                    std::string_view value) {
  uint32_t idx;
  if (!free_recs_.empty()) {
    idx = free_recs_.back();
    free_recs_.pop_back();
  } else {
    idx = static_cast<uint32_t>(records_.size());
    records_.emplace_back();
  }
  StoreRecord(key, value, &records_[idx]);
  return idx;
}

void CuckooHashMap::FreeRecord(uint32_t rec) {
  Record& r = records_[rec];
  arena_->NoteGarbage(r.klen + r.vlen);
  r = Record{};
  free_recs_.push_back(rec);
}

std::optional<size_t> CuckooHashMap::Put(std::string_view key,
                                         std::string_view value) {
  if (Slot* s = FindSlotMutable(key); s != nullptr) {
    Record& r = records_[s->rec];
    const size_t old_size = r.vlen;
    // In-place when no reader can observe the mutation: pins are only ever
    // taken under the block mutex the writer holds, so pins()==0 here means
    // no view of these bytes outlives the current lock hold. Steady-state
    // overwrite churn then recycles the same allocation with zero garbage.
    if (arena_->pins() == 0 && key.size() + value.size() <= r.cap) {
      if (!value.empty()) {
        std::memcpy(const_cast<char*>(r.data) + r.klen, value.data(),
                    value.size());
      }
      CopyMeter::Add(value.size());
      arena_->AdjustStored(static_cast<int64_t>(value.size()) -
                           static_cast<int64_t>(r.vlen));
      r.vlen = static_cast<uint32_t>(value.size());
      return old_size;
    }
    // Pinned readers may still be looking at the old bytes: append a fresh
    // record and leave the old ones as garbage until compaction.
    arena_->NoteGarbage(r.klen + r.vlen);
    StoreRecord(key, value, &r);
    return old_size;
  }
  Place(Slot{Tag(key), AllocRecord(key, value)});
  size_++;
  return std::nullopt;
}

void CuckooHashMap::Place(Slot s) {
  if (!TryPlace(&s)) {
    Rehash(s);
  }
}

bool CuckooHashMap::TryPlace(Slot* s) {
  const std::string_view key = records_[s->rec].key();
  // Try an empty slot in either candidate bucket.
  for (const size_t idx : {Index1(key), Index2(key)}) {
    for (Slot& slot : buckets_[idx].slots) {
      if (slot.tag == 0) {
        slot = *s;
        return true;
      }
    }
  }
  // Both full: random-walk eviction. Each kick swaps two 8-byte slots;
  // record bytes never move.
  Slot cur = *s;
  for (int kick = 0; kick < kMaxKicks; ++kick) {
    const std::string_view cur_key = records_[cur.rec].key();
    kick_seed_ = Mix64(kick_seed_ + static_cast<uint64_t>(kick));
    const size_t idx = (kick_seed_ & 1) ? Index2(cur_key) : Index1(cur_key);
    const int victim_slot =
        static_cast<int>((kick_seed_ >> 1) % kSlotsPerBucket);
    Slot& victim = buckets_[idx].slots[victim_slot];
    if (victim.tag == 0) {
      victim = cur;
      return true;
    }
    std::swap(victim, cur);
    // Move the displaced slot toward its alternate bucket next round.
    const std::string_view kicked_key = records_[cur.rec].key();
    for (const size_t alt : {Index1(kicked_key), Index2(kicked_key)}) {
      if (alt == idx) {
        continue;
      }
      for (Slot& slot : buckets_[alt].slots) {
        if (slot.tag == 0) {
          slot = cur;
          return true;
        }
      }
    }
  }
  *s = cur;
  return false;
}

void CuckooHashMap::Rehash(Slot homeless) {
  // Every resident plus the slot that found no home. Re-placing them can
  // itself run out of kicks; then the table doubles again and the whole
  // list is placed afresh — never a rehash inside a rehash.
  std::vector<Slot> all;
  all.reserve(size_ + 1);
  for (const Bucket& b : buckets_) {
    for (const Slot& s : b.slots) {
      if (s.tag != 0) {
        all.push_back(s);
      }
    }
  }
  all.push_back(homeless);
  const size_t expected = size_ + 1;  // Place() runs before size_++.
  size_t moved = 0;
  while (moved < all.size()) {
    buckets_.assign(buckets_.size() * 2, Bucket{});
    mask_ = buckets_.size() - 1;
    moved = 0;
    for (Slot s : all) {
      if (!TryPlace(&s)) {
        break;
      }
      moved++;
    }
  }
  JIFFY_CHECK(moved == expected) << "cuckoo rehash lost entries";
}

std::optional<std::string_view> CuckooHashMap::Get(
    std::string_view key) const {
  const Slot* s = FindSlot(key);
  if (s == nullptr) {
    return std::nullopt;
  }
  return records_[s->rec].value();
}

bool CuckooHashMap::Contains(std::string_view key) const {
  return FindSlot(key) != nullptr;
}

std::optional<size_t> CuckooHashMap::Erase(std::string_view key) {
  Slot* s = FindSlotMutable(key);
  if (s == nullptr) {
    return std::nullopt;
  }
  const Record& r = records_[s->rec];
  const size_t bytes = r.klen + r.vlen;
  FreeRecord(s->rec);
  s->tag = 0;
  s->rec = 0;
  size_--;
  return bytes;
}

void CuckooHashMap::ForEach(
    const std::function<void(std::string_view, std::string_view)>& fn) const {
  for (const Bucket& b : buckets_) {
    for (const Slot& s : b.slots) {
      if (s.tag != 0) {
        const Record& r = records_[s.rec];
        fn(r.key(), r.value());
      }
    }
  }
}

size_t CuckooHashMap::ExtractIf(
    const std::function<bool(std::string_view)>& pred,
    const std::function<void(std::string_view, std::string_view)>& sink) {
  size_t extracted = 0;
  for (Bucket& b : buckets_) {
    for (Slot& s : b.slots) {
      if (s.tag != 0 && pred(records_[s.rec].key())) {
        const Record& r = records_[s.rec];
        // The sink sees views into bytes that are garbage the moment we
        // free the record — still readable until the arena compacts, and
        // a caller holding a pin keeps even that from recycling them.
        sink(r.key(), r.value());
        FreeRecord(s.rec);
        s.tag = 0;
        s.rec = 0;
        size_--;
        extracted++;
      }
    }
  }
  return extracted;
}

void CuckooHashMap::CompactArena() {
  // Retire the current chunks first, then copy live records into fresh
  // ones. Retired chunks stay readable until the last ArenaPin drops, so a
  // concurrent reader's views survive the compaction.
  arena_->RetireActive();
  for (Bucket& b : buckets_) {
    for (Slot& s : b.slots) {
      if (s.tag != 0) {
        Record& r = records_[s.rec];
        const std::string_view key = r.key();
        const std::string_view value = r.value();
        StoreRecord(key, value, &r);
      }
    }
  }
  arena_->TryRelease();
}

double CuckooHashMap::GarbageRatio() const {
  const size_t stored = arena_->stored_bytes();
  if (stored == 0) {
    return 0.0;
  }
  return static_cast<double>(arena_->garbage_bytes()) /
         static_cast<double>(stored);
}

double CuckooHashMap::LoadFactor() const {
  return static_cast<double>(size_) /
         static_cast<double>(buckets_.size() * kSlotsPerBucket);
}

}  // namespace jiffy


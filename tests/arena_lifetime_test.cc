// Arena lifetime tests (DESIGN.md §11): views handed out by block contents
// must survive compaction, chunked migration, and slab recycling for as long
// as a pin is held — and freed slabs must be poisoned (ASan builds) the
// moment they recycle.
//
// Suite name contains "Concurrency" so the TSan CI job picks it up.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/block/arena.h"
#include "src/client/jiffy_client.h"
#include "src/client/kv_client.h"
#include "src/common/random.h"
#include "src/ds/kv_content.h"

namespace jiffy {
namespace {

// Pinned views must survive the arena compactions that overwrite churn
// triggers, byte-identical to the moment they were read: stored bytes are
// never mutated in place, and the pin keeps retired slabs from recycling.
TEST(ArenaLifetimeConcurrencyTest, PinnedViewsSurviveCompaction) {
  KvShard shard(1 << 20, 0, 1024, 1024);
  const std::string big(4096, 'v');
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(shard.Put("key" + std::to_string(i), big + "r0").ok());
  }
  // Read one value and pin the arena, as a client response would under the
  // block mutex.
  Result<std::string_view> v = shard.Get("key0");
  ASSERT_TRUE(v.ok());
  ArenaPin pin(shard.arena());
  // Overwrite churn: >64 KiB stored and >50% garbage forces compactions
  // inside Put (KvShard::MaybeCompact).
  for (int round = 1; round <= 8; ++round) {
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(
          shard.Put("key" + std::to_string(i), big + "r" + std::to_string(round))
              .ok());
    }
  }
  // Compaction ran, but the pin held the retired slabs back from the pool.
  EXPECT_GT(shard.arena()->retired_chunks(), 0u);
  EXPECT_EQ(*v, big + "r0");
  EXPECT_FALSE(SlabArena::IsPoisoned(v->data()));
  const void* stale = v->data();
  pin.Release();  // Last pin: retired slabs drain to the poisoned pool.
  shard.arena()->TryRelease();
  EXPECT_EQ(shard.arena()->retired_chunks(), 0u);
  EXPECT_EQ(SlabArena::IsPoisoned(stale), SlabArena::PoisonActive());
  // Live data is unaffected by the recycle.
  Result<std::string_view> fresh = shard.Get("key0");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, big + "r8");
}

// A chunked migration's FinishMigration drops the moved range and compacts;
// with no pins outstanding the dropped range's slabs recycle into later
// writes instead of growing the footprint.
TEST(ArenaLifetimeConcurrencyTest, MigrationRecyclesSlabsIntoLaterWrites) {
  KvShard shard(1 << 20, 0, 1024, 1024);
  const std::string value(1024, 'm');
  std::vector<std::string> upper_keys;
  for (int i = 0; i < 400; ++i) {
    const std::string key = "mig" + std::to_string(i);
    ASSERT_TRUE(shard.Put(key, value).ok());
    if (KvSlotOf(key, 1024) >= 384) {
      upper_keys.push_back(key);
    }
  }
  ASSERT_GT(upper_keys.size(), 50u);
  // Chunked move of the upper ~60% of the slot space, as the background
  // repartitioner drives it: dropping it leaves the arena mostly garbage, so
  // FinishMigration compacts and the freed slabs land in the recycle pool.
  ASSERT_TRUE(shard.BeginMigration(384).ok());
  size_t cursor = 0;
  std::vector<std::pair<std::string, std::string>> moved;
  while (!shard.SplitOffChunk(&cursor, 4096, &moved)) {
  }
  EXPECT_GE(moved.size(), upper_keys.size());
  const uint64_t recycled_before = shard.arena()->recycled_chunks();
  shard.FinishMigration();
  const size_t footprint = shard.arena()->footprint_bytes();
  // Fill the surviving range with fresh keys: new slabs come from the
  // recycled pool, not from new allocations.
  int filled = 0;
  for (int i = 0; filled < 300; ++i) {
    const std::string key = "fill" + std::to_string(i);
    if (KvSlotOf(key, 1024) < 384) {
      ASSERT_TRUE(shard.Put(key, value).ok());
      ++filled;
    }
  }
  EXPECT_GT(shard.arena()->recycled_chunks(), recycled_before);
  // Copy-compaction peaks at two copies of the live set (the retired slabs
  // stay readable while survivors re-store), but recycling keeps the
  // steady-state footprint bounded instead of growing with every round.
  EXPECT_LE(shard.arena()->footprint_bytes(), 2 * footprint);
  for (const std::string& key : upper_keys) {
    EXPECT_FALSE(shard.Get(key).ok()) << key;
  }
}

// End-to-end: readers hold MultiGetPinned responses (zero-copy views into
// block arenas) while splits, merges, and compactions run underneath. The
// pins must keep every referenced slab alive until the reader is done —
// under ASan a violated pin reads poisoned bytes, under TSan an unlocked
// recycle races.
TEST(ArenaLifetimeConcurrencyTest, PinnedReadsSurviveSplitMergeChurn) {
  JiffyCluster::Options opts;
  opts.config.num_memory_servers = 4;
  opts.config.blocks_per_server = 256;
  opts.config.block_size_bytes = 4096;
  opts.config.repartition_chunk_bytes = 512;
  opts.config.lease_duration = 3600 * kSecond;
  auto cluster = std::make_unique<JiffyCluster>(opts);
  JiffyClient client(cluster.get());
  ASSERT_TRUE(client.RegisterJob("job").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/job/kv", {}).ok());
  constexpr int kStable = 16;
  std::vector<std::string> stable_keys;
  {
    auto kv = client.OpenKv("/job/kv");
    ASSERT_TRUE(kv.ok());
    for (int i = 0; i < kStable; ++i) {
      stable_keys.push_back("stable" + std::to_string(i));
      ASSERT_TRUE((*kv)->Put(stable_keys.back(), "constant-value").ok());
    }
  }
  std::atomic<bool> stop{false};
  std::thread churner([&] {
    auto kv = client.OpenKv("/job/kv");
    ASSERT_TRUE(kv.ok());
    Rng rng(7);
    const TimeNs until = RealClock::Instance()->Now() + 100 * kMillisecond;
    for (int round = 0; RealClock::Instance()->Now() < until || round < 2;
         ++round) {
      for (int i = 0; i < 250; ++i) {
        ASSERT_TRUE((*kv)
                        ->Put("churn" + std::to_string(i),
                              std::string(80 + rng.NextBelow(40), 'c'))
                        .ok());
      }
      for (int i = 0; i < 250; ++i) {
        ASSERT_TRUE((*kv)->Delete("churn" + std::to_string(i)).ok());
      }
    }
  });
  std::vector<std::thread> readers;
  std::atomic<uint64_t> reads{0};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      auto kv = client.OpenKv("/job/kv");
      ASSERT_TRUE(kv.ok());
      const std::vector<std::string_view> views(stable_keys.begin(),
                                                stable_keys.end());
      while (!stop.load()) {
        KvClient::PinnedValues pinned = (*kv)->MultiGetPinned(views);
        ASSERT_EQ(pinned.values.size(), views.size());
        // Deliberately dwell with the pins held so migrations and
        // compactions get a chance to retire the slabs under us.
        for (int spin = 0; spin < 8; ++spin) {
          std::this_thread::yield();
        }
        for (size_t i = 0; i < pinned.values.size(); ++i) {
          ASSERT_TRUE(pinned.values[i].ok())
              << stable_keys[i] << ": " << pinned.values[i].status();
          ASSERT_EQ(*pinned.values[i], "constant-value") << stable_keys[i];
          EXPECT_FALSE(SlabArena::IsPoisoned(pinned.values[i]->data()));
        }
        reads.fetch_add(1);
      }
    });
  }
  churner.join();
  stop.store(true);
  for (auto& t : readers) {
    t.join();
  }
  ASSERT_NE(cluster->repartitioner(), nullptr);
  cluster->repartitioner()->WaitIdle();
  // Each read is a full 16-key pinned batch with retries, so under a loaded
  // CI machine only a handful complete inside the churn window — any nonzero
  // count means pinned views were validated against live migrations.
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(cluster->repartitioner()->splits() +
                cluster->repartitioner()->merges(),
            0u);
}

}  // namespace
}  // namespace jiffy

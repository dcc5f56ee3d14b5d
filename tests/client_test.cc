// End-to-end client tests over a full cluster: the Table 1 API, the three
// data structures with elastic scaling, stale-metadata recovery, and
// notifications.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "src/client/jiffy_client.h"
#include "src/common/clock.h"
#include "src/ds/kv_content.h"

namespace jiffy {
namespace {

class ClientTest : public ::testing::Test {
 protected:
  ClientTest() {
    JiffyCluster::Options opts;
    opts.config.num_memory_servers = 4;
    opts.config.blocks_per_server = 64;
    opts.config.block_size_bytes = 4096;
    opts.config.lease_duration = 60 * kSecond;  // Leases off for most tests.
    opts.clock = &clock_;
    cluster_ = std::make_unique<JiffyCluster>(opts);
    client_ = std::make_unique<JiffyClient>(cluster_.get());
    EXPECT_TRUE(client_->RegisterJob("job").ok());
  }

  // Lets the background repartitioner finish every pending split/merge so
  // assertions about the partition map are deterministic.
  void DrainRepartitioner() {
    if (cluster_->repartitioner() != nullptr) {
      cluster_->repartitioner()->WaitIdle();
    }
  }

  SimClock clock_;
  std::unique_ptr<JiffyCluster> cluster_;
  std::unique_ptr<JiffyClient> client_;
};

// --- API surface ---------------------------------------------------------------

TEST_F(ClientTest, CreateHierarchyAndLeaseApi) {
  ASSERT_TRUE(client_
                  ->CreateHierarchy("job", {{"map", {}},
                                            {"reduce", {"map"}}})
                  .ok());
  auto lease = client_->GetLeaseDuration("/job/map");
  ASSERT_TRUE(lease.ok());
  EXPECT_EQ(*lease, 60 * kSecond);
  EXPECT_TRUE(client_->RenewLease("/job/map/reduce").ok());
  EXPECT_FALSE(client_->RenewLease("/job/reduce/map").ok());  // Not an edge.
}

TEST_F(ClientTest, DeregisterJobFreesItsDataStructureState) {
  const size_t before = cluster_->registry()->size();
  ASSERT_TRUE(client_->RegisterJob("gone").ok());
  // The handles stay open across the deregistration; each keeps its state.
  std::vector<std::unique_ptr<KvClient>> open;
  for (int i = 0; i < 4; ++i) {
    const std::string addr = "/gone/kv" + std::to_string(i);
    ASSERT_TRUE(client_->CreateAddrPrefix(addr, {}).ok());
    auto kv = client_->OpenKv(addr);
    ASSERT_TRUE(kv.ok());
    ASSERT_TRUE((*kv)->Put("k", "v").ok());
    open.push_back(std::move(*kv));
  }
  ASSERT_TRUE(client_->CreateAddrPrefix("/gone/q", {}).ok());
  ASSERT_TRUE(client_->OpenQueue("/gone/q").ok());
  EXPECT_EQ(cluster_->registry()->size(), before + 5);
  ASSERT_TRUE(client_->DeregisterJob("gone").ok());
  EXPECT_EQ(cluster_->registry()->size(), before);
}

TEST_F(ClientTest, OpenRejectsTypeMismatch) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/t", {}).ok());
  ASSERT_TRUE(client_->OpenFile("/job/t").ok());
  EXPECT_EQ(client_->OpenKv("/job/t").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ClientTest, OpenAttachesToExistingDs) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/t", {}).ok());
  auto a = client_->OpenKv("/job/t");
  auto b = client_->OpenKv("/job/t");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE((*a)->Put("k", "v").ok());
  EXPECT_EQ(*(*b)->Get("k"), "v");
}

// --- File ------------------------------------------------------------------------

TEST_F(ClientTest, FileAppendRead) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/f", {}).ok());
  auto file = client_->OpenFile("/job/f");
  ASSERT_TRUE(file.ok());
  auto off1 = (*file)->Append("hello ");
  auto off2 = (*file)->Append("world");
  ASSERT_TRUE(off1.ok());
  ASSERT_TRUE(off2.ok());
  EXPECT_EQ(*off1, 0u);
  EXPECT_EQ(*off2, 6u);
  EXPECT_EQ(*(*file)->Read(0, 11), "hello world");
  EXPECT_EQ(*(*file)->Read(6, 5), "world");
  EXPECT_EQ(*(*file)->Size(), 11u);
}

TEST_F(ClientTest, FileGrowsAcrossBlocks) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/big", {}).ok());
  auto file = client_->OpenFile("/job/big");
  ASSERT_TRUE(file.ok());
  // Write 10× the block size in 1 KiB pieces.
  std::string piece(1024, 'x');
  for (int i = 0; i < 40; ++i) {
    piece[0] = static_cast<char>('a' + (i % 26));
    ASSERT_TRUE((*file)->Append(piece).ok()) << i;
  }
  EXPECT_GT((*file)->CachedMap().entries.size(), 5u);
  // Spot-check content across block boundaries.
  auto r = (*file)->Read(0, 1);
  EXPECT_EQ(*r, "a");
  auto size = (*file)->Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 40u * 1024u);
  // Read spanning several blocks comes back the right length.
  auto span = (*file)->Read(1000, 8000);
  ASSERT_TRUE(span.ok());
  EXPECT_EQ(span->size(), 8000u);
}

TEST_F(ClientTest, FileLargeSingleAppendSpansBlocks) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/one", {}).ok());
  auto file = client_->OpenFile("/job/one");
  ASSERT_TRUE(file.ok());
  std::string big(3 * 4096 + 100, 'z');
  auto off = (*file)->Append(big);
  ASSERT_TRUE(off.ok());
  auto back = (*file)->Read(0, big.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), big.size());
  EXPECT_EQ(*back, big);
}

TEST_F(ClientTest, FileReadPastEofIsShort) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/f2", {}).ok());
  auto file = client_->OpenFile("/job/f2");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("abc").ok());
  auto r = (*file)->Read(1, 100);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "bc");
  EXPECT_EQ(*(*file)->Read(100, 10), "");
}

TEST_F(ClientTest, StaleFileClientRecovers) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/sh", {}).ok());
  auto w1 = client_->OpenFile("/job/sh");
  auto w2 = client_->OpenFile("/job/sh");
  ASSERT_TRUE(w1.ok());
  ASSERT_TRUE(w2.ok());
  // w1 fills several blocks; w2's cached map is now stale.
  std::string piece(2048, 'p');
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*w1)->Append(piece).ok());
  }
  // w2 appends through its stale map and must land at the true tail.
  auto off = (*w2)->Append("tail-marker");
  ASSERT_TRUE(off.ok());
  auto r = (*w1)->Read(*off, 11);
  EXPECT_EQ(*r, "tail-marker");
}

// --- Queue ------------------------------------------------------------------------

TEST_F(ClientTest, QueueFifoAcrossSegments) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/q", {}).ok());
  auto q = client_->OpenQueue("/job/q");
  ASSERT_TRUE(q.ok());
  // Push enough 256-byte items to span several 4 KiB segments.
  for (int i = 0; i < 100; ++i) {
    std::string item = std::to_string(i) + std::string(250, '.');
    ASSERT_TRUE((*q)->Enqueue(std::move(item)).ok()) << i;
  }
  EXPECT_GT((*q)->CachedMap().entries.size(), 1u);
  for (int i = 0; i < 100; ++i) {
    auto item = (*q)->Dequeue();
    ASSERT_TRUE(item.ok()) << i;
    EXPECT_EQ(item->substr(0, item->find('.')), std::to_string(i));
  }
  EXPECT_EQ((*q)->Dequeue().status().code(), StatusCode::kNotFound);
}

TEST_F(ClientTest, QueueDrainedSegmentsAreReclaimed) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/qr", {}).ok());
  auto q = client_->OpenQueue("/job/qr");
  ASSERT_TRUE(q.ok());
  const uint32_t before = cluster_->allocator()->allocated_count();
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE((*q)->Enqueue(std::string(500, 'q')).ok());
  }
  const uint32_t grown = cluster_->allocator()->allocated_count();
  EXPECT_GT(grown, before);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE((*q)->Dequeue().ok());
  }
  // All drained segments except the live tail are back in the pool.
  EXPECT_EQ(cluster_->allocator()->allocated_count(), before);
}

TEST_F(ClientTest, QueueMaxLengthBound) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/qb", {}).ok());
  auto q = client_->OpenQueue("/job/qb");
  ASSERT_TRUE(q.ok());
  (*q)->SetMaxQueueLength(3);
  ASSERT_TRUE((*q)->Enqueue("a").ok());
  ASSERT_TRUE((*q)->Enqueue("b").ok());
  ASSERT_TRUE((*q)->Enqueue("c").ok());
  EXPECT_EQ((*q)->Enqueue("d").code(), StatusCode::kUnavailable);
  ASSERT_TRUE((*q)->Dequeue().ok());
  EXPECT_TRUE((*q)->Enqueue("d").ok());
}

TEST_F(ClientTest, QueueNotificationsFire) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/qn", {}).ok());
  auto q = client_->OpenQueue("/job/qn");
  ASSERT_TRUE(q.ok());
  auto listener = (*q)->Subscribe(QueueClient::kEnqueueOp);
  ASSERT_TRUE((*q)->Enqueue("ding").ok());
  auto n = listener->Get(100 * kMillisecond);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->op, "enqueue");
  EXPECT_EQ(n->subject, "/job/qn");
}

TEST_F(ClientTest, QueueDequeueWaitUnblocksOnEnqueue) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/qw", {}).ok());
  auto q1 = client_->OpenQueue("/job/qw");
  auto q2 = client_->OpenQueue("/job/qw");
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_TRUE((*q2)->Enqueue("late-item").ok());
  });
  auto item = (*q1)->DequeueWait(2 * kSecond);
  producer.join();
  ASSERT_TRUE(item.ok()) << item.status();
  EXPECT_EQ(*item, "late-item");
}

// Regression: multiple producers with stale maps must never create a
// duplicate tail segment (which strands items behind an empty unsealed
// head — the consumer would wrongly conclude the queue is empty).
TEST_F(ClientTest, QueueManyProducersNoLostItems) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/qmp", {}).ok());
  constexpr int kProducers = 4;
  constexpr int kItems = 500;  // ~4×500×(40+16)B spans many 4 KiB segments.
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      auto q = client_->OpenQueue("/job/qmp");
      ASSERT_TRUE(q.ok());
      for (int i = 0; i < kItems; ++i) {
        std::string item = "p" + std::to_string(p) + "-" + std::to_string(i) +
                           std::string(30, '.');
        ASSERT_TRUE((*q)->Enqueue(std::move(item)).ok()) << p << " " << i;
      }
    });
  }
  std::atomic<int> consumed{0};
  std::thread consumer([&] {
    auto q = client_->OpenQueue("/job/qmp");
    ASSERT_TRUE(q.ok());
    while (consumed.load() < kProducers * kItems) {
      auto item = (*q)->DequeueWait(5 * kSecond);
      if (!item.ok()) {
        break;  // Assertion below reports the shortfall.
      }
      consumed.fetch_add(1);
    }
  });
  for (auto& t : producers) {
    t.join();
  }
  consumer.join();
  EXPECT_EQ(consumed.load(), kProducers * kItems);
}

// --- KV --------------------------------------------------------------------------

TEST_F(ClientTest, KvPutGetDelete) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/kv", {}).ok());
  auto kv = client_->OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());
  ASSERT_TRUE((*kv)->Put("alpha", "1").ok());
  EXPECT_EQ(*(*kv)->Get("alpha"), "1");
  EXPECT_EQ(*(*kv)->Exists("alpha"), true);
  ASSERT_TRUE((*kv)->Delete("alpha").ok());
  EXPECT_EQ((*kv)->Get("alpha").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(*(*kv)->Exists("alpha"), false);
}

TEST_F(ClientTest, KvSplitsUnderLoadAndKeepsAllData) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/kvs", {}).ok());
  auto kv = client_->OpenKv("/job/kvs");
  ASSERT_TRUE(kv.ok());
  // ~40 KiB of pairs into 4 KiB blocks → many splits.
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(
        (*kv)->Put("key" + std::to_string(i), std::string(80, 'v')).ok())
        << i;
  }
  DrainRepartitioner();
  ASSERT_TRUE((*kv)->RefreshMap().ok());
  EXPECT_GT((*kv)->CachedMap().entries.size(), 4u);
  for (int i = 0; i < 400; ++i) {
    auto v = (*kv)->Get("key" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << "key" << i << ": " << v.status();
    EXPECT_EQ(v->size(), 80u);
  }
  EXPECT_EQ(*(*kv)->CountPairs(), 400u);
}

TEST_F(ClientTest, KvSlotRangesStayDisjointAndComplete) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/kvd", {}).ok());
  auto kv = client_->OpenKv("/job/kvd");
  ASSERT_TRUE(kv.ok());
  for (int i = 0; i < 600; ++i) {
    ASSERT_TRUE((*kv)->Put("k" + std::to_string(i), std::string(64, 'd')).ok());
  }
  DrainRepartitioner();
  ASSERT_TRUE((*kv)->RefreshMap().ok());
  auto map = (*kv)->CachedMap();
  // Sorted entries must tile [0, 1024) exactly.
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  for (const auto& e : map.entries) {
    ranges.emplace_back(e.lo, e.hi);
  }
  std::sort(ranges.begin(), ranges.end());
  uint64_t expect_lo = 0;
  for (const auto& [lo, hi] : ranges) {
    EXPECT_EQ(lo, expect_lo);
    EXPECT_GT(hi, lo);
    expect_lo = hi;
  }
  EXPECT_EQ(expect_lo, 1024u);
}

TEST_F(ClientTest, KvMergesAfterDeletes) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/kvm", {}).ok());
  auto kv = client_->OpenKv("/job/kvm");
  ASSERT_TRUE(kv.ok());
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE((*kv)->Put("k" + std::to_string(i), std::string(80, 'm')).ok());
  }
  DrainRepartitioner();
  ASSERT_TRUE((*kv)->RefreshMap().ok());
  const size_t blocks_at_peak = (*kv)->CachedMap().entries.size();
  ASSERT_GT(blocks_at_peak, 2u);
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE((*kv)->Delete("k" + std::to_string(i)).ok()) << i;
  }
  DrainRepartitioner();
  ASSERT_TRUE((*kv)->RefreshMap().ok());
  EXPECT_LT((*kv)->CachedMap().entries.size(), blocks_at_peak);
  EXPECT_EQ(*(*kv)->CountPairs(), 0u);
}

TEST_F(ClientTest, KvStaleClientRoutesAfterSplit) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/kvt", {}).ok());
  auto writer = client_->OpenKv("/job/kvt");
  auto reader = client_->OpenKv("/job/kvt");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(reader.ok());
  // Writer forces splits; reader still holds the single-block map.
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(
        (*writer)->Put("key" + std::to_string(i), std::string(80, 's')).ok());
  }
  DrainRepartitioner();
  ASSERT_TRUE((*writer)->RefreshMap().ok());
  ASSERT_GT((*writer)->CachedMap().entries.size(),
            (*reader)->CachedMap().entries.size());
  // Reader transparently refreshes on stale routes.
  for (int i = 0; i < 400; i += 7) {
    auto v = (*reader)->Get("key" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i << ": " << v.status();
  }
}

// Shrinks the KV at `kv`'s single entry so that its last slot has no owner,
// and returns a key hashing to that slot. The client's map then sees the gap.
std::string OpenSlotGap(JiffyCluster* cluster, KvClient* kv,
                        PartitionEntry* entry) {
  *entry = kv->CachedMap().entries.at(0);
  const uint32_t last = static_cast<uint32_t>(entry->hi) - 1;
  std::string key;
  for (int i = 0; KvSlotOf(key, cluster->config().kv_hash_slots) != last;
       ++i) {
    key = "gap" + std::to_string(i);
  }
  EXPECT_TRUE(cluster->ControllerFor(kv->job())
                  ->UpdateEntryRange(kv->job(), kv->prefix(), entry->block,
                                     entry->lo, last)
                  .ok());
  EXPECT_TRUE(kv->RefreshMap().ok());
  return key;
}

TEST_F(ClientTest, KvPutRidesOutAnUnownedSlotUntilTheMapHeals) {
  // The stale-map loop is bounded by the op deadline, not by an attempt
  // count: a put to a slot no entry owns for 50 ms (longer than 64 backoff
  // rounds last) lands once the range is restored.
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/gap", {}).ok());
  auto kv = client_->OpenKv("/job/gap");
  ASSERT_TRUE(kv.ok());
  ASSERT_EQ((*kv)->CachedMap().entries.size(), 1u);
  PartitionEntry entry;
  const std::string key = OpenSlotGap(cluster_.get(), kv->get(), &entry);
  std::thread healer([&] {
    RealClock::Instance()->SleepFor(50 * kMillisecond);
    EXPECT_TRUE(cluster_->ControllerFor("job")
                    ->UpdateEntryRange((*kv)->job(), (*kv)->prefix(),
                                       entry.block, entry.lo, entry.hi)
                    .ok());
  });
  const Status put = (*kv)->Put(key, "v");
  healer.join();
  ASSERT_TRUE(put.ok()) << put.ToString();
  EXPECT_EQ(*(*kv)->Get(key), "v");
}

TEST_F(ClientTest, KvPutToAnUnownedSlotFailsAtTheOpDeadline) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/gap", {}).ok());
  auto kv = client_->OpenKv("/job/gap");
  ASSERT_TRUE(kv.ok());
  RetryPolicy policy = (*kv)->retry_policy();
  policy.op_deadline = 100 * kMillisecond;
  (*kv)->set_retry_policy(policy);
  PartitionEntry entry;
  const std::string key = OpenSlotGap(cluster_.get(), kv->get(), &entry);
  const TimeNs start = RealClock::Instance()->Now();
  const Status put = (*kv)->Put(key, "v");
  const DurationNs took = RealClock::Instance()->Now() - start;
  EXPECT_EQ(put.code(), StatusCode::kUnavailable) << put.ToString();
  EXPECT_GE(took, policy.op_deadline);
  EXPECT_LT(took, 10 * policy.op_deadline);
}

TEST_F(ClientTest, ConcurrentKvWritersAreLinearizablePerKey) {
  ASSERT_TRUE(client_->CreateAddrPrefix("/job/kvc", {}).ok());
  constexpr int kThreads = 4;
  constexpr int kKeysPerThread = 150;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto kv = client_->OpenKv("/job/kvc");
      ASSERT_TRUE(kv.ok());
      for (int i = 0; i < kKeysPerThread; ++i) {
        const std::string key = "t" + std::to_string(t) + "-" + std::to_string(i);
        ASSERT_TRUE((*kv)->Put(key, key + "-value").ok());
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  auto kv = client_->OpenKv("/job/kvc");
  ASSERT_TRUE(kv.ok());
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kKeysPerThread; ++i) {
      const std::string key = "t" + std::to_string(t) + "-" + std::to_string(i);
      auto v = (*kv)->Get(key);
      ASSERT_TRUE(v.ok()) << key << ": " << v.status();
      EXPECT_EQ(*v, key + "-value");
    }
  }
  EXPECT_EQ(*(*kv)->CountPairs(),
            static_cast<size_t>(kThreads) * kKeysPerThread);
}

// --- Lease integration -------------------------------------------------------------

TEST_F(ClientTest, ExpiredKvIsFlushedAndLoadable) {
  JiffyCluster::Options opts;
  opts.config.num_memory_servers = 2;
  opts.config.blocks_per_server = 32;
  opts.config.block_size_bytes = 4096;
  opts.config.lease_duration = 1 * kSecond;
  SimClock clock;
  opts.clock = &clock;
  JiffyCluster cluster(opts);
  JiffyClient client(&cluster);
  ASSERT_TRUE(client.RegisterJob("j").ok());
  ASSERT_TRUE(client.CreateAddrPrefix("/j/kv", {}).ok());
  auto kv = client.OpenKv("/j/kv");
  ASSERT_TRUE(kv.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*kv)->Put("k" + std::to_string(i), "v").ok());
  }
  clock.AdvanceBy(2 * kSecond);
  ASSERT_EQ(cluster.controller_shard(0)->RunExpiryScan(), 1u);
  // Gets now fail: memory reclaimed.
  EXPECT_EQ((*kv)->Get("k0").status().code(), StatusCode::kLeaseExpired);
  // Load the flushed data back and reattach.
  ASSERT_TRUE(client.LoadAddrPrefix("/j/kv", "jiffy/j/kv").ok());
  auto kv2 = client.OpenKv("/j/kv");
  ASSERT_TRUE(kv2.ok());
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(*(*kv2)->Get("k" + std::to_string(i)), "v") << i;
  }
}

}  // namespace
}  // namespace jiffy

// Unit tests for the notification plumbing (Listener, SubscriptionMap) and
// the per-DS registry.

#include <gtest/gtest.h>

#include <thread>

#include "src/block/notification.h"
#include "src/ds/registry.h"

namespace jiffy {
namespace {

TEST(ListenerTest, PushThenGet) {
  Listener l;
  l.Push({"put", "/j/t", "key1", 5});
  auto n = l.Get(10 * kMillisecond);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->op, "put");
  EXPECT_EQ(n->payload, "key1");
}

TEST(ListenerTest, GetTimesOutWhenEmpty) {
  Listener l;
  auto n = l.Get(5 * kMillisecond);
  EXPECT_EQ(n.status().code(), StatusCode::kTimeout);
}

TEST(ListenerTest, TryGetNonBlocking) {
  Listener l;
  EXPECT_EQ(l.TryGet().status().code(), StatusCode::kTimeout);
  l.Push({"op", "", "", 0});
  EXPECT_TRUE(l.TryGet().ok());
}

TEST(ListenerTest, GetUnblocksOnConcurrentPush) {
  Listener l;
  std::thread pusher([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    l.Push({"late", "", "", 0});
  });
  auto n = l.Get(2 * kSecond);
  pusher.join();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n->op, "late");
}

TEST(ListenerTest, FifoDelivery) {
  Listener l;
  for (int i = 0; i < 5; ++i) {
    l.Push({"op", "", std::to_string(i), 0});
  }
  EXPECT_EQ(l.Pending(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(l.TryGet()->payload, std::to_string(i));
  }
}

TEST(SubscriptionMapTest, PublishReachesOnlyMatchingOp) {
  SubscriptionMap subs;
  auto put_listener = subs.Subscribe("put");
  auto del_listener = subs.Subscribe("delete");
  subs.Publish({"put", "/j/t", "k", 0});
  EXPECT_EQ(put_listener->Pending(), 1u);
  EXPECT_EQ(del_listener->Pending(), 0u);
}

TEST(SubscriptionMapTest, FanOutToAllSubscribers) {
  SubscriptionMap subs;
  auto a = subs.Subscribe("enqueue");
  auto b = subs.Subscribe("enqueue");
  subs.Publish({"enqueue", "", "", 0});
  EXPECT_EQ(a->Pending(), 1u);
  EXPECT_EQ(b->Pending(), 1u);
  EXPECT_EQ(subs.SubscriberCount("enqueue"), 2u);
}

TEST(SubscriptionMapTest, UnsubscribeStopsDelivery) {
  SubscriptionMap subs;
  auto l = subs.Subscribe("op");
  subs.Unsubscribe("op", l);
  subs.Publish({"op", "", "", 0});
  EXPECT_EQ(l->Pending(), 0u);
  EXPECT_EQ(subs.SubscriberCount("op"), 0u);
}

TEST(DsRegistryTest, GetOrCreateIsStable) {
  DsRegistry reg;
  auto a = reg.GetOrCreate("job", "task");
  auto b = reg.GetOrCreate("job", "task");
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), reg.GetOrCreate("job", "other").get());
  EXPECT_EQ(reg.size(), 2u);
}

TEST(DsRegistryTest, FindAndRemove) {
  DsRegistry reg;
  EXPECT_EQ(reg.Find("j", "t"), nullptr);
  auto state = reg.GetOrCreate("j", "t");
  EXPECT_EQ(reg.Find("j", "t").get(), state.get());
  auto other = reg.GetOrCreate("k", "t");
  reg.RemoveJob("j");
  EXPECT_EQ(reg.Find("j", "t"), nullptr);
  EXPECT_EQ(reg.Find("k", "t").get(), other.get());  // Other jobs stay.
  EXPECT_EQ(reg.size(), 1u);
  // Existing shared_ptr holders keep the state alive.
  state->queue_items.store(7);
  EXPECT_EQ(state->queue_items.load(), 7);
}

}  // namespace
}  // namespace jiffy

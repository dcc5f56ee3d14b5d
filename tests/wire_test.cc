// Socket integration tests for the real-wire data plane (DESIGN.md §12):
// epoll server + async tagged client on an ephemeral loopback port, deep
// pipelining under server-side response reordering, the WireGateway over a
// live cluster (zero-copy MultiGet serialization, CopyMeter-verified),
// frame-layer fault injection masked by the retry layer, and the Pipeline
// rewrite's out-of-order per-item statuses.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/block/arena.h"
#include "src/block/block.h"
#include "src/block/block_id.h"
#include "src/client/jiffy_client.h"
#include "src/client/pipeline.h"
#include "src/ds/kv_content.h"
#include "src/net/tcp_client.h"
#include "src/net/tcp_server.h"
#include "src/wire/gateway.h"
#include "src/wire/wire_kv_client.h"

namespace jiffy {
namespace {

// --- Raw server + async client ----------------------------------------------

// Echo handler: answers a kMultiGet of keys with "echo:<key>" per item. The
// payload is owned via keepalive — exactly the contract arena-pinned block
// responses rely on.
WireResponse EchoHandler(const DecodedRequest& req) {
  ResponseBuilder builder(req.op, req.tag, req.keys.size());
  if (req.op == WireOp::kPing) {
    return std::move(builder).Finish();
  }
  auto owned = std::make_shared<std::vector<std::string>>();
  owned->reserve(req.keys.size());
  for (std::string_view key : req.keys) {
    owned->push_back("echo:" + std::string(key));
  }
  for (const std::string& value : *owned) {
    builder.AddItem(StatusCode::kOk, value);
  }
  builder.AddKeepalive(std::move(owned));
  return std::move(builder).Finish();
}

TEST(WireServer, PingRoundTripOnEphemeralPort) {
  TcpServer::Options opts;
  TcpServer server(EchoHandler, opts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  auto conn = TcpConnection::Connect("127.0.0.1", server.port(), {});
  ASSERT_TRUE(conn.ok());
  const uint64_t tag = (*conn)->BeginTag();
  std::string frame;
  EncodePingRequest(tag, &frame);
  WireReply reply = (*conn)->Call(std::move(frame), tag);
  EXPECT_TRUE(reply.transport.ok()) << reply.transport.ToString();
  EXPECT_EQ(reply.overall, StatusCode::kOk);
  EXPECT_EQ(reply.op, WireOp::kPing);
  server.Stop();
}

TEST(WireServer, ConnectionRefusedSurfacesAsError) {
  TcpServer::Options opts;
  TcpServer server(EchoHandler, opts);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();
  server.Stop();
  auto conn = TcpConnection::Connect("127.0.0.1", port, {});
  EXPECT_FALSE(conn.ok());
}

// ≥32 RPCs genuinely in flight on one connection, completed OUT OF ORDER by
// the server's reorder hook, every response matched back to its request by
// tag (the distinct echo payload proves no crosstalk).
TEST(WireServer, DeepPipelineSurvivesServerReordering) {
  TcpServer::Options sopts;
  sopts.threads = 2;
  sopts.reorder_window = 16;  // Server shuffles up to 16 held responses.
  sopts.reorder_seed = 7;
  // The handler holds every request until the client has submitted
  // kDepth of them, so the pipeline runs at least kDepth deep however fast
  // the server's cores drain it.
  constexpr int kDepth = 32;
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  auto open_gate = [&] {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
    gate_cv.notify_all();
  };
  TcpServer server(
      TcpServer::Handler([&](const DecodedRequest& req) {
        std::unique_lock<std::mutex> lock(gate_mu);
        gate_cv.wait(lock, [&] { return gate_open; });
        lock.unlock();
        return EchoHandler(req);
      }),
      sopts);
  ASSERT_TRUE(server.Start().ok());

  TcpConnection::Options copts;
  copts.max_in_flight = 64;
  auto conn = TcpConnection::Connect("127.0.0.1", server.port(), copts);
  ASSERT_TRUE(conn.ok());

  constexpr int kRpcs = 256;
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  int mismatches = 0;
  for (int i = 0; i < kRpcs; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const uint64_t tag = (*conn)->BeginTag();
    std::string frame;
    EncodeKeysRequest(WireOp::kMultiGet, tag, 1, {key}, &frame);
    (*conn)->Submit(std::move(frame), tag,
                    [&, expect = "echo:" + key](WireReply reply) {
                      std::lock_guard<std::mutex> lock(mu);
                      if (!reply.transport.ok() || reply.values.size() != 1 ||
                          reply.values[0] != expect) {
                        ++mismatches;
                      }
                      ++done;
                      cv.notify_all();
                    });
    if (i + 1 == kDepth) {
      open_gate();
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return done == kRpcs; }));
  }
  EXPECT_EQ(mismatches, 0);
  // The window bound is 64; with 256 submissions the pipeline must have
  // actually run deep, not degenerated to stop-and-wait.
  EXPECT_GE((*conn)->max_in_flight_seen(), 32u);
  server.Stop();
}

TEST(WireServer, ConcurrentConnectionsServeIndependently) {
  TcpServer::Options sopts;
  sopts.threads = 3;
  TcpServer server(EchoHandler, sopts);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  constexpr int kPerClient = 64;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto conn = TcpConnection::Connect("127.0.0.1", server.port(), {});
      if (!conn.ok()) {
        failures.fetch_add(kPerClient);
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        const std::string key =
            "c" + std::to_string(c) + "-" + std::to_string(i);
        const uint64_t tag = (*conn)->BeginTag();
        std::string frame;
        EncodeKeysRequest(WireOp::kMultiGet, tag, 1, {key}, &frame);
        WireReply reply = (*conn)->Call(std::move(frame), tag);
        if (!reply.transport.ok() || reply.values.size() != 1 ||
            reply.values[0] != "echo:" + key) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  server.Stop();
}

// --- WireMap routing ---------------------------------------------------------

TEST(WireMapTest, EvenPartitionCoversSlotSpace) {
  WireMap map = WireMap::Even({{"127.0.0.1", 1000, 0}, {"127.0.0.1", 1001, 1}},
                              1024, {10, 20, 30});
  ASSERT_EQ(map.ranges.size(), 3u);
  EXPECT_EQ(map.ranges.front().slot_lo, 0u);
  EXPECT_EQ(map.ranges.back().slot_hi, 1024u);
  for (uint32_t slot = 0; slot < 1024; ++slot) {
    ASSERT_NE(map.Route(slot), static_cast<size_t>(-1)) << slot;
  }
  EXPECT_EQ(map.Route(1024), static_cast<size_t>(-1));
  // Blocks alternate endpoints.
  EXPECT_EQ(map.ranges[0].endpoint, 0u);
  EXPECT_EQ(map.ranges[1].endpoint, 1u);
  EXPECT_EQ(map.ranges[2].endpoint, 0u);
}

// --- Gateway over a live cluster --------------------------------------------

class WireGatewayTest : public ::testing::Test {
 protected:
  WireGatewayTest() {
    JiffyCluster::Options opts;
    opts.config.num_memory_servers = 2;
    opts.config.blocks_per_server = 16;
    opts.config.block_size_bytes = 1 << 20;
    opts.config.lease_duration = 3600 * kSecond;
    cluster_ = std::make_unique<JiffyCluster>(opts);
    client_ = std::make_unique<JiffyClient>(cluster_.get());
    EXPECT_TRUE(client_->RegisterJob("job").ok());
    EXPECT_TRUE(client_->CreateAddrPrefix("/job/kv", {}).ok());
    auto kv = client_->OpenKv("/job/kv");
    EXPECT_TRUE(kv.ok());
    kv_ = std::move(*kv);

    gateway_ = std::make_unique<WireGateway>(cluster_.get());
    EXPECT_TRUE(gateway_->Start().ok());
  }

  ~WireGatewayTest() override { gateway_->Stop(); }

  WireKvClient WireClient(WireKvClient::Options options = {}) {
    if (!options.map_refresher) {
      options.map_refresher = [this]() -> Result<WireMap> {
        return gateway_->MapFor(kv_->CachedMap());
      };
    }
    return WireKvClient(gateway_->MapFor(kv_->CachedMap()),
                        std::move(options));
  }

  std::unique_ptr<JiffyCluster> cluster_;
  std::unique_ptr<JiffyClient> client_;
  std::unique_ptr<KvClient> kv_;
  std::unique_ptr<WireGateway> gateway_;
};

TEST_F(WireGatewayTest, PutGetDeleteOverTheWire) {
  WireKvClient wire = WireClient();
  ASSERT_TRUE(wire.Put("wire-key", "wire-value").ok());
  auto got = wire.Get("wire-key");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "wire-value");
  EXPECT_TRUE(wire.Delete("wire-key").ok());
  EXPECT_EQ(wire.Get("wire-key").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(wire.Ping(0).ok());
}

// The gateway serves the SAME blocks the in-process client mutates: data is
// visible across both paths without any copy or sync step.
TEST_F(WireGatewayTest, WireAndInProcessSeeTheSameBlocks) {
  ASSERT_TRUE(kv_->Put("from-inproc", "alpha").ok());
  WireKvClient wire = WireClient();
  auto over_wire = wire.Get("from-inproc");
  ASSERT_TRUE(over_wire.ok());
  EXPECT_EQ(*over_wire, "alpha");

  ASSERT_TRUE(wire.Put("from-wire", "beta").ok());
  auto in_proc = kv_->Get("from-wire");
  ASSERT_TRUE(in_proc.ok());
  EXPECT_EQ(*in_proc, "beta");
}

TEST_F(WireGatewayTest, BatchedOpsAlignIndexForIndex) {
  WireKvClient wire = WireClient();
  std::vector<std::string> keys, values;
  for (int i = 0; i < 64; ++i) {
    keys.push_back("batch-" + std::to_string(i));
    values.push_back("value-" + std::to_string(i * 3));
  }
  std::vector<std::pair<std::string_view, std::string_view>> pairs;
  std::vector<std::string_view> key_views;
  for (int i = 0; i < 64; ++i) {
    pairs.emplace_back(keys[i], values[i]);
    key_views.emplace_back(keys[i]);
  }
  for (const Status& st : wire.MultiPut(pairs)) {
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  // Mix hits and misses; results must align with the request order.
  std::vector<std::string_view> lookup = key_views;
  lookup.insert(lookup.begin() + 10, "no-such-key");
  WireValues got = wire.MultiGet(lookup);
  ASSERT_EQ(got.size(), 65u);
  EXPECT_EQ(got[10].status().code(), StatusCode::kNotFound);
  for (size_t i = 0; i < lookup.size(); ++i) {
    if (i == 10) {
      continue;
    }
    const size_t k = i < 10 ? i : i - 1;
    ASSERT_TRUE(got[i].ok()) << "item " << i;
    EXPECT_EQ(*got[i], values[k]);
  }

  std::vector<Status> deleted = wire.MultiDelete(key_views);
  for (const Status& st : deleted) {
    EXPECT_TRUE(st.ok());
  }
  EXPECT_EQ(wire.Get(keys[0]).status().code(), StatusCode::kNotFound);
}

// Acceptance: server-side MultiGet serialization copies ZERO payload bytes.
// The response frame is scatter-gathered straight out of pinned arena
// memory; the only copy in the whole exchange is the client re-anchoring
// the response body (unmetered — CopyMeter counts process-wide payload
// copies, which this test requires to stay flat).
TEST_F(WireGatewayTest, MultiGetServesWithZeroPayloadCopies) {
  std::vector<std::pair<std::string_view, std::string_view>> pairs;
  std::vector<std::string> keys, values;
  for (int i = 0; i < 32; ++i) {
    keys.push_back("zc-" + std::to_string(i));
    values.push_back(std::string(256, static_cast<char>('a' + i % 26)));
  }
  for (int i = 0; i < 32; ++i) {
    pairs.emplace_back(keys[i], values[i]);
  }
  WireKvClient wire = WireClient();
  for (const Status& st : wire.MultiPut(pairs)) {
    ASSERT_TRUE(st.ok());
  }

  std::vector<std::string_view> key_views(keys.begin(), keys.end());
  const uint64_t copied_before = CopyMeter::Total();
  WireValues got = wire.MultiGet(key_views);
  const uint64_t copied_after = CopyMeter::Total();
  for (size_t i = 0; i < key_views.size(); ++i) {
    ASSERT_TRUE(got[i].ok());
    EXPECT_EQ(*got[i], values[i]);
  }
  EXPECT_EQ(copied_after - copied_before, 0u)
      << "wire MultiGet serialization must not materialize values";
}

TEST_F(WireGatewayTest, StaleMapRefreshesAndReroutes) {
  // Start from an EMPTY routing snapshot: every item is unrouted, forcing a
  // refresh through the installed refresher.
  ASSERT_TRUE(kv_->Put("stale-key", "stale-value").ok());
  WireKvClient::Options options;
  options.map_refresher = [this]() -> Result<WireMap> {
    return gateway_->MapFor(kv_->CachedMap());
  };
  WireMap empty;
  empty.total_slots = cluster_->config().kv_hash_slots;
  WireKvClient wire(std::move(empty), std::move(options));
  auto got = wire.Get("stale-key");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "stale-value");

  // Without a refresher the same situation fails with kStaleMetadata.
  WireMap empty2;
  empty2.total_slots = cluster_->config().kv_hash_slots;
  WireKvClient no_refresh(std::move(empty2));
  EXPECT_EQ(no_refresh.Get("stale-key").status().code(),
            StatusCode::kStaleMetadata);
}

TEST_F(WireGatewayTest, ConcurrentWireClients) {
  constexpr int kThreads = 4;
  constexpr int kOps = 48;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      WireKvClient wire = WireClient();
      for (int i = 0; i < kOps; ++i) {
        const std::string key =
            "t" + std::to_string(t) + "-" + std::to_string(i);
        const std::string value = "v" + std::to_string(t * 1000 + i);
        if (!wire.Put(key, value).ok()) {
          failures.fetch_add(1);
          continue;
        }
        auto got = wire.Get(key);
        if (!got.ok() || *got != value) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

// --- Frame-layer fault injection --------------------------------------------

TEST_F(WireGatewayTest, RetriesMaskInjectedDrops) {
  WireKvClient::Options options;
  options.faults.drop_prob = 0.4;
  options.faults.seed = 11;
  options.faults_on = true;
  // Keep injected-drop "timeouts" instant: the verdict is synthesized at
  // the frame layer, no real timer needs to expire.
  options.faults.drop_timeout = 0;
  WireKvClient wire = WireClient(std::move(options));

  std::vector<std::string> keys, values;
  for (int i = 0; i < 24; ++i) {
    keys.push_back("drop-" + std::to_string(i));
    values.push_back("v" + std::to_string(i));
  }
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(wire.Put(keys[i], values[i]).ok()) << i;
  }
  for (int i = 0; i < 24; ++i) {
    auto got = wire.Get(keys[i]);
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(*got, values[i]);
  }
  // With drop_prob 0.4 over 48 exchanges, some retries must have fired.
  EXPECT_GT(wire.retries(), 0u);
}

TEST_F(WireGatewayTest, InjectedDelaysStallButSucceed) {
  WireKvClient::Options options;
  options.faults.delay_prob = 1.0;
  options.faults.extra_delay = 2 * kMillisecond;
  options.faults.seed = 5;
  options.faults_on = true;
  WireKvClient wire = WireClient(std::move(options));

  ASSERT_TRUE(wire.Put("delayed", "ok").ok());
  auto got = wire.Get("delayed");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "ok");

  const WireEndpoint& ep = wire.map().endpoints[0];
  auto conn = wire.pool()->Get(ep.host, ep.port, ep.server_id);
  ASSERT_TRUE(conn.ok());
  EXPECT_GT((*conn)->fault_delays(), 0u);
}

TEST_F(WireGatewayTest, OutageWindowFailsFast) {
  WireKvClient::Options options;
  FaultPlan::Outage outage;
  outage.endpoint = 0;  // The gateway endpoint's server id.
  outage.from = 0;
  outage.until = std::numeric_limits<TimeNs>::max();
  options.faults.outages.push_back(outage);
  options.faults_on = true;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff = 10 * kMicrosecond;
  WireKvClient wire = WireClient(std::move(options));

  const Status st = wire.Put("during-outage", "x");
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  EXPECT_GT(wire.retries(), 0u);

  auto conn = wire.pool()->Get(wire.map().endpoints[0].host,
                               wire.map().endpoints[0].port, 0);
  ASSERT_TRUE(conn.ok());
  EXPECT_GT((*conn)->fault_outages(), 0u);
}

// --- Thread-per-core affinity (DESIGN.md §13) --------------------------------

// With affinity on, every block executes on exactly ONE loop thread — frames
// arriving on other loops are forwarded through the MPSC rings. The handler
// records which thread executed each block; blocks are picked so their
// OwnerLoop spans all four loops, proving both routing and forwarding.
TEST(WireServer, AffinityExecutesEachBlockOnItsOwningLoop) {
  constexpr size_t kLoops = 4;
  TcpServer::Options sopts;
  sopts.threads = static_cast<int>(kLoops);
  sopts.affinity = true;
  std::mutex mu;
  std::map<uint64_t, std::set<std::thread::id>> executors;
  int non_affine = 0;
  TcpServer server(
      TcpServer::ExecHandler(
          [&](const DecodedRequest& req, const ExecContext& ctx) {
            {
              std::lock_guard<std::mutex> lock(mu);
              executors[req.block].insert(std::this_thread::get_id());
              if (!ctx.affine) {
                ++non_affine;
              }
            }
            return EchoHandler(req);
          }),
      sopts);
  ASSERT_TRUE(server.Start().ok());

  // One packed block per owning loop, found via the public hash.
  std::vector<uint64_t> blocks(kLoops, 0);
  size_t found = 0;
  for (uint64_t b = 1; found < kLoops; ++b) {
    const size_t owner = TcpServer::OwnerLoop(b, kLoops);
    if (blocks[owner] == 0) {
      blocks[owner] = b;
      ++found;
    }
  }

  auto conn = TcpConnection::Connect("127.0.0.1", server.port(), {});
  ASSERT_TRUE(conn.ok());
  for (int round = 0; round < 8; ++round) {
    for (uint64_t block : blocks) {
      const std::string key = "k" + std::to_string(round);
      const uint64_t tag = (*conn)->BeginTag();
      std::string frame;
      EncodeKeysRequest(WireOp::kMultiGet, tag, block, {key}, &frame);
      WireReply reply = (*conn)->Call(std::move(frame), tag);
      ASSERT_TRUE(reply.transport.ok());
      ASSERT_EQ(reply.values.size(), 1u);
      EXPECT_EQ(reply.values[0], "echo:" + key);
    }
  }

  std::set<std::thread::id> distinct;
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(executors.size(), kLoops);
    for (const auto& [block, threads] : executors) {
      EXPECT_EQ(threads.size(), 1u)
          << "block " << block << " executed on multiple loops";
      distinct.insert(*threads.begin());
    }
    EXPECT_EQ(non_affine, 0);
  }
  // Four blocks owned by four different loops must run on four threads, and
  // the three not owned by the connection's home loop were forwarded.
  EXPECT_EQ(distinct.size(), kLoops);
  EXPECT_GT(server.frames_forwarded(), 0u);
  server.Stop();
}

class WireAffinityTest : public WireGatewayTest {
 protected:
  WireAffinityTest() {
    gateway_->Stop();
    WireGateway::Options gopts;
    gopts.threads = 4;
    gopts.affinity = true;
    gateway_ = std::make_unique<WireGateway>(cluster_.get(), gopts);
    EXPECT_TRUE(gateway_->Start().ok());
  }

  uint64_t SumOverBlocks(const WireMap& map,
                         uint64_t (Block::*counter)() const) {
    uint64_t total = 0;
    std::set<uint64_t> seen;
    for (const WireRange& r : map.ranges) {
      if (!seen.insert(r.block).second) {
        continue;
      }
      Block* block = cluster_->ResolveBlock(BlockId::FromPacked(r.block));
      if (block != nullptr) {
        total += (block->*counter)();
      }
    }
    return total;
  }
};

// Batched put/get/delete parity under affinity: results identical to shared
// mode, frames for non-home blocks forwarded, and repeat touches engage the
// lock-free single-writer path (biased_ops advances).
TEST_F(WireAffinityTest, BatchedOpsForwardAndRunSingleWriter) {
  WireKvClient wire = WireClient();
  std::vector<std::string> keys, values;
  for (int i = 0; i < 64; ++i) {
    keys.push_back("aff-" + std::to_string(i));
    values.push_back("value-" + std::to_string(i * 7));
  }
  std::vector<std::pair<std::string_view, std::string_view>> pairs;
  std::vector<std::string_view> key_views;
  for (int i = 0; i < 64; ++i) {
    pairs.emplace_back(keys[i], values[i]);
    key_views.emplace_back(keys[i]);
  }
  // Two rounds: the first grants each touched block's bias to its owning
  // loop (inside the shared fallback), the second runs on the granted bias.
  for (int round = 0; round < 2; ++round) {
    for (const Status& st : wire.MultiPut(pairs)) {
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    WireValues got = wire.MultiGet(key_views);
    ASSERT_EQ(got.size(), 64u);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(got[i].ok()) << "item " << i;
      EXPECT_EQ(*got[i], values[i]);
    }
  }
  std::vector<Status> deleted = wire.MultiDelete(key_views);
  for (const Status& st : deleted) {
    EXPECT_TRUE(st.ok());
  }
  EXPECT_EQ(wire.Get(keys[0]).status().code(), StatusCode::kNotFound);

  EXPECT_GT(gateway_->server()->frames_forwarded(), 0u);
  EXPECT_GT(SumOverBlocks(wire.map(), &Block::biased_ops), 0u);
}

// The zero-copy acceptance bar holds on the affine path too: single-writer
// execution still serves MultiGet straight out of pinned arena memory.
TEST_F(WireAffinityTest, MultiGetStaysZeroCopyUnderAffinity) {
  std::vector<std::string> keys, values;
  std::vector<std::pair<std::string_view, std::string_view>> pairs;
  for (int i = 0; i < 32; ++i) {
    keys.push_back("affzc-" + std::to_string(i));
    values.push_back(std::string(256, static_cast<char>('a' + i % 26)));
  }
  for (int i = 0; i < 32; ++i) {
    pairs.emplace_back(keys[i], values[i]);
  }
  WireKvClient wire = WireClient();
  for (const Status& st : wire.MultiPut(pairs)) {
    ASSERT_TRUE(st.ok());
  }
  std::vector<std::string_view> key_views(keys.begin(), keys.end());
  // Two rounds so the second MultiGet definitely runs on the biased fast
  // path — both must stay at zero payload copies.
  const uint64_t copied_before = CopyMeter::Total();
  for (int round = 0; round < 2; ++round) {
    WireValues got = wire.MultiGet(key_views);
    for (size_t i = 0; i < key_views.size(); ++i) {
      ASSERT_TRUE(got[i].ok());
      EXPECT_EQ(*got[i], values[i]);
    }
  }
  EXPECT_EQ(CopyMeter::Total() - copied_before, 0u)
      << "affine MultiGet serialization must not materialize values";
}

// In-process clients keep working while wire loops hold biases: each OpLock
// revokes the bias (Dekker handshake), then the next affine op re-grants it.
// Data stays coherent across both paths and revocations are observed.
TEST_F(WireAffinityTest, InProcessAccessRevokesAndRegrantsBias) {
  WireKvClient wire = WireClient();
  for (int i = 0; i < 32; ++i) {
    const std::string key = "mix-" + std::to_string(i);
    // Wire put (grants/uses bias) → in-process read (revokes) → in-process
    // put (shared mode) → wire read (re-grants).
    ASSERT_TRUE(wire.Put(key, "from-wire").ok());
    auto in_proc = kv_->Get(key);
    ASSERT_TRUE(in_proc.ok());
    EXPECT_EQ(*in_proc, "from-wire");
    ASSERT_TRUE(kv_->Put(key, "from-inproc").ok());
    auto over_wire = wire.Get(key);
    ASSERT_TRUE(over_wire.ok());
    EXPECT_EQ(*over_wire, "from-inproc");
  }
  EXPECT_GT(SumOverBlocks(wire.map(), &Block::biased_ops), 0u);
  EXPECT_GT(SumOverBlocks(wire.map(), &Block::bias_revokes), 0u);
}

// --- Affinity under repartition churn ----------------------------------------

// Satellite 3: wire writers drive chunked splits while the affinity server
// executes single-writer; stale routes refresh and re-route, and the final
// state is exactly-once. Suite name contains "Wire" for the TSan CI job.
TEST(WireAffinityChurnTest, SplitsUnderWireWritersKeepExactlyOnce) {
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

  WireGateway::Options gopts;
  gopts.threads = 4;
  gopts.affinity = true;
  WireGateway gateway(cluster.get(), gopts);
  ASSERT_TRUE(gateway.Start().ok());

  constexpr int kWriters = 4;
  constexpr int kKeysPerWriter = 250;
  constexpr int kBatch = 25;
  auto key_of = [](int w, int i) {
    return "w" + std::to_string(w) + "-" + std::to_string(i);
  };
  auto value_of = [](int w, int i) {
    return "v" + std::to_string(w) + ":" + std::to_string(i) +
           std::string(48, 'd');
  };
  // ~60 KiB of pairs into 4 KiB blocks with 512-byte migration chunks: the
  // repartitioner splits blocks — moving them to NEW BlockIds owned by
  // different loops — while these writers' batches are in flight.
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto kv = client.OpenKv("/job/kv");
      ASSERT_TRUE(kv.ok());
      WireKvClient::Options wopts;
      wopts.map_refresher = [&gateway,
                             kvp = kv->get()]() -> Result<WireMap> {
        JIFFY_RETURN_IF_ERROR(kvp->RefreshMap());
        return gateway.MapFor(kvp->CachedMap());
      };
      WireKvClient wire(gateway.MapFor((*kv)->CachedMap()), std::move(wopts));
      std::vector<std::string> keys(kBatch), values(kBatch);
      for (int base = 0; base < kKeysPerWriter; base += kBatch) {
        std::vector<std::pair<std::string_view, std::string_view>> pairs;
        for (int j = 0; j < kBatch; ++j) {
          keys[j] = key_of(w, base + j);
          values[j] = value_of(w, base + j);
          pairs.emplace_back(keys[j], values[j]);
        }
        const std::vector<Status> statuses = wire.MultiPut(pairs);
        ASSERT_EQ(statuses.size(), pairs.size());
        for (size_t j = 0; j < statuses.size(); ++j) {
          ASSERT_TRUE(statuses[j].ok())
              << keys[j] << ": " << statuses[j].ToString();
        }
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  ASSERT_NE(cluster->repartitioner(), nullptr);
  cluster->repartitioner()->WaitIdle();
  EXPECT_GT(cluster->repartitioner()->splits(), 0u);
  EXPECT_GT(gateway.server()->frames_forwarded(), 0u);

  // Exactly-once: no pair lost (per-key read-back) and none duplicated
  // (CountPairs over the post-split map is exact).
  auto kv = client.OpenKv("/job/kv");
  ASSERT_TRUE(kv.ok());
  ASSERT_TRUE((*kv)->RefreshMap().ok());
  EXPECT_GT((*kv)->CachedMap().entries.size(), 1u);
  EXPECT_EQ(*(*kv)->CountPairs(),
            static_cast<size_t>(kWriters) * kKeysPerWriter);

  // Read everything back OVER THE WIRE through the post-churn map.
  WireKvClient::Options ropts;
  ropts.map_refresher = [&gateway, kvp = kv->get()]() -> Result<WireMap> {
    JIFFY_RETURN_IF_ERROR(kvp->RefreshMap());
    return gateway.MapFor(kvp->CachedMap());
  };
  WireKvClient reader(gateway.MapFor((*kv)->CachedMap()), std::move(ropts));
  for (int w = 0; w < kWriters; ++w) {
    std::vector<std::string> keys;
    std::vector<std::string_view> views;
    for (int i = 0; i < kKeysPerWriter; ++i) {
      keys.push_back(key_of(w, i));
    }
    for (const std::string& k : keys) {
      views.emplace_back(k);
    }
    WireValues got = reader.MultiGet(views);
    ASSERT_EQ(got.size(), keys.size());
    for (int i = 0; i < kKeysPerWriter; ++i) {
      ASSERT_TRUE(got[i].ok()) << keys[i] << ": " << got[i].status();
      EXPECT_EQ(*got[i], value_of(w, i)) << keys[i];
    }
  }

  // Phase 2: in-process thinning (deletes raise underload pressure, driving
  // merges that move slot ranges to surviving blocks — i.e. to DIFFERENT
  // owning loops) while a wire reader keeps hitting survivor keys. Stale
  // routes must refresh and re-route mid-migration.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> wire_reads{0};
  std::thread wire_reader([&] {
    auto rkv = client.OpenKv("/job/kv");
    ASSERT_TRUE(rkv.ok());
    WireKvClient::Options o2;
    o2.map_refresher = [&gateway, kvp = rkv->get()]() -> Result<WireMap> {
      JIFFY_RETURN_IF_ERROR(kvp->RefreshMap());
      return gateway.MapFor(kvp->CachedMap());
    };
    ASSERT_TRUE((*rkv)->RefreshMap().ok());
    WireKvClient r2(gateway.MapFor((*rkv)->CachedMap()), std::move(o2));
    for (uint64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
      const int w = static_cast<int>(i % kWriters);
      const int k =
          static_cast<int>((i * 10) % kKeysPerWriter) / 10 * 10;  // Survivor.
      auto got = r2.Get(key_of(w, k));
      ASSERT_TRUE(got.ok()) << key_of(w, k) << ": " << got.status();
      ASSERT_EQ(*got, value_of(w, k));
      wire_reads.fetch_add(1);
    }
  });
  // Start deleting only once the reader is live, so its reads overlap the
  // merges instead of racing the thread's start-up. Bounded: a reader that
  // fails before its first read reports through its own assertion.
  const TimeNs reader_live_by = RealClock::Instance()->Now() + 30 * kSecond;
  while (wire_reads.load() == 0 &&
         RealClock::Instance()->Now() < reader_live_by) {
    std::this_thread::yield();
  }
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kKeysPerWriter; ++i) {
      if (i % 10 == 0) {
        continue;  // Survivors the wire reader is verifying.
      }
      ASSERT_TRUE((*kv)->Delete(key_of(w, i)).ok()) << key_of(w, i);
    }
  }
  cluster->repartitioner()->WaitIdle();
  stop.store(true, std::memory_order_release);
  wire_reader.join();
  EXPECT_GT(wire_reads.load(), 0u);

  const size_t survivors =
      static_cast<size_t>(kWriters) * ((kKeysPerWriter + 9) / 10);
  ASSERT_TRUE((*kv)->RefreshMap().ok());
  EXPECT_EQ(*(*kv)->CountPairs(), survivors);
  gateway.Stop();
}

// --- Client-side adaptive coalescing -----------------------------------------

// With the threshold at 1 every submission rides the buffered path; frames
// batch into strictly fewer (or equal) writes and every reply still matches
// its tag.
TEST(WireCoalescing, BusyPipeBatchesFramesIntoFewerWrites) {
  TcpServer::Options sopts;
  sopts.threads = 2;
  TcpServer server(EchoHandler, sopts);
  ASSERT_TRUE(server.Start().ok());

  TcpConnection::Options copts;
  copts.max_in_flight = 64;
  copts.coalesce_min_inflight = 1;  // Always considered busy.
  copts.coalesce_window_us = 200;
  auto conn = TcpConnection::Connect("127.0.0.1", server.port(), copts);
  ASSERT_TRUE(conn.ok());

  constexpr int kRpcs = 128;
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  int mismatches = 0;
  for (int i = 0; i < kRpcs; ++i) {
    const std::string key = "co-" + std::to_string(i);
    const uint64_t tag = (*conn)->BeginTag();
    std::string frame;
    EncodeKeysRequest(WireOp::kMultiGet, tag, 1, {key}, &frame);
    (*conn)->Submit(std::move(frame), tag,
                    [&, expect = "echo:" + key](WireReply reply) {
                      std::lock_guard<std::mutex> lock(mu);
                      if (!reply.transport.ok() || reply.values.size() != 1 ||
                          reply.values[0] != expect) {
                        ++mismatches;
                      }
                      ++done;
                      cv.notify_all();
                    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return done == kRpcs; }));
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ((*conn)->coalesced_frames(), static_cast<uint64_t>(kRpcs));
  EXPECT_GE((*conn)->coalesced_flushes(), 1u);
  EXPECT_LE((*conn)->coalesced_flushes(), (*conn)->coalesced_frames());
  server.Stop();
}

// Below the in-flight threshold the adaptive path never buffers: sequential
// round trips write immediately, exactly the PR-8 latency behavior.
TEST(WireCoalescing, IdlePipeWritesImmediately) {
  TcpServer::Options sopts;
  TcpServer server(EchoHandler, sopts);
  ASSERT_TRUE(server.Start().ok());

  TcpConnection::Options copts;
  copts.coalesce_min_inflight = 64;  // Sequential calls never reach this.
  auto conn = TcpConnection::Connect("127.0.0.1", server.port(), copts);
  ASSERT_TRUE(conn.ok());
  for (int i = 0; i < 8; ++i) {
    const std::string key = "seq-" + std::to_string(i);
    const uint64_t tag = (*conn)->BeginTag();
    std::string frame;
    EncodeKeysRequest(WireOp::kMultiGet, tag, 1, {key}, &frame);
    WireReply reply = (*conn)->Call(std::move(frame), tag);
    ASSERT_TRUE(reply.transport.ok());
    ASSERT_EQ(reply.values.size(), 1u);
    EXPECT_EQ(reply.values[0], "echo:" + key);
  }
  EXPECT_EQ((*conn)->coalesced_frames(), 0u);
  server.Stop();
}

// --- Pipeline over the completion window -------------------------------------

TEST(WirePipeline, PropagatesPerItemStatusesFromOutOfOrderCompletions) {
  Pipeline pipeline(8);
  std::vector<uint64_t> fail_tags;
  // Mixed durations force completions out of submission order; failures sit
  // at submissions 3, 7, 11.
  for (int i = 0; i < 16; ++i) {
    const bool fail = i % 4 == 3;
    const int sleep_us = (16 - i) * 500;  // Later submissions finish first.
    const uint64_t tag = pipeline.Submit([fail, sleep_us, i]() -> Status {
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
      if (fail) {
        return Unavailable("op " + std::to_string(i) + " failed");
      }
      return Status::Ok();
    });
    if (fail) {
      fail_tags.push_back(tag);
    }
  }
  const Status first = pipeline.Flush();
  EXPECT_EQ(first.code(), StatusCode::kUnavailable);
  // Flush reports the EARLIEST failed submission, not the first to finish
  // (reverse sleeps make late failures land first).
  EXPECT_NE(first.message().find("op 3"), std::string::npos)
      << first.ToString();
  EXPECT_GE(pipeline.max_in_flight(), 4u);
}

TEST(WirePipeline, TakeErrorsListsEveryFailureInSubmissionOrder) {
  Pipeline pipeline(4);
  std::vector<uint64_t> fail_tags;
  for (int i = 0; i < 12; ++i) {
    const bool fail = i % 3 == 1;
    const uint64_t tag = pipeline.Submit([fail, i]() -> Status {
      // Reverse-ish sleeps scramble completion order.
      std::this_thread::sleep_for(std::chrono::microseconds((12 - i) * 200));
      return fail ? Timeout("op " + std::to_string(i)) : Status::Ok();
    });
    if (fail) {
      fail_tags.push_back(tag);
    }
  }
  ASSERT_EQ(pipeline.Flush().code(), StatusCode::kTimeout);

  // Per-item resolution after the drain: every failure, submission order.
  std::vector<TaggedStatus> errors = pipeline.TakeErrors();
  ASSERT_EQ(errors.size(), fail_tags.size());
  for (size_t i = 0; i < errors.size(); ++i) {
    EXPECT_EQ(errors[i].tag, fail_tags[i]);
    EXPECT_EQ(errors[i].status.code(), StatusCode::kTimeout);
  }

  // TakeErrors consumed the set: a fresh epoch reports clean.
  EXPECT_TRUE(pipeline.Submit([] { return Status::Ok(); }) > 0);
  EXPECT_TRUE(pipeline.Flush().ok());
  EXPECT_TRUE(pipeline.TakeErrors().empty());
}

}  // namespace
}  // namespace jiffy

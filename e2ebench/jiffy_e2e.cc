// End-to-end benchmark with a per-layer breakdown.
//
//   jiffy_e2e --workload <kv-wire|elastic|job-churn> --seed N --seconds S
//             --trace <0|1>
//
// Each workload builds a cluster through the public API, preloads and warms
// it (reported as setup_s), then runs a closed loop for S seconds. Nothing is
// modeled: the cluster transports use Transport::Mode::kZero with
// NetworkModel::Loopback(), which charge no time, and kv-wire crosses the
// host loopback interface. The phase is cut into windows of at least
// kWindowOps ops (whole batches, elastic cycles or job-churn rounds);
// throughput, latency percentiles and CPU per op are each the better quartile
// over the windows (see Reduce), so seconds-long bursts of host noise move
// them little.
//
// Every output is checked against the benchmark's own record (see
// README.md). The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics. With --trace 1 the
// phase is split into an untraced half and a traced half (JIFFY_TRACE spans
// on), both halves' end-to-end metrics are printed as text, and the JSON
// carries the per-layer metrics, timed from this file around calls into each
// layer's public functions. The exit code is non-zero when a check failed.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/block/arena.h"
#include "src/block/block.h"
#include "src/client/jiffy_client.h"
#include "src/common/hash.h"
#include "src/cluster/cluster.h"
#include "src/ds/kv_content.h"
#include "src/net/frame.h"
#include "src/net/tcp_client.h"
#include "src/obs/trace.h"
#include "src/wire/block_service.h"
#include "src/wire/gateway.h"
#include "src/wire/wire_kv_client.h"

using namespace jiffy;

namespace {

struct Args {
  std::string workload;
  std::string trace_file;  // Chrome trace of the traced half; "" = none.
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// --- Clocks and process counters ---------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Taken during static initialization: setup_s counts from process start.
const int64_t g_process_start_ns = NowNs();

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double MedianI(const std::vector<int64_t>& v) {
  return Median(std::vector<double>(v.begin(), v.end()));
}

// Nearest-rank percentile of an ascending-sorted vector.
int64_t Percentile(const std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

uint64_t Uniform(std::mt19937_64& rng, uint64_t bound) {
  return std::uniform_int_distribution<uint64_t>(0, bound - 1)(rng);
}

// --- Per-op samples and windows ----------------------------------------------

// Ops per measurement window. Nearest-rank p99 leaves floor(1 % of n) samples
// above it, so every window's p99 has at least 200 samples beyond.
constexpr size_t kWindowOps = 20000;

struct Sample {
  uint32_t lat_ns;  // Clamped to ~4.3 s.
  uint8_t type;
};

// A closed window's throughput, latency percentiles and CPU per op.
struct WindowStat {
  double ops_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  double cpu_us_per_op = 0;
  uint64_t ops = 0;
  uint64_t beyond_p99 = 0;  // Samples above the p99 value.
};

// Op record of a timed phase, cut into windows of at least kWindowOps ops at
// the ends of whole batches, cycles or rounds. A window's wall and CPU time
// are summed over the stretches between Resume() and Pause(), so work between
// them (job-churn's cluster rebuild) is not in it. Samples are kept only until
// their window closes, so the benchmark's own memory does not grow with
// throughput (it would show in peak_rss_mib); the traced half keeps them all
// for per-type medians.
struct OpLog {
  std::vector<Sample> samples;  // Ops of the open window.
  std::vector<WindowStat> windows;
  std::vector<Sample> kept;
  bool keep = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int64_t wall_ns = 0;  // Open window's time so far.
  double cpu_s = 0;
  int64_t resumed_ns = 0;
  double resumed_cpu = 0;

  void Add(int64_t start, int64_t end, uint8_t type, bool ok) {
    samples.push_back(Sample{
        static_cast<uint32_t>(std::min<int64_t>(end - start, UINT32_MAX)),
        type});
    ++attempted;
    failed += ok ? 0 : 1;
  }
  // Adds another log's open samples and counts (per-thread logs).
  void Merge(const OpLog& o) {
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    attempted += o.attempted;
    failed += o.failed;
  }
  bool full() const { return samples.size() >= kWindowOps; }
  void Resume() {
    resumed_ns = NowNs();
    resumed_cpu = CpuSeconds();
  }
  void Pause() {
    wall_ns += NowNs() - resumed_ns;
    cpu_s += CpuSeconds() - resumed_cpu;
  }
  // Paused, between whole units of work: closes the open window once full.
  void CloseIfFull() {
    if (!full()) {
      return;
    }
    std::vector<int64_t> lat;
    lat.reserve(samples.size());
    for (const Sample& s : samples) {
      lat.push_back(s.lat_ns);
    }
    std::sort(lat.begin(), lat.end());
    WindowStat st;
    st.ops = lat.size();
    st.ops_per_s = static_cast<double>(lat.size()) /
                   (static_cast<double>(wall_ns) * 1e-9);
    st.p50_us = static_cast<double>(Percentile(lat, 0.50)) * 1e-3;
    const int64_t q99 = Percentile(lat, 0.99);
    st.p99_us = static_cast<double>(q99) * 1e-3;
    st.cpu_us_per_op = cpu_s * 1e6 / static_cast<double>(lat.size());
    st.beyond_p99 = static_cast<uint64_t>(
        lat.end() - std::upper_bound(lat.begin(), lat.end(), q99));
    windows.push_back(st);
    DropOpen();
  }
  // Discards the open window (the partial last one of a phase).
  void DropOpen() {
    if (keep) {
      kept.insert(kept.end(), samples.begin(), samples.end());
    }
    samples.clear();
    wall_ns = 0;
    cpu_s = 0;
  }
};

struct E2e {
  // Better-quartile window values (the reported metrics).
  double ops_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  double cpu_us_per_op = 0;
  // Window medians, printed beside them.
  double med_ops_per_s = 0;
  double med_p50_us = 0;
  double med_p99_us = 0;
  double med_cpu_us_per_op = 0;
  size_t windows = 0;
  uint64_t window_ops = 0;
  uint64_t min_beyond_p99 = 0;  // Fewest samples above p99 in one window.
};

// Reduces the per-window throughput, p50, p99 and CPU per op to their
// better quartile over the windows: the 75th percentile of throughput, the
// 25th of latency and CPU. A shared host adds bursts of ms-scale wakeup
// delay lasting seconds; the better quartile measures the program in the
// run's quieter quarter, while a change in the program moves every window.
E2e Reduce(const OpLog& log) {
  E2e out;
  std::vector<double> rate, p50, p99, cpu;
  out.min_beyond_p99 = log.windows.empty() ? 0 : UINT64_MAX;
  for (const WindowStat& w : log.windows) {
    rate.push_back(w.ops_per_s);
    p50.push_back(w.p50_us);
    p99.push_back(w.p99_us);
    cpu.push_back(w.cpu_us_per_op);
    out.window_ops += w.ops;
    out.min_beyond_p99 = std::min(out.min_beyond_p99, w.beyond_p99);
  }
  out.windows = log.windows.size();
  out.ops_per_s = Quantile(rate, 0.75);
  out.p50_us = Quantile(p50, 0.25);
  out.p99_us = Quantile(p99, 0.25);
  out.cpu_us_per_op = Quantile(cpu, 0.25);
  out.med_ops_per_s = Median(rate);
  out.med_p50_us = Median(p50);
  out.med_p99_us = Median(p99);
  out.med_cpu_us_per_op = Median(cpu);
  return out;
}

// Median latency of one op type, in ns.
double TypeMedianNs(const std::vector<Sample>& samples, uint8_t type) {
  std::vector<int64_t> lat;
  for (const Sample& s : samples) {
    if (s.type == type) {
      lat.push_back(s.lat_ns);
    }
  }
  return MedianI(lat);
}

// --- Output checks -----------------------------------------------------------

class Checks {
 public:
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (++failures_ <= 20) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  void Expect(bool cond, const std::string& what) {
    if (!cond) {
      Fail(what);
    }
  }
  bool ok() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_ == 0;
  }

 private:
  mutable std::mutex mu_;
  uint64_t failures_ = 0;
};

// --- Result printing ---------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintE2e(const char* label, const E2e& e) {
  std::printf(
      "%-9s ops_per_s=%.1f op_p50_us=%.2f op_p99_us=%.2f cpu_us_per_op=%.3f"
      " (window medians %.1f %.2f %.2f %.3f; windows=%zu ops=%llu"
      " min_samples_beyond_p99=%llu)\n",
      label, e.ops_per_s, e.p50_us, e.p99_us, e.cpu_us_per_op,
      e.med_ops_per_s, e.med_p50_us, e.med_p99_us, e.med_cpu_us_per_op,
      e.windows, static_cast<unsigned long long>(e.window_ops),
      static_cast<unsigned long long>(e.min_beyond_p99));
}

void PrintOverhead(const E2e& off, const E2e& on) {
  auto pct = [](double a, double b) { return a == 0 ? 0.0 : (b - a) / a * 100; };
  std::printf(
      "tracing overhead (traced vs untraced half): ops_per_s %+.1f%%, "
      "op_p50_us %+.1f%%, op_p99_us %+.1f%%, cpu_us_per_op %+.1f%%\n",
      pct(off.ops_per_s, on.ops_per_s), pct(off.p50_us, on.p50_us),
      pct(off.p99_us, on.p99_us), pct(off.cpu_us_per_op, on.cpu_us_per_op));
}

std::vector<Metric> E2eMetrics(double setup_s, const E2e& e,
                               double alloc_per_live_byte) {
  return {
      {"setup_s", setup_s, "s"},
      {"ops_per_s", e.ops_per_s, "op/s"},
      {"op_p50_us", e.p50_us, "us"},
      {"op_p99_us", e.p99_us, "us"},
      {"cpu_us_per_op", e.cpu_us_per_op, "us/op"},
      {"peak_rss_mib", PeakRssMiB(), "MiB"},
      {"alloc_per_live_byte", alloc_per_live_byte, "B/B"},
  };
}

// Prints the metrics as text lines, then the final JSON line. No op may fail
// on any workload, so a failed op fails the run like a failed check.
int Finish(Checks* checks, const OpLog& counts,
           const std::vector<Metric>& metrics) {
  checks->Expect(counts.failed == 0,
                 std::to_string(counts.failed) + " of " +
                     std::to_string(counts.attempted) + " ops failed");
  for (const Metric& m : metrics) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += checks->ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(counts.attempted);
  json += ", \"failed\": " + std::to_string(counts.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return checks->ok() ? 0 : 1;
}

double SecondsSince(int64_t t0) {
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

void SetTracing(bool on) { obs::Tracer::Global()->SetEnabled(on); }

// Writes the spans the traced half recorded (the last ones per thread).
void DumpTrace(const Args& args) {
  if (!args.trace_file.empty() &&
      obs::Tracer::Global()->WriteChromeJson(args.trace_file)) {
    std::printf("trace: %zu spans in %s\n",
                obs::Tracer::Global()->EventCount(), args.trace_file.c_str());
  }
}

// One workload's timed phase. `run(seconds, log, alloc)` runs whole batches,
// cycles or rounds for `seconds` into `log` and appends alloc_per_live_byte
// at each of the workload's peaks to `alloc`. `before_traced` runs between
// the halves of a traced run. `layers(traced)` returns the per-layer metrics
// the workload measures; run.py adds the other layers of BENCHMARK.json as 0.
struct Workload {
  std::function<void(double, OpLog*, std::vector<double>*)> run;
  std::function<void()> before_traced = [] {};
  std::function<std::vector<Metric>(const OpLog& traced)> layers;
};

// Runs the timed phase and returns the metrics of the JSON line. With
// --trace 0 they are the end-to-end metrics. With --trace 1 the phase is an
// untraced and a traced half: both halves' end-to-end metrics and the tracing
// overhead are printed as text and the per-layer metrics are returned.
// `counts` receives the attempted and failed ops of the whole phase. A phase
// too short to fill one window fails a check.
std::vector<Metric> Measure(const Args& args, double setup_s, const Workload& w,
                            Checks* checks, OpLog* counts) {
  auto expect_windows = [&](const OpLog& log) {
    checks->Expect(!log.windows.empty(),
                   "the timed phase filled no window of " +
                       std::to_string(kWindowOps) + " ops; run it longer");
  };
  SetTracing(false);
  OpLog off_log;
  std::vector<double> off_alloc;
  if (!args.trace) {
    w.run(args.seconds, &off_log, &off_alloc);
    expect_windows(off_log);
    const E2e e = Reduce(off_log);
    PrintE2e("untraced", e);
    counts->Merge(off_log);
    return E2eMetrics(setup_s, e, Median(off_alloc));
  }
  w.run(args.seconds / 2, &off_log, &off_alloc);
  OpLog on_log;
  on_log.keep = true;
  std::vector<double> on_alloc;
  w.before_traced();
  SetTracing(true);
  w.run(args.seconds / 2, &on_log, &on_alloc);
  SetTracing(false);
  DumpTrace(args);
  expect_windows(off_log);
  expect_windows(on_log);
  const E2e off = Reduce(off_log);
  const E2e on = Reduce(on_log);
  PrintE2e("untraced", off);
  PrintE2e("traced", on);
  PrintOverhead(off, on);
  for (const Metric& m : E2eMetrics(setup_s, on, Median(on_alloc))) {
    std::printf("traced e2e %-22s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  counts->Merge(off_log);
  counts->Merge(on_log);
  return w.layers(on_log);
}

// Blocks flagged allocated() across every memory server.
uint32_t ScanAllocatedBlocks(JiffyCluster* cluster) {
  uint32_t n = 0;
  for (uint32_t s = 0; s < cluster->num_memory_servers(); ++s) {
    MemoryServer* server = cluster->memory_server(s);
    for (uint32_t b = 0; b < server->num_blocks(); ++b) {
      n += server->block(b)->allocated() ? 1 : 0;
    }
  }
  return n;
}

JiffyCluster::Options BaseOptions() {
  JiffyCluster::Options opts;
  opts.net_mode = Transport::Mode::kZero;
  opts.net_model = NetworkModel::Loopback();
  opts.config.lease_duration = 3600 * kSecond;
  opts.config.num_memory_servers = 4;
  return opts;
}

// =============================================================================
// kv-wire: closed-loop batched KV over loopback TCP.
// =============================================================================

namespace kvwire {

constexpr size_t kKeys = 100000;
constexpr size_t kValueBytes = 100;
constexpr size_t kBatch = 16;
constexpr int kPutPercent = 10;
constexpr double kZipfS = 0.99;
constexpr int64_t kWindowNs = kSecond / 2;
constexpr int kWarmBatches = 4000;
constexpr uint8_t kGet = 0;
constexpr uint8_t kPut = 1;

std::string Key(size_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "w%07zu", i);
  return buf;
}

// 100-byte value naming its key and version, so a stale or misrouted read
// cannot match.
void FillValue(size_t key, uint32_t version, std::string* out) {
  out->resize(kValueBytes);
  const int n = std::snprintf(out->data(), kValueBytes, "%07zu.%08x|", key,
                              version);
  for (size_t j = static_cast<size_t>(n); j < kValueBytes; ++j) {
    (*out)[j] = static_cast<char>('a' + (key * 7 + version * 13 + j) % 26);
  }
}

class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) {
      c /= sum;
    }
  }
  size_t Next(std::mt19937_64& rng) const {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end() - 1, u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct Batch {
  bool put = false;
  std::vector<size_t> keys;
};

// Seeded batch source: Zipf ranks map to keys through a fixed permutation,
// so the hot keys are the same for every seed and only the sequence varies.
class Generator {
 public:
  Generator(uint64_t seed, const Zipf* zipf, const std::vector<size_t>* perm)
      : rng_(seed), zipf_(zipf), perm_(perm) {}
  Batch Next() {
    Batch b;
    b.put = static_cast<int>(Uniform(rng_, 100)) < kPutPercent;
    while (b.keys.size() < kBatch) {
      const size_t k = (*perm_)[zipf_->Next(rng_)];
      // A put batch names each key once, so "last write" is unambiguous.
      if (b.put && std::find(b.keys.begin(), b.keys.end(), k) != b.keys.end()) {
        continue;
      }
      b.keys.push_back(k);
    }
    return b;
  }

 private:
  std::mt19937_64 rng_;
  const Zipf* zipf_;
  const std::vector<size_t>* perm_;
};

struct Bench {
  std::unique_ptr<JiffyCluster> cluster;
  std::unique_ptr<JiffyClient> client;
  std::unique_ptr<KvClient> kv;
  std::unique_ptr<WireGateway> gateway;
  std::unique_ptr<WireKvClient> wire;
  std::vector<std::string> keys;
  std::vector<uint32_t> version;  // Last version written per key.
  std::unique_ptr<Zipf> zipf;
  std::vector<size_t> perm;
};

// Runs one batch over the wire and checks every answer against the record.
bool RunBatch(Bench* b, const Batch& batch, Checks* checks, OpLog* log) {
  std::vector<std::string_view> views;
  views.reserve(batch.keys.size());
  for (size_t k : batch.keys) {
    views.push_back(b->keys[k]);
  }
  bool ok = true;
  if (batch.put) {
    std::vector<std::string> values(batch.keys.size());
    std::vector<std::pair<std::string_view, std::string_view>> pairs;
    pairs.reserve(batch.keys.size());
    for (size_t i = 0; i < batch.keys.size(); ++i) {
      FillValue(batch.keys[i], b->version[batch.keys[i]] + 1, &values[i]);
      pairs.emplace_back(views[i], values[i]);
    }
    const int64_t t0 = NowNs();
    std::vector<Status> st = b->wire->MultiPut(pairs);
    const int64_t t1 = NowNs();
    for (size_t i = 0; i < st.size(); ++i) {
      if (st[i].ok()) {
        ++b->version[batch.keys[i]];
      } else {
        ok = false;
        checks->Fail("kv-wire put of key " + b->keys[batch.keys[i]] + ": " +
                     st[i].ToString());
      }
    }
    log->Add(t0, t1, kPut, ok);
    return ok;
  }
  const int64_t t0 = NowNs();
  WireValues got = b->wire->MultiGet(views);
  const int64_t t1 = NowNs();
  std::string expect;
  for (size_t i = 0; i < batch.keys.size(); ++i) {
    if (!got[i].ok()) {
      ok = false;
      checks->Fail("kv-wire get of key " + b->keys[batch.keys[i]] + ": " +
                   got[i].status().ToString());
      continue;
    }
    FillValue(batch.keys[i], b->version[batch.keys[i]], &expect);
    if (*got[i] != expect) {
      checks->Fail("kv-wire get of key " + b->keys[batch.keys[i]] +
                   " returned a value other than its last write");
    }
  }
  log->Add(t0, t1, kGet, ok);
  return ok;
}

// Closed loop for `seconds`.
void RunPhase(Bench* b, Generator* gen, double seconds, Checks* checks,
              OpLog* log) {
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  log->Resume();
  while (NowNs() < end) {
    RunBatch(b, gen->Next(), checks, log);
    if (log->full()) {
      log->Pause();
      log->CloseIfFull();
      log->Resume();
    }
  }
  log->Pause();
  log->DropOpen();
}

// Final read-back: every key over the wire and in-process must match the
// record, and overwrites must have conserved the pair count.
void FinalChecks(Bench* b, Checks* checks) {
  std::string expect;
  for (size_t lo = 0; lo < kKeys; lo += 256) {
    std::vector<std::string_view> views;
    for (size_t k = lo; k < std::min(kKeys, lo + 256); ++k) {
      views.push_back(b->keys[k]);
    }
    WireValues over_wire = b->wire->MultiGet(views);
    WireValues in_proc = b->kv->MultiGet(views);
    for (size_t i = 0; i < views.size(); ++i) {
      FillValue(lo + i, b->version[lo + i], &expect);
      checks->Expect(over_wire[i].ok() && *over_wire[i] == expect,
                     "kv-wire final wire read of key " + b->keys[lo + i]);
      checks->Expect(in_proc[i].ok() && *in_proc[i] == expect,
                     "kv-wire final in-process read of key " + b->keys[lo + i]);
    }
  }
  auto pairs = b->kv->CountPairs();
  checks->Expect(pairs.ok() && *pairs == kKeys,
                 "kv-wire CountPairs after the run is " +
                     (pairs.ok() ? std::to_string(*pairs) : std::string("error")) +
                     ", expected " + std::to_string(kKeys));
}

// Per-layer replay on a sample of batches from the same generator.
void ReplayLayers(Bench* b, Generator* gen, Checks* checks,
                  std::vector<Metric>* out) {
  constexpr int kSampleBatches = 3000;
  const WireMap& map = b->wire->map();
  const uint32_t slots = b->cluster->config().kv_hash_slots;
  struct Frame {
    WireOp op;
    uint64_t block;
    std::vector<std::string_view> keys;
    std::vector<std::pair<std::string_view, std::string_view>> pairs;
    std::string bytes;
  };
  std::vector<int64_t> encode_ns;
  std::vector<Frame> frames;
  std::vector<std::string> values;  // Current values for replayed puts.
  values.reserve(kSampleBatches * kBatch);
  for (int i = 0; i < kSampleBatches; ++i) {
    const Batch batch = gen->Next();
    for (size_t k : batch.keys) {
      values.emplace_back();
      FillValue(k, b->version[k], &values.back());
    }
    const std::string* vals = &values[values.size() - batch.keys.size()];
    // Timed: routing, per-block grouping and encoding, as WireKvClient does.
    const int64_t t0 = NowNs();
    std::map<size_t, Frame> groups;
    for (size_t j = 0; j < batch.keys.size(); ++j) {
      const std::string& key = b->keys[batch.keys[j]];
      const size_t r = map.Route(KvSlotOf(key, slots));
      Frame& f = groups[r];
      f.block = map.ranges[r].block;
      if (batch.put) {
        f.pairs.emplace_back(key, vals[j]);
      } else {
        f.keys.push_back(key);
      }
    }
    for (auto& [r, f] : groups) {
      f.op = batch.put ? WireOp::kMultiPut : WireOp::kMultiGet;
      if (batch.put) {
        EncodeMultiPutRequest(1, f.block, f.pairs, &f.bytes);
      } else {
        EncodeKeysRequest(WireOp::kMultiGet, 1, f.block, f.keys, &f.bytes);
      }
    }
    encode_ns.push_back(NowNs() - t0);
    for (auto& [r, f] : groups) {
      frames.push_back(std::move(f));
    }
  }
  out->push_back({"client.wire_encode_ns", MedianI(encode_ns), "ns"});

  // Decode, Handle (in-process, no socket) and the shard operator alone.
  WireBlockService service([cluster = b->cluster.get()](uint64_t packed) {
    return cluster->ResolveBlock(BlockId::FromPacked(packed));
  });
  std::vector<int64_t> decode_ns, handle_ns, get_ns, put_ns, rtt_ns;
  for (const Frame& f : frames) {
    const std::string_view body =
        std::string_view(f.bytes).substr(kLenPrefixBytes);
    DecodedRequest req;
    int64_t t0 = NowNs();
    const Status st = DecodeRequest(body, &req);
    decode_ns.push_back(NowNs() - t0);
    checks->Expect(st.ok(), "kv-wire replay: frame failed to decode");
    t0 = NowNs();
    WireResponse resp = service.Handle(req);
    handle_ns.push_back(NowNs() - t0);
    checks->Expect(!resp.head.empty(), "kv-wire replay: empty Handle response");

    Block* block = b->cluster->ResolveBlock(BlockId::FromPacked(f.block));
    if (block == nullptr) {
      checks->Fail("kv-wire replay: block of a routed range is gone");
      continue;
    }
    if (f.op == WireOp::kMultiGet) {
      std::vector<Result<std::string_view>> got;
      t0 = NowNs();
      {
        Block::OpLock lock(*block);
        auto* shard = ContentAs<KvShard>(block->content());
        if (shard != nullptr) {
          shard->MultiGet(f.keys, &got);
        }
      }
      get_ns.push_back(NowNs() - t0);
      checks->Expect(got.size() == f.keys.size(),
                     "kv-wire replay: shard MultiGet answered too few keys");
    } else {
      std::vector<Status> st_put;
      t0 = NowNs();
      {
        Block::OpLock lock(*block);
        auto* shard = ContentAs<KvShard>(block->content());
        if (shard != nullptr) {
          shard->MultiPut(f.pairs, &st_put);
        }
      }
      put_ns.push_back(NowNs() - t0);
      checks->Expect(st_put.size() == f.pairs.size(),
                     "kv-wire replay: shard MultiPut answered too few pairs");
    }
  }
  // One pre-encoded frame per socket round trip.
  auto conn = b->wire->pool()->Get("127.0.0.1", b->gateway->port(), 0);
  if (!conn.ok()) {
    checks->Fail("kv-wire replay: no pooled connection");
  } else {
    for (const Frame& f : frames) {
      const uint64_t tag = (*conn)->BeginTag();
      std::string bytes;
      if (f.op == WireOp::kMultiPut) {
        EncodeMultiPutRequest(tag, f.block, f.pairs, &bytes);
      } else {
        EncodeKeysRequest(f.op, tag, f.block, f.keys, &bytes);
      }
      const int64_t t0 = NowNs();
      WireReply reply = (*conn)->Call(std::move(bytes), tag);
      rtt_ns.push_back(NowNs() - t0);
      checks->Expect(reply.ok(), "kv-wire replay: frame round trip failed");
    }
  }
  const double decode = MedianI(decode_ns);
  const double handle = MedianI(handle_ns);
  const double rtt = MedianI(rtt_ns);
  out->push_back({"net.decode_ns", decode, "ns"});
  out->push_back({"wire.handle_ns", handle, "ns"});
  out->push_back({"ds.kv_multi_get_ns", MedianI(get_ns), "ns"});
  out->push_back({"ds.kv_multi_put_ns", MedianI(put_ns), "ns"});
  out->push_back({"net.frame_rtt_ns", rtt, "ns"});
  out->push_back({"net.other_ns", rtt - decode - handle, "ns"});
  std::printf("replayed %zu frames from %d batches\n", frames.size(),
              kSampleBatches);
}

struct WireCounters {
  double loop_cpu_s = 0;
  uint64_t rpcs = 0, retries = 0, frames = 0, forwarded = 0, fallback = 0;
  uint64_t coalesced = 0, flushes = 0, copied = 0;
};

WireCounters ReadCounters(Bench* b) {
  WireCounters c;
  for (double s : b->gateway->server()->LoopCpuSeconds()) {
    c.loop_cpu_s += s;
  }
  c.rpcs = b->wire->rpcs_sent();
  c.retries = b->wire->retries();
  c.frames = b->gateway->server()->frames_served();
  c.forwarded = b->gateway->server()->frames_forwarded();
  c.fallback = b->gateway->server()->frames_shared_fallback();
  auto conn = b->wire->pool()->Get("127.0.0.1", b->gateway->port(), 0);
  if (conn.ok()) {
    c.coalesced = (*conn)->coalesced_frames();
    c.flushes = (*conn)->coalesced_flushes();
  }
  c.copied = CopyMeter::Total();
  return c;
}

int Run(const Args& args) {
  Checks checks;
  Bench b;
  JiffyCluster::Options opts = BaseOptions();
  opts.config.blocks_per_server = 256;
  opts.config.block_size_bytes = 1 << 20;
  // The preload splits blocks inline, in the preloading client, so every
  // run gets the same 16-block layout. With the background repartitioner the
  // layout depended on its timing: about one run in 25 ended the preload
  // with 15 blocks allocated.
  opts.config.background_repartition = false;
  b.cluster = std::make_unique<JiffyCluster>(opts);
  b.client = std::make_unique<JiffyClient>(b.cluster.get());
  if (!b.client->RegisterJob("bench").ok() ||
      !b.client->CreateAddrPrefix("/bench/kv", {}).ok()) {
    std::fprintf(stderr, "kv-wire: job setup failed\n");
    return 2;
  }
  auto kv = b.client->OpenKv("/bench/kv");
  if (!kv.ok()) {
    std::fprintf(stderr, "kv-wire: OpenKv: %s\n", kv.status().ToString().c_str());
    return 2;
  }
  b.kv = std::move(*kv);

  // Preload in key order, version 0.
  b.keys.reserve(kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    b.keys.push_back(Key(i));
  }
  b.version.assign(kKeys, 0);
  for (size_t lo = 0; lo < kKeys; lo += 1024) {
    std::vector<std::string> values;
    std::vector<std::pair<std::string_view, std::string_view>> pairs;
    const size_t hi = std::min(kKeys, lo + 1024);
    values.resize(hi - lo);
    for (size_t k = lo; k < hi; ++k) {
      FillValue(k, 0, &values[k - lo]);
      pairs.emplace_back(b.keys[k], values[k - lo]);
    }
    for (const Status& st : b.kv->MultiPut(pairs)) {
      if (!st.ok()) {
        std::fprintf(stderr, "kv-wire preload: %s\n", st.ToString().c_str());
        return 2;
      }
    }
  }
  if (!b.kv->RefreshMap().ok()) {
    std::fprintf(stderr, "kv-wire: map refresh failed\n");
    return 2;
  }
  WireGateway::Options gw;
  gw.threads = 2;
  gw.affinity = true;
  b.gateway = std::make_unique<WireGateway>(b.cluster.get(), gw);
  if (!b.gateway->Start().ok()) {
    std::fprintf(stderr, "kv-wire: gateway failed to start\n");
    return 2;
  }
  const PartitionMap pmap = b.kv->CachedMap();
  // A client that meets a split re-fetches the map, as a real one would.
  WireKvClient::Options wire_opts;
  wire_opts.map_refresher = [&b]() -> Result<WireMap> {
    JIFFY_RETURN_IF_ERROR(b.kv->RefreshMap());
    return b.gateway->MapFor(b.kv->CachedMap());
  };
  b.wire = std::make_unique<WireKvClient>(b.gateway->MapFor(pmap),
                                          std::move(wire_opts));
  const double alloc_per_live =
      static_cast<double>(b.cluster->allocator()->allocated_count()) *
      static_cast<double>(opts.config.block_size_bytes) /
      static_cast<double>(kKeys * (b.keys[0].size() + kValueBytes));

  b.zipf = std::make_unique<Zipf>(kKeys, kZipfS);
  b.perm.resize(kKeys);
  std::iota(b.perm.begin(), b.perm.end(), 0);
  std::shuffle(b.perm.begin(), b.perm.end(), std::mt19937_64(0x4a494646));
  Generator gen(args.seed, b.zipf.get(), &b.perm);

  // Warm-up: connections, bias grants, caches.
  {
    OpLog warm;
    for (int i = 0; i < kWarmBatches; ++i) {
      RunBatch(&b, gen.Next(), &checks, &warm);
    }
    checks.Expect(warm.failed == 0, "kv-wire warm-up ops failed");
  }
  const double setup_s = SecondsSince(g_process_start_ns);
  std::printf("kv-wire: %zu keys x %zu B in %zu blocks, batch %zu, %d%% puts, "
              "zipf %.2f, seed %llu\n",
              kKeys, kValueBytes, pmap.entries.size(), kBatch, kPutPercent,
              kZipfS, static_cast<unsigned long long>(args.seed));

  WireCounters c0;
  Workload w;
  w.run = [&](double seconds, OpLog* log, std::vector<double>* alloc) {
    RunPhase(&b, &gen, seconds, &checks, log);
    alloc->push_back(alloc_per_live);
  };
  w.before_traced = [&] { c0 = ReadCounters(&b); };
  w.layers = [&](const OpLog& traced) {
    const WireCounters c1 = ReadCounters(&b);
    const double ops =
        static_cast<double>(std::max<uint64_t>(traced.attempted, 1));
    const double items = ops * kBatch;
    const double flushes = static_cast<double>(c1.flushes - c0.flushes);
    std::vector<Metric> layer = {
        {"net.loop_cpu_us_per_op", (c1.loop_cpu_s - c0.loop_cpu_s) * 1e6 / ops,
         "us/op"},
        {"wire.frames_per_op", static_cast<double>(c1.rpcs - c0.rpcs) / ops,
         "frame/op"},
        {"net.coalesce_factor",
         flushes == 0 ? 0.0
                      : static_cast<double>(c1.coalesced - c0.coalesced) / flushes,
         "frame/flush"},
        {"net.forwarded_per_frame",
         static_cast<double>(c1.forwarded - c0.forwarded) /
             static_cast<double>(std::max<uint64_t>(c1.frames - c0.frames, 1)),
         "ratio"},
        {"net.shared_fallback_frames",
         static_cast<double>(c1.fallback - c0.fallback), "count"},
        {"client.wire_retries", static_cast<double>(c1.retries - c0.retries),
         "count"},
        {"block.copied_bytes_per_item",
         static_cast<double>(c1.copied - c0.copied) / items, "B/item"},
    };
    ReplayLayers(&b, &gen, &checks, &layer);
    return layer;
  };
  OpLog counts;
  const std::vector<Metric> metrics = Measure(args, setup_s, w, &checks, &counts);
  FinalChecks(&b, &checks);
  b.gateway->Stop();
  return Finish(&checks, counts, metrics);
}

}  // namespace kvwire

// =============================================================================
// elastic: a KV and a queue grow from one block to hundreds and back.
// =============================================================================

namespace elastic {

constexpr size_t kKeys = 100000;
constexpr size_t kValueBytes = 100;
constexpr size_t kBatch = 128;        // Keys per KV batch.
constexpr size_t kQueueBatch = 16;    // Items per queue batch.
constexpr size_t kItemBytes = 100;
constexpr uint8_t kMultiPut = 0;
constexpr uint8_t kMultiGet = 1;
constexpr uint8_t kMultiDelete = 2;
constexpr uint8_t kEnqueue = 3;
constexpr uint8_t kDequeue = 4;

std::string Key(size_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "e%07zu", i);
  return buf;
}

// Value of key `k` in cycle `cycle`: a function of (seed, cycle, key).
void FillValue(uint64_t seed, uint64_t cycle, size_t k, std::string* out) {
  out->resize(kValueBytes);
  const int n = std::snprintf(out->data(), kValueBytes, "%07zu.%06llx|", k,
                              static_cast<unsigned long long>(cycle));
  uint64_t x = Mix64(seed ^ (cycle << 32) ^ k);
  for (size_t j = static_cast<size_t>(n); j < kValueBytes; ++j) {
    (*out)[j] = static_cast<char>('a' + (x + j * 11) % 26);
  }
}

// Queue item `seq` of cycle `cycle`.
void FillItem(uint64_t seed, uint64_t cycle, uint64_t seq, std::string* out) {
  out->resize(kItemBytes);
  const int n = std::snprintf(out->data(), kItemBytes, "q%06llx.%08llx|",
                              static_cast<unsigned long long>(cycle),
                              static_cast<unsigned long long>(seq));
  const uint64_t x = Mix64(seed * 31 + seq);
  for (size_t j = static_cast<size_t>(n); j < kItemBytes; ++j) {
    (*out)[j] = static_cast<char>('A' + (x + j * 7) % 26);
  }
}

struct CycleStats {
  int64_t settle_ns = 0;       // Summed WaitIdle time of the cycle's phases.
  uint32_t peak_blocks = 0;    // Allocated blocks after the load phase.
  size_t peak_segments = 0;    // Live queue segments after the load phase.
  double alloc_per_live = 0;   // Block bytes held / live bytes at the peak.
  uint64_t stale_ops = 0;      // Ops that refreshed their partition map.
};

struct Bench {
  uint64_t seed = 0;
  std::unique_ptr<JiffyCluster> cluster;
  std::unique_ptr<JiffyClient> client;
  std::unique_ptr<KvClient> kv;
  std::unique_ptr<QueueClient> queue;
  std::vector<std::string> keys;
  std::vector<std::vector<size_t>> orders;  // Seeded key orders.
  uint64_t cycle = 0;
};

size_t LiveSegments(const PartitionMap& m) {
  return m.entries.size() - std::min<size_t>(m.queue_head, m.entries.size());
}

// Quiescent accounting: blocks flagged allocated on the servers, the
// allocator's count, and the blocks named by the live partition maps must
// be three equal totals.
void CheckAccounting(Bench* b, Checks* checks, const char* when) {
  const uint32_t scanned = ScanAllocatedBlocks(b->cluster.get());
  const uint32_t allocator = b->cluster->allocator()->allocated_count();
  b->kv->RefreshMap();
  b->queue->RefreshMap();
  const PartitionMap kv = b->kv->CachedMap();
  const PartitionMap q = b->queue->CachedMap();
  size_t mapped = 0;
  for (const PartitionEntry& e : kv.entries) {
    mapped += 1 + e.replicas.size();
  }
  for (size_t i = q.queue_head; i < q.entries.size(); ++i) {
    mapped += 1 + q.entries[i].replicas.size();
  }
  checks->Expect(scanned == allocator && allocator == mapped,
                 std::string("elastic ") + when + " of cycle " +
                     std::to_string(b->cycle) + ": " + std::to_string(scanned) +
                     " blocks flagged allocated, allocator holds " +
                     std::to_string(allocator) + ", maps name " +
                     std::to_string(mapped));
}

// One whole cycle: load N keys (queue grows beside it), read them all,
// delete them all (queue drains beside it). Returns false on a failed op.
void RunCycle(Bench* b, Checks* checks, OpLog* log, CycleStats* stats) {
  const uint64_t cycle = b->cycle;
  const std::vector<size_t>& put_order = b->orders[cycle % 3];
  const std::vector<size_t>& get_order = b->orders[(cycle + 1) % 3];
  const std::vector<size_t>& del_order = b->orders[(cycle + 2) % 3];
  Repartitioner* rep = b->cluster->repartitioner();
  uint64_t enq_seq = 0;
  uint64_t deq_seq = 0;
  std::vector<std::string> values(kBatch);
  std::vector<std::string> items(kQueueBatch);
  std::string expect;

  auto timed_kv = [&](uint8_t type, auto&& fn) {
    const uint64_t v0 = b->kv->map_version();
    const int64_t t0 = NowNs();
    const bool ok = fn();
    log->Add(t0, NowNs(), type, ok);
    stats->stale_ops += b->kv->map_version() != v0 ? 1 : 0;
  };
  auto enqueue = [&] {
    std::vector<std::string_view> views;
    for (size_t i = 0; i < kQueueBatch; ++i) {
      FillItem(b->seed, cycle, enq_seq + i, &items[i]);
      views.push_back(items[i]);
    }
    const int64_t t0 = NowNs();
    const Status st = b->queue->EnqueueBatch(views);
    log->Add(t0, NowNs(), kEnqueue, st.ok());
    if (st.ok()) {
      enq_seq += kQueueBatch;
    } else {
      checks->Fail("elastic EnqueueBatch of items " + std::to_string(enq_seq) +
                   ".. of cycle " + std::to_string(cycle) + ": " +
                   st.ToString());
    }
  };
  auto dequeue = [&]() -> size_t {
    const int64_t t0 = NowNs();
    auto got = b->queue->DequeueBatch(kQueueBatch);
    log->Add(t0, NowNs(), kDequeue, got.ok());
    if (!got.ok()) {
      checks->Fail("elastic DequeueBatch at item " + std::to_string(deq_seq) +
                   " of cycle " + std::to_string(cycle) + ": " +
                   got.status().ToString());
      return 0;
    }
    for (const std::string& item : *got) {
      FillItem(b->seed, cycle, deq_seq, &expect);
      checks->Expect(deq_seq < enq_seq && item == expect,
                     "elastic queue item " + std::to_string(deq_seq) +
                         " of cycle " + std::to_string(cycle) +
                         " lost, repeated or out of FIFO order");
      ++deq_seq;
    }
    return got->size();
  };
  // True when every status is ok; names each key whose op failed.
  auto all_ok = [&](const std::vector<Status>& st, const char* op,
                    auto&& key_of) {
    bool ok = true;
    for (size_t i = 0; i < st.size(); ++i) {
      if (!st[i].ok()) {
        ok = false;
        checks->Fail(std::string("elastic ") + op + " of key " + key_of(i) +
                     " in cycle " + std::to_string(cycle) + ": " +
                     st[i].ToString());
      }
    }
    return ok;
  };
  auto settle = [&] {
    const int64_t t0 = NowNs();
    rep->WaitIdle();
    stats->settle_ns += NowNs() - t0;
  };

  // Load: MultiPut every key; the queue grows beside it.
  for (size_t lo = 0; lo < kKeys; lo += kBatch) {
    const size_t hi = std::min(kKeys, lo + kBatch);
    std::vector<std::pair<std::string_view, std::string_view>> pairs;
    for (size_t i = lo; i < hi; ++i) {
      FillValue(b->seed, cycle, put_order[i], &values[i - lo]);
      pairs.emplace_back(b->keys[put_order[i]], values[i - lo]);
    }
    timed_kv(kMultiPut, [&] {
      return all_ok(b->kv->MultiPut(pairs), "MultiPut",
                    [&](size_t i) { return std::string(pairs[i].first); });
    });
    enqueue();
  }
  settle();
  auto count = b->kv->CountPairs();
  checks->Expect(count.ok() && *count == kKeys,
                 "elastic CountPairs after load of cycle " +
                     std::to_string(cycle) + " is not " + std::to_string(kKeys));
  CheckAccounting(b, checks, "peak");
  stats->peak_blocks = b->cluster->allocator()->allocated_count();
  stats->peak_segments = LiveSegments(b->queue->CachedMap());
  const double live = static_cast<double>(kKeys * (b->keys[0].size() + kValueBytes) +
                                          (enq_seq - deq_seq) * kItemBytes);
  stats->alloc_per_live = static_cast<double>(stats->peak_blocks) *
                          static_cast<double>(b->cluster->config().block_size_bytes) /
                          live;

  // Read: MultiGet every key, each value checked against the generator.
  for (size_t lo = 0; lo < kKeys; lo += kBatch) {
    const size_t hi = std::min(kKeys, lo + kBatch);
    std::vector<std::string_view> views;
    for (size_t i = lo; i < hi; ++i) {
      views.push_back(b->keys[get_order[i]]);
    }
    timed_kv(kMultiGet, [&] {
      WireValues got = b->kv->MultiGet(views);
      bool ok = true;
      for (size_t i = lo; i < hi; ++i) {
        if (!got[i - lo].ok()) {
          ok = false;
          checks->Fail("elastic read of key " + b->keys[get_order[i]] +
                       " in cycle " + std::to_string(cycle) + ": " +
                       got[i - lo].status().ToString());
          continue;
        }
        FillValue(b->seed, cycle, get_order[i], &expect);
        checks->Expect(*got[i - lo] == expect,
                       "elastic read of key " + b->keys[get_order[i]] +
                           " in cycle " + std::to_string(cycle) +
                           " differs from the generator");
      }
      return ok;
    });
  }

  // Drain: MultiDelete every key; the queue drains beside it.
  for (size_t lo = 0; lo < kKeys; lo += kBatch) {
    const size_t hi = std::min(kKeys, lo + kBatch);
    std::vector<std::string_view> views;
    for (size_t i = lo; i < hi; ++i) {
      views.push_back(b->keys[del_order[i]]);
    }
    timed_kv(kMultiDelete, [&] {
      return all_ok(b->kv->MultiDelete(views), "MultiDelete",
                    [&](size_t i) { return std::string(views[i]); });
    });
    dequeue();
  }
  while (deq_seq < enq_seq) {
    if (dequeue() == 0) {
      break;
    }
  }
  checks->Expect(deq_seq == enq_seq,
                 "elastic queue of cycle " + std::to_string(cycle) + " gave " +
                     std::to_string(deq_seq) + " of " + std::to_string(enq_seq) +
                     " items");
  settle();
  count = b->kv->CountPairs();
  checks->Expect(count.ok() && *count == 0,
                 "elastic CountPairs after drain of cycle " +
                     std::to_string(cycle) + " is not 0");
  CheckAccounting(b, checks, "drain");
  checks->Expect(b->kv->CachedMap().entries.size() == 1,
                 "elastic KV of cycle " + std::to_string(cycle) +
                     " is not back to one block after the drain");
  checks->Expect(LiveSegments(b->queue->CachedMap()) == 1,
                 "elastic queue of cycle " + std::to_string(cycle) +
                     " is not back to one segment after the drain");
  ++b->cycle;
}

// Whole cycles until `seconds` have passed.
void RunPhase(Bench* b, double seconds, Checks* checks, OpLog* log,
              std::vector<CycleStats>* stats) {
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    CycleStats cs;
    log->Resume();
    RunCycle(b, checks, log, &cs);
    log->Pause();
    log->CloseIfFull();
    stats->push_back(cs);
  } while (NowNs() < end);
  log->DropOpen();
}

int Run(const Args& args) {
  Checks checks;
  Bench b;
  b.seed = args.seed;
  JiffyCluster::Options opts = BaseOptions();
  opts.config.block_size_bytes = 64 << 10;
  opts.config.blocks_per_server = 512;
  b.cluster = std::make_unique<JiffyCluster>(opts);
  b.client = std::make_unique<JiffyClient>(b.cluster.get());
  if (!b.client->RegisterJob("elastic").ok() ||
      !b.client->CreateAddrPrefix("/elastic/kv", {}).ok() ||
      !b.client->CreateAddrPrefix("/elastic/queue", {}).ok()) {
    std::fprintf(stderr, "elastic: job setup failed\n");
    return 2;
  }
  auto kv = b.client->OpenKv("/elastic/kv");
  auto queue = b.client->OpenQueue("/elastic/queue");
  if (!kv.ok() || !queue.ok()) {
    std::fprintf(stderr, "elastic: open failed\n");
    return 2;
  }
  b.kv = std::move(*kv);
  b.queue = std::move(*queue);
  for (size_t i = 0; i < kKeys; ++i) {
    b.keys.push_back(Key(i));
  }
  std::mt19937_64 rng(args.seed);
  for (int o = 0; o < 3; ++o) {
    std::vector<size_t> order(kKeys);
    std::iota(order.begin(), order.end(), 0);
    std::shuffle(order.begin(), order.end(), rng);
    b.orders.push_back(std::move(order));
  }

  // Warm-up: one whole cycle (the first runs markedly slower).
  {
    OpLog warm;
    CycleStats cs;
    RunCycle(&b, &checks, &warm, &cs);
    checks.Expect(warm.failed == 0, "elastic warm-up ops failed");
  }
  const double setup_s = SecondsSince(g_process_start_ns);
  std::printf("elastic: %zu keys x %zu B per cycle, KV batch %zu, queue batch "
              "%zu x %zu B, 64 KiB blocks, seed %llu\n",
              kKeys, kValueBytes, kBatch, kQueueBatch, kItemBytes,
              static_cast<unsigned long long>(args.seed));

  std::vector<CycleStats> stats;  // Of the last phase run.
  obs::MetricsRegistry* reg = b.cluster->metrics();
  Workload w;
  w.run = [&](double seconds, OpLog* log, std::vector<double>* alloc) {
    stats.clear();
    RunPhase(&b, seconds, &checks, log, &stats);
    for (const CycleStats& cs : stats) {
      alloc->push_back(cs.alloc_per_live);
    }
    std::printf("cycles=%zu peak_blocks=%u peak_segments=%zu\n", stats.size(),
                stats.back().peak_blocks, stats.back().peak_segments);
  };
  // Counters and histograms read below cover the traced half.
  w.before_traced = [&] { reg->Reset(); };
  w.layers = [&](const OpLog& traced) {
    const obs::MetricsSnapshot s1 = reg->Snapshot();
    const double cycles = static_cast<double>(stats.size());
    auto per_cycle = [&](const char* name, const char* counter) {
      return Metric{name, static_cast<double>(s1.CounterValue(counter)) / cycles,
                    "count/cycle"};
    };
    auto hist = [&](const char* name) {
      auto it = s1.histograms.find(name);
      return it == s1.histograms.end() ? obs::HistogramSummary{} : it->second;
    };
    std::vector<int64_t> settle;
    double stale = 0;
    size_t segments = 0;
    for (const CycleStats& cs : stats) {
      settle.push_back(cs.settle_ns);
      stale += static_cast<double>(cs.stale_ops);
      segments = std::max(segments, cs.peak_segments);
    }
    return std::vector<Metric>{
        {"client.kv_multiput_ns", TypeMedianNs(traced.kept, kMultiPut), "ns"},
        {"client.kv_multiget_ns", TypeMedianNs(traced.kept, kMultiGet), "ns"},
        {"client.kv_multidelete_ns", TypeMedianNs(traced.kept, kMultiDelete),
         "ns"},
        {"client.queue_enqueue_batch_ns", TypeMedianNs(traced.kept, kEnqueue),
         "ns"},
        {"client.queue_dequeue_batch_ns", TypeMedianNs(traced.kept, kDequeue),
         "ns"},
        per_cycle("core.splits", "repartition.splits_total"),
        per_cycle("core.merges", "repartition.merges_total"),
        per_cycle("core.repartition_aborts", "repartition.aborts_total"),
        per_cycle("core.repartition_chunks", "repartition.chunks_total"),
        per_cycle("core.catchup_pairs", "repartition.catchup_pairs_total"),
        {"core.repartition_pause_p99_ns",
         static_cast<double>(hist("repartition.pause_ns").p99), "ns"},
        {"core.settle_ns", MedianI(settle), "ns"},
        {"core.alloc_ns", static_cast<double>(hist("allocator.alloc_ns").p50),
         "ns"},
        {"client.stale_retries", stale / cycles, "count/cycle"},
        {"ds.queue_segments_peak", static_cast<double>(segments), "count"},
        per_cycle("cluster.init_blocks", "cluster.init_blocks_total"),
        per_cycle("cluster.reset_blocks", "cluster.reset_blocks_total"),
    };
  };
  OpLog counts;
  const std::vector<Metric> metrics = Measure(args, setup_s, w, &checks, &counts);
  return Finish(&checks, counts, metrics);
}

}  // namespace elastic

// =============================================================================
// job-churn: whole job lifecycles on a 3-replica controller group.
// =============================================================================

namespace churn {

constexpr int kThreads = 2;
constexpr int kTasks = 16;          // T: tasks (and KVs) per job.
constexpr int kCas = 4;             // K: Cas increments per job.
constexpr int kJobsPerRound = 200;  // Split evenly across the threads.
constexpr int kWarmRounds = 3;
constexpr size_t kValueBytes = 64;
constexpr size_t kBlockBytes = 64 << 10;

enum OpType : uint8_t {
  kRegister = 0,
  kCreateHierarchy,
  kOpen,
  kPut,
  kRenew,
  kLookup,
  kCas_,
  kDeregister,
  kNumTypes,
};
const char* const kTypeNames[kNumTypes] = {
    "register", "create_hierarchy", "open_ds", "put",
    "renew",    "lookup",           "cas",     "deregister"};

std::unique_ptr<JiffyCluster> MakeCluster(uint32_t replicas) {
  JiffyCluster::Options opts = BaseOptions();
  opts.config.block_size_bytes = kBlockBytes;
  opts.config.blocks_per_server = 64;
  opts.config.controller_replicas = replicas;
  return std::make_unique<JiffyCluster>(opts);
}

// Star DAG: t0 is the root, every other task its child.
std::vector<std::pair<std::string, std::vector<std::string>>> Dag() {
  std::vector<std::pair<std::string, std::vector<std::string>>> dag;
  dag.push_back({"t0", {}});
  for (int t = 1; t < kTasks; ++t) {
    std::string name = "t";
    name += std::to_string(t);
    dag.push_back({std::move(name), {"t0"}});
  }
  return dag;
}

std::string TaskAddr(const std::string& job, int t) {
  return t == 0 ? "/" + job + "/t0" : "/" + job + "/t0/t" + std::to_string(t);
}

// What a thread observes at its jobs' peaks.
struct JobPeaks {
  bool capture_blob = false;  // Time CaptureJob on the leader.
  std::vector<int64_t> serialize_ns;
  std::vector<int64_t> blob_bytes;
  double alloc_per_live = 0;  // Largest block bytes per live byte.
};

// One whole job lifecycle; every client call is one timed op.
void RunJob(JiffyCluster* cluster, JiffyClient* client, const std::string& job,
            std::mt19937_64& rng, Checks* checks, OpLog* log,
            JobPeaks* peaks) {
  static const auto kDag = Dag();
  auto timed = [&](uint8_t type, auto&& fn) {
    const int64_t t0 = NowNs();
    const bool ok = fn();
    log->Add(t0, NowNs(), type, ok);
    checks->Expect(ok, std::string("job-churn ") + kTypeNames[type] +
                           " of job " + job + " failed");
    return ok;
  };
  timed(kRegister, [&] { return client->RegisterJob(job).ok(); });
  timed(kCreateHierarchy, [&] { return client->CreateHierarchy(job, kDag).ok(); });
  std::vector<std::unique_ptr<KvClient>> kvs(kTasks);
  for (int t = 0; t < kTasks; ++t) {
    timed(kOpen, [&] {
      auto kv = client->OpenKv(TaskAddr(job, t));
      if (!kv.ok()) {
        return false;
      }
      kvs[t] = std::move(*kv);
      return true;
    });
  }
  std::string value(kValueBytes, 'x');
  size_t live_bytes = 0;
  for (int t = 0; t < kTasks; ++t) {
    for (char& c : value) {
      c = static_cast<char>('a' + rng() % 26);
    }
    if (kvs[t] != nullptr &&
        timed(kPut, [&] { return kvs[t]->Put("k", value).ok(); })) {
      live_bytes += 1 + kValueBytes;
    }
  }
  // Peak: one block per data structure opened.
  Controller* leader = cluster->ControllerFor(job);
  const size_t refs = leader->JobBlockRefs(job).size();
  checks->Expect(refs == kTasks, "job-churn job " + job + " holds " +
                                     std::to_string(refs) + " blocks at its "
                                     "peak, expected one per KV (" +
                                     std::to_string(kTasks) + ")");
  peaks->alloc_per_live = std::max(
      peaks->alloc_per_live,
      static_cast<double>(refs * kBlockBytes) /
          static_cast<double>(std::max<size_t>(live_bytes, 1)));
  if (peaks->capture_blob) {
    const int64_t t0 = NowNs();
    const std::string captured = leader->CaptureJob(job);
    peaks->serialize_ns.push_back(NowNs() - t0);
    auto bytes = leader->JobMetadataBytes(job);
    peaks->blob_bytes.push_back(bytes.ok() ? static_cast<int64_t>(*bytes) : 0);
    checks->Expect(!captured.empty(), "job-churn CaptureJob of " + job + " empty");
  }
  const std::string root = TaskAddr(job, 0);
  timed(kRenew, [&] { return client->RenewLease(root).ok(); });
  timed(kLookup, [&] {
    auto d = client->GetLeaseDuration(root);
    return d.ok() && *d > 0;
  });
  for (int i = 0; i < kCas; ++i) {
    const std::string expected = i == 0 ? "" : std::to_string(i);
    timed(kCas_, [&] {
      auto r = client->Cas(root, "count", expected, std::to_string(i + 1));
      if (!r.ok()) {
        return false;
      }
      checks->Expect(r->applied && r->previous == expected,
                     "job-churn Cas increment " + std::to_string(i + 1) +
                         " of job " + job + " did not apply");
      return true;
    });
  }
  // Read-back: a Cas that cannot apply witnesses the tag's value.
  timed(kCas_, [&] {
    auto r = client->Cas(root, "count", "#", "#");
    if (!r.ok()) {
      return false;
    }
    checks->Expect(!r->applied && r->previous == std::to_string(kCas),
                   "job-churn tag of job " + job + " reads '" + r->previous +
                       "' after " + std::to_string(kCas) + " increments");
    return true;
  });
  timed(kDeregister, [&] { return client->DeregisterJob(job).ok(); });
}

struct RoundResult {
  uint64_t control_bytes = 0;
  size_t registry_entries = 0;
  double alloc_per_live = 0;
};

// The client threads, started once and reused by every round. Threads
// started per round took their malloc arenas in varying order, which made
// peak RSS differ between runs of the same inputs.
class ClientThreads {
 public:
  ClientThreads() {
    for (int t = 0; t < kThreads; ++t) {
      threads_.emplace_back([this, t] { Loop(t); });
    }
  }
  ~ClientThreads() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      ++generation_;
    }
    start_.notify_all();
    for (std::thread& th : threads_) {
      th.join();
    }
  }
  // Runs fn(t) on every thread t and returns when all have finished.
  void RunOnAll(const std::function<void(int)>& fn) {
    std::unique_lock<std::mutex> lock(mu_);
    fn_ = &fn;
    running_ = kThreads;
    ++generation_;
    start_.notify_all();
    done_.wait(lock, [&] { return running_ == 0; });
  }

 private:
  void Loop(int t) {
    uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* fn = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        start_.wait(lock, [&] { return generation_ != seen; });
        seen = generation_;
        if (stop_) {
          return;
        }
        fn = fn_;
      }
      (*fn)(t);
      std::lock_guard<std::mutex> lock(mu_);
      if (--running_ == 0) {
        done_.notify_one();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable start_;
  std::condition_variable done_;
  const std::function<void(int)>* fn_ = nullptr;
  uint64_t generation_ = 0;
  int running_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

// One round: a fresh cluster, kJobsPerRound jobs over the kThreads
// closed-loop client threads, the round's checks, teardown. Only the job
// phase is timed.
RoundResult RunRound(uint64_t seed, uint64_t round, ClientThreads* clients,
                     Checks* checks, OpLog* log) {
  auto cluster = MakeCluster(3);
  const uint32_t before = cluster->allocator()->allocated_count();
  const uint64_t bytes0 = cluster->control_transport()->total_bytes();
  std::vector<OpLog> logs(kThreads);
  std::vector<JobPeaks> peaks(kThreads);
  RoundResult res;
  log->Resume();
  clients->RunOnAll([&](int t) {
    JiffyClient client(cluster.get());
    std::mt19937_64 rng(Mix64(seed) ^ (round << 8) ^ static_cast<uint64_t>(t));
    for (int j = t; j < kJobsPerRound; j += kThreads) {
      RunJob(cluster.get(), &client,
             "churn-r" + std::to_string(round) + "-j" + std::to_string(j), rng,
             checks, &logs[t], &peaks[t]);
    }
  });
  log->Pause();
  for (int t = 0; t < kThreads; ++t) {
    log->Merge(logs[t]);
    res.alloc_per_live = std::max(res.alloc_per_live, peaks[t].alloc_per_live);
  }
  log->CloseIfFull();
  const uint32_t after = cluster->allocator()->allocated_count();
  checks->Expect(after == before,
                 "job-churn round " + std::to_string(round) + ": " +
                     std::to_string(after) + " blocks allocated after the last "
                     "DeregisterJob, " + std::to_string(before) + " before");
  res.control_bytes = cluster->control_transport()->total_bytes() - bytes0;
  res.registry_entries = cluster->registry()->size();
  return res;
}

void RunPhase(uint64_t seed, uint64_t* round, ClientThreads* clients,
              double seconds, Checks* checks, OpLog* log,
              std::vector<RoundResult>* rounds) {
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    rounds->push_back(RunRound(seed, (*round)++, clients, checks, log));
  } while (NowNs() < end);
  log->DropOpen();
}

// Replays the lifecycle on one thread against 1- and 3-replica clusters and
// returns the per-op replication cost (3-replica minus 1-replica time,
// weighted by each call type's count).
double ReplicationCost(uint64_t seed, Checks* checks, JobPeaks* probe) {
  constexpr int kJobs = 60;
  OpLog logs[2];
  JobPeaks unprobed;
  for (int rep = 0; rep < 4; ++rep) {
    const int which = rep % 2;  // Alternate 1 and 3 replicas.
    auto cluster = MakeCluster(which == 0 ? 1 : 3);
    JiffyClient client(cluster.get());
    std::mt19937_64 rng(seed + static_cast<uint64_t>(rep));
    for (int j = 0; j < kJobs; ++j) {
      RunJob(cluster.get(), &client,
             "replay" + std::to_string(rep) + "-" + std::to_string(j), rng,
             checks, &logs[which], which == 1 ? probe : &unprobed);
    }
  }
  double weighted = 0;
  uint64_t n = 0;
  for (uint8_t t = 0; t < kNumTypes; ++t) {
    double sum[2] = {0, 0};
    uint64_t cnt[2] = {0, 0};
    for (int w = 0; w < 2; ++w) {
      for (const Sample& s : logs[w].samples) {
        if (s.type == t) {
          sum[w] += static_cast<double>(s.lat_ns);
          ++cnt[w];
        }
      }
    }
    if (cnt[0] == 0 || cnt[1] == 0) {
      continue;
    }
    const double diff = sum[1] / cnt[1] - sum[0] / cnt[0];
    std::printf("replication cost %-16s %10.0f ns/op (R=1 %.0f, R=3 %.0f)\n",
                kTypeNames[t], diff, sum[0] / cnt[0], sum[1] / cnt[1]);
    weighted += diff * static_cast<double>(cnt[1]);
    n += cnt[1];
  }
  return n == 0 ? 0.0 : weighted / static_cast<double>(n);
}

int Run(const Args& args) {
  Checks checks;
  ClientThreads clients;
  uint64_t round = 0;
  {
    // Warm-up: whole rounds (first-touch allocation, code paths).
    OpLog warm;
    for (int i = 0; i < kWarmRounds; ++i) {
      RunRound(args.seed, round++, &clients, &checks, &warm);
    }
    checks.Expect(warm.failed == 0, "job-churn warm-up ops failed");
  }
  const double setup_s = SecondsSince(g_process_start_ns);
  std::printf("job-churn: %d threads, %d jobs per round, %d tasks (one KV "
              "each), %d Cas, 3 controller replicas, seed %llu\n",
              kThreads, kJobsPerRound, kTasks, kCas,
              static_cast<unsigned long long>(args.seed));
  std::vector<RoundResult> rounds;  // Of the last phase run.
  Workload w;
  w.run = [&](double seconds, OpLog* log, std::vector<double>* alloc) {
    rounds.clear();
    RunPhase(args.seed, &round, &clients, seconds, &checks, log, &rounds);
    for (const RoundResult& r : rounds) {
      alloc->push_back(r.alloc_per_live);
    }
    std::printf("rounds=%zu registry_entries_after_round=%zu\n", rounds.size(),
                rounds.back().registry_entries);
  };
  w.layers = [&](const OpLog& traced) {
    uint64_t bytes = 0;
    for (const RoundResult& r : rounds) {
      bytes += r.control_bytes;
    }
    JobPeaks blob;
    blob.capture_blob = true;
    const double replication = ReplicationCost(args.seed, &checks, &blob);
    return std::vector<Metric>{
        {"client.register_ns", TypeMedianNs(traced.kept, kRegister), "ns"},
        {"client.create_hierarchy_ns",
         TypeMedianNs(traced.kept, kCreateHierarchy), "ns"},
        {"client.open_ds_ns", TypeMedianNs(traced.kept, kOpen), "ns"},
        {"client.renew_ns", TypeMedianNs(traced.kept, kRenew), "ns"},
        {"client.lookup_ns", TypeMedianNs(traced.kept, kLookup), "ns"},
        {"client.cas_ns", TypeMedianNs(traced.kept, kCas_), "ns"},
        {"client.deregister_ns", TypeMedianNs(traced.kept, kDeregister), "ns"},
        {"core.blob_serialize_ns", MedianI(blob.serialize_ns), "ns"},
        {"core.blob_bytes", MedianI(blob.blob_bytes), "B"},
        {"rsm.replication_ns", replication, "ns"},
        {"net.control_bytes_per_job",
         static_cast<double>(bytes) /
             static_cast<double>(rounds.size() * kJobsPerRound),
         "B/job"},
        {"ds.registry_entries",
         static_cast<double>(rounds.back().registry_entries), "count"},
    };
  };
  OpLog counts;
  const std::vector<Metric> metrics = Measure(args, setup_s, w, &checks, &counts);
  return Finish(&checks, counts, metrics);
}

}  // namespace churn

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--trace-file") {
      args->trace_file = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <kv-wire|elastic|job-churn> --seed N "
                 "--seconds S --trace <0|1> [--trace-file PATH]\n",
                 argv[0]);
    return 2;
  }
  std::printf("nproc=%u build=Release network=none (kZero, Loopback model)\n",
              std::thread::hardware_concurrency());
  if (args.workload == "kv-wire") {
    return kvwire::Run(args);
  }
  if (args.workload == "elastic") {
    return elastic::Run(args);
  }
  if (args.workload == "job-churn") {
    return churn::Run(args);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}

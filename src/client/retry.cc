#include "src/client/retry.h"

#include <algorithm>
#include <string>
#include <thread>

namespace jiffy {

bool Retrier::ShouldRetry(const Status& st) {
  if (st.ok() || !RetryPolicy::IsRetryable(st.code())) {
    return false;
  }
  ++failures_;
  if (failures_ >= policy_.max_attempts) {
    return false;
  }
  if (policy_.op_deadline > 0 && clock_ != nullptr) {
    const DurationNs elapsed = clock_->Now() - start_;
    if (elapsed + next_backoff_ > policy_.op_deadline) {
      return false;
    }
  }
  if (budget_ != nullptr) {
    const int prev = budget_->fetch_sub(kRetryCost, std::memory_order_relaxed);
    if (prev < kRetryCost) {
      // Bucket empty: give the tokens back and fail fast.
      budget_->fetch_add(kRetryCost, std::memory_order_relaxed);
      return false;
    }
  }
  return true;
}

void Retrier::BackoffAlways() {
  const DurationNs d = NextDelay();
  if (clock_ != nullptr && d > 0) {
    clock_->SleepFor(d);
  }
}

void Retrier::Backoff(const Transport* net) {
  const DurationNs d = NextDelay();
  if (net != nullptr && net->mode() == Transport::Mode::kSleep &&
      clock_ != nullptr && d > 0) {
    clock_->SleepFor(d);
  }
}

DurationNs Retrier::NextDelay() {
  DurationNs d = next_backoff_;
  next_backoff_ = std::min<DurationNs>(
      policy_.max_backoff,
      static_cast<DurationNs>(static_cast<double>(next_backoff_) *
                              policy_.backoff_multiplier));
  if (policy_.jitter_fraction > 0.0 && rng_ != nullptr) {
    // Jitter draws happen in every mode so seeded schedules do not depend
    // on whether the run sleeps.
    const double u =
        static_cast<double>(rng_->NextBelow(1 << 20)) / (1 << 20);
    const double factor =
        1.0 - policy_.jitter_fraction / 2.0 + policy_.jitter_fraction * u;
    d = static_cast<DurationNs>(static_cast<double>(d) * factor);
  }
  return d;
}

StaleRetry::StaleRetry(DurationNs deadline)
    : deadline_(deadline), start_(RealClock::Instance()->Now()) {}

bool StaleRetry::Next() {
  const int round = round_++;
  if (round == 0) {
    return true;
  }
  RealClock* clock = RealClock::Instance();
  if (deadline_ > 0 && clock->Now() - start_ >= deadline_) {
    return false;
  }
  if (round < 4) {
    std::this_thread::yield();
  } else {
    clock->SleepFor(std::min<DurationNs>(
        200 * kMicrosecond, static_cast<DurationNs>(round) * 10 * kMicrosecond));
  }
  return true;
}

void StaleRetry::Progress() {
  round_ = 0;
  start_ = RealClock::Instance()->Now();
}

Status StaleRetry::Exhausted(const char* what) {
  return Unavailable(std::string(what) +
                     ": partition map still stale at the op deadline");
}

void Retrier::RecordSuccess(std::atomic<int>* budget) {
  if (budget == nullptr) {
    return;
  }
  int v = budget->load(std::memory_order_relaxed);
  while (v < kBudgetMax &&
         !budget->compare_exchange_weak(v, v + 1, std::memory_order_relaxed)) {
  }
}

}  // namespace jiffy

#include "serve/serve.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string_view>

#include "core/env.hpp"
#include "telemetry/journal.hpp"

namespace geo::serve {

namespace {

resilience::Rung steer_from_env() {
  const char* raw = std::getenv("GEO_SERVE_STEER");
  if (raw == nullptr || raw[0] == '\0') return resilience::Rung::kReference;
  const std::string_view v(raw);
  if (v == "pbw") return resilience::Rung::kPbw;
  if (v == "fxp") return resilience::Rung::kFxp;
  if (v == "reference") return resilience::Rung::kReference;
  std::fprintf(stderr,
               "geo: GEO_SERVE_STEER='%s' is not pbw|fxp|reference; "
               "using reference\n",
               raw);
  if (auto& journal = telemetry::Journal::instance(); journal.enabled())
    journal.record("config.invalid", "GEO_SERVE_STEER", {},
                   "is not pbw|fxp|reference");
  return resilience::Rung::kReference;
}

}  // namespace

ServeOptions ServeOptions::from_env() {
  ServeOptions o;
  o.replicas =
      static_cast<int>(core::env_int("GEO_SERVE_REPLICAS", o.replicas, 1, 64));
  o.queue_capacity = static_cast<int>(
      core::env_int("GEO_SERVE_QUEUE", o.queue_capacity, 1, 1 << 16));
  o.tenant_quota = static_cast<int>(
      core::env_int("GEO_SERVE_QUOTA", o.tenant_quota, 1, 1 << 16));
  o.high_water = static_cast<int>(
      core::env_int("GEO_SERVE_HIGH_WATER", o.high_water, 0, 1 << 16));
  o.default_deadline_us = core::env_int(
      "GEO_SERVE_DEADLINE_US", o.default_deadline_us, 0, INT64_MAX / 2);
  o.retries =
      static_cast<int>(core::env_int("GEO_SERVE_RETRIES", o.retries, 0, 16));
  o.retry_backoff_us = core::env_int("GEO_SERVE_BACKOFF_US",
                                     o.retry_backoff_us, 0, 1'000'000'000);
  o.breaker_strikes = static_cast<int>(
      core::env_int("GEO_SERVE_STRIKES", o.breaker_strikes, 1, 1 << 16));
  o.probe_after = static_cast<int>(
      core::env_int("GEO_SERVE_PROBE_AFTER", o.probe_after, 1, 1 << 16));
  o.steer_rung = steer_from_env();
  o.batch = static_cast<int>(core::env_int("GEO_SERVE_BATCH", o.batch, 1, 64));
  o.batch_wait_us = core::env_int("GEO_SERVE_BATCH_WAIT_US", o.batch_wait_us,
                                  0, 1'000'000'000);
  return o;
}

geo::Status ServeOptions::validate() const {
  if (replicas < 1) return geo::Status::invalid_argument("serve: replicas < 1");
  if (queue_capacity < 1)
    return geo::Status::invalid_argument("serve: queue_capacity < 1");
  if (tenant_quota < 1)
    return geo::Status::invalid_argument("serve: tenant_quota < 1");
  if (high_water < 0)
    return geo::Status::invalid_argument("serve: high_water < 0");
  if (default_deadline_us < 0)
    return geo::Status::invalid_argument("serve: default_deadline_us < 0");
  if (retries < 0) return geo::Status::invalid_argument("serve: retries < 0");
  if (retry_backoff_us < 0)
    return geo::Status::invalid_argument("serve: retry_backoff_us < 0");
  if (breaker_strikes < 1)
    return geo::Status::invalid_argument("serve: breaker_strikes < 1");
  if (probe_after < 1)
    return geo::Status::invalid_argument("serve: probe_after < 1");
  if (steer_rung == resilience::Rung::kNative)
    return geo::Status::invalid_argument(
        "serve: steer_rung must be a degraded rung");
  if (batch < 1) return geo::Status::invalid_argument("serve: batch < 1");
  if (batch_wait_us < 0)
    return geo::Status::invalid_argument("serve: batch_wait_us < 0");
  return geo::Status();
}

int ServeOptions::effective_high_water() const noexcept {
  if (high_water > 0) return high_water;
  return std::max(1, (queue_capacity * 3) / 4);
}

std::string ServeOptions::to_string() const {
  std::ostringstream os;
  os << "replicas=" << replicas << ",queue=" << queue_capacity
     << ",quota=" << tenant_quota << ",high_water=" << effective_high_water()
     << ",deadline_us=" << default_deadline_us << ",retries=" << retries
     << ",backoff_us=" << retry_backoff_us << ",strikes=" << breaker_strikes
     << ",probe_after=" << probe_after
     << ",steer=" << resilience::to_string(steer_rung) << ",batch=" << batch
     << ",batch_wait_us=" << batch_wait_us;
  return os.str();
}

}  // namespace geo::serve

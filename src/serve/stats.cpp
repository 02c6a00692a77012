#include "serve/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "obs/registry.hpp"

namespace lrsizer::serve {

double histogram_percentile(const obs::Histogram& histogram, double p) {
  const std::uint64_t count = histogram.count();
  if (count == 0) return 0.0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  // Nearest-rank: ceil(p/100 · n), 1-based; p=0 maps to the first
  // observation.
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(count)));
  if (rank == 0) rank = 1;

  const std::vector<double>& bounds = histogram.bounds();
  std::uint64_t before = 0;  // observations in buckets below the current one
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    const std::uint64_t in_bucket = histogram.bucket_count(i);
    if (before + in_bucket >= rank) {
      // Linear interpolation within [lo, hi): the ranked observation is
      // somewhere in this bucket; assume uniform spread. The fraction is
      // in (0, 1], so the estimate is strictly above the lower bound —
      // and strictly positive even for the first bucket (lo = 0).
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = bounds[i];
      const double frac = static_cast<double>(rank - before) /
                          static_cast<double>(in_bucket);
      return lo + frac * (hi - lo);
    }
    before += in_bucket;
  }
  // Rank falls in the +Inf overflow bucket: no finite upper bound to
  // interpolate against, so report the largest finite bound (the Prometheus
  // histogram_quantile convention).
  return bounds.empty() ? 0.0 : bounds.back();
}

double cache_hit_rate(const StatsSnapshot& snapshot) {
  const std::size_t lookups =
      snapshot.cache_lookup_hits + snapshot.cache_lookup_misses;
  if (lookups == 0) return 0.0;
  return static_cast<double>(snapshot.cache_lookup_hits) /
         static_cast<double>(lookups);
}

std::string format_stats_text(const StatsSnapshot& s) {
  char buf[256];
  std::string out;
  out += "serve stats\n";
  std::snprintf(buf, sizeof(buf), "  server: version=%s state=%s uptime_s=%.1f\n",
                s.version.empty() ? "?" : s.version.c_str(),
                s.state.empty() ? "?" : s.state.c_str(), s.uptime_s);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  jobs: accepted=%zu completed=%zu cache_hits=%zu "
                "cancelled=%zu timeouts=%zu errors=%zu shed=%zu eco=%zu "
                "queue_depth=%zu\n",
                s.accepted, s.completed, s.cache_hits, s.cancelled, s.timeouts,
                s.errors, s.shed, s.eco_jobs, s.queue_depth);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  clients: active=%zu\n", s.active_clients);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  cache: entries=%zu bytes=%zu hits=%zu misses=%zu "
                "eco_hits=%zu hit_rate=%.3f evictions=%zu "
                "corrupt=%zu mode=%s\n",
                s.cache_entries, s.cache_bytes, s.cache_lookup_hits,
                s.cache_lookup_misses, s.cache_eco_hits,
                cache_hit_rate(s), s.cache_evictions, s.cache_corrupt,
                s.cache_disk ? "disk" : "memory");
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  latency: count=%zu p50_ms=%.3f p99_ms=%.3f\n",
                s.latency_count, s.latency_p50_s * 1e3, s.latency_p99_s * 1e3);
  out += buf;
  return out;
}

}  // namespace lrsizer::serve

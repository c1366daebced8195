// Umbrella header + the instrumentation macros.
//
// Every call site in the simulator / engine / tools goes through these
// macros so the whole layer can be compiled out: configure with
// `-DMAPG_OBS=OFF` and MAPG_OBS_ENABLED becomes 0, every macro expands to
// nothing, and the instrumented hot paths are byte-identical to
// uninstrumented code.  The obs classes themselves always compile (tests
// and the CLI `--print-metrics` path use them directly either way).
//
// With MAPG_OBS=ON (the default) the cost model is:
//   * counter/gauge/histogram macros — one function-local-static lookup on
//     first execution, then one relaxed atomic op per event on a per-thread
//     shard;
//   * trace macros — one relaxed load + branch while no tracer is attached.
// That is what keeps full simulation within noise of the OFF build (the
// acceptance bound in docs/OBSERVABILITY.md).
#pragma once

#include "obs/event_tracer.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"

#ifndef MAPG_OBS_ENABLED
#define MAPG_OBS_ENABLED 1
#endif

namespace mapg::obs {
/// True when this build carries instrumentation (CMake option MAPG_OBS).
inline constexpr bool kCompiledIn = MAPG_OBS_ENABLED != 0;
}  // namespace mapg::obs

#define MAPG_OBS_CONCAT_IMPL_(a, b) a##b
#define MAPG_OBS_CONCAT_(a, b) MAPG_OBS_CONCAT_IMPL_(a, b)

#if MAPG_OBS_ENABLED

/// Compile the enclosed statements only in instrumented builds.
#define MAPG_OBS_ONLY(...) __VA_ARGS__

#define MAPG_OBS_COUNTER_INC(name) MAPG_OBS_COUNTER_ADD(name, 1)

#define MAPG_OBS_COUNTER_ADD(name, by)                          \
  do {                                                          \
    static ::mapg::obs::Counter& mapg_obs_counter_ =            \
        ::mapg::obs::MetricsRegistry::instance().counter(name); \
    mapg_obs_counter_.inc(by);                                  \
  } while (0)

#define MAPG_OBS_GAUGE_SET(name, value)                       \
  do {                                                        \
    static ::mapg::obs::Gauge& mapg_obs_gauge_ =              \
        ::mapg::obs::MetricsRegistry::instance().gauge(name); \
    mapg_obs_gauge_.set(static_cast<std::int64_t>(value));    \
  } while (0)

#define MAPG_OBS_GAUGE_ADD(name, by)                          \
  do {                                                        \
    static ::mapg::obs::Gauge& mapg_obs_gauge_ =              \
        ::mapg::obs::MetricsRegistry::instance().gauge(name); \
    mapg_obs_gauge_.add(static_cast<std::int64_t>(by));       \
  } while (0)

#define MAPG_OBS_HIST_RECORD(name, value)                         \
  do {                                                            \
    static ::mapg::obs::HistogramMetric& mapg_obs_hist_ =         \
        ::mapg::obs::MetricsRegistry::instance().histogram(name); \
    mapg_obs_hist_.record(static_cast<std::uint64_t>(value));     \
  } while (0)

/// RAII span for the rest of the scope: `name` lands in the histogram
/// metric of the same name (ns) and, when tracing, as an 'X' trace event.
#define MAPG_OBS_SCOPED_TIMER(name, cat)                                     \
  static ::mapg::obs::HistogramMetric& MAPG_OBS_CONCAT_(mapg_obs_timer_h_,   \
                                                        __LINE__) =          \
      ::mapg::obs::MetricsRegistry::instance().histogram(name);              \
  ::mapg::obs::ScopedTimer MAPG_OBS_CONCAT_(mapg_obs_timer_, __LINE__)(      \
      &MAPG_OBS_CONCAT_(mapg_obs_timer_h_, __LINE__), name, cat)

#else  // !MAPG_OBS_ENABLED — every macro is a no-op; arguments are never
       // evaluated, so disabled instrumentation has zero cost.

#define MAPG_OBS_ONLY(...)
#define MAPG_OBS_COUNTER_INC(name) \
  do {                             \
  } while (0)
#define MAPG_OBS_COUNTER_ADD(name, by) \
  do {                                 \
  } while (0)
#define MAPG_OBS_GAUGE_SET(name, value) \
  do {                                  \
  } while (0)
#define MAPG_OBS_GAUGE_ADD(name, by) \
  do {                               \
  } while (0)
#define MAPG_OBS_HIST_RECORD(name, value) \
  do {                                    \
  } while (0)
#define MAPG_OBS_SCOPED_TIMER(name, cat) \
  do {                                   \
  } while (0)

#endif  // MAPG_OBS_ENABLED

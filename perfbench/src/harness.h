// Shared plumbing for the benchmark workloads: clocks and order statistics,
// the run report (checks + metrics), the span recorder used in traced runs,
// and the standalone generator timer.
#pragma once

#include <chrono>
#include <cstdint>
#include <sched.h>

#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/sim.h"
#include "obs/metrics.h"
#include "trace/generator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0,1] of `v` (0 for an empty vector).
double quantile(std::vector<double> v, double q);
/// Quantile of an obs histogram, interpolated linearly inside the log2
/// bucket that holds it (the registry's own quantile() returns the bucket
/// edge, which hides run-to-run differences).
double hist_quantile(const mapg::obs::HistogramSnapshot& h, double q);
/// Snapshot of one named obs histogram (empty if never recorded).
mapg::obs::HistogramSnapshot obs_histogram(const std::string& name);
/// Current value of one named obs counter (0 if never incremented).
std::uint64_t obs_counter(const std::string& name);

/// Peak resident set of this process since start or since the last
/// reset_peak_rss(), in MiB.
double peak_rss_mb();
/// Restart the peak-RSS high-water mark, so memory the correctness gate
/// touches between set-up and measurement does not count as the workload's.
void reset_peak_rss();

/// FNV-1a digest of a result's canonical JSON encoding (exec/serialize.h),
/// the identity every correctness check compares.
std::uint64_t result_digest(const mapg::SimResult& r);
std::string hex64(std::uint64_t v);

/// What one run reports: the correctness tally and the metrics.
class Report {
 public:
  /// Record one checked output; returns `ok`.  A failed check is also
  /// described on stderr so a bad run explains itself.
  bool check(bool ok, const std::string& what);
  /// Record `passed + failed` checked outputs of one kind at once.
  void tally(std::uint64_t passed, std::uint64_t failed,
             const std::string& what);
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const { return metrics_.count(name) > 0; }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// The result line {"correct", "attempted", "failed", "metrics"}, with the
  /// named metrics in the given order.
  std::string json(const std::vector<std::string>& names) const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// Spans recorded in traced runs.  Each span is one benchmark call into a
/// layer; it goes into the obs EventTracer ring (kept in memory, written at
/// exit as Chrome-trace JSON alongside the obs counters) with its id, its
/// parent's id and the cell it belongs to as args.  Untraced runs never
/// construct a Span, so they pay nothing.
class Span {
 public:
  Span(const char* name, const std::string& cell = {});
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();
  /// Seconds since the span opened.
  double elapsed() const { return seconds_since(start_); }

 private:
  const char* name_;
  std::string cell_;
  std::uint64_t id_;
  std::uint64_t parent_;
  std::uint64_t trace_ts_;
  Clock::time_point start_;
};

/// Starts the obs tracer for a traced run.
void tracing_begin();
/// Stops it and writes the Chrome trace (with the obs counters attached) to
/// `path`; returns false on I/O failure.
bool tracing_end(const std::string& path);

/// Seconds a fresh TraceGenerator for (`profile`, `seed`) takes to produce
/// `n` instructions through next(), drained in a standalone loop.  next()
/// is the path Simulator::run takes with the default (scalar) config, so
/// this isolates the generator's share of a simulation without decorating
/// the source the simulation reads.
double time_generator(const mapg::WorkloadProfile& profile, std::uint64_t seed,
                      std::uint64_t n);

/// Rotates the calling thread over the first kMaxCpus CPUs this process may
/// use.  On a shared host the CPUs differ in speed from moment to moment (other
/// tenants' load lands on some and not others), and a single thread tends
/// to stay on one CPU for seconds, so one slow CPU can set a whole run's
/// figure.  Single-threaded workloads therefore pin round i to CPU
/// i mod cpus(), measure in whole cycles over those CPUs, and report
/// statistics of per-cycle means.  The cap keeps a cycle short on a host
/// with many CPUs, so a run still holds several cycles.  Multi-threaded workloads do not use it:
/// threads a pinned thread creates inherit its mask.  The original mask is
/// restored on destruction.
class CpuRotation {
 public:
  static constexpr std::size_t kMaxCpus = 4;

  CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation();

  std::size_t cpus() const { return cpus_.empty() ? 1 : cpus_.size(); }
  /// Pins the calling thread to the CPU of round `i`.
  void pin(std::size_t i);
  /// Calls `round` in whole cycles, round i pinned to CPU i mod cpus(),
  /// until `seconds` have passed.
  void run_cycles(double seconds, const std::function<void()>& round);
  /// Means of consecutive groups of cpus() samples: one value per cycle.
  std::vector<double> cycle_means(const std::vector<double>& samples) const;

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

/// Scratch directory for one run, removed on destruction.
class WorkDir {
 public:
  explicit WorkDir(const std::string& tag);
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  ~WorkDir();
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

/// Directory (relative to the working directory) for run artefacts: scratch
/// files while a run lasts, Chrome traces after it.
inline constexpr const char* kOutDir = ".bench_out";

}  // namespace perfbench

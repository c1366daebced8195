#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "exec/serialize.h"
#include "obs/event_tracer.h"
#include "obs/report.h"

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double hist_quantile(const mapg::obs::HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0;
  const double target = q * static_cast<double>(h.count);
  double seen = 0;
  for (std::size_t i = 0; i < mapg::obs::kHistBuckets; ++i) {
    const double n = static_cast<double>(h.buckets[i]);
    if (n > 0 && seen + n >= target) {
      const double lo = std::max<double>(static_cast<double>(
                                             mapg::obs::hist_bucket_lo(i)),
                                         static_cast<double>(h.min));
      const double edge = i >= 64 ? static_cast<double>(h.max)
                                  : std::ldexp(1.0, static_cast<int>(i));
      const double hi = std::min(edge, static_cast<double>(h.max));
      return lo + (hi - lo) * ((target - seen) / n);
    }
    seen += n;
  }
  return static_cast<double>(h.max);
}

mapg::obs::HistogramSnapshot obs_histogram(const std::string& name) {
  for (auto& [n, h] : mapg::obs::MetricsRegistry::instance().snapshot()
                          .histograms)
    if (n == name) return h;
  return {};
}

std::uint64_t obs_counter(const std::string& name) {
  for (auto& [n, v] :
       mapg::obs::MetricsRegistry::instance().snapshot().counters)
    if (n == name) return v;
  return 0;
}

double peak_rss_mb() {
  // VmHWM honours reset_peak_rss(); ru_maxrss (also KiB) is the fallback.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void reset_peak_rss() {
  // Hand freed heap back first, or the high-water mark restarts at pages
  // the allocator keeps resident after the gate released them.
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::uint64_t result_digest(const mapg::SimResult& r) {
  return mapg::fnv1a64(mapg::result_to_json(r).dump());
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

void Report::tally(std::uint64_t passed, std::uint64_t failed,
                   const std::string& what) {
  attempted_ += passed + failed;
  failed_ += failed;
  if (failed > 0)
    std::fprintf(stderr, "CHECK FAILED: %s (%llu times)\n", what.c_str(),
                 static_cast<unsigned long long>(failed));
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = {value, unit};
}

std::string Report::json(const std::vector<std::string>& names) const {
  std::string out = "{\"correct\": ";
  out += (failed_ == 0 && attempted_ > 0) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const std::string& name : names) {
    const auto& vu = metrics_.at(name);
    if (!first) out += ", ";
    first = false;
    // %.17g keeps every digit the measurement has.
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(vu.first) ? vu.first : 0.0);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}";
  return out;
}

namespace {
std::atomic<std::uint64_t> g_next_span{1};
thread_local std::uint64_t t_current_span = 0;
}  // namespace

Span::Span(const char* name, const std::string& cell)
    : name_(name),
      cell_(cell),
      id_(g_next_span.fetch_add(1, std::memory_order_relaxed)),
      parent_(t_current_span),
      trace_ts_(mapg::obs::EventTracer::instance().now_ns()),
      start_(Clock::now()) {
  t_current_span = id_;
}

Span::~Span() {
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start_)
          .count());
  t_current_span = parent_;
  mapg::obs::TraceArgs args;
  args.add("id", id_).add("parent", parent_);
  if (!cell_.empty()) args.add("cell", cell_);
  mapg::obs::EventTracer::instance().complete(name_, "perfbench", trace_ts_,
                                              ns, args.json());
}

void tracing_begin() {
  mapg::obs::EventTracer::instance().clear();
  mapg::obs::EventTracer::instance().start();
}

bool tracing_end(const std::string& path) {
  const bool ok = mapg::obs::finalize_and_write_trace(path);
  mapg::obs::EventTracer::instance().stop();
  return ok;
}

namespace {
volatile std::uint64_t g_generator_sink = 0;
}  // namespace

double time_generator(const mapg::WorkloadProfile& profile, std::uint64_t seed,
                      std::uint64_t n) {
  mapg::TraceGenerator gen(profile, seed);
  mapg::TraceSource& src = gen;
  mapg::Instr in;
  std::uint64_t sum = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < n; ++i) {
    src.next(in);
    sum += in.addr;
  }
  const double s = seconds_since(t0);
  g_generator_sink = sum;  // keeps the draws live
  return s;
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE && cpus_.size() < kMaxCpus; ++c)
    if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
}

void CpuRotation::pin(std::size_t i) {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[i % cpus_.size()], &one);
  sched_setaffinity(0, sizeof one, &one);  // unpinned on failure: still valid
}

void CpuRotation::run_cycles(double seconds,
                             const std::function<void()>& round) {
  const auto start = Clock::now();
  std::size_t i = 0;
  do {
    for (std::size_t c = 0; c < cpus(); ++c) {
      pin(i++);
      round();
    }
  } while (seconds_since(start) < seconds);
}

std::vector<double> CpuRotation::cycle_means(
    const std::vector<double>& samples) const {
  std::vector<double> out;
  const std::size_t n = cpus();
  for (std::size_t i = 0; i + n <= samples.size(); i += n) {
    double sum = 0;
    for (std::size_t j = i; j < i + n; ++j) sum += samples[j];
    out.push_back(sum / static_cast<double>(n));
  }
  return out;
}

WorkDir::WorkDir(const std::string& tag)
    : path_(std::filesystem::path(kOutDir) /
            (tag + "-" + std::to_string(::getpid()))) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

WorkDir::~WorkDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace perfbench

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <thread>

#include "sample_stats.hpp"
#include "workloads.hpp"
#include "wrfsim/driver.hpp"

namespace perfbench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::shared_ptr<const nestwx::core::PerfModel> fit_model(
    const nestwx::topo::MachineParams& machine, Tracer* tracer) {
  std::vector<nestwx::core::ProfilePoint> profile;
  {
    MaybeScope span(tracer, "wrfsim.profile_basis");
    profile = nestwx::wrfsim::profile_basis(
        machine, nestwx::core::default_basis_domains());
  }
  MaybeScope span(tracer, "core.fit");
  return std::make_shared<nestwx::core::DelaunayPerfModel>(
      nestwx::core::DelaunayPerfModel::fit(profile));
}

double reference_seconds() {
  constexpr std::size_t kDoubles = std::size_t{1} << 18;  // 2 MiB per array
  constexpr int kPasses = 200;
  constexpr int kHashSteps = 1 << 16;
  // Buffers persist across calls so the reference never pays page faults.
  static std::vector<std::vector<double>> buffers = [] {
    std::vector<std::vector<double>> b(2 * kThreads, std::vector<double>(kDoubles));
    for (std::size_t t = 0; t < b.size(); ++t)
      for (std::size_t i = 0; i < kDoubles; ++i)
        b[t][i] = static_cast<double>((i * 7 + t) % 97);
    return b;
  }();
  std::vector<double> sinks(kThreads, 0.0);
  auto work = [&](int tid) {
    std::vector<double>& a = buffers[2 * tid];
    std::vector<double>& b = buffers[2 * tid + 1];
    std::uint64_t h = 0xcbf29ce484222325ull + static_cast<std::uint64_t>(tid);
    for (int pass = 0; pass < kPasses; ++pass) {
      for (std::size_t i = 1; i + 1 < kDoubles; ++i)
        b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
      std::swap(a, b);
      for (int k = 0; k < kHashSteps; ++k) {
        h = (h ^ static_cast<std::uint64_t>(k)) * 0x100000001b3ull;
        if ((h >> 61) == 0) h += static_cast<std::uint64_t>(a[k] > 48.0);
      }
    }
    sinks[tid] = a[kDoubles / 2] + static_cast<double>(h & 0xff);
  };
  const double t0 = wall_now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(work, t);
  for (auto& t : threads) t.join();
  const double seconds = wall_now() - t0;
  volatile double keep = sinks[0];  // the result must be observable
  (void)keep;
  return seconds;
}

namespace {

/// median(seconds_i / reference_i) in units of kReferenceNominalSeconds.
double normalized(const std::vector<double>& seconds,
                  const std::vector<double>& references) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < seconds.size(); ++i)
    ratios.push_back(seconds[i] / references[i]);
  return median(ratios) * kReferenceNominalSeconds;
}

}  // namespace

double median_setup_seconds(const std::function<void()>& setup) {
  reference_seconds();  // first call allocates and touches the buffers
  std::vector<double> seconds, references;
  for (int i = 0; i < kSetups; ++i) {
    references.push_back(reference_seconds());
    const double t0 = wall_now();
    setup();
    seconds.push_back(wall_now() - t0);
  }
  std::printf("setup: median %.6f s raw, reference median %.6f s\n",
              median(seconds), median(references));
  return normalized(seconds, references);
}

double Measured::normalized_wall() const { return normalized(walls, references); }

Measured measure(double budget, const std::function<double()>& op) {
  const double t0 = wall_now();
  op();
  Measured m;
  while (m.walls.size() < 3 || wall_now() - t0 < budget) {
    m.references.push_back(reference_seconds());
    m.walls.push_back(op());
    if (m.walls.size() == 3) m.peak_rss_mb = peak_rss_mb();
  }
  std::printf("measured: %zu repetitions, wall median %.6f s raw, reference "
              "median %.6f s, normalized %.6f s\n",
              m.walls.size(), median(m.walls), median(m.references),
              m.normalized_wall());
  return m;
}

Paired measure_paired(double budget, const std::function<double()>& untraced,
                      const std::function<double()>& traced) {
  const double t0 = wall_now();
  untraced();
  Paired p;
  double cpu = 0.0, wall = 0.0;
  while (p.traced.size() < 3 || wall_now() - t0 < budget) {
    const double cpu0 = cpu_seconds();
    const double wall0 = wall_now();
    p.untraced.push_back(untraced());
    cpu += cpu_seconds() - cpu0;
    wall += wall_now() - wall0;
    p.traced.push_back(traced());
  }
  p.cpu_busy = cpu / (wall * kThreads);
  return p;
}

namespace {

double get(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

}  // namespace

void add_call_stats(const std::vector<Span>& spans, const std::string& span,
                    const std::string& prefix, double ops,
                    std::map<std::string, double>& metrics) {
  std::vector<double> ms = durations_of(spans, span);
  for (double& v : ms) v *= 1e3;
  const Tail t = tail(ms);
  metrics[prefix + "_calls"] = static_cast<double>(ms.size()) / ops;
  metrics[prefix + "_ms_p50"] = median(ms);
  metrics[prefix + "_ms_tail"] = t.value;
  metrics[prefix + "_ms_tail_pct"] = t.pct;
}

void add_campaign_layers(const std::vector<Span>& spans, double ops,
                         std::map<std::string, double>& metrics) {
  const std::map<std::string, double> self = self_time_by_name(spans);
  metrics["campaign.run_self_s"] =
      (get(self, "campaign.run") + get(self, "campaign.member")) / ops;
  metrics["campaign.share_machine_s"] = get(self, "campaign.share_machine") / ops;
  metrics["campaign.members"] =
      static_cast<double>(durations_of(spans, "campaign.member").size()) / ops;
  metrics["cache.lookup_self_s"] = get(self, "cache.lookup") / ops;
  metrics["cache.trim_spill_s"] = get(self, "cache.trim_spill") / ops;
  metrics["core.plan_s"] = get(self, "core.plan") / ops;
  add_call_stats(spans, "core.plan", "core.plan", ops, metrics);
  metrics["wrfsim.simulate_s"] = get(self, "wrfsim.simulate") / ops;
  add_call_stats(spans, "wrfsim.simulate", "wrfsim.simulate", ops, metrics);
  metrics["fault.run_self_s"] = get(self, "fault.run") / ops;
}

void finish_trace(std::map<std::string, double>& metrics,
                  const std::map<std::string, double>& layer_seconds,
                  double reference_wall, double overhead_ratio,
                  double cpu_busy) {
  double accounted = 0.0;
  for (const auto& [name, seconds] : layer_seconds) accounted += seconds;
  metrics["trace.overhead_ratio"] = overhead_ratio;
  metrics["trace.unaccounted_ratio"] =
      (reference_wall - accounted) / reference_wall;
  metrics["util.cpu_busy_ratio"] = cpu_busy;

  std::printf("per-layer self time per op (traced replay):\n");
  for (const auto& [name, seconds] : layer_seconds)
    std::printf("  %-28s %10.6f s  %5.1f%%\n", name.c_str(), seconds,
                100.0 * seconds / reference_wall);
  const double gap = std::abs(accounted - reference_wall) / reference_wall;
  std::printf("  %-28s %10.6f s  vs untraced wall %.6f s: %s (%.2f%%, "
              "limit 5%%)\n",
              "sum", accounted, reference_wall,
              gap <= 0.05 ? "accounted" : "NOT accounted", 100.0 * gap);
  std::printf("trace overhead: %+.2f%% of the untraced wall\n",
              100.0 * overhead_ratio);
}

}  // namespace perfbench

#pragma once
/// \file workloads.hpp
/// The benchmark's workloads and the plumbing they share.
///
/// Every workload is a closed batch: one drain, campaign cycle or
/// simulated hour at a time, repeated until the time budget is spent.
/// Untraced runs report the end-to-end metrics (medians over the
/// repetitions); traced runs measure a few untraced repetitions, replay
/// the same work with spans around each public call, and report the
/// per-layer metrics.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/perf_model.hpp"
#include "span_trace.hpp"
#include "topo/machine.hpp"

namespace perfbench {

/// Host worker threads every workload runs on.
inline constexpr int kThreads = 4;

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 5;

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< measurement budget of the whole run
  bool trace = false;
  std::string work_dir;    ///< scratch space (spools, spill files)
  std::string source_root; ///< repository root (read-only golden files)
};

/// Which campaign cycle a campaign workload measures.
enum class CampaignPhase { cold, warm, faulted };

struct WorkloadResult {
  std::map<std::string, double> metrics;  ///< name → value (units in main)
  CheckLog checks;
  std::vector<Span> spans;  ///< traced runs: everything recorded
};

WorkloadResult run_serve_drain(const RunConfig& config);
WorkloadResult run_campaign(const RunConfig& config, CampaignPhase phase);
WorkloadResult run_swm_nested_hour(const RunConfig& config);

// --- shared helpers ---------------------------------------------------------

/// Wall seconds on the steady clock since an arbitrary epoch.
double wall_now();

/// User + system CPU seconds of this process so far.
double cpu_seconds();

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Profile the default basis on `machine` and fit the paper's Delaunay
/// model, under "wrfsim.profile_basis" and "core.fit" spans when traced.
std::shared_ptr<const nestwx::core::PerfModel> fit_model(
    const nestwx::topo::MachineParams& machine, Tracer* tracer);

/// Host-speed reference: wall seconds for kThreads benchmark-owned
/// threads to each run a fixed mix of a 3-point stencil over two private
/// 2 MiB arrays and an integer hash loop. No nestwx code runs in it, so
/// no change to nestwx moves it; it slows down when the shared host does.
double reference_seconds();

/// What the reference takes on an uncontended host; normalized times are
/// expressed in these units (seconds on such a host).
inline constexpr double kReferenceNominalSeconds = 0.1;

/// Run `setup` kSetups times, each after a reference run, timing each;
/// returns the median of setup / reference in reference units.
double median_setup_seconds(const std::function<void()>& setup);

/// Untraced measurement: one discarded warm-up call of `op` (first-touch
/// page faults, allocator growth), then calls — each after a reference
/// run — until `budget` wall seconds have passed and at least three were
/// made. `op` returns the measured
/// seconds of its repetition (it may do untimed preparation around it).
struct Measured {
  std::vector<double> walls;
  std::vector<double> references;  ///< reference_seconds() before each call
  /// median(wall / reference) in reference units: the repetition's wall
  /// time on an uncontended host.
  double normalized_wall() const;
  /// Peak RSS once the third measured call returned: a fixed amount of
  /// work, however many more calls the budget allows on a given host.
  double peak_rss_mb = 0.0;
};
Measured measure(double budget, const std::function<double()>& op);

/// Traced measurement: a warm-up `untraced` call, then alternating
/// `untraced` and `traced` calls (so drift on a shared host hits both
/// alike) until `budget` has passed and at least three pairs were made.
struct Paired {
  std::vector<double> untraced;
  std::vector<double> traced;
  double cpu_busy = 0.0;  ///< (user+sys CPU) / (wall × kThreads), untraced
};
Paired measure_paired(double budget, const std::function<double()>& untraced,
                      const std::function<double()>& traced);

/// Per-op layer metrics shared by every workload that runs campaigns
/// (campaign / cache / core / wrfsim / fault), from spans recorded over
/// `ops` traced operations.
void add_campaign_layers(const std::vector<Span>& spans, double ops,
                         std::map<std::string, double>& metrics);

/// `<prefix>_calls` (per op), `_ms_p50`, `_ms_tail` and `_ms_tail_pct`
/// of the spans called `span`.
void add_call_stats(const std::vector<Span>& spans, const std::string& span,
                    const std::string& prefix, double ops,
                    std::map<std::string, double>& metrics);

/// Records the end of a traced run — trace.overhead_ratio (traced over
/// untraced wall of the same work, minus one), trace.unaccounted_ratio
/// (share of the untraced wall `reference_wall` the layer self times in
/// `layer_seconds` leave unexplained) and util.cpu_busy_ratio — and
/// prints the per-layer self-time table.
void finish_trace(std::map<std::string, double>& metrics,
                  const std::map<std::string, double>& layer_seconds,
                  double reference_wall, double overhead_ratio,
                  double cpu_busy);

}  // namespace perfbench

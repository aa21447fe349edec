/// \file main.cpp
/// nestwx-perfbench: run one benchmark workload and print its metrics.
///
///   nestwx-perfbench --workload=NAME [--seed=1] [--seconds=10] [--trace=0|1]
///                    [--work-dir=DIR] [--trace-file=PATH]
///                    [--source-root=.] [--commit=ID]
///
/// Workloads: serve_drain, campaign_cold, campaign_warm, campaign_faulted,
/// swm_nested_hour (see perfbench/README.md for why each exists). The
/// default seed is 1. Untraced runs (--trace=0) print the end-to-end
/// metrics; traced runs (--trace=1) print the per-layer metrics and write
/// the spans as Chrome/Perfetto trace JSON to --trace-file. The last line
/// of stdout is one JSON object:
///
///   {"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
///
/// The exit code is 0 only when every output check passed.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "swm/simd.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using perfbench::RunConfig;
using perfbench::WorkloadResult;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// End-to-end metrics: every workload reports each of them.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"items_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

// Per-layer metrics of the traced runs; a layer a workload does not reach
// reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"serve.claim_s", "s"},
    {"serve.parse_s", "s"},
    {"serve.admission_self_s", "s"},
    {"serve.retire_s", "s"},
    {"serve.report_json_s", "s"},
    {"serve.campaigns", "count"},
    {"serve.coalesced_ratio", "ratio"},
    {"campaign.run_self_s", "s"},
    {"campaign.share_machine_s", "s"},
    {"campaign.members", "count"},
    {"cache.lookups", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.lookup_self_s", "s"},
    {"cache.reloads", "count"},
    {"cache.spills", "count"},
    {"cache.trim_spill_s", "s"},
    {"core.plan_s", "s"},
    {"core.plan_calls", "count"},
    {"core.plan_ms_p50", "ms"},
    {"core.plan_ms_tail", "ms"},
    {"core.plan_ms_tail_pct", "%"},
    {"core.fit_s", "s"},
    {"wrfsim.simulate_s", "s"},
    {"wrfsim.simulate_calls", "count"},
    {"wrfsim.simulate_ms_p50", "ms"},
    {"wrfsim.simulate_ms_tail", "ms"},
    {"wrfsim.simulate_ms_tail_pct", "%"},
    {"wrfsim.ranks_simulated", "count"},
    {"wrfsim.profile_basis_s", "s"},
    {"fault.recoveries", "count"},
    {"fault.replans", "count"},
    {"fault.run_self_s", "s"},
    {"swm.step_parent_ms", "ms"},
    {"swm.step_child_ms", "ms"},
    {"swm.tendency_cells_per_s", "1/s"},
    {"swm.flops_per_sim_hour_nominal", "flop"},
    {"swm.bytes_per_sim_hour_computed", "B"},
    {"nest.advance_s", "s"},
    {"nest.advance_calls", "count"},
    {"nest.advance_ms_p50", "ms"},
    {"nest.advance_ms_tail", "ms"},
    {"nest.advance_ms_tail_pct", "%"},
    {"resilience.guard_overhead_s", "s"},
    {"resilience.snapshots", "count"},
    {"resilience.rollbacks", "count"},
    {"util.cpu_busy_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.unaccounted_ratio", "ratio"},
};

std::string exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

WorkloadResult run(const std::string& workload, const RunConfig& config) {
  using perfbench::CampaignPhase;
  if (workload == "serve_drain") return perfbench::run_serve_drain(config);
  if (workload == "campaign_cold")
    return perfbench::run_campaign(config, CampaignPhase::cold);
  if (workload == "campaign_warm")
    return perfbench::run_campaign(config, CampaignPhase::warm);
  if (workload == "campaign_faulted")
    return perfbench::run_campaign(config, CampaignPhase::faulted);
  if (workload == "swm_nested_hour")
    return perfbench::run_swm_nested_hour(config);
  throw nestwx::util::PreconditionError("unknown workload '" + workload + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const nestwx::util::Cli cli(argc, argv);
    const std::string workload = cli.get("workload", "");
    RunConfig config;
    config.seed = std::stoull(cli.get("seed", "1"));
    config.seconds = cli.get_double("seconds", 10.0);
    config.trace = cli.get_int("trace", 0) != 0;
    config.work_dir = cli.get("work-dir", ".bench_build/work");
    config.source_root = cli.get("source-root", ".");
    const std::string trace_file =
        cli.get("trace-file", config.work_dir + "/trace.json");
    NESTWX_REQUIRE(config.seconds > 0.0, "--seconds must be positive");
    std::filesystem::create_directories(config.work_dir);

    const std::map<std::string, std::string> stamp = {
        {"workload", workload},
        {"seed", std::to_string(config.seed)},
        {"hardware_concurrency",
         std::to_string(std::thread::hardware_concurrency())},
        {"threads", std::to_string(perfbench::kThreads)},
        {"build_tier", nestwx::swm::build_tier_name()},
        {"compiler", PERFBENCH_COMPILER},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"commit", cli.get("commit", "unknown")},
    };
    std::cout << "stamp:";
    for (const auto& [key, value] : stamp) std::cout << " " << key << "=" << value;
    std::cout << "\n" << std::flush;

    WorkloadResult result = run(workload, config);

    if (config.trace) {
      perfbench::write_chrome_trace(trace_file, result.spans, stamp);
      std::cout << "trace: " << result.spans.size() << " spans written to "
                << trace_file << "\n";
    }

    std::string metrics;
    auto emit = [&](const MetricSpec& spec) {
      double value = 0.0;
      const auto it = result.metrics.find(spec.name);
      if (it != result.metrics.end()) value = it->second;
      if (!std::isfinite(value)) {
        result.checks.expect(false, std::string(spec.name) + " is not finite");
        value = 0.0;
      }
      std::printf("  %-34s %16.6g %s\n", spec.name, value, spec.unit);
      metrics += std::string(metrics.empty() ? "" : ", ") +
                 nestwx::util::json_quote(spec.name) + ": {\"value\": " +
                 exact(value) + ", \"unit\": " +
                 nestwx::util::json_quote(spec.unit) + "}";
    };
    std::printf("metrics (%s, seed %llu):\n", workload.c_str(),
                static_cast<unsigned long long>(config.seed));
    if (config.trace) {
      for (const MetricSpec& spec : kPerLayer) emit(spec);
    } else {
      for (const MetricSpec& spec : kEndToEnd) emit(spec);
    }

    const bool correct = result.checks.failed() == 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << result.checks.attempted()
              << ", \"failed\": " << result.checks.failed()
              << ", \"metrics\": {" << metrics << "}}" << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "nestwx-perfbench: " << e.what() << "\n";
    return 2;
  }
}

/// \file workload_swm.cpp
/// swm_nested_hour: the Table-2 four-sibling shape — a 96² parent at
/// 17 km with four 24×24-cell ratio-3 nests (72² children), coriolis 1e-4,
/// viscosity 40, wall boundaries — integrated for one simulated hour by
/// resilience::GuardedRunner (default policy) over nest::NestedSimulation
/// on a 4-thread pool at dt = 0.5 · stable_dt(0.4). The seed places and
/// sizes two depressions and perturbs the depth field.

#include <cmath>
#include <cstdio>

#include "nest/simulation.hpp"
#include "resilience/guarded_run.hpp"
#include "sample_stats.hpp"
#include "swm/bc.hpp"
#include "swm/diagnostics.hpp"
#include "swm/dynamics.hpp"
#include "swm/init.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace s = nestwx::swm;
namespace n = nestwx::nest;

constexpr int kParentCells = 96;
constexpr double kDx = 17e3;
constexpr int kRatio = 3;
/// Relative parent mass change allowed over the hour. Two-way feedback
/// is not conservative, so the drift is small but not round-off.
constexpr double kMassDriftBound = 1e-6;

struct Scene {
  s::State initial;
  s::ModelParams params;
  std::vector<n::NestSpec> nests;
};

Scene make_scene(std::uint64_t seed) {
  nestwx::util::Rng rng(seed);
  Scene scene;
  scene.params.coriolis = 1e-4;
  scene.params.viscosity = 40.0;
  scene.params.boundary = s::BoundaryKind::wall;
  s::GridSpec grid;
  grid.nx = grid.ny = kParentCells;
  grid.dx = grid.dy = kDx;
  const double f = scene.params.coriolis;
  scene.initial =
      s::depression(grid, f, rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7),
                    1000.0, rng.uniform(20.0, 40.0), rng.uniform(120e3, 240e3));
  s::add_depression(scene.initial, f, rng.uniform(0.2, 0.8),
                    rng.uniform(0.2, 0.8), rng.uniform(10.0, 30.0),
                    rng.uniform(120e3, 240e3));
  s::perturb(scene.initial, rng, 0.5);
  s::apply_boundary(scene.initial, scene.params.boundary);
  scene.nests = {n::NestSpec{"sw", 4, 4, 24, 24, kRatio},
                 n::NestSpec{"se", 66, 4, 24, 24, kRatio},
                 n::NestSpec{"nw", 4, 66, 24, 24, kRatio},
                 n::NestSpec{"ne", 66, 66, 24, 24, kRatio}};
  return scene;
}

std::uint64_t checksum(const n::NestedSimulation& sim) {
  std::uint64_t h = nestwx::util::kFnvOffsetBasis;
  auto mix = [&](const s::State& st) {
    for (const s::Field2D* f : {&st.h, &st.u, &st.v})
      h = nestwx::util::fnv1a(f->raw().data(), f->raw().size_bytes(), h);
  };
  mix(sim.parent());
  for (std::size_t k = 0; k < sim.sibling_count(); ++k)
    mix(sim.sibling(k).state());
  return h;
}

bool all_finite(const n::NestedSimulation& sim) {
  bool ok = s::all_finite(sim.parent());
  for (std::size_t k = 0; k < sim.sibling_count(); ++k)
    ok = ok && s::all_finite(sim.sibling(k).state());
  return ok;
}

/// Nominal FLOPs and bytes of one tendency evaluation on an nx × ny grid,
/// from the per-point counts bench_swm_kernels uses (mass 17 FLOP / 80 B,
/// u and v 32 FLOP / 112 B each).
struct Nominal {
  double flops = 0.0;
  double bytes = 0.0;
};
Nominal tendency_nominal(int nx, int ny) {
  const double mass = static_cast<double>(nx) * ny;
  const double u = static_cast<double>(nx + 1) * ny;
  const double v = static_cast<double>(nx) * (ny + 1);
  return {17.0 * mass + 32.0 * (u + v), 80.0 * mass + 112.0 * (u + v)};
}

struct Hour {
  double wall = 0.0;
  int rollbacks = 0;
};

}  // namespace

WorkloadResult run_swm_nested_hour(const RunConfig& config) {
  WorkloadResult result;
  CheckLog& checks = result.checks;

  Scene scene;
  double dt = 0.0;
  result.metrics["setup_s"] = median_setup_seconds([&] {
    scene = make_scene(config.seed);
    const n::NestedSimulation sim(scene.initial, scene.params, scene.nests);
    dt = 0.5 * sim.stable_dt(0.4);
  });
  const int steps = static_cast<int>(std::ceil(3600.0 / dt));
  const double sim_hours = steps * dt / 3600.0;
  nestwx::util::ThreadPool pool(kThreads);

  // One simulated hour from the initial state, guarded or plain.
  auto hour = [&](bool guarded, Tracer* tracer) {
    n::NestedSimulation sim(scene.initial, scene.params, scene.nests);
    sim.set_thread_pool(&pool);
    const double mass0 = s::diagnose(sim.parent()).mass;
    Hour h;
    const double t0 = wall_now();
    try {
      if (guarded) {
        MaybeScope span(tracer, "resilience.guarded_hour");
        nestwx::resilience::GuardedRunner runner(sim);
        h.rollbacks = runner.run(dt, steps).rollbacks;
      } else {
        MaybeScope span(tracer, "nest.hour");
        for (int i = 0; i < steps; ++i) {
          MaybeScope advance(tracer, "nest.advance", i);
          sim.advance(dt);
        }
      }
    } catch (const nestwx::resilience::BlowupError& e) {
      checks.expect(false, std::string("guarded hour blew up: ") + e.what());
      return h;
    }
    h.wall = wall_now() - t0;
    checks.operations(static_cast<std::size_t>(steps), 0, "parent steps");
    checks.expect(all_finite(sim), "final state is not finite");
    const double drift =
        std::abs(s::diagnose(sim.parent()).mass - mass0) / mass0;
    checks.expect(drift <= kMassDriftBound,
                  "parent mass drift " + std::to_string(drift));
    // Guarded and plain hours without rollbacks integrate the same bits.
    checks.same_as_first("swm state checksum", std::to_string(checksum(sim)));
    return h;
  };

  if (!config.trace) {
    const Measured measured =
        measure(config.seconds, [&] { return hour(true, nullptr).wall; });
    result.metrics["items_per_s"] = sim_hours / measured.normalized_wall();
    result.metrics["peak_rss_mb"] = measured.peak_rss_mb;
    std::printf("swm_nested_hour: %zu guarded hours of %d steps (dt %.4f s), "
                "median %.4f s\n",
                measured.walls.size(), steps, dt, median(measured.walls));
    return result;
  }

  // Each untraced and traced repetition runs a plain and a guarded hour:
  // the guarded one is the reference wall, the plain one measures the
  // trace overhead (it is the one with a span per parent step).
  Tracer tracer;
  std::vector<double> untraced_plain, traced_plain;
  double rollbacks = 0.0;
  const Paired paired = measure_paired(
      0.9 * config.seconds,
      [&] {
        untraced_plain.push_back(hour(false, nullptr).wall);
        return hour(true, nullptr).wall;
      },
      [&] {
        traced_plain.push_back(hour(false, &tracer).wall);
        const Hour h = hour(true, &tracer);
        rollbacks += h.rollbacks;
        return h.wall;
      });
  const std::vector<double>& untraced_guarded = paired.untraced;
  const std::vector<double>& traced_guarded = paired.traced;
  const double ops = static_cast<double>(traced_guarded.size());

  // Kernel-level numbers: serial Stepper::step on copies of the parent
  // and the first child, and the serial fused tendency on the parent.
  const n::NestedSimulation probe(scene.initial, scene.params, scene.nests);
  s::ModelParams child_params = scene.params;
  child_params.boundary = s::BoundaryKind::open;
  child_params.viscosity = scene.params.viscosity / kRatio;
  auto step_ms = [&](const s::State& initial, const s::ModelParams& params,
                     double step_dt, const char* name) {
    s::State st = initial;
    s::Stepper stepper(st.grid, params);
    for (int i = 0; i < 40; ++i) {
      Tracer::Scope span(tracer, name, i);
      stepper.step(st, step_dt);
    }
    std::vector<double> ms = durations_of(tracer.spans(), name);
    for (double& v : ms) v *= 1e3;
    return median(ms);
  };
  const double parent_ms =
      step_ms(scene.initial, scene.params, dt, "swm.step_parent");
  const double child_ms = step_ms(probe.sibling(0).state(), child_params,
                                  dt / kRatio, "swm.step_child");
  s::Tendency tendency(scene.initial.grid);
  const int tendency_calls = 200;
  const double tt0 = wall_now();
  for (int i = 0; i < tendency_calls; ++i)
    s::compute_tendency(scene.initial, scene.params, tendency);
  const double tendency_s = wall_now() - tt0;

  result.spans = tracer.spans();
  const std::vector<Span>& spans = result.spans;
  std::map<std::string, double>& m = result.metrics;
  const std::vector<double> advance = durations_of(spans, "nest.advance");
  double advance_total = 0.0;
  for (double d : advance) advance_total += d;
  m["nest.advance_s"] = advance_total / ops;
  add_call_stats(spans, "nest.advance", "nest.advance", ops, m);
  m["resilience.guard_overhead_s"] =
      median(traced_guarded) - median(traced_plain);
  m["resilience.snapshots"] = steps;  // snapshot_every = 1, no rollbacks
  m["resilience.rollbacks"] = rollbacks / ops;
  m["swm.step_parent_ms"] = parent_ms;
  m["swm.step_child_ms"] = child_ms;
  const Nominal parent = tendency_nominal(kParentCells, kParentCells);
  const int child_cells = 24 * kRatio;
  const Nominal child = tendency_nominal(child_cells, child_cells);
  const double evals_per_step = 3.0;  // RK3 stages
  const double child_steps = static_cast<double>(scene.nests.size()) * kRatio;
  m["swm.tendency_cells_per_s"] =
      tendency_calls *
      (3.0 * kParentCells * kParentCells + 2.0 * kParentCells) / tendency_s;
  m["swm.flops_per_sim_hour_nominal"] =
      steps * evals_per_step * (parent.flops + child_steps * child.flops);
  m["swm.bytes_per_sim_hour_computed"] =
      steps * evals_per_step * (parent.bytes + child_steps * child.bytes);

  std::printf("hours: untraced guarded %.4f / plain %.4f s, traced guarded "
              "%.4f / plain %.4f s (medians of %zu)\n",
              median(untraced_guarded), median(untraced_plain),
              median(traced_guarded), median(traced_plain),
              traced_guarded.size());
  std::printf("nest.advance: %zu samples; tail is p%g\n", advance.size(),
              m["nest.advance_ms_tail_pct"]);
  const std::map<std::string, double> layers = {
      {"nest.advance_s", m["nest.advance_s"]},
      {"resilience.guard_overhead_s", m["resilience.guard_overhead_s"]}};
  finish_trace(m, layers, median(untraced_guarded),
               median(traced_plain) / median(untraced_plain) - 1.0,
               paired.cpu_busy);
  return result;
}

}  // namespace perfbench

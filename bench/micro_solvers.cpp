// Micro-benchmarks (google-benchmark): runtime scaling of every solver on
// paper-scale inputs, plus the shared coverage engine's warm-vs-cold story on
// a large instance (400 APs / 20k users). The paper argues centralized
// algorithms "are still feasible to execute" up to ~100 APs — these numbers
// quantify that claim for our implementation, and the Warm* benches quantify
// what a prebuilt engine and a reused workspace buy for repeated solves on
// one network.
//
// Run: ./micro_solvers [--benchmark_filter=...] [--json=out.json]
//                      [--simd=auto|scalar|avx2]
//
// --json writes {"schema": "wmcast-microbench/v1", "threads": <hw threads>,
// "benchmarks": [{name, real_time_ns, iterations}, ...]} for tools/bench_guard
// to diff against the committed baseline (bench/BENCH_micro_solvers.json).

#include <benchmark/benchmark.h>

#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "wmcast/assoc/centralized.hpp"
#include "wmcast/assoc/distributed.hpp"
#include "wmcast/assoc/kconn.hpp"
#include "wmcast/core/parallel.hpp"
#include "wmcast/assoc/ssa.hpp"
#include "wmcast/ctrl/controller.hpp"
#include "wmcast/core/solve.hpp"
#include "wmcast/exact/exact_mla.hpp"
#include "wmcast/ext/locks.hpp"
#include "wmcast/setcover/reduction.hpp"
#include "wmcast/util/json.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/util/simd.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace {

using namespace wmcast;

wlan::Scenario scenario_for(int n_aps, int n_users, uint64_t seed = 77) {
  wlan::GeneratorParams p;
  p.n_aps = n_aps;
  p.n_users = n_users;
  util::Rng rng(seed);
  return wlan::generate_scenario(p, rng);
}

/// The large instance for the warm-engine benches: scaled so the reduction
/// (not the solve) dominates a cold run.
wlan::Scenario large_scenario() {
  static const wlan::Scenario sc = [] {
    wlan::GeneratorParams p;
    p.n_aps = 400;
    p.n_users = 20000;
    p.area_side_m = 2000.0;
    util::Rng rng(79);
    return wlan::generate_scenario(p, rng);
  }();
  return sc;
}

void BM_BuildSetSystem(benchmark::State& state) {
  const auto sc = scenario_for(static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(setcover::build_set_system(sc));
  }
}
BENCHMARK(BM_BuildSetSystem)->Args({50, 100})->Args({100, 200})->Args({200, 400});

void BM_CentralizedMla(benchmark::State& state) {
  const auto sc = scenario_for(static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(assoc::centralized_mla(sc).loads.total_load);
  }
}
BENCHMARK(BM_CentralizedMla)->Args({50, 100})->Args({100, 200})->Args({200, 400});

void BM_CentralizedBla(benchmark::State& state) {
  const auto sc = scenario_for(static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(assoc::centralized_bla(sc).loads.max_load);
  }
}
BENCHMARK(BM_CentralizedBla)->Args({50, 100})->Args({100, 200})->Args({200, 400});

void BM_CentralizedMnu(benchmark::State& state) {
  const auto sc = scenario_for(static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(1)))
                      .with_budget(0.05);
  for (auto _ : state) {
    benchmark::DoNotOptimize(assoc::centralized_mnu(sc).loads.satisfied_users);
  }
}
BENCHMARK(BM_CentralizedMnu)->Args({50, 100})->Args({100, 200})->Args({200, 400});

void BM_DistributedRound(benchmark::State& state) {
  const auto sc = scenario_for(static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(1)));
  for (auto _ : state) {
    util::Rng rng(1);
    benchmark::DoNotOptimize(assoc::distributed_mla(sc, rng).loads.total_load);
  }
}
BENCHMARK(BM_DistributedRound)->Args({50, 100})->Args({100, 200})->Args({200, 400});

void BM_Ssa(benchmark::State& state) {
  const auto sc = scenario_for(static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(1)));
  for (auto _ : state) {
    util::Rng rng(1);
    benchmark::DoNotOptimize(assoc::ssa_associate(sc, rng).loads.total_load);
  }
}
BENCHMARK(BM_Ssa)->Args({100, 200})->Args({200, 400});

void BM_LockCoordinated(benchmark::State& state) {
  const auto sc = scenario_for(static_cast<int>(state.range(0)),
                               static_cast<int>(state.range(1)));
  for (auto _ : state) {
    util::Rng rng(1);
    benchmark::DoNotOptimize(
        ext::lock_coordinated_associate(sc, rng, {}).loads.total_load);
  }
}
BENCHMARK(BM_LockCoordinated)->Args({100, 200});

void BM_ExactMlaSmall(benchmark::State& state) {
  const auto sc = scenario_for(30, static_cast<int>(state.range(0)), 78);
  const auto sys = setcover::build_set_system(sc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact::exact_min_cost_cover(sys).cost);
  }
}
BENCHMARK(BM_ExactMlaSmall)->Arg(20)->Arg(40);

void BM_GreedySetCoverKernel(benchmark::State& state) {
  const auto sc = scenario_for(200, 400);
  const auto sys = setcover::build_set_system(sc);
  for (auto _ : state) {
    const core::CoverageEngine eng = setcover::to_engine(sys);
    core::SolveWorkspace ws;
    benchmark::DoNotOptimize(core::greedy_cover(eng, ws).total_cost);
  }
}
BENCHMARK(BM_GreedySetCoverKernel);

void BM_McgGreedyKernel(benchmark::State& state) {
  const auto sc = scenario_for(200, 400);
  const auto sys = setcover::build_set_system(sc);
  for (auto _ : state) {
    const core::CoverageEngine eng = setcover::to_engine(sys);
    core::SolveWorkspace ws;
    const std::vector<double> budgets(static_cast<size_t>(sys.n_groups()), 0.9);
    benchmark::DoNotOptimize(core::mcg_cover(eng, ws, budgets).chosen.size());
  }
}
BENCHMARK(BM_McgGreedyKernel);

// --- Engine warm-vs-cold on the large instance -------------------------------

/// Cold repeated solve: what every epoch costs without the engine — project
/// the scenario into a fresh set system, then run greedy over it.
void BM_LargeColdGreedy(benchmark::State& state) {
  const auto sc = large_scenario();
  for (auto _ : state) {
    const auto sys = setcover::build_set_system(sc);
    const core::CoverageEngine eng = setcover::to_engine(sys);
    core::SolveWorkspace ws;
    benchmark::DoNotOptimize(core::greedy_cover(eng, ws).total_cost);
  }
}
BENCHMARK(BM_LargeColdGreedy);

/// One-time engine projection of the large instance (the warm path's setup).
void BM_LargeEngineBuild(benchmark::State& state) {
  const auto sc = large_scenario();
  core::CoverageEngine eng;
  for (auto _ : state) {
    setcover::build_engine(sc, true, eng);
    benchmark::DoNotOptimize(eng.n_set_slots());
  }
}
BENCHMARK(BM_LargeEngineBuild);

/// Warm repeated solve: greedy on the prebuilt engine with a reused
/// workspace — zero allocations and no reduction in steady state. The
/// headline number: must be >= 3x faster than BM_LargeColdGreedy.
void BM_LargeWarmGreedy(benchmark::State& state) {
  const auto sc = large_scenario();
  core::CoverageEngine eng;
  setcover::build_engine(sc, true, eng);
  core::SolveWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::greedy_cover(eng, ws).total_cost);
  }
}
BENCHMARK(BM_LargeWarmGreedy);

void BM_LargeWarmScg(benchmark::State& state) {
  const auto sc = large_scenario();
  core::CoverageEngine eng;
  setcover::build_engine(sc, true, eng);
  core::SolveWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::scg_cover(eng, ws).max_group_cost);
  }
}
BENCHMARK(BM_LargeWarmScg);

// --- Parallel execution layer (DESIGN.md §9) ---------------------------------

/// Sharded per-session greedy on the large warm engine across N threads; the
/// /1 run is the serial reference the speedup is measured against (the result
/// is bitwise identical at every N).
void BM_ParallelSolveSessions(benchmark::State& state) {
  const auto sc = large_scenario();
  core::CoverageEngine eng;
  setcover::build_engine(sc, true, eng);
  util::ThreadPool pool(static_cast<int>(state.range(0)));
  core::SessionShards shards;
  shards.build(eng);
  core::ShardWorkspaces wss;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::parallel_greedy_cover(eng, pool, wss, shards).total_cost);
  }
}
BENCHMARK(BM_ParallelSolveSessions)->Arg(1)->Arg(8);

/// One full figure-bench sweep point (40 scenarios x MLA-C) across N threads;
/// streams are pre-drawn so summaries match the serial sweep exactly.
void BM_ParallelSweep(benchmark::State& state) {
  wlan::GeneratorParams p;
  p.n_aps = 200;
  p.n_users = 400;
  util::ThreadPool pool(static_cast<int>(state.range(0)));
  const std::vector<bench::Algo> algos = {
      {"MLA-C", [](const wlan::Scenario& sc, util::Rng&) {
         return assoc::centralized_mla(sc).loads.total_load;
       }}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(bench::sweep_point(p, 40, 9, algos, &pool)[0].avg);
  }
}
BENCHMARK(BM_ParallelSweep)->Arg(1)->Arg(8);

// --- Hot-path kernels (DESIGN.md §13) ----------------------------------------
//
// The solver's inner loops, benched in isolation under dotted kernel.* names
// so tools/bench_guard can gate each one independently (--gate-prefix=kernel.). All
// run whichever dispatch --simd selected (auto by default); the scalar path
// is byte-compared against AVX2 by the tests, so these entries only track
// speed. Sized to clear bench_guard's 50 µs noise floor per iteration.

constexpr size_t kKernelWords = size_t{1} << 17;  // 1 MiB per operand

std::vector<uint64_t> random_words(uint64_t seed) {
  std::vector<uint64_t> w(kKernelWords);
  util::Rng rng(seed);
  for (auto& x : w) x = rng.next_u64();
  return w;
}

void BM_KernelPopcount(benchmark::State& state) {
  const auto a = random_words(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::popcount_words(a.data(), a.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * kKernelWords * 8));
}

void BM_KernelPopcountAnd(benchmark::State& state) {
  const auto a = random_words(11);
  const auto b = random_words(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::popcount_and_words(a.data(), b.data(), a.size()));
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * kKernelWords * 16));
}

void BM_KernelPopcountAndnot(benchmark::State& state) {
  const auto a = random_words(11);
  const auto b = random_words(13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simd::popcount_andnot_words(a.data(), b.data(), a.size()));
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * kKernelWords * 16));
}

/// Pure CSR member-arena streaming: every set's row, in set order — the
/// memory-bandwidth floor under the gain rescan.
void BM_KernelCsrWalk(benchmark::State& state) {
  const auto sc = large_scenario();
  core::CoverageEngine eng;
  setcover::build_engine(sc, true, eng);
  for (auto _ : state) {
    int64_t sum = 0;
    for (int j = 0; j < eng.n_set_slots(); ++j) {
      for (const int32_t e : eng.members(j)) sum += e;
    }
    benchmark::DoNotOptimize(sum);
  }
}

/// The eager gain recomputation: per set, count members still uncovered (CSR
/// row walk + bitset probes) — what the maintained-gain design avoids per
/// pick.
void BM_KernelGainRescan(benchmark::State& state) {
  const auto sc = large_scenario();
  core::CoverageEngine eng;
  setcover::build_engine(sc, true, eng);
  const util::DynBitset& remaining = eng.coverable();
  for (auto _ : state) {
    int64_t total = 0;
    for (int j = 0; j < eng.n_set_slots(); ++j) {
      int gain = 0;
      for (const int32_t e : eng.members(j)) gain += remaining.test(e) ? 1 : 0;
      total += gain;
    }
    benchmark::DoNotOptimize(total);
  }
}

/// Warm engine solve end-to-end — the composite the kernels above feed.
void BM_KernelWarmGreedySolve(benchmark::State& state) {
  const auto sc = large_scenario();
  core::CoverageEngine eng;
  setcover::build_engine(sc, true, eng);
  core::SolveWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::greedy_cover(eng, ws).total_cost);
  }
}

// --- k-connectivity overlay (DESIGN.md §15-16) -------------------------------
//
// Dotted kconn.* names so tools/bench_guard can gate the overlay's cost
// independently (--gate-prefix=kconn.).

/// The cold augmentation alone: the base MLA solve is prebuilt, so this
/// isolates the full plan + derive sweep the k=2 paths add on top of a legacy
/// solve.
void BM_KconnAugmentK2(benchmark::State& state) {
  const auto sc = scenario_for(200, 400);
  const auto base = assoc::centralized_mla(sc);
  assoc::KconnParams kp;
  kp.k = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        assoc::augment_to_k(sc, base.assoc, base.loads, kp).n_users());
  }
}

/// One controller epoch of k=2 overlay maintenance under light churn (20
/// moves against 4k users): the persistent kconn engine re-plans only the
/// dirty APs and re-derives only the dirty rows. Contrast with
/// kconn.augment_k2, which pays the full sweep every call.
void BM_KconnRepairEpoch(benchmark::State& state) {
  const auto sc = scenario_for(200, 4000);
  ctrl::ControllerConfig cfg;
  cfg.k = 2;
  cfg.full_refresh_epochs = 0;  // keep every iteration on the repair path
  ctrl::AssociationController ctl(sc, cfg);
  util::Rng rng(123);
  std::vector<ctrl::Event> batch;
  for (auto _ : state) {
    batch.clear();
    for (int i = 0; i < 20; ++i) {
      const int s = rng.next_int(ctl.state().n_slots());
      wlan::Point pos = ctl.state().slot(s).pos;
      pos.x += rng.uniform(-20.0, 20.0);
      pos.y += rng.uniform(-20.0, 20.0);
      batch.push_back(ctrl::Event::move(s, pos));
    }
    ctl.submit(batch);
    benchmark::DoNotOptimize(ctl.drain().kconn_repaired_users);
  }
}

/// End-to-end MLA at k=2: cold reduction + base solve + augmentation +
/// multi-load accounting — what a --k=2 CLI solve pays per call.
void BM_KconnMlaK2EndToEnd(benchmark::State& state) {
  const auto sc = scenario_for(200, 400);
  assoc::CentralizedParams params;
  params.k = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        assoc::centralized_mla(sc, params).multi_loads.mean_effective_rate);
  }
}

void register_kernel_benches() {
  benchmark::RegisterBenchmark("kconn.augment_k2", BM_KconnAugmentK2);
  benchmark::RegisterBenchmark("kconn.repair_epoch", BM_KconnRepairEpoch);
  benchmark::RegisterBenchmark("kconn.mla_k2_end_to_end", BM_KconnMlaK2EndToEnd);
  benchmark::RegisterBenchmark("kernel.popcount", BM_KernelPopcount);
  benchmark::RegisterBenchmark("kernel.popcount_and", BM_KernelPopcountAnd);
  benchmark::RegisterBenchmark("kernel.popcount_andnot", BM_KernelPopcountAndnot);
  benchmark::RegisterBenchmark("kernel.csr_walk", BM_KernelCsrWalk);
  benchmark::RegisterBenchmark("kernel.gain_rescan", BM_KernelGainRescan);
  benchmark::RegisterBenchmark("kernel.warm_greedy_solve", BM_KernelWarmGreedySolve);
}

// --- JSON reporter -----------------------------------------------------------

/// Console output as usual, plus a flat (name, real_time, iterations) record
/// per run for the regression guard.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Entry {
    std::string name;
    double real_time_ns = 0.0;
    int64_t iterations = 0;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const auto& r : runs) {
      if (r.run_type != Run::RT_Iteration || r.error_occurred) continue;
      entries_.push_back({r.benchmark_name(), r.GetAdjustedRealTime(), r.iterations});
    }
  }

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> rest;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--json=", 0) == 0) {
      json_path = a.substr(7);
    } else if (a.rfind("--simd=", 0) == 0) {
      wmcast::simd::set_mode(wmcast::simd::mode_from_name(a.substr(7)));
    } else {
      rest.push_back(argv[i]);
    }
  }
  register_kernel_benches();
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data())) return 1;

  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!json_path.empty()) {
    auto benches = util::Json::array();
    for (const auto& e : reporter.entries()) {
      auto b = util::Json::object();
      b.set("name", util::Json(e.name));
      b.set("real_time_ns", util::Json(e.real_time_ns));
      b.set("iterations", util::Json(e.iterations));
      b.set("peak_rss_bytes",
            static_cast<int64_t>(wmcast::bench::peak_rss_bytes()));
      benches.push(std::move(b));
    }
    auto j = util::Json::object();
    j.set("schema", util::Json("wmcast-microbench/v1"));
    j.set("threads", util::Json(util::ThreadPool::hardware_threads()));
    j.set("benchmarks", std::move(benches));
    std::ofstream f(json_path);
    f << j.dump(2) << "\n";
  }
  return 0;
}

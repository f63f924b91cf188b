// Performance simulator: executes compiled layer plans against the hardware
// config, modeling pass-level reload/compute overlap (progressive generation
// + shadow buffering), near-memory operations, ping-pong banking, DVFS, and
// external-memory streaming. This mirrors the paper's "custom performance
// simulator, which combines the numbers from individual modules with a
// compiled code representing the given network model".
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "arch/compiler.hpp"
#include "arch/energy_model.hpp"
#include "arch/hw_config.hpp"
#include "arch/tech.hpp"
#include "arch/timing_model.hpp"

namespace geo::arch {

struct LayerPerf {
  std::string name;
  double compute_cycles = 0;
  double stall_cycles = 0;   // reload not hidden by shadow buffering
  double nearmem_cycles = 0;
  double total_cycles = 0;
  double energy_j = 0;
  double ext_seconds = 0;    // external-memory streaming time (overlapped)
};

struct PerfResult {
  double cycles = 0;
  double seconds = 0;
  double frames_per_second = 0;
  double energy_per_frame_j = 0;
  double frames_per_joule = 0;
  double average_power_w = 0;
  double vdd = 0;
  EnergyBreakdown energy;
  AccessCounts accesses;
  std::vector<LayerPerf> layers;
};

// Mirrors the resilience runtime's retry cost into an analytical result:
// adds each layer's retry cycles (ResilienceReport::per_layer_retry_cycles,
// in layer order; extra entries are ignored) to that layer's stall bucket
// and re-derives the latency figures. Energy is left untouched — backoff
// cycles are idle, and the recompute energy of abandoned rungs is
// second-order next to the stall cost. Bumps perfsim.retry_cycles.
void apply_retry_cycles(PerfResult& result,
                        std::span<const std::int64_t> per_layer_retry_cycles,
                        double clock_mhz);

class PerfSim {
 public:
  explicit PerfSim(const HwConfig& hw,
                   const TechParams& tech = TechParams::hvt28());

  // Simulates one inference of the network (compiles it first).
  PerfResult simulate(const NetworkShape& net) const;
  PerfResult simulate(const std::vector<LayerPlan>& plans) const;

  // Reload stall per pass, in cycles — the one stall formula: simulate()
  // and GeoMachine's per-pass ledger charge both use it (the member form
  // is exposed for ablation benches).
  static double pass_stall_cycles(const HwConfig& hw, const LayerPlan& plan);
  double pass_stall_cycles(const LayerPlan& plan) const {
    return pass_stall_cycles(hw_, plan);
  }

  // Peak throughput rating: 2 ops/MAC at the shortest configured stream
  // length; all-OR designs (ACOUSTIC-style) pay the split-unipolar doubling
  // explicitly. See DESIGN.md "Calibration policy" for the convention.
  double peak_gops() const;
  double peak_tops_per_watt() const;

  const HwConfig& hw() const { return hw_; }
  const EnergyModel& energy_model() const { return energy_; }

 private:
  HwConfig hw_;       // vdd already resolved through DVFS
  TechParams tech_;
  EnergyModel energy_;
  Compiler compiler_;
};

}  // namespace geo::arch

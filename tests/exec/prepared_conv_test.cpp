// Randomized differential test of shared weight banks (ctest -L exec): N
// inputs bound one after another to one arch::PreparedConv must produce,
// run for run, exactly what N fresh GeoMachine::prepare_conv calls produce —
// counters, activations and every MachineStats field (each run charges the
// bank's weight-read ECC retries). Covers every accumulation mode, L in
// {32, 64, 128}, GEO_THREADS in {1, 4}, and the fault models a bank may be
// shared under: none, SRAM defects + SECDED, a stuck counter column, and
// accumulator-input flips. A bank built under a transient fault model
// serves one run only: a second bind fails closed.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "arch/machine.hpp"
#include "exec/parallel_conv.hpp"
#include "exec/thread_pool.hpp"
#include "fault/fault_model.hpp"

namespace geo {
namespace {

using arch::ConvShape;
using arch::GeoMachine;
using arch::HwConfig;
using arch::MachineResult;
using fault::FaultConfig;
using fault::ScopedFaultInjection;

struct Layer {
  ConvShape shape;
  HwConfig hw;
  std::vector<float> weights, ones, zeros;
  std::vector<std::vector<float>> inputs;
  std::uint64_t salt = 0;
};

Layer random_layer(std::mt19937& rng, nn::AccumMode accum, int L) {
  auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  Layer l;
  ConvShape& s = l.shape;
  s.name = "shared";
  s.cin = pick(1, 3);
  s.cout = pick(1, 6);
  s.kh = s.kw = pick(1, 3);
  s.stride = pick(1, 2);
  s.pad = pick(0, s.kw - 1);
  s.hin = pick(std::max(1, s.kh - 2 * s.pad), 6);
  s.win = pick(std::max(1, s.kw - 2 * s.pad), 6);

  HwConfig& hw = l.hw;
  hw = HwConfig::ulp();
  hw.accum = accum;
  hw.stream_len = hw.stream_len_pool = hw.stream_len_output = L;
  hw.progressive = pick(0, 1) == 1;
  hw.sharing = static_cast<sc::Sharing>(pick(0, 2));
  hw.rows = pick(1, 8);
  hw.windows_per_row = pick(2, 5);
  const int K = s.taps();
  hw.macs_per_row = K > 1 && pick(0, 1) != 0 ? pick(1, K - 1) : K;

  std::uniform_real_distribution<float> wdist(-0.9f, 0.9f);
  std::uniform_real_distribution<float> adist(0.0f, 1.0f);
  l.weights.resize(static_cast<std::size_t>(s.weights()));
  for (auto& w : l.weights) w = wdist(rng);
  l.inputs.resize(3);
  for (auto& input : l.inputs) {
    input.resize(static_cast<std::size_t>(s.activations()));
    for (auto& a : input) a = adist(rng);
  }
  l.ones.assign(static_cast<std::size_t>(s.cout), 1.0f);
  l.zeros.assign(static_cast<std::size_t>(s.cout), 0.0f);
  l.salt = static_cast<std::uint64_t>(pick(0, 1 << 20));
  return l;
}

enum class Faults { kNone, kSram, kStuck, kAccum };

const char* to_string(Faults f) {
  switch (f) {
    case Faults::kNone: return "none";
    case Faults::kSram: return "sram";
    case Faults::kStuck: return "stuck";
    case Faults::kAccum: return "accum";
  }
  return "?";
}

FaultConfig fault_config(Faults f, std::uint64_t seed) {
  FaultConfig c;
  c.rng_seed = seed;
  if (f == Faults::kSram) {
    c.sram_error_rate = 2e-2;
    c.sram_burst = 2;
    c.ecc = fault::EccMode::kSecded;
  }
  if (f == Faults::kStuck || f == Faults::kAccum) {
    c.stuck.column = static_cast<int>(seed % 4);
    c.stuck.value = seed % 2 == 1;
  }
  if (f == Faults::kAccum) c.accum_flip_rate = 0.02;
  return c;
}

MachineResult run(geo::StatusOr<arch::ConvExecution> bound) {
  EXPECT_TRUE(bound.ok()) << bound.status().to_string();
  if (!bound.ok()) return {};
  arch::ConvExecution exec = std::move(bound).value();
  exec::ParallelConvRunner().run_all(exec);
  return exec.finish();
}

void expect_same(const MachineResult& got, const MachineResult& want) {
  EXPECT_EQ(got.counters, want.counters);
  EXPECT_EQ(got.activations, want.activations);
  const arch::MachineStats& a = got.stats;
  const arch::MachineStats& b = want.stats;
  EXPECT_EQ(a.passes, b.passes);
  EXPECT_EQ(a.compute_cycles, b.compute_cycles);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
  EXPECT_EQ(a.retry_stall_cycles, b.retry_stall_cycles);
  EXPECT_EQ(a.io_stall_cycles, b.io_stall_cycles);
  EXPECT_EQ(a.nearmem_cycles, b.nearmem_cycles);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.act_buffer_fills, b.act_buffer_fills);
  EXPECT_EQ(a.wgt_buffer_fills, b.wgt_buffer_fills);
  EXPECT_EQ(a.psum_ops, b.psum_ops);
  EXPECT_EQ(a.bn_ops, b.bn_ops);
  EXPECT_EQ(a.ledger_ok, b.ledger_ok);
  EXPECT_TRUE(a.ledger_ok);
}

class SharedBank : public ::testing::TestWithParam<nn::AccumMode> {};

TEST_P(SharedBank, RunsMatchFreshPrepares) {
  int ecc_charged = 0;
  for (const int L : {32, 64, 128}) {
    std::mt19937 rng(500u * static_cast<unsigned>(GetParam()) +
                     static_cast<unsigned>(L));
    for (int n = 0; n < 3; ++n) {
      const Layer l = random_layer(rng, GetParam(), L);
      GeoMachine machine(l.hw);
      for (const Faults f :
           {Faults::kNone, Faults::kSram, Faults::kStuck, Faults::kAccum}) {
        const std::uint64_t seed = rng();
        for (const int threads : {1, 4}) {
          SCOPED_TRACE("L=" + std::to_string(L) + " layer " +
                       std::to_string(n) + " faults=" + to_string(f) +
                       " threads=" + std::to_string(threads));
          exec::ScopedThreads scoped(threads);
          std::optional<ScopedFaultInjection> scope;
          if (f == Faults::kNone)
            scope.emplace(nullptr);  // shield from ambient GEO_FAULTS
          else
            scope.emplace(fault_config(f, seed));

          std::vector<MachineResult> fresh;
          for (const auto& input : l.inputs)
            fresh.push_back(run(machine.prepare_conv(
                l.shape, l.weights, input, l.ones, l.zeros, l.salt)));

          auto bank = machine.prepare(l.shape, l.weights, l.ones, l.zeros,
                                      l.salt);
          ASSERT_TRUE(bank.ok()) << bank.status().to_string();
          for (std::size_t i = 0; i < l.inputs.size(); ++i) {
            SCOPED_TRACE("input " + std::to_string(i));
            const MachineResult shared =
                run(arch::ConvExecution::bind(*bank, l.inputs[i]));
            expect_same(shared, fresh[i]);
            ecc_charged += i > 0 && shared.stats.retry_stall_cycles > 0;
          }
        }
      }
    }
  }
  // Later runs on a bank really do carry weight-read ECC retries.
  EXPECT_GT(ecc_charged, 0);
}

INSTANTIATE_TEST_SUITE_P(AllAccumModes, SharedBank,
                         ::testing::Values(nn::AccumMode::kOr,
                                           nn::AccumMode::kPbw,
                                           nn::AccumMode::kPbhw,
                                           nn::AccumMode::kFxp,
                                           nn::AccumMode::kApc),
                         [](const auto& info) {
                           return std::string(nn::to_string(info.param));
                         });

TEST(SharedBankBind, SecondBindUnderTransientFaultsFailsClosed) {
  std::mt19937 rng(11);
  const Layer l = random_layer(rng, nn::AccumMode::kPbw, 64);
  GeoMachine machine(l.hw);
  for (const bool transient : {false, true}) {
    FaultConfig cfg = fault_config(Faults::kSram, 5);
    cfg.transient = transient;
    ScopedFaultInjection scope(cfg);
    auto bank =
        machine.prepare(l.shape, l.weights, l.ones, l.zeros, l.salt);
    ASSERT_TRUE(bank.ok()) << bank.status().to_string();
    auto first = arch::ConvExecution::bind(*bank, l.inputs[0]);
    ASSERT_TRUE(first.ok()) << first.status().to_string();
    auto second = arch::ConvExecution::bind(*bank, l.inputs[1]);
    if (transient) {
      ASSERT_FALSE(second.ok());
      EXPECT_EQ(second.status().code(), geo::StatusCode::kFailedPrecondition);
    } else {
      EXPECT_TRUE(second.ok()) << second.status().to_string();
    }
    // The refused bind leaves the first run intact.
    EXPECT_TRUE(run(std::move(first)).stats.ledger_ok);
  }
}

TEST(SharedBankBind, RejectsAnInputOfTheWrongSize) {
  std::mt19937 rng(12);
  const Layer l = random_layer(rng, nn::AccumMode::kOr, 32);
  ScopedFaultInjection off(nullptr);
  auto bank =
      GeoMachine(l.hw).prepare(l.shape, l.weights, l.ones, l.zeros, l.salt);
  ASSERT_TRUE(bank.ok());
  const std::vector<float> short_input(l.inputs[0].size() - 1, 0.5f);
  auto bound = arch::ConvExecution::bind(*bank, short_input);
  ASSERT_FALSE(bound.ok());
  EXPECT_EQ(bound.status().code(), geo::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace geo

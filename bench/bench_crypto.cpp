// Supporting micro-benchmarks: throughput of the from-scratch crypto
// substrate (not a paper figure, but governs the cost model of real
// deployments and justifies the fast SimSuite for Monte-Carlo sweeps).
#include <benchmark/benchmark.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/curve25519.hpp"
#include "crypto/ecvrf.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/sampler.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"
#include "crypto/suite.hpp"

namespace {

using namespace probft;
using namespace probft::crypto;

void BM_Sha256(benchmark::State& state) {
  const Bytes msg(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(msg));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_Sha512(benchmark::State& state) {
  const Bytes msg(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha512::hash(msg));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha512)->Arg(64)->Arg(1024)->Arg(65536);

// ---- edwards25519 kernels ----

curve::U256 bench_scalar(const char* domain) {
  return curve::sc_reduce_wide(Sha512::hash(to_bytes(domain)));
}

void BM_FeMul(benchmark::State& state) {
  curve::Fe a = curve::fe_from_u256(bench_scalar("fe-a"));
  const curve::Fe b = curve::fe_from_u256(bench_scalar("fe-b"));
  for (auto _ : state) {
    a = curve::fe_mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FeMul);

void BM_FeInvert(benchmark::State& state) {
  curve::Fe a = curve::fe_from_u256(bench_scalar("fe-inv"));
  for (auto _ : state) {
    a = curve::fe_invert(a);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FeInvert);

void BM_PointDecompress(benchmark::State& state) {
  const Bytes enc = curve::point_compress(
      curve::point_base_mul(bench_scalar("decompress")));
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve::point_decompress(enc));
  }
}
BENCHMARK(BM_PointDecompress);

void BM_PointCompress(benchmark::State& state) {
  const curve::Point p = curve::point_base_mul(bench_scalar("compress"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve::point_compress(p));
  }
}
BENCHMARK(BM_PointCompress);

// k*B from the fixed-base comb.
void BM_BaseMul(benchmark::State& state) {
  const curve::U256 k = bench_scalar("base-mul");
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve::point_base_mul(k));
  }
}
BENCHMARK(BM_BaseMul);

// k*P for a variable P by wNAF, table build included.
void BM_VarBaseMul(benchmark::State& state) {
  const curve::U256 k = bench_scalar("var-mul");
  const curve::Point p = curve::point_base_mul(bench_scalar("var-point"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve::point_scalar_mul(k, p));
  }
}
BENCHMARK(BM_VarBaseMul);

// s*B + k*P as one Straus sum: the shape of a signature check.
void BM_DoubleScalarMul(benchmark::State& state) {
  const curve::U256 s = bench_scalar("straus-s");
  const curve::U256 k = bench_scalar("straus-k");
  const curve::Point p = curve::point_base_mul(bench_scalar("straus-point"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(curve::point_multi_scalar_mul(s, {{k, p}}));
  }
}
BENCHMARK(BM_DoubleScalarMul);

// ---- signatures and VRF ----

// More keys than the per-thread key caches hold (ed25519.cpp), visited in
// rotation, so every call of a cold-key benchmark misses the cache.
constexpr std::size_t kColdKeys = 256;

std::vector<Bytes> cold_seeds() {
  std::vector<Bytes> seeds;
  for (std::size_t i = 0; i < kColdKeys; ++i) {
    seeds.push_back(sha256(to_bytes("cold-key-" + std::to_string(i))));
  }
  return seeds;
}

void BM_Ed25519Sign(benchmark::State& state) {
  const Bytes seed = from_hex(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const Bytes msg = to_bytes("propose view=3 value=batch");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519::sign(seed, msg));
  }
}
BENCHMARK(BM_Ed25519Sign);

void BM_Ed25519Verify(benchmark::State& state) {
  const Bytes seed = from_hex(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const Bytes msg = to_bytes("propose view=3 value=batch");
  const Bytes pk = ed25519::derive_public(seed);
  const Bytes sig = ed25519::sign(seed, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519::verify(pk, msg, sig));
  }
}
BENCHMARK(BM_Ed25519Verify);

void BM_Ed25519SignColdKey(benchmark::State& state) {
  const std::vector<Bytes> seeds = cold_seeds();
  const Bytes msg = to_bytes("propose view=3 value=batch");
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ed25519::sign(seeds[i++ % kColdKeys], msg));
  }
}
BENCHMARK(BM_Ed25519SignColdKey);

void BM_Ed25519VerifyColdKey(benchmark::State& state) {
  const std::vector<Bytes> seeds = cold_seeds();
  const Bytes msg = to_bytes("propose view=3 value=batch");
  std::vector<Bytes> pks, sigs;
  for (const auto& seed : seeds) {
    pks.push_back(ed25519::derive_public(seed));
    sigs.push_back(ed25519::sign(seed, msg));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t k = i++ % kColdKeys;
    benchmark::DoNotOptimize(ed25519::verify(pks[k], msg, sigs[k]));
  }
}
BENCHMARK(BM_Ed25519VerifyColdKey);

void BM_EcvrfProve(benchmark::State& state) {
  const Bytes seed = from_hex(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const Bytes alpha = to_bytes("7|prepare");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecvrf::prove(seed, alpha));
  }
}
BENCHMARK(BM_EcvrfProve);

void BM_EcvrfVerify(benchmark::State& state) {
  const Bytes seed = from_hex(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  const Bytes alpha = to_bytes("7|prepare");
  const Bytes pk = ed25519::derive_public(seed);
  const auto proof = ecvrf::prove(seed, alpha);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecvrf::verify(pk, alpha, proof.proof));
  }
}
BENCHMARK(BM_EcvrfVerify);

void BM_VrfSample(benchmark::State& state) {
  const auto suite = make_sim_suite();
  const auto kp = suite->keygen(1);
  const auto alpha = sample_alpha(5, "prepare");
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto k = static_cast<std::uint32_t>(
      std::ceil(1.7 * 2.0 * std::sqrt(static_cast<double>(n))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vrf_sample(
        *suite, kp.secret_key, ByteSpan(alpha.data(), alpha.size()), n, k));
  }
}
BENCHMARK(BM_VrfSample)->Arg(100)->Arg(400);

void BM_SuiteCompare(benchmark::State& state) {
  // Relative cost of a full sign+verify in each suite.
  const bool real = state.range(0) == 1;
  const auto suite = real ? make_ed25519_suite() : make_sim_suite();
  const auto kp = suite->keygen(1);
  const Bytes msg = to_bytes("message");
  for (auto _ : state) {
    const auto sig = suite->sign(kp.secret_key, msg);
    benchmark::DoNotOptimize(suite->verify(kp.public_key, msg, sig));
  }
  state.SetLabel(suite->name());
}
BENCHMARK(BM_SuiteCompare)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();

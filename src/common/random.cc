#include "common/random.h"

#include <cmath>
#include <numbers>

namespace netmax {
namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) : seed_(seed) {
  uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(sm);
}

Rng Rng::Fork(uint64_t stream_id) const {
  // Mix the parent seed with the stream id through SplitMix64 so children with
  // adjacent ids are decorrelated.
  uint64_t sm = seed_ ^ (0xA076'1D64'78BD'642FULL * (stream_id + 1));
  return Rng(SplitMix64(sm));
}

uint64_t Rng::Next64() {
  // xoshiro256** by Blackman & Vigna (public domain).
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(Next64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  NETMAX_CHECK_LE(lo, hi);
  return lo + (hi - lo) * Uniform();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  NETMAX_CHECK_LE(lo, hi);
  const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<int64_t>(Next64());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t draw;
  do {
    draw = Next64();
  } while (draw >= limit);
  return lo + static_cast<int64_t>(draw % range);
}

double Rng::Gaussian() {
  // Box-Muller; one sample per call keeps the stream layout simple and
  // deterministic across platforms.
  double u1 = Uniform();
  while (u1 <= 0.0) u1 = Uniform();
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

int Rng::Discrete(std::span<const double> probabilities) {
  NETMAX_CHECK(!probabilities.empty());
  double total = 0.0;
  for (double p : probabilities) {
    NETMAX_CHECK_GE(p, 0.0) << "negative probability";
    total += p;
  }
  NETMAX_CHECK_GT(total, 0.0) << "all probabilities are zero";
  double x = Uniform() * total;
  for (size_t i = 0; i < probabilities.size(); ++i) {
    x -= probabilities[i];
    if (x < 0.0) return static_cast<int>(i);
  }
  // Floating-point underflow of the running subtraction: return the last
  // index with positive mass.
  for (size_t i = probabilities.size(); i > 0; --i) {
    if (probabilities[i - 1] > 0.0) return static_cast<int>(i - 1);
  }
  return static_cast<int>(probabilities.size()) - 1;
}

}  // namespace netmax

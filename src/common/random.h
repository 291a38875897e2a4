#ifndef NETMAX_COMMON_RANDOM_H_
#define NETMAX_COMMON_RANDOM_H_

// Deterministic random number generation.
//
// Every stochastic component in this project takes an explicit seed so that
// experiments are bit-reproducible. Rng wraps a fixed engine (mt19937_64) and
// offers the distributions the training / simulation stack needs, including
// discrete sampling from an arbitrary probability vector (used to pick
// neighbors from a communication-policy row).

#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/serialize.h"

namespace netmax {

// SplitMix64 step; used to derive independent child seeds from a parent seed.
uint64_t SplitMix64(uint64_t& state);

// Deterministic pseudo-random generator. Copyable; copying forks the stream.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Derives a child generator whose stream is independent of (but fully
  // determined by) this generator's seed and `stream_id`. Deriving children
  // does not perturb this generator's own sequence.
  Rng Fork(uint64_t stream_id) const;

  // Returns a uniform double in [0, 1).
  double Uniform();

  // Returns a uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Returns a uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Returns a standard normal sample.
  double Gaussian();

  // Returns a normal sample with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  // Returns true with probability `p`.
  bool Bernoulli(double p);

  // Samples an index from `probabilities` (non-negative, summing to ~1).
  // Entries may be zero. Fatal error if all entries are zero.
  int Discrete(std::span<const double> probabilities);

  // Fisher-Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (size_t i = values.size(); i > 1; --i) {
      const size_t j =
          static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(values[i - 1], values[j]);
    }
  }

  // Raw 64 random bits.
  uint64_t Next64();

  // Checkpoint support: the raw engine state as five words (the seed, then
  // the four xoshiro256** words), so a restore resumes the exact stream
  // position.
  Status TransferState(StateIo& io) {
    return io(seed_, state_[0], state_[1], state_[2], state_[3]);
  }

 private:
  uint64_t seed_;
  // mt19937_64 is large; we keep a compact xoshiro256** state instead for
  // cheap copies and forks.
  uint64_t state_[4];
};

}  // namespace netmax

#endif  // NETMAX_COMMON_RANDOM_H_

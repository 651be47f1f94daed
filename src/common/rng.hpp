// Deterministic random number generation for simulations and workloads.
//
// Every stochastic component takes an explicit Rng (seeded from the
// experiment config) so that runs are reproducible bit-for-bit; nothing in
// the repository reads entropy from the environment.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/assert.hpp"

namespace haechi {

/// xoshiro256** by Blackman & Vigna: fast, high-quality, tiny state.
/// Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) { Reseed(seed); }

  /// Re-initialises the state from `seed` via SplitMix64, which guarantees a
  /// well-mixed nonzero state even for small consecutive seeds.
  void Reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Uses Lemire's multiply-shift rejection
  /// method (unbiased, no modulo).
  std::uint64_t NextBelow(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t NextInRange(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Exponentially distributed double with the given mean (> 0).
  double NextExponential(double mean);

  /// Normally distributed double (Box–Muller; consumes two uniforms).
  double NextGaussian(double mean, double stddev);

  /// Derives an independent child generator; used to give each simulated
  /// component its own stream so adding a component does not perturb others.
  Rng Fork();

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4]{};
};

/// Samples ranks 0..n-1 with P(rank k) ∝ 1/(k+1)^theta — the zipfian key
/// popularity used by YCSB. The CDF is built once per (n, theta) and shared
/// by every live sampler with the same parameters (a run's clients all draw
/// from one table). A guide table maps the bucket ⌊u·G⌋ of a uniform draw
/// u (G = n rounded up to a power of two) to the first candidate rank, so
/// a draw binary-searches only the ranks inside its bucket — usually one or
/// two — and returns exactly the rank a binary search over the whole CDF
/// would.
///
/// Also usable as the paper's "Zipf reservation distribution": Weight(k)
/// exposes the unnormalised weights applied to the 5 client groups.
class ZipfianSampler {
 public:
  ZipfianSampler(std::uint64_t n, double theta);

  /// Draws one rank in [0, n).
  std::uint64_t Sample(Rng& rng) const { return RankAt(rng.NextDouble()); }

  /// The rank a uniform draw `u` in [0, 1] selects: the first rank whose
  /// CDF value is >= u.
  [[nodiscard]] std::uint64_t RankAt(double u) const;

  [[nodiscard]] std::uint64_t n() const { return table_->cdf.size(); }
  [[nodiscard]] double theta() const { return table_->theta; }

  /// Unnormalised weight of rank k: 1/(k+1)^theta.
  [[nodiscard]] double Weight(std::uint64_t k) const;

  /// Normalised probability of rank k.
  [[nodiscard]] double Probability(std::uint64_t k) const;

  /// cdf()[k] = P(rank <= k); the table this sampler shares.
  [[nodiscard]] const std::vector<double>& cdf() const { return table_->cdf; }

 private:
  struct Table {
    double theta;
    std::vector<double> cdf;  // cdf[k] = P(rank <= k)
    double buckets;           // G: a power of two >= n
    // guide[b] = first rank with cdf >= b/G; guide[G] = n-1. Both b/G and
    // u*G are exact in binary floating point, so a draw u in bucket
    // ⌊u·G⌋ = b has its answer in [guide[b], guide[b+1]].
    std::vector<std::uint32_t> guide;
  };
  static std::shared_ptr<const Table> SharedTable(std::uint64_t n,
                                                  double theta);

  std::shared_ptr<const Table> table_;
};

/// YCSB's "scrambled zipfian": zipfian rank popularity spread across the key
/// space by a hash, so popular keys are not clustered at low key values.
class ScrambledZipfianSampler {
 public:
  ScrambledZipfianSampler(std::uint64_t n, double theta) : inner_(n, theta) {}

  std::uint64_t Sample(Rng& rng) const;

 private:
  static std::uint64_t Fnv1aHash(std::uint64_t v);

  ZipfianSampler inner_;
};

}  // namespace haechi

#include "common/rng.hpp"

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <utility>

namespace haechi {

namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::Reseed(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& word : s_) word = SplitMix64(x);
}

std::uint64_t Rng::NextBelow(std::uint64_t bound) {
  HAECHI_EXPECTS(bound > 0);
  // Lemire's method: map a 64-bit draw into [0, bound) via the high half of
  // a 128-bit product, rejecting the small biased region.
  while (true) {
    const std::uint64_t x = (*this)();
    const auto m = static_cast<unsigned __int128>(x) * bound;
    const auto lo = static_cast<std::uint64_t>(m);
    if (lo >= bound || lo >= (-bound) % bound) {
      return static_cast<std::uint64_t>(m >> 64);
    }
  }
}

std::int64_t Rng::NextInRange(std::int64_t lo, std::int64_t hi) {
  HAECHI_EXPECTS(lo <= hi);
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>((*this)());
  }
  return lo + static_cast<std::int64_t>(NextBelow(span));
}

double Rng::NextExponential(double mean) {
  HAECHI_EXPECTS(mean > 0.0);
  double u = NextDouble();
  if (u <= 0.0) u = 0x1.0p-53;  // avoid log(0)
  return -mean * std::log(u);
}

double Rng::NextGaussian(double mean, double stddev) {
  HAECHI_EXPECTS(stddev >= 0.0);
  double u1 = NextDouble();
  const double u2 = NextDouble();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

Rng Rng::Fork() { return Rng((*this)() ^ 0xa02b'dbf7'bb3c'0a7ULL); }

std::shared_ptr<const ZipfianSampler::Table> ZipfianSampler::SharedTable(
    std::uint64_t n, double theta) {
  static std::mutex mu;
  static std::map<std::pair<std::uint64_t, double>,
                  std::weak_ptr<const Table>>
      cache;
  const std::lock_guard<std::mutex> lock(mu);
  const auto key = std::make_pair(n, theta);
  if (const auto it = cache.find(key); it != cache.end()) {
    if (auto table = it->second.lock()) return table;
  }
  std::erase_if(cache, [](const auto& entry) {
    return entry.second.expired();
  });

  auto table = std::make_shared<Table>();
  table->theta = theta;
  table->cdf.resize(n);
  double total = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), theta);
    table->cdf[k] = total;
  }
  for (auto& c : table->cdf) c /= total;
  table->cdf.back() = 1.0;  // guard against accumulated rounding

  const std::uint64_t buckets = std::bit_ceil(n);
  table->buckets = static_cast<double>(buckets);
  table->guide.resize(buckets + 1);
  std::uint64_t rank = 0;
  for (std::uint64_t b = 0; b < buckets; ++b) {
    const double lower = static_cast<double>(b) / table->buckets;
    while (table->cdf[rank] < lower) ++rank;
    table->guide[b] = static_cast<std::uint32_t>(rank);
  }
  table->guide[buckets] = static_cast<std::uint32_t>(n - 1);
  cache[key] = table;
  return table;
}

ZipfianSampler::ZipfianSampler(std::uint64_t n, double theta) {
  HAECHI_EXPECTS(n > 0 && n <= std::numeric_limits<std::uint32_t>::max());
  HAECHI_EXPECTS(theta >= 0.0);
  table_ = SharedTable(n, theta);
}

double ZipfianSampler::Weight(std::uint64_t k) const {
  return 1.0 / std::pow(static_cast<double>(k + 1), theta());
}

double ZipfianSampler::Probability(std::uint64_t k) const {
  HAECHI_EXPECTS(k < n());
  const std::vector<double>& cdf = table_->cdf;
  return k == 0 ? cdf[0] : cdf[k] - cdf[k - 1];
}

std::uint64_t ZipfianSampler::RankAt(double u) const {
  HAECHI_EXPECTS(u >= 0.0 && u <= 1.0);
  const Table& table = *table_;
  auto bucket = static_cast<std::size_t>(u * table.buckets);
  if (bucket + 1 >= table.guide.size()) bucket = table.guide.size() - 2;
  // First rank in [guide[b], guide[b+1]] whose CDF covers u.
  std::uint64_t lo = table.guide[bucket];
  std::uint64_t hi = table.guide[bucket + 1];
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (table.cdf[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::uint64_t ScrambledZipfianSampler::Fnv1aHash(std::uint64_t v) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t ScrambledZipfianSampler::Sample(Rng& rng) const {
  return Fnv1aHash(inner_.Sample(rng)) % inner_.n();
}

}  // namespace haechi

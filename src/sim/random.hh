/**
 * @file
 * Deterministic random number generation. Every stochastic model (channel
 * loss, sensor noise, jittered workloads) draws from an explicitly seeded
 * Random instance so runs are reproducible.
 *
 * The 2.5 KB Mersenne Twister state is created from the seed on the first
 * draw, so a node whose radio never backs off or whose ADC adds no noise
 * carries only the seed. The draws are those of a std::mt19937_64 seeded
 * the same way, whenever the first one comes.
 */

#ifndef ULP_SIM_RANDOM_HH
#define ULP_SIM_RANDOM_HH

#include <cstdint>
#include <memory>
#include <random>

namespace ulp::sim {

class Random
{
  public:
    explicit Random(std::uint64_t seed = 0x5eed) : seed(seed) {}

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    uniformInt(std::uint64_t lo, std::uint64_t hi)
    {
        std::uniform_int_distribution<std::uint64_t> dist(lo, hi);
        return dist(engine());
    }

    /** Uniform real in [0, 1). */
    double
    uniformReal()
    {
        std::uniform_real_distribution<double> dist(0.0, 1.0);
        return dist(engine());
    }

    /** Bernoulli draw with probability @p p of true. */
    bool
    chance(double p)
    {
        return uniformReal() < p;
    }

    /** Normal draw. */
    double
    normal(double mean, double stddev)
    {
        std::normal_distribution<double> dist(mean, stddev);
        return dist(engine());
    }

  private:
    std::mt19937_64 &
    engine()
    {
        if (!_engine)
            _engine = std::make_unique<std::mt19937_64>(seed);
        return *_engine;
    }

    std::uint64_t seed;
    std::unique_ptr<std::mt19937_64> _engine;
};

} // namespace ulp::sim

#endif // ULP_SIM_RANDOM_HH

// Temporal burstiness analysis of event streams.  The paper's central
// errors-vs-faults distinction has a temporal signature: FAULT arrivals are
// close to a Poisson process (independent rare defects), while ERROR
// arrivals are violently super-Poissonian (one fault replays for hours).
// Two standard dispersion measures quantify that:
//
//   - Fano factor: variance/mean of event counts in fixed windows
//     (1 for Poisson, >> 1 for clustered streams);
//   - squared coefficient of variation (CV^2) of inter-arrival times
//     (1 for Poisson, > 1 for bursty).
//
// Operationally this matters for log infrastructure sizing (§2.3's bounded
// CE buffer drops exactly these bursts) and for failure modeling: fitting a
// Poisson rate to raw CE counts, as error-based studies implicitly do,
// mis-sizes everything downstream.
#pragma once

#include <cstdint>
#include <span>

#include "util/sim_time.hpp"

namespace astra::core {

struct BurstinessAnalysis {
  std::size_t events = 0;
  std::size_t windows = 0;
  double mean_per_window = 0.0;
  double fano_factor = 0.0;      // 1 = Poisson
  double interarrival_cv2 = 0.0; // 1 = Poisson
  double max_window_count = 0.0;

  // Dispersion verdicts with head-room for sampling noise.
  [[nodiscard]] bool SuperPoisson() const noexcept { return fano_factor > 2.0; }
  [[nodiscard]] bool PoissonLike() const noexcept {
    return fano_factor > 0.25 && fano_factor < 4.0;
  }
};

// `timestamps` may be unsorted; only events inside `window` count.
// `bucket_seconds` sets the Fano-factor window length.
[[nodiscard]] BurstinessAnalysis AnalyzeBurstiness(std::span<const SimTime> timestamps,
                                                   TimeWindow window,
                                                   std::int64_t bucket_seconds =
                                                       SimTime::kSecondsPerHour);

}  // namespace astra::core

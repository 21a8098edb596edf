#ifndef MAROON_COMMON_CLOCK_H_
#define MAROON_COMMON_CLOCK_H_

#include <chrono>

namespace maroon {

/// Wall-clock seconds elapsed on the steady clock since `start`.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace maroon

#endif  // MAROON_COMMON_CLOCK_H_

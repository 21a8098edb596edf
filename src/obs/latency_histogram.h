#ifndef MAROON_OBS_LATENCY_HISTOGRAM_H_
#define MAROON_OBS_LATENCY_HISTOGRAM_H_

// Former home of the log-bucketed histogram, now obs/histogram.h. Kept as
// a forwarding header because the benchmark harness (perfbench/src/
// harness.cc) still includes it for PercentileOfSorted; new code includes
// obs/histogram.h.
#include "obs/histogram.h"

#endif  // MAROON_OBS_LATENCY_HISTOGRAM_H_

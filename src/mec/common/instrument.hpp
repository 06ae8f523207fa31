// Compile-time gate for engine instrumentation.
//
// The `MEC_OBS_COUNTERS` CMake option (default ON) defines the macro of the
// same name; with the option OFF the coordinator never samples counters —
// the des_scaling throughput floor is measured with the counters compiled
// in but *disabled at runtime*, and must be unaffected either way.
#pragma once

namespace mec {

/// True when the build compiled engine counters in (MEC_OBS_COUNTERS=ON).
constexpr bool obs_counters_compiled() noexcept {
#ifdef MEC_OBS_COUNTERS
  return true;
#else
  return false;
#endif
}

}  // namespace mec

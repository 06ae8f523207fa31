// SimWorkspace::Impl: the per-run buffer block behind the public
// SimWorkspace handle (device states, RNG streams, shard contexts, the leg
// pool).  Its own header so every layer that touches its members — the leg
// runner, the engine, the rank entry — sees it complete.
//
// Internal to the engine: included by sim/leg_runner.hpp and sim/engine.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mec/parallel/shard_executor.hpp"
#include "mec/parallel/thread_pool.hpp"
#include "mec/random/rng.hpp"
#include "mec/sim/device_state.hpp"
#include "mec/sim/mec_simulation.hpp"

namespace mec::sim {

struct SimWorkspace::Impl {
  std::vector<random::Xoshiro256> rngs;  ///< batched per-device streams
  std::vector<DeviceState> devices;
  std::vector<const double*> threshold_ptrs;  ///< scratch for TroPointerDecide
  std::vector<parallel::ShardContext> shards;
  std::unique_ptr<parallel::ThreadPool> pool;  ///< lazily built when K > 1

  /// Post-split per-device RNG snapshot, keyed by (seed, population size).
  /// A split() costs ~0.5us per device (one xoshiro long_jump, 256 engine
  /// steps); split_streams spreads that over cores, but restoring the
  /// snapshot is still a plain copy for repeated same-seed runs and
  /// bit-identical by construction.
  std::vector<random::Xoshiro256> rng_init;
  std::uint64_t rng_seed = 0;
  bool rng_cached = false;

  /// Sizes the global buffers for an n-device run and resets all run state
  /// while keeping every allocation.
  void prepare(std::size_t n) {
    rngs.resize(n);
    devices.resize(n);
    for (DeviceState& d : devices) d.reset_run();
  }
};

}  // namespace mec::sim

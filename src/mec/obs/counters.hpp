// Engine-counter catalogue for the streaming telemetry subsystem.
//
// Counters are sampled only at observation-grid barriers and only when a
// stream log is attached, so the event loop itself never pays for them, and
// none is sampled when the MEC_OBS_COUNTERS CMake option is OFF (see
// common/instrument.hpp).
//
// Counter samples are wall-clock diagnostics: unlike window frames they are
// NOT deterministic across shard counts or machines, and no test compares
// them bitwise.  Ids are stable across versions — append only.
#pragma once

#include <cstdint>

#include "mec/common/instrument.hpp"

namespace mec::obs {

enum class Counter : std::uint16_t {
  kShardEvents = 0,        ///< cumulative events executed (per shard)
  kShardQueueDepth = 1,    ///< future events pending at the barrier (per shard)
  // Ids 2-4 belonged to the retired two-gear event queue: reserved, never
  // emitted (the names stay so old logs still render).
  kShardCalendarGear = 2,
  kShardGearSwitches = 3,
  kShardCalendarRetunes = 4,
  kShardLegSeconds = 5,    ///< wall seconds of the last inter-barrier leg
  kBarrierWaitSeconds = 6, ///< max-min leg seconds across shards (global)
  kReplayRecords = 7,      ///< gamma-replay records merged this window (global)
  kReplayDeliveries = 8,   ///< cumulative edge deliveries replayed (global)
  kFaultEventsApplied = 9, ///< cumulative fault-schedule actions (global)
  kEventsPerSecond = 10,   ///< events/s over the last leg, all shards (global)
  // Process-transport diagnostics (per rank; emitted only when the run uses
  // TransportKind::kProcess — an in-process run has no wire to meter).
  kRankBarrierWaitSeconds = 11,  ///< coordinator wait for the rank's payload
  kRankPayloadBytes = 12,        ///< cumulative payload bytes shipped
  kTransportFramesSent = 13,     ///< frames coordinator -> rank (cumulative)
  kTransportFramesReceived = 14, ///< frames rank -> coordinator (cumulative)
  kReplaySeconds = 15,  ///< coordinator wall seconds in the gamma replay
                        ///< since the last counter frame (global)
  kCount
};

/// Stable snake_case name for the catalogue (docs, meta frame, tail table).
constexpr const char* counter_name(Counter id) noexcept {
  switch (id) {
    case Counter::kShardEvents: return "shard_events";
    case Counter::kShardQueueDepth: return "shard_queue_depth";
    case Counter::kShardCalendarGear: return "shard_calendar_gear";
    case Counter::kShardGearSwitches: return "shard_gear_switches";
    case Counter::kShardCalendarRetunes: return "shard_calendar_retunes";
    case Counter::kShardLegSeconds: return "shard_leg_seconds";
    case Counter::kBarrierWaitSeconds: return "barrier_wait_seconds";
    case Counter::kReplayRecords: return "replay_records";
    case Counter::kReplayDeliveries: return "replay_deliveries";
    case Counter::kFaultEventsApplied: return "fault_events_applied";
    case Counter::kEventsPerSecond: return "events_per_second";
    case Counter::kRankBarrierWaitSeconds: return "rank_barrier_wait_seconds";
    case Counter::kRankPayloadBytes: return "rank_payload_bytes";
    case Counter::kTransportFramesSent: return "transport_frames_sent";
    case Counter::kTransportFramesReceived: return "transport_frames_received";
    case Counter::kReplaySeconds: return "replay_seconds";
    case Counter::kCount: break;
  }
  return "unknown";
}

inline constexpr std::uint16_t kCounterCount =
    static_cast<std::uint16_t>(Counter::kCount);

}  // namespace mec::obs

// The seed deque-based faulty saturation simulator, kept verbatim (minus obs
// instrumentation, which never influenced the returned statistics) as the
// determinism oracle for the arena engine: simulate_saturation_faulty() must
// reproduce simulate_saturation_faulty_reference() bit for bit — every
// SaturationPoint and FaultTally field, for every (seed, load, FaultSet,
// budgets, queue_capacity) — which tests/test_fault.cpp asserts across seeds
// and fault rates.  A test-only target (bfly_test_oracles) builds it; no
// library ships it.
//
// Do not "improve" this file: its value is that it does not change.
#pragma once

#include "fault/fault_routing.hpp"

namespace bfly {

/// The seed implementation of simulate_saturation_faulty (per-link std::deque
/// FIFOs, single-threaded).  Same contract and RNG streams as the arena
/// engine; intentionally unoptimized.
FaultSaturationPoint simulate_saturation_faulty_reference(
    int n, double offered_load, u64 cycles, u64 seed, const FaultSet& faults,
    const FaultRoutingOptions& options = {}, u64 warmup_cycles = 0, u64 queue_capacity = 0);

}  // namespace bfly

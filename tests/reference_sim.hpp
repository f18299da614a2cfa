// The seed deque-based saturation simulator, kept verbatim (minus obs
// instrumentation, which never influenced the returned statistics, and with
// its injection draws ported from the sequential Xoshiro256 stream to the
// engines' CounterRng, spelled as uniform()'s double compare and a modulo)
// as the determinism oracle for the arena engine: simulate_saturation() must
// reproduce simulate_saturation_reference() bit for bit — every
// SaturationPoint field, for every (seed, load, queue_capacity) — which
// tests/test_routing.cpp asserts across seeds and modes.  A test-only
// target (bfly_test_oracles) builds it; no library ships it.
//
// Do not "improve" this file: its value is that it does not change beyond
// what the engines' draws require.
#pragma once

#include "routing/routing.hpp"

namespace bfly {

/// The seed implementation of simulate_saturation (per-link std::deque
/// FIFOs, single-threaded).  Same contract and RNG streams as the arena
/// engine; intentionally unoptimized.
SaturationPoint simulate_saturation_reference(int n, double offered_load, u64 cycles, u64 seed,
                                              u64 warmup_cycles = 0, u64 queue_capacity = 0);

}  // namespace bfly

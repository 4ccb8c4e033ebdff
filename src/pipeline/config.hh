/**
 * @file
 * Machine configuration for the timing model.
 *
 * The constants and defaults reproduce the base architecture of
 * paper Section 5.1: a 6-issue in-order superscalar with 4 integer
 * ALUs, 2 memory ports, 2 FP ALUs and 1 branch unit; 64 int + 64 FP
 * registers; 64K direct-mapped I and D caches with 64-byte blocks,
 * write-through no-write-allocate D cache with a 12-cycle miss
 * penalty; a 1K-entry BTB with 2-bit counters; HP PA-7100-style
 * latencies (1-cycle integer ops, 2-cycle loads).
 */

#ifndef ELAG_PIPELINE_CONFIG_HH
#define ELAG_PIPELINE_CONFIG_HH

#include <cstdint>

#include "mem/cache.hh"

namespace elag {

namespace verify {
class FaultInjector;
} // namespace verify

namespace pipeline {

/** How loads are steered to the early-address-generation paths. */
enum class SelectionPolicy : uint8_t
{
    /** Follow the compiler-assigned opcode (ld_n / ld_p / ld_e). */
    CompilerSpec,
    /** Hardware-only: every load uses the prediction table. */
    AllPredict,
    /** Hardware-only: every load uses the early-calculation path. */
    AllEarlyCalc,
    /**
     * Hardware-only dual path using the Eickemeyer-Vassiliadis
     * run-time heuristic: loads whose base register is interlocked
     * go to the prediction table, others to early calculation.
     */
    EvSelect,
};

// The parts of the Section-5.1 machine that every configuration
// shares: the paper varies none of them.

/** Functional units per kind. */
constexpr int kIntAlus = 4;
constexpr int kFpAlus = 2;
constexpr int kBranchUnits = 1;

/** Latencies (cycles from issue to dependent-ready). */
constexpr int kAluLatency = 1;
constexpr int kMulLatency = 3;
constexpr int kDivLatency = 8;
constexpr int kFpLatency = 2;

/** 64K direct-mapped I cache, 64-byte blocks, 12-cycle misses. */
constexpr mem::CacheConfig kICache{64 * 1024, 64, 1, 12, true};
constexpr uint32_t kBtbEntries = 1024;

/** What varies between machines; a bench, tool or test sets each. */
struct MachineConfig
{
    // Core width and memory ports (Section 5.1).
    int issueWidth = 6;
    int memPorts = 2;

    mem::CacheConfig dcache{64 * 1024, 64, 1, 12, false};

    // Early address generation hardware.
    bool addressTableEnabled = false;
    uint32_t addressTableEntries = 256;
    /** Ablation: predict even without stride confidence (STC=0). */
    bool tablePredictsWhileLearning = false;
    bool earlyCalcEnabled = false;
    uint32_t registerCacheSize = 1;
    SelectionPolicy selection = SelectionPolicy::CompilerSpec;

    /**
     * Optional fault injector perturbing the speculation hardware
     * (not owned; must outlive the pipeline). Null in normal runs.
     * Faults only steer timing decisions — architectural results
     * come from the emulator and cannot be affected.
     */
    verify::FaultInjector *faultInjector = nullptr;

    /** Baseline machine: all early-generation hardware off. */
    static MachineConfig
    baseline()
    {
        return MachineConfig{};
    }

    /** The paper's proposed machine: 256-entry table + one R_addr. */
    static MachineConfig
    proposed()
    {
        MachineConfig cfg;
        cfg.addressTableEnabled = true;
        cfg.addressTableEntries = 256;
        cfg.earlyCalcEnabled = true;
        cfg.registerCacheSize = 1;
        cfg.selection = SelectionPolicy::CompilerSpec;
        return cfg;
    }
};

} // namespace pipeline
} // namespace elag

#endif // ELAG_PIPELINE_CONFIG_HH

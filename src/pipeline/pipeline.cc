#include "pipeline/pipeline.hh"

#include <algorithm>
#include <bit>

#include "ckpt/serial.hh"
#include "isa/disasm.hh"
#include "support/logging.hh"
#include "verify/fault_injector.hh"

namespace elag {
namespace pipeline {

using isa::FuClass;
using isa::Instruction;
using isa::Opcode;

namespace {

/** Result latency of a non-load instruction, by opcode. */
constexpr auto kLatency = [] {
    std::array<uint8_t, static_cast<size_t>(Opcode::NumOpcodes)> t{};
    t.fill(kAluLatency);
    t[static_cast<size_t>(Opcode::MUL)] = kMulLatency;
    for (Opcode op : {Opcode::DIV, Opcode::REM})
        t[static_cast<size_t>(op)] = kDivLatency;
    for (Opcode op : {Opcode::FADD, Opcode::FSUB, Opcode::FMUL,
                      Opcode::FDIV, Opcode::CVTIF, Opcode::CVTFI})
        t[static_cast<size_t>(op)] = kFpLatency;
    return t;
}();

uint64_t
latencyOf(const Instruction &inst)
{
    return kLatency[static_cast<size_t>(inst.op)];
}

/** log2 of the 4-byte instructions per I$ block (4: 64-byte blocks). */
constexpr int kFetchBlockShift = std::countr_zero(kICache.blockSize / 4);
static_assert(std::has_single_bit(kICache.blockSize) &&
                  kICache.blockSize >= 4,
              "fetch blocks are whole power-of-two instruction groups");

/** Initial in-flight store ring capacity (a power of two). */
constexpr size_t kInitialStoreSlots = 16;

} // namespace

RetiredInst
makeRetired(uint32_t pc, const Instruction &inst)
{
    RetiredInst ri;
    ri.pc = pc;
    ri.inst = inst;
    ri.flags = isa::decodeFlags(inst);
    int s1, s2;
    inst.intSources(s1, s2);
    ri.src1 = static_cast<int8_t>(s1);
    ri.src2 = static_cast<int8_t>(s2);
    return ri;
}

Pipeline::Pipeline(const MachineConfig &config)
    : cfg(config),
      icache(kICache),
      dcache(config.dcache),
      btb(kBtbEntries),
      table(config.addressTableEntries,
            config.tablePredictsWhileLearning),
      regCache(config.registerCacheSize),
      faults(config.faultInjector),
      books(BookRingSize),
      fuLimit{kIntAlus, config.memPorts, kFpAlus, kBranchUnits,
              config.issueWidth},
      stores(kInitialStoreSlots),
      tcPipeline(trace::channel("pipeline")),
      tcPredict(trace::channel("predict")),
      tcRaddr(trace::channel("raddr")),
      tcCache(trace::channel("cache"))
{
    table.setFaultInjector(faults);
}

void
Pipeline::attach(Observer *observer)
{
    if (observer) {
        observers.push_back(observer);
        hasObservers_ = true;
    }
}

int &
Pipeline::dcachePortsAt(uint64_t cycle)
{
    BookSlot &slot = books[cycle & (BookRingSize - 1)];
    if (slot.cycle != cycle) {
        slot.cycle = cycle;
        slot.dcachePorts = 0;
    }
    return slot.dcachePorts;
}

void
Pipeline::pushStore(const InFlightStore &store)
{
    // Every later probe is at or after this store's ID1 (exeCycle -
    // 2), so a store visible before it can never interlock again.
    size_t mask = stores.size() - 1;
    while (storeCount > 0 &&
           stores[storeHead].writeCycle + 2 < store.exeCycle) {
        storeHead = (storeHead + 1) & mask;
        --storeCount;
    }
    if (storeCount == stores.size()) {
        std::vector<InFlightStore> grown(2 * stores.size());
        for (size_t i = 0; i < storeCount; ++i)
            grown[i] = stores[(storeHead + i) & mask];
        stores.swap(grown);
        storeHead = 0;
        mask = stores.size() - 1;
    }
    stores[(storeHead + storeCount) & mask] = store;
    ++storeCount;
}

uint64_t
Pipeline::scheduleIssue(uint64_t from, uint16_t flags)
{
    // Issue is in order: from >= nextIssue, and only the returned
    // cycle is booked. So nothing is booked above nextIssue, and a
    // full frontier moves issue exactly one cycle on.
    size_t fu = (flags & isa::flag::FuMask) >> isa::flag::FuShift;
    if (from == nextIssue && (issuedAtFrontier >= cfg.issueWidth ||
                              fuAtFrontier[fu] >= fuLimit[fu])) {
        ++from;
    }
    if (from != nextIssue) {
        issuedAtFrontier = 0;
        fuAtFrontier.fill(0);
    }
    ++issuedAtFrontier;
    ++fuAtFrontier[fu];
    return from;
}

bool
Pipeline::memInterlock(uint32_t addr, uint32_t bytes,
                       uint64_t cycle) const
{
    // writeCycle never decreases along the queue, so the stores not
    // yet visible at @p cycle are its newest ones: walk back from
    // the newest and stop at the first store already visible.
    size_t mask = stores.size() - 1;
    for (size_t i = storeCount; i-- > 0;) {
        const InFlightStore &s = stores[(storeHead + i) & mask];
        if (s.writeCycle < cycle)
            return false;
        if (s.exeCycle >= cycle)
            return true; // address not yet resolved: conservative
        bool overlap = addr < s.addr + s.bytes && s.addr < addr + bytes;
        if (overlap)
            return true;
    }
    return false;
}

uint64_t
Pipeline::fetchConstraint(const RetiredInst &ri)
{
    uint64_t f = nextFetch;
    if (fetchedThisCycle >= cfg.issueWidth) {
        ++f;
        fetchedThisCycle = 0;
    }
    // A fetch from the previous fetch's block always hits: only
    // fetch touches the I$, and fetch never goes back before the
    // fill-ready cycle that the previous fetch waited for.
    uint32_t block = ri.pc >> kFetchBlockShift;
    if (block == lastFetchBlock) {
        icache.rehitLast(f);
    } else {
        lastFetchBlock = block;
        mem::CacheAccessResult res = icache.access(ri.pc * 4, f);
        if (!res.hit && res.readyCycle > f) {
            ELAG_TRACE_EVT(tcCache, f, "I$ miss pc=%u fill ready %llu",
                           ri.pc,
                           static_cast<unsigned long long>(
                               res.readyCycle));
            f = res.readyCycle;
            fetchedThisCycle = 0;
        }
    }
    ++fetchedThisCycle;
    nextFetch = f;
    return f + 3;
}

LoadPath
Pipeline::routeLoad(const Instruction &inst, uint64_t id1, int base,
                    int index) const
{
    switch (cfg.selection) {
      case SelectionPolicy::CompilerSpec:
        if (inst.spec == isa::LoadSpec::Predict &&
            cfg.addressTableEnabled) {
            return LoadPath::Predict;
        }
        if (inst.spec == isa::LoadSpec::EarlyCalc &&
            cfg.earlyCalcEnabled) {
            return LoadPath::EarlyCalc;
        }
        break;
      case SelectionPolicy::AllPredict:
        if (cfg.addressTableEnabled)
            return LoadPath::Predict;
        break;
      case SelectionPolicy::AllEarlyCalc:
        if (cfg.earlyCalcEnabled)
            return LoadPath::EarlyCalc;
        break;
      case SelectionPolicy::EvSelect: {
        // Eickemeyer-Vassiliadis: loads whose address registers are
        // interlocked go to the prediction table, others calculate
        // early.
        bool interlocked =
            (base > 0 && intReady[base] > id1) ||
            (index > 0 && intReady[index] > id1);
        if (interlocked && cfg.addressTableEnabled)
            return LoadPath::Predict;
        if (cfg.earlyCalcEnabled)
            return LoadPath::EarlyCalc;
        break;
      }
    }
    return LoadPath::Normal;
}

SpecCounters &
Pipeline::countersFor(LoadPath path)
{
    switch (path) {
      case LoadPath::Predict:
        return stats_.predict;
      case LoadPath::EarlyCalc:
        return stats_.earlyCalc;
      case LoadPath::Normal:
        break;
    }
    return stats_.normal;
}

void
Pipeline::bumpOutcome(SpecCounters &ctr, SpecOutcome outcome)
{
    switch (outcome) {
      case SpecOutcome::NotAttempted:
        break;
      case SpecOutcome::Forwarded:
        ++ctr.forwarded;
        break;
      case SpecOutcome::NoPrediction:
        ++ctr.noPrediction;
        break;
      case SpecOutcome::NotBound:
        ++ctr.notBound;
        break;
      case SpecOutcome::PortDenied:
        ++ctr.portDenied;
        break;
      case SpecOutcome::RegInterlock:
        ++ctr.regInterlock;
        break;
      case SpecOutcome::MemInterlock:
        ++ctr.memInterlock;
        break;
      case SpecOutcome::WrongAddress:
        ++ctr.wrongAddress;
        break;
      case SpecOutcome::CacheMiss:
        ++ctr.cacheMiss;
        break;
    }
}

uint64_t
Pipeline::handleLoad(const RetiredInst &ri, uint64_t e,
                     uint16_t flags)
{
    const Instruction &inst = ri.inst;
    uint32_t ca = ri.effAddr;
    uint32_t bytes = (flags & isa::flag::WidthByte) ? 1u : 4u;
    uint64_t id1 = e - 2;
    uint64_t id2 = e - 1;
    int base = inst.rs1;
    int index = (flags & isa::flag::BaseOffset) ? -1 : inst.rs2;

    LoadPath path = routeLoad(inst, id1, base, index);
    SpecCounters &ctr = countersFor(path);
    ++ctr.executed;

    // Every executed load gets exactly one verdict; the failure
    // counters and the observer stream both derive from it, so the
    // aggregate SpecCounters and per-PC telemetry cannot diverge.
    SpecOutcome outcome = SpecOutcome::NotAttempted;
    uint64_t ready = 0;
    /** Measured safety conditions, set iff an access was dispatched. */
    std::optional<VerifyConditions> cond;

    if (path == LoadPath::Predict) {
        std::optional<uint32_t> predicted = table.probe(ri.pc);
        ELAG_TRACE_EVT(tcPredict, id2,
                       "probe pc=%u -> %s (ca=0x%x)", ri.pc,
                       predicted ? "hit" : "miss", ca);
        if (!predicted) {
            outcome = SpecOutcome::NoPrediction;
        } else if (dcachePortsAt(id2) >= cfg.memPorts ||
                   (faults && faults->firePortSteal())) {
            outcome = SpecOutcome::PortDenied;
        } else {
            ++dcachePortsAt(id2);
            ++ctr.speculated;
            if (hasObservers_) {
                for (Observer *o : observers)
                    o->onSpecDispatch(ri, path, *predicted, id2);
            }
            mem::CacheAccessResult acc =
                dcache.access(*predicted, id2, true,
                              faults ? faults->latencyJitter() : 0);
            ELAG_TRACE_EVT(tcCache, id2,
                           "D$ spec access pc=%u addr=0x%x %s", ri.pc,
                           *predicted, acc.hit ? "hit" : "miss");
            bool addr_ok = *predicted == ca;
            // A forced verification failure looks exactly like a
            // wrong prediction to everything downstream.
            if (faults && faults->fireVerifyFail())
                addr_ok = false;
            bool mem_lock = memInterlock(ca, bytes, id2);
            if (hasObservers_) {
                cond.emplace();
                cond->portAllocated = true;
                cond->addrMatch = addr_ok;
                cond->cacheHit = acc.hit;
                cond->regInterlockFree = true;
                cond->memInterlockFree = !mem_lock;
            }
            // Deliberate bug (not graceful): skip the address check.
            if (faults && faults->bypassAddressCheck())
                addr_ok = true;
            if (!addr_ok)
                outcome = SpecOutcome::WrongAddress;
            else if (mem_lock)
                outcome = SpecOutcome::MemInterlock;
            else if (!acc.hit)
                outcome = SpecOutcome::CacheMiss;
            else {
                outcome = SpecOutcome::Forwarded;
                ready = e + 1;
            }
            if (outcome != SpecOutcome::Forwarded)
                ++stats_.extraAccesses;
        }
        // Train / allocate in MEM, per the allocation policy.
        bool update = false;
        switch (cfg.selection) {
          case SelectionPolicy::CompilerSpec:
          case SelectionPolicy::AllPredict:
            update = true;
            break;
          case SelectionPolicy::EvSelect:
            update = table.present(ri.pc) ||
                     (base > 0 && intReady[base] > id1) ||
                     (index > 0 && intReady[index] > id1);
            break;
          default:
            break;
        }
        if (update) {
            table.update(ri.pc, ca);
            ELAG_TRACE_EVT(tcPredict, e + 1, "train pc=%u ca=0x%x",
                           ri.pc, ca);
        }
    } else if (path == LoadPath::EarlyCalc) {
        // Fault: drop the R_addr binding right before the probe.
        if (faults && base > 0 && faults->fireRaddrInvalidate())
            regCache.invalidate(base, id1);
        bool bound = base > 0 && regCache.isBound(base);
        bool interlock =
            (base > 0 && intReady[base] > id1) ||
            (index > 0 && intReady[index] > id1);
        // Fault: spurious interlock, as from a late wakeup signal.
        if (faults && faults->fireForceInterlock())
            interlock = true;
        ELAG_TRACE_EVT(tcRaddr, id1, "probe pc=%u base=r%d -> %s%s",
                       ri.pc, base, bound ? "bound" : "not bound",
                       interlock ? " (interlocked)" : "");
        if (!bound) {
            outcome = SpecOutcome::NotBound;
        } else if (dcachePortsAt(id1) >= cfg.memPorts ||
                   (faults && faults->firePortSteal())) {
            outcome = SpecOutcome::PortDenied;
        } else {
            ++dcachePortsAt(id1);
            ++ctr.speculated;
            if (hasObservers_) {
                for (Observer *o : observers)
                    o->onSpecDispatch(ri, path, ca, id1);
            }
            // With an interlock the speculative address is stale; the
            // access still consumes a port and cache bandwidth. The
            // stale address is approximated by the current one for
            // cache-content purposes.
            mem::CacheAccessResult acc =
                dcache.access(ca, id1, true,
                              faults ? faults->latencyJitter() : 0);
            ELAG_TRACE_EVT(tcCache, id1,
                           "D$ spec access pc=%u addr=0x%x %s", ri.pc,
                           ca, acc.hit ? "hit" : "miss");
            bool mem_lock = memInterlock(ca, bytes, id1);
            if (hasObservers_) {
                cond.emplace();
                cond->portAllocated = true;
                cond->addrMatch = true;
                cond->cacheHit = acc.hit;
                cond->regInterlockFree = !interlock;
                cond->memInterlockFree = !mem_lock;
            }
            // Deliberate bug (not graceful): ignore the interlock.
            if (faults && faults->bypassInterlockCheck())
                interlock = false;
            if (interlock)
                outcome = SpecOutcome::RegInterlock;
            else if (mem_lock)
                outcome = SpecOutcome::MemInterlock;
            else if (!acc.hit)
                outcome = SpecOutcome::CacheMiss;
            else {
                outcome = SpecOutcome::Forwarded;
                // register+offset: the R_addr full adder finishes in
                // ID1, so data is back for EXE (latency 0).
                // register+register needs the second register read,
                // delivering only by MEM (latency 1) — the
                // Austin-Sohi limitation the paper describes in
                // Section 2.2.
                ready = (flags & isa::flag::BaseOffset) ? e : e + 1;
            }
            if (outcome != SpecOutcome::Forwarded)
                ++stats_.extraAccesses;
        }
        // The ld_e opcode (or the hardware allocation policy) binds
        // the base register into the register cache.
        if (base > 0) {
            regCache.bind(base, id1);
            ELAG_TRACE_EVT(tcRaddr, id1, "bind r%d pc=%u", base, ri.pc);
        }
    }

    bumpOutcome(ctr, outcome);
    if (hasObservers_) {
        if (cond) {
            for (Observer *o : observers)
                o->onVerifyConditions(ri, path, outcome, *cond, e);
        }
        for (Observer *o : observers)
            o->onVerify(ri, path, outcome, e);
        if (outcome == SpecOutcome::Forwarded) {
            for (Observer *o : observers)
                o->onForward(ri, path, static_cast<int>(ready - e),
                             ready);
        }
    }
    if (outcome != SpecOutcome::Forwarded) {
        // Normal path: EA in EXE, cache in MEM. A speculative miss
        // has already started the fill and the accesses merge.
        ++dcachePortsAt(e + 1);
        mem::CacheAccessResult acc = dcache.access(ca, e + 1);
        ELAG_TRACE_EVT(tcCache, e + 1, "D$ access pc=%u addr=0x%x %s",
                       ri.pc, ca, acc.hit ? "hit" : "miss");
        // The access starts in MEM (e + 1), so a hit is ready 2
        // cycles after EXE.
        ready = acc.readyCycle + 1;
    }

    stats_.loadLatency.sample(ready - e);
    ELAG_TRACE_EVT(tcPipeline, e, "load pc=%u path=%s %s ready=%llu",
                   ri.pc, name(path), name(outcome),
                   static_cast<unsigned long long>(ready));
    return ready;
}

void
Pipeline::handleBranch(const RetiredInst &ri, uint64_t e,
                       uint16_t flags)
{
    const Instruction &inst = ri.inst;
    uint64_t cur_fetch = nextFetch;
    // Unconditional transfers train the BTB as taken.
    mem::Btb::Prediction pred = btb.resolve(
        ri.pc, ri.taken || !(flags & isa::flag::CondBranch), ri.nextPc);

    if (flags & isa::flag::CondBranch) {
        ++stats_.branches;
        bool predicted_taken = pred.hit && pred.taken;
        bool correct =
            (!ri.taken && !predicted_taken) ||
            (ri.taken && predicted_taken && pred.target == ri.nextPc);
        if (correct) {
            if (ri.taken) {
                // BTB redirect: target fetch starts next cycle.
                nextFetch = cur_fetch + 1;
                fetchedThisCycle = 0;
            }
        } else {
            ++stats_.mispredicts;
            ELAG_TRACE_EVT(tcPipeline, e, "mispredict pc=%u -> %u",
                           ri.pc, ri.nextPc);
            nextFetch = e + 1;
            fetchedThisCycle = 0;
        }
        return;
    }

    // Unconditional control.
    switch (inst.op) {
      case Opcode::JMP:
      case Opcode::JAL:
        // Direct target: resolvable in ID1 when the BTB missed.
        if (pred.hit && pred.taken && pred.target == ri.nextPc)
            nextFetch = cur_fetch + 1;
        else
            nextFetch = cur_fetch + 2;
        fetchedThisCycle = 0;
        break;
      case Opcode::JR:
        // Indirect: resolved in EXE.
        if (pred.hit && pred.taken && pred.target == ri.nextPc) {
            nextFetch = cur_fetch + 1;
        } else {
            ++stats_.mispredicts;
            nextFetch = e + 1;
        }
        fetchedThisCycle = 0;
        break;
      default:
        panic("handleBranch: not a control instruction");
    }
}

void
Pipeline::retire(const RetiredInst &ri)
{
    elag_assert(!finished);
    const Instruction &inst = ri.inst;
    ++stats_.instructions;

    uint64_t e = fetchConstraint(ri);
    e = std::max(e, nextIssue);

    // The flag word and integer sources come predecoded (the
    // emulator's stream, or makeRetired()).
    elag_assert(ri.flags & isa::flag::Valid);
    const uint16_t flags = ri.flags;
    const int s1 = ri.src1;
    const int s2 = ri.src2;

    // Integer source dependences.
    if (s1 > 0)
        e = std::max(e, intReady[s1]);
    if (s2 > 0)
        e = std::max(e, intReady[s2]);
    // Floating-point source dependences.
    if (flags & isa::flag::ReadsFp) {
        switch (inst.op) {
          case Opcode::FADD: case Opcode::FSUB:
          case Opcode::FMUL: case Opcode::FDIV:
            e = std::max({e, fpReady[inst.rs1], fpReady[inst.rs2]});
            break;
          case Opcode::FSTORE:
            e = std::max(e, fpReady[inst.rs2]);
            break;
          case Opcode::CVTFI:
            e = std::max(e, fpReady[inst.rs1]);
            break;
          default:
            break;
        }
    }

    e = scheduleIssue(e, flags);

    ELAG_TRACE_EVT(tcPipeline, e, "retire pc=%u %s", ri.pc,
                   isa::disassemble(inst).c_str());

    uint64_t completion = e + 2; // WB

    if (flags & isa::flag::Load) {
        ++stats_.loads;
        uint64_t ready = handleLoad(ri, e, flags);
        if (flags & isa::flag::WritesFp)
            fpReady[inst.rd] = ready;
        else if (inst.rd != 0)
            intReady[inst.rd] = ready;
        completion = std::max(completion, ready);
    } else if (flags & isa::flag::Store) {
        ++stats_.stores;
        ++dcachePortsAt(e + 1);
        dcache.access(ri.effAddr, e + 1, cfg.dcache.writeAllocate);
        pushStore({ri.effAddr, (flags & isa::flag::WidthByte) ? 1u : 4u,
                   e, e + 1});
    } else if (flags & isa::flag::Control) {
        handleBranch(ri, e, flags);
        if (inst.op == Opcode::JAL && inst.rd != 0)
            intReady[inst.rd] = e + 1;
    } else if (flags & isa::flag::WritesFp) {
        fpReady[inst.rd] = e + latencyOf(inst);
    } else if (flags & isa::flag::WritesInt) {
        intReady[inst.rd] = e + latencyOf(inst);
        completion = std::max(completion, intReady[inst.rd]);
    }

    nextIssue = e;
    lastCompletion = std::max(lastCompletion, completion);
}

const PipelineStats &
Pipeline::finish()
{
    if (!finished) {
        finished = true;
        stats_.cycles = lastCompletion;
        stats_.icacheMisses = icache.misses();
        stats_.dcacheMisses = dcache.misses();
        stats_.strideConfidence = table.confidenceHistogram();
        stats_.bindLifetime = regCache.lifetimeHistogram();
    }
    return stats_;
}

void
Pipeline::serialize(ckpt::Writer &w) const
{
    pipeline::serialize(w, stats_);
    icache.serialize(w);
    dcache.serialize(w);
    btb.serialize(w);
    table.serialize(w);
    regCache.serialize(w);

    // Each slot keeps the per-cycle layout of checkpoint version 2:
    // cycle, issue count, the counts of the four FuClasses with units
    // (None has none), D$ ports. Only the frontier's slot has issue
    // and unit counts; it is written as the frontier cycle's.
    size_t frontier = nextIssue & (BookRingSize - 1);
    w.varint(books.size());
    for (size_t i = 0; i < books.size(); ++i) {
        const BookSlot &slot = books[i];
        bool at_frontier = i == frontier;
        w.u64(at_frontier ? nextIssue : slot.cycle);
        w.i32(at_frontier ? issuedAtFrontier : 0);
        for (size_t fu = 0; fu + 1 < NumFuClasses; ++fu)
            w.i32(at_frontier ? fuAtFrontier[fu] : 0);
        w.i32(at_frontier && slot.cycle != nextIssue ? 0
                                                     : slot.dcachePorts);
    }

    w.varint(storeCount);
    for (size_t i = 0; i < storeCount; ++i) {
        const InFlightStore &st =
            stores[(storeHead + i) & (stores.size() - 1)];
        w.varint(st.addr);
        w.varint(st.bytes);
        w.varint(st.exeCycle);
        w.varint(st.writeCycle);
    }

    for (uint64_t ready : intReady)
        w.varint(ready);
    for (uint64_t ready : fpReady)
        w.varint(ready);

    w.varint(nextIssue);
    w.varint(nextFetch);
    w.i32(fetchedThisCycle);
    w.varint(lastCompletion);
    w.b(finished);
}

void
Pipeline::restore(ckpt::Reader &r)
{
    pipeline::restore(r, stats_);
    icache.restore(r);
    dcache.restore(r);
    btb.restore(r);
    table.restore(r);
    regCache.restore(r);

    uint64_t slots = r.varint();
    if (slots != books.size()) {
        throw ckpt::CkptError(ckpt::ErrorKind::Mismatch,
                              "pipeline booking-ring size mismatch");
    }
    // Each slot's issue count and unit counts, held until the
    // snapshot names the frontier after the ring.
    std::vector<std::array<int, NumFuClasses>> counts(books.size());
    for (size_t i = 0; i < books.size(); ++i) {
        books[i].cycle = r.u64();
        for (int &count : counts[i])
            count = r.i32();
        books[i].dcachePorts = r.i32();
    }

    // memInterlock relies on writeCycle never decreasing along the
    // queue; a snapshot whose stores break that order is corrupt.
    storeHead = 0;
    storeCount = 0;
    uint64_t queued = r.varint();
    uint64_t last_write = 0;
    for (uint64_t i = 0; i < queued; ++i) {
        InFlightStore st;
        st.addr = static_cast<uint32_t>(r.varint());
        st.bytes = static_cast<uint32_t>(r.varint());
        st.exeCycle = r.varint();
        st.writeCycle = r.varint();
        if (st.writeCycle < last_write) {
            throw ckpt::CkptError(ckpt::ErrorKind::Corrupt,
                                  "in-flight stores out of issue order");
        }
        last_write = st.writeCycle;
        pushStore(st);
    }

    for (uint64_t &ready : intReady)
        ready = r.varint();
    for (uint64_t &ready : fpReady)
        ready = r.varint();

    nextIssue = r.varint();
    // Only the frontier slot's counts are live, and only when its
    // cycle is the frontier's: a pipeline that retired nothing has
    // booked nothing there.
    size_t frontier = nextIssue & (BookRingSize - 1);
    issuedAtFrontier = 0;
    fuAtFrontier.fill(0);
    if (books[frontier].cycle == nextIssue) {
        issuedAtFrontier = counts[frontier][0];
        std::copy(counts[frontier].begin() + 1, counts[frontier].end(),
                  fuAtFrontier.begin());
    }
    nextFetch = r.varint();
    fetchedThisCycle = r.i32();
    lastCompletion = r.varint();
    lastFetchBlock = ~0u;
    // Snapshots are taken between retires, never after finish().
    if (r.b()) {
        throw ckpt::CkptError(ckpt::ErrorKind::Corrupt,
                              "checkpoint of a finished pipeline");
    }
    finished = false;
}

} // namespace pipeline
} // namespace elag

#include "pipeline/pipeline.hh"

#include <algorithm>

#include "ckpt/serial.hh"
#include "isa/disasm.hh"
#include "support/logging.hh"
#include "verify/fault_injector.hh"

namespace elag {
namespace pipeline {

using isa::FuClass;
using isa::Instruction;
using isa::Opcode;

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
      icache(config.icache),
      dcache(config.dcache),
      btb(config.btbEntries),
      table(config.addressTableEntries,
            config.tablePredictsWhileLearning),
      regCache(config.registerCacheSize),
      faults(config.faultInjector),
      books(BookRingSize),
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

void
Pipeline::notifyStall(const RetiredInst &ri, StallKind kind,
                      uint64_t cycles)
{
    if (!hasObservers_)
        return;
    for (Observer *o : observers)
        o->onStall(ri, kind, cycles);
}

Pipeline::CycleUse &
Pipeline::use(uint64_t cycle)
{
    BookSlot &slot = books[cycle & (BookRingSize - 1)];
    if (slot.cycle != cycle) {
        slot.cycle = cycle;
        slot.use = CycleUse{};
    }
    return slot.use;
}

void
Pipeline::pruneStores(uint64_t before)
{
    while (!inFlightStores.empty() &&
           inFlightStores.front().writeCycle + 4 < before) {
        inFlightStores.pop_front();
    }
}

uint64_t
Pipeline::scheduleIssue(uint64_t from, FuClass fu)
{
    for (uint64_t c = from;; ++c) {
        CycleUse &u = use(c);
        if (u.issue >= cfg.issueWidth)
            continue;
        int *count = nullptr;
        int limit = 0;
        switch (fu) {
          case FuClass::IntAlu:
            count = &u.intAlu;
            limit = cfg.intAlus;
            break;
          case FuClass::MemPort:
            count = &u.mem;
            limit = cfg.memPorts;
            break;
          case FuClass::FpAlu:
            count = &u.fp;
            limit = cfg.fpAlus;
            break;
          case FuClass::Branch:
            count = &u.branch;
            limit = cfg.branchUnits;
            break;
          case FuClass::None:
            break;
        }
        if (count && *count >= limit)
            continue;
        ++u.issue;
        if (count)
            ++*count;
        return c;
    }
}

int
Pipeline::latencyOf(const Instruction &inst) const
{
    switch (inst.op) {
      case Opcode::MUL:
        return cfg.mulLatency;
      case Opcode::DIV:
      case Opcode::REM:
        return cfg.divLatency;
      case Opcode::FADD:
      case Opcode::FSUB:
      case Opcode::FMUL:
      case Opcode::FDIV:
      case Opcode::CVTIF:
      case Opcode::CVTFI:
        return cfg.fpLatency;
      default:
        return cfg.aluLatency;
    }
}

bool
Pipeline::memInterlock(uint32_t addr, uint32_t bytes,
                       uint64_t cycle) const
{
    for (const InFlightStore &s : inFlightStores) {
        if (s.writeCycle < cycle)
            continue; // already visible in the cache
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
    mem::CacheAccessResult res = icache.access(ri.pc * 4, f);
    if (!res.hit && res.readyCycle > f) {
        ELAG_TRACE_EVT(tcCache, f, "I$ miss pc=%u fill ready %llu",
                       ri.pc,
                       static_cast<unsigned long long>(res.readyCycle));
        notifyStall(ri, StallKind::IcacheMiss, res.readyCycle - f);
        f = res.readyCycle;
        fetchedThisCycle = 0;
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
        } else if (use(id2).dcachePorts >= cfg.memPorts ||
                   (faults && faults->firePortSteal())) {
            outcome = SpecOutcome::PortDenied;
        } else {
            ++use(id2).dcachePorts;
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
        } else if (use(id1).dcachePorts >= cfg.memPorts ||
                   (faults && faults->firePortSteal())) {
            outcome = SpecOutcome::PortDenied;
        } else {
            ++use(id1).dcachePorts;
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
            uint32_t base_value =
                (flags & isa::flag::BaseOffset)
                    ? ca - static_cast<uint32_t>(inst.imm)
                    : 0;
            regCache.bind(base, base_value, id1);
            ELAG_TRACE_EVT(tcRaddr, id1, "bind r%d=0x%x pc=%u", base,
                           base_value, ri.pc);
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
        ++use(e + 1).dcachePorts;
        mem::CacheAccessResult acc = dcache.access(ca, e + 1);
        ELAG_TRACE_EVT(tcCache, e + 1, "D$ access pc=%u addr=0x%x %s",
                       ri.pc, ca, acc.hit ? "hit" : "miss");
        if (!acc.hit && acc.readyCycle > e + 1)
            notifyStall(ri, StallKind::DcacheMiss,
                        acc.readyCycle - (e + 1));
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
    mem::Btb::Prediction pred = btb.predict(ri.pc);

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
            notifyStall(ri, StallKind::BranchMispredict,
                        e + 1 - cur_fetch);
            nextFetch = e + 1;
            fetchedThisCycle = 0;
        }
        btb.update(ri.pc, ri.taken, ri.nextPc);
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
        btb.update(ri.pc, true, ri.nextPc);
        break;
      case Opcode::JR:
        // Indirect: resolved in EXE.
        if (pred.hit && pred.taken && pred.target == ri.nextPc) {
            nextFetch = cur_fetch + 1;
        } else {
            ++stats_.mispredicts;
            notifyStall(ri, StallKind::BranchMispredict,
                        e + 1 - cur_fetch);
            nextFetch = e + 1;
        }
        fetchedThisCycle = 0;
        btb.update(ri.pc, true, ri.nextPc);
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
    uint64_t ready_to_issue = e;

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

    if (e > ready_to_issue && hasObservers_)
        notifyStall(ri, StallKind::RegInterlock, e - ready_to_issue);

    e = scheduleIssue(e, isa::flagFuClass(flags));

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
        ++use(e + 1).dcachePorts;
        dcache.access(ri.effAddr, e + 1, cfg.dcache.writeAllocate);
        inFlightStores.push_back(
            {ri.effAddr, (flags & isa::flag::WidthByte) ? 1u : 4u, e,
             e + 1});
    } else if (flags & isa::flag::Control) {
        handleBranch(ri, e, flags);
        if (inst.op == Opcode::JAL && inst.rd != 0)
            intReady[inst.rd] = e + 1;
    } else if (flags & isa::flag::WritesFp) {
        fpReady[inst.rd] =
            e + static_cast<uint64_t>(latencyOf(inst));
    } else if (flags & isa::flag::WritesInt) {
        intReady[inst.rd] =
            e + static_cast<uint64_t>(latencyOf(inst));
        completion = std::max(completion, intReady[inst.rd]);
    }

    nextIssue = e;
    lastCompletion = std::max(lastCompletion, completion);
    if (e > 64)
        pruneStores(e - 64);
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

    w.varint(books.size());
    for (const BookSlot &slot : books) {
        w.u64(slot.cycle);
        w.i32(slot.use.issue);
        w.i32(slot.use.intAlu);
        w.i32(slot.use.mem);
        w.i32(slot.use.fp);
        w.i32(slot.use.branch);
        w.i32(slot.use.dcachePorts);
    }

    w.varint(inFlightStores.size());
    for (const InFlightStore &st : inFlightStores) {
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
    for (BookSlot &slot : books) {
        slot.cycle = r.u64();
        slot.use.issue = r.i32();
        slot.use.intAlu = r.i32();
        slot.use.mem = r.i32();
        slot.use.fp = r.i32();
        slot.use.branch = r.i32();
        slot.use.dcachePorts = r.i32();
    }

    inFlightStores.clear();
    uint64_t stores = r.varint();
    for (uint64_t i = 0; i < stores; ++i) {
        InFlightStore st;
        st.addr = static_cast<uint32_t>(r.varint());
        st.bytes = static_cast<uint32_t>(r.varint());
        st.exeCycle = r.varint();
        st.writeCycle = r.varint();
        inFlightStores.push_back(st);
    }

    for (uint64_t &ready : intReady)
        ready = r.varint();
    for (uint64_t &ready : fpReady)
        ready = r.varint();

    nextIssue = r.varint();
    nextFetch = r.varint();
    fetchedThisCycle = r.i32();
    lastCompletion = r.varint();
    finished = r.b();
}

} // namespace pipeline
} // namespace elag

/**
 * @file
 * gfp-prof — per-PC cycle/energy profiler for GFP guest programs.
 *
 * Usage:
 *   gfp-prof [options] <kernel-name | file.s>
 *
 *   <kernel-name>       a catalog kernel (see --list), run on the core
 *                       the catalog names for it
 *   file.s              assemble and profile an assembly source file
 *   --list              print every catalog kernel name and exit
 *   --baseline          run a file.s on the baseline core
 *   --dispatch MODE     translated (default) | plain | nopredecode —
 *                       profiles are identical across modes (that
 *                       invariant is tested); this exists to prove it
 *                       and to time the paths.  translated JIT-compiles
 *                       the kernel (src/jit) and single-steps whatever
 *                       it does not cover
 *   --top N             hotspot lines in the flat profile (default 20)
 *   --scaled-voltage    energy at the paper's 0.7 V SPICE point
 *                       instead of the nominal 0.9 V
 *   --trace FILE        write a Chrome trace_event JSON of kernel
 *                       phases (forces the stepping path for the
 *                       traced run; the profile itself is unaffected)
 *   --metrics FILE      write a metrics JSON snapshot of the run
 *   --max-instrs N      watchdog budget (default 500000000)
 *   -q, --quiet         suppress the annotated disassembly
 *
 * Output: a flat per-PC profile (cycles, instructions, energy, source
 * location, disassembly), a per-function call-graph rollup derived
 * from the static CFG, and a per-class summary that ties out against
 * the core's CycleStats — the tool exits nonzero if the per-PC cycle
 * total disagrees with the machine's cycle count.
 *
 * Exit status: 0 profiled cleanly (any guest trap is reported but the
 * partial profile still prints), 1 internal attribution mismatch,
 * 2 usage / file / assembly errors.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/cfg.h"
#include "common/strutil.h"
#include "common/trace_event.h"
#include "engine/metrics.h"
#include "hwmodel/energy_model.h"
#include "isa/assembler.h"
#include "isa/disasm.h"
#include "jit/core_translation.h"
#include "jit/translator.h"
#include "kernels/kernel_catalog.h"
#include "sim/machine.h"
#include "sim/profiler.h"
#include "sim/tracer.h"

using namespace gfp;

namespace {

struct Cli
{
    std::string target;
    bool list = false;
    bool baseline = false;
    bool quiet = false;
    std::string dispatch = "translated";
    unsigned top = 20;
    bool scaled_voltage = false;
    std::string trace_path;
    std::string metrics_path;
    uint64_t max_instrs = 500'000'000;
};

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--list] [--baseline] [--dispatch "
                 "translated|plain|nopredecode] [--top N] "
                 "[--scaled-voltage] "
                 "[--trace FILE] [--metrics FILE] [--max-instrs N] [-q] "
                 "<kernel-name | file.s>\n",
                 argv0);
    return 2;
}

/** Resolve the target to (name, program source, core kind). */
bool
resolveTarget(const Cli &cli, std::string &name, std::string &source,
              CoreKind &kind)
{
    for (const KernelSource &k : kernelCatalog()) {
        if (k.name == cli.target) {
            name = k.name;
            source = k.source;
            kind = k.kind;
            return true;
        }
    }
    std::ifstream f(cli.target);
    if (!f) {
        std::fprintf(stderr,
                     "gfp-prof: '%s' is neither a catalog kernel nor a "
                     "readable file (try --list)\n",
                     cli.target.c_str());
        return false;
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    name = cli.target;
    source = ss.str();
    kind = cli.baseline ? CoreKind::kBaseline : CoreKind::kGfProcessor;
    return true;
}

/** Nearest preceding code label for @p pc, as "label+0xoff" or "0xpc". */
std::string
locate(const Program &prog, uint32_t pc)
{
    std::string best;
    uint32_t best_addr = 0;
    const uint32_t code_end = static_cast<uint32_t>(prog.code.size()) * 4;
    for (const auto &[label, addr] : prog.symbols) {
        if (addr < code_end && addr <= pc &&
            (best.empty() || addr > best_addr)) {
            best = label;
            best_addr = addr;
        }
    }
    if (best.empty())
        return strprintf("0x%04x", pc);
    if (pc == best_addr)
        return best;
    return strprintf("%s+0x%x", best.c_str(), pc - best_addr);
}

struct FunctionCost
{
    uint32_t entry_word = 0;
    std::string name;
    uint64_t self_instrs = 0;
    uint64_t self_cycles = 0;
    uint64_t total_cycles = 0; ///< self + callees (call-graph rollup)
};

/**
 * Per-function rollup: partition code words by the function that owns
 * them (entry 0 plus every bl target; each word belongs to the nearest
 * preceding entry), sum the per-PC profile over each partition, then
 * propagate callee totals up the call graph.
 */
std::vector<FunctionCost>
rollupFunctions(const ControlFlowGraph &cfg, const PcProfile &prof)
{
    const Program &prog = cfg.program();
    std::vector<uint32_t> entries = cfg.functionEntries();
    if (std::find(entries.begin(), entries.end(), 0u) == entries.end())
        entries.insert(entries.begin(), 0u);
    std::sort(entries.begin(), entries.end());

    // Owner of word w = the greatest entry <= w.
    auto ownerOf = [&entries](uint32_t w) -> uint32_t {
        uint32_t owner = entries.front();
        for (uint32_t e : entries) {
            if (e > w)
                break;
            owner = e;
        }
        return owner;
    };

    std::map<uint32_t, FunctionCost> funcs;
    for (uint32_t e : entries) {
        FunctionCost fc;
        fc.entry_word = e;
        fc.name = locate(prog, 4 * e);
        funcs[e] = fc;
    }
    for (const auto &[pc, count] : prof.nonZero()) {
        if ((pc & 3u) || pc / 4 >= cfg.size())
            continue; // stray pc outside the code region
        FunctionCost &fc = funcs[ownerOf(pc / 4)];
        fc.self_instrs += count.instrs;
        fc.self_cycles += count.cycles;
    }

    // Call edges: caller entry -> set of callee entries.
    std::map<uint32_t, std::set<uint32_t>> calls;
    for (uint32_t site : cfg.callSites()) {
        const CfgNode &n = cfg.node(site);
        if (n.has_target && n.target_in_code)
            calls[ownerOf(site)].insert(ownerOf(n.target));
    }

    // total = self + callee totals, iterated to a fixpoint so recursion
    // (direct or mutual) converges to "everything reachable from me"
    // instead of diverging; each function's callee set is folded in as
    // reachability, not multiplicity.
    std::map<uint32_t, std::set<uint32_t>> reach;
    for (uint32_t e : entries)
        reach[e] = {e};
    bool changed = true;
    while (changed) {
        changed = false;
        for (uint32_t e : entries) {
            for (uint32_t callee : calls[e]) {
                for (uint32_t r : reach[callee]) {
                    if (reach[e].insert(r).second)
                        changed = true;
                }
            }
        }
    }
    std::vector<FunctionCost> out;
    for (uint32_t e : entries) {
        FunctionCost fc = funcs[e];
        for (uint32_t r : reach[e])
            fc.total_cycles += funcs[r].self_cycles;
        out.push_back(std::move(fc));
    }
    std::sort(out.begin(), out.end(),
              [](const FunctionCost &a, const FunctionCost &b) {
                  return a.total_cycles > b.total_cycles;
              });
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (!std::strcmp(a, "--list")) {
            cli.list = true;
        } else if (!std::strcmp(a, "--baseline")) {
            cli.baseline = true;
        } else if (!std::strcmp(a, "--dispatch")) {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            cli.dispatch = v;
            if (cli.dispatch != "plain" && cli.dispatch != "translated" &&
                cli.dispatch != "nopredecode")
                return usage(argv[0]);
        } else if (!std::strcmp(a, "--top")) {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            cli.top = static_cast<unsigned>(std::strtoul(v, nullptr, 0));
        } else if (!std::strcmp(a, "--scaled-voltage")) {
            cli.scaled_voltage = true;
        } else if (!std::strcmp(a, "--trace")) {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            cli.trace_path = v;
        } else if (!std::strcmp(a, "--metrics")) {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            cli.metrics_path = v;
        } else if (!std::strcmp(a, "--max-instrs")) {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            cli.max_instrs = std::strtoull(v, nullptr, 0);
        } else if (!std::strcmp(a, "-q") || !std::strcmp(a, "--quiet")) {
            cli.quiet = true;
        } else if (a[0] == '-') {
            return usage(argv[0]);
        } else if (cli.target.empty()) {
            cli.target = a;
        } else {
            return usage(argv[0]);
        }
    }

    if (cli.list) {
        for (const KernelSource &k : kernelCatalog())
            std::printf("%s\n", k.name.c_str());
        return 0;
    }
    if (cli.target.empty())
        return usage(argv[0]);

    std::string name, source;
    CoreKind kind = CoreKind::kGfProcessor;
    if (!resolveTarget(cli, name, source, kind))
        return 2;

    Program program;
    try {
        program = Assembler::assemble(source);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "gfp-prof: assembly failed: %s\n", e.what());
        return 2;
    }

    Machine mach(program, kind);
    Core &core = mach.core();
    if (cli.dispatch == "translated") {
        auto compiled = jit::translate(program, kind);
        if (!cli.quiet && !compiled->policyNote().empty())
            std::fprintf(stderr, "gfp-prof: %s\n",
                         compiled->policyNote().c_str());
        core.setDispatchMode(DispatchMode::kTranslated);
        core.setTranslation(jit::makeCoreTranslation(std::move(compiled)));
    } else if (cli.dispatch == "nopredecode") {
        core.disablePredecode();
    }

    PcProfile prof;
    prof.configure(static_cast<uint32_t>(4 * program.code.size()));
    core.setProfile(&prof);

    TraceLog trace;
    GuestTracer tracer(trace, core, mach.program());
    if (!cli.trace_path.empty())
        tracer.attach();

    RunResult run = mach.runToHalt(cli.max_instrs);
    core.setProfile(nullptr);
    if (!cli.trace_path.empty())
        tracer.finish(&run.trap);

    const EnergyModel energy = cli.scaled_voltage
                                   ? EnergyModel::scaled07v()
                                   : EnergyModel::nominal();
    const CycleStats &st = run.stats;

    std::printf("== gfp-prof: %s (%s core, %s dispatch) ==\n", name.c_str(),
                kind == CoreKind::kBaseline ? "baseline" : "GF",
                cli.dispatch.c_str());
    if (run.trap)
        std::printf("run stopped by trap: %s\n",
                    run.trap.describe().c_str());
    std::printf("retired %llu instructions in %llu cycles "
                "(%.2f us at %g MHz), %.1f pJ (%.0f%% GFAU) at %.1f V\n",
                static_cast<unsigned long long>(st.instrs),
                static_cast<unsigned long long>(st.cycles),
                static_cast<double>(st.cycles) / energy.clockMhz(),
                energy.clockMhz(), energy.runEnergyPj(st),
                st.cycles ? 100.0 * energy.gfauEnergyPj(st) /
                                energy.runEnergyPj(st)
                          : 0.0,
                energy.voltage());

    // -- per-class summary (must tie out against CycleStats) --
    std::printf("\n%-8s %12s %12s %8s %12s\n", "class", "instrs", "cycles",
                "cyc%", "energy pJ");
    for (unsigned c = 0; c < kNumInstrClasses; ++c) {
        const InstrClass cls = static_cast<InstrClass>(c);
        if (!prof.classOps(cls))
            continue;
        std::printf("%-8s %12llu %12llu %7.2f%% %12.1f\n",
                    instrClassName(cls),
                    static_cast<unsigned long long>(prof.classOps(cls)),
                    static_cast<unsigned long long>(prof.classCycles(cls)),
                    100.0 * static_cast<double>(prof.classCycles(cls)) /
                        static_cast<double>(prof.cycles() ? prof.cycles()
                                                          : 1),
                    energy.energyPj(cls, prof.classCycles(cls)));
    }

    // -- flat per-PC profile, hottest first --
    auto flat = prof.nonZero();
    std::sort(flat.begin(), flat.end(),
              [](const auto &a, const auto &b) {
                  return a.second.cycles > b.second.cycles;
              });
    std::printf("\nflat profile (top %u of %zu PCs):\n", cli.top,
                flat.size());
    std::printf("%-10s %-24s %12s %12s %7s  %s\n", "pc", "location",
                "instrs", "cycles", "cyc%", "disassembly");
    for (size_t i = 0; i < flat.size() && i < cli.top; ++i) {
        const auto &[pc, count] = flat[i];
        std::string dis = "<outside code>";
        if ((pc & 3u) == 0 && pc / 4 < program.code.size())
            dis = disassembleWord(program.code[pc / 4],
                                  static_cast<int64_t>(pc));
        std::printf("0x%08x %-24s %12llu %12llu %6.2f%%  %s\n", pc,
                    locate(program, pc).c_str(),
                    static_cast<unsigned long long>(count.instrs),
                    static_cast<unsigned long long>(count.cycles),
                    100.0 * static_cast<double>(count.cycles) /
                        static_cast<double>(prof.cycles() ? prof.cycles()
                                                          : 1),
                    dis.c_str());
    }

    // -- call-graph rollup --
    ControlFlowGraph cfg(program);
    auto funcs = rollupFunctions(cfg, prof);
    std::printf("\ncall-graph rollup (%zu functions):\n", funcs.size());
    std::printf("%-24s %12s %12s %12s %7s\n", "function", "self instrs",
                "self cycles", "total cyc", "total%");
    for (const FunctionCost &fc : funcs) {
        if (!fc.self_cycles && !fc.total_cycles)
            continue;
        std::printf("%-24s %12llu %12llu %12llu %6.2f%%\n",
                    fc.name.c_str(),
                    static_cast<unsigned long long>(fc.self_instrs),
                    static_cast<unsigned long long>(fc.self_cycles),
                    static_cast<unsigned long long>(fc.total_cycles),
                    100.0 * static_cast<double>(fc.total_cycles) /
                        static_cast<double>(prof.cycles() ? prof.cycles()
                                                          : 1));
    }

    // -- annotated hotspot disassembly: the hottest function, in full --
    if (!cli.quiet && !funcs.empty()) {
        const FunctionCost *hot = nullptr;
        for (const FunctionCost &fc : funcs)
            if (fc.self_cycles && (!hot || fc.self_cycles > hot->self_cycles))
                hot = &fc;
        if (hot) {
            std::printf("\nhotspot: %s\n", hot->name.c_str());
            std::vector<uint32_t> words =
                cfg.functionNodes(hot->entry_word);
            std::sort(words.begin(), words.end());
            for (uint32_t w : words) {
                if (w >= program.code.size())
                    continue;
                const uint32_t pc = 4 * w;
                const auto count = prof.at(pc);
                std::printf("  0x%08x %10llu cyc  %s\n", pc,
                            static_cast<unsigned long long>(count.cycles),
                            disassembleWord(program.code[w],
                                            static_cast<int64_t>(pc))
                                .c_str());
            }
        }
    }

    // -- artifacts --
    if (!cli.trace_path.empty()) {
        std::string err;
        if (!trace.writeTo(cli.trace_path)) {
            std::fprintf(stderr, "gfp-prof: cannot write trace to %s\n",
                         cli.trace_path.c_str());
            return 2;
        }
        if (!validateTraceEventJson(trace.toJson(), &err)) {
            std::fprintf(stderr,
                         "gfp-prof: emitted trace failed validation: %s\n",
                         err.c_str());
            return 1;
        }
        std::printf("\ntrace: %zu events -> %s (load in ui.perfetto.dev)\n",
                    trace.size(), cli.trace_path.c_str());
    }
    if (!cli.metrics_path.empty()) {
        Metrics metrics;
        metrics.add("instrs_total", static_cast<double>(st.instrs));
        metrics.add("cycles_total", static_cast<double>(st.cycles));
        metrics.add("energy_pj_total", energy.runEnergyPj(st));
        metrics.add("energy_pj_gfau", energy.gfauEnergyPj(st));
        metrics.set("guest_us_at_clock",
                    static_cast<double>(st.cycles) / energy.clockMhz());
        metrics.set("pc_count", static_cast<double>(flat.size()));
        for (unsigned c = 0; c < kNumInstrClasses; ++c) {
            const InstrClass cls = static_cast<InstrClass>(c);
            metrics.add(strprintf("class_%s_cycles", instrClassName(cls)),
                        static_cast<double>(prof.classCycles(cls)));
        }
        if (run.trap)
            metrics.add(strprintf("trap_%s_total",
                                  trapKindName(run.trap.kind)));
        if (!metrics.writeTo(cli.metrics_path)) {
            std::fprintf(stderr, "gfp-prof: cannot write metrics to %s\n",
                         cli.metrics_path.c_str());
            return 2;
        }
        std::printf("metrics -> %s\n", cli.metrics_path.c_str());
    }

    // -- the attribution self-check the tool's exit status reports --
    const bool ties_out = prof.consistent() &&
                          prof.cycles() == st.cycles &&
                          prof.instrs() == st.instrs;
    std::printf("\nattribution check: per-PC totals %llu instrs / %llu "
                "cycles vs machine %llu / %llu -- %s\n",
                static_cast<unsigned long long>(prof.instrs()),
                static_cast<unsigned long long>(prof.cycles()),
                static_cast<unsigned long long>(st.instrs),
                static_cast<unsigned long long>(st.cycles),
                ties_out ? "OK" : "MISMATCH");
    return ties_out ? 0 : 1;
}

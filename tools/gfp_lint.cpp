/**
 * @file
 * gfp-lint — static analyzer, certifier, and GFAU configuration
 * verifier for GFP guest programs.
 *
 * Usage:
 *   gfp-lint [options] [file.s ...]
 *
 *   file.s ...          assemble and lint each source file
 *   --kernels           lint every built-in kernel program
 *   --certify           emit trap-freedom / jit-safety / config
 *                       certificates (analysis/certify.h)
 *   --wcet              emit worst-case cycle + energy bounds
 *   --format=F          human (default), json, or sarif
 *   --output FILE       write the json/sarif document to FILE instead
 *                       of stdout
 *   --certify-baseline FILE
 *                       fail (exit 1) if any program listed in FILE
 *                       loses a certificate it held there
 *   --update-certify-baseline FILE
 *                       rewrite FILE from this run's certificates
 *   --watchdog N        instruction watchdog the cost certificate is
 *                       checked against
 *   --verify-gfau       algebraically verify the reduction matrix of
 *                       every irreducible polynomial, degrees 2..8
 *   --exhaustive        with --verify-gfau, additionally sweep every
 *                       (2m-1)-bit product per field
 *   --werror            exit nonzero on warnings too
 *   --mem-bytes N       memory size for address-range lints
 *   --max-findings N    cap findings per program
 *   -q, --quiet         only print findings and the final verdict
 *
 * Exit status: 0 clean, 1 findings at error severity (or any finding
 * with --werror), a failed GFAU proof, or a lost baseline certificate;
 * 2 usage / file / assembly errors.  --certify caveats by themselves
 * do not fail the run — the regression gate is the baseline file.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/certify.h"
#include "analysis/config_verifier.h"
#include "analysis/lint.h"
#include "analysis/report_format.h"
#include "isa/assembler.h"
#include "kernels/kernel_catalog.h"

using namespace gfp;

namespace {

struct Cli
{
    std::vector<std::string> files;
    bool kernels = false;
    bool verify_gfau = false;
    bool exhaustive = false;
    bool certify = false;
    bool wcet = false;
    bool werror = false;
    bool quiet = false;
    ReportFormat format = ReportFormat::kHuman;
    std::string output;
    std::string baseline;
    std::string update_baseline;
    uint64_t watchdog = 500'000'000;
    LintOptions lint;

    bool wantCert() const { return certify || wcet; }
    bool human() const { return format == ReportFormat::kHuman; }
};

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--kernels] [--certify] [--wcet] "
                 "[--format=human|json|sarif] [--output FILE] "
                 "[--certify-baseline FILE] "
                 "[--update-certify-baseline FILE] [--watchdog N] "
                 "[--verify-gfau [--exhaustive]] "
                 "[--werror] [--mem-bytes N] [--max-findings N] [-q] "
                 "[file.s ...]\n",
                 argv0);
    return 2;
}

/// Lint (and optionally certify) one named program, appending to
/// @p reports; returns false when the report (under the CLI's severity
/// policy) should fail the run.
bool
processOne(const Cli &cli, const std::string &name, const std::string &file,
           const Program &prog, std::vector<ProgramReport> &reports,
           unsigned &errors, unsigned &warnings)
{
    ProgramReport pr;
    pr.name = name;
    pr.file = file;
    pr.prog = &prog;
    pr.lint = lintProgram(prog, cli.lint);
    if (cli.wantCert()) {
        CertifyOptions copts;
        copts.mem_bytes = cli.lint.mem_bytes;
        copts.watchdog_max_instrs = cli.watchdog;
        pr.cert = certifyProgram(prog, copts);
        pr.certified = true;
    }

    if (cli.human()) {
        for (const Finding &f : pr.lint.findings)
            std::printf("%s: %s\n", name.c_str(), f.describe().c_str());
        if (!cli.quiet) {
            std::printf("%s: %s\n", name.c_str(),
                        pr.lint.clean() ? "clean"
                                        : pr.lint.summary().c_str());
        }
        if (pr.certified) {
            std::printf("%s: certificate: %s\n", name.c_str(),
                        pr.cert.summary().c_str());
            if (!cli.quiet)
                for (const std::string &cv : pr.cert.caveats)
                    std::printf("%s:   caveat: %s\n", name.c_str(),
                                cv.c_str());
        }
    }

    errors += pr.lint.errorCount();
    warnings += pr.lint.warningCount();
    const bool pass =
        !(pr.lint.hasErrors() || (cli.werror && !pr.lint.clean()));
    reports.push_back(std::move(pr));
    return pass;
}

/// One program's certificate flags, as tracked by the baseline file.
struct BaselineEntry
{
    bool trap_free = false;
    bool jit_safe = false;
    bool wcet_bounded = false;
};

std::map<std::string, BaselineEntry>
readBaseline(const std::string &path, bool &ok)
{
    std::map<std::string, BaselineEntry> base;
    std::ifstream in(path);
    if (!in) {
        ok = false;
        return base;
    }
    ok = true;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string name;
        BaselineEntry e;
        int tf = 0, js = 0, wb = 0;
        if (ls >> name >> tf >> js >> wb) {
            e.trap_free = tf != 0;
            e.jit_safe = js != 0;
            e.wcet_bounded = wb != 0;
            base[name] = e;
        }
    }
    return base;
}

bool
writeBaseline(const std::string &path,
              const std::vector<ProgramReport> &reports)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "# gfp-lint certificate baseline\n"
        << "# name  trap_free  jit_safe  wcet_bounded\n";
    for (const ProgramReport &r : reports) {
        if (!r.certified)
            continue;
        out << r.name << " " << (r.cert.trap_free ? 1 : 0) << " "
            << (r.cert.jit_safe ? 1 : 0) << " "
            << (r.cert.cost.bounded ? 1 : 0) << "\n";
    }
    return static_cast<bool>(out);
}

/// Compare this run against the baseline; any lost certificate is a
/// reported failure.  Programs not in the baseline are ignored.
bool
checkBaseline(const Cli &cli, const std::vector<ProgramReport> &reports)
{
    bool ok = true;
    bool read_ok = false;
    const auto base = readBaseline(cli.baseline, read_ok);
    if (!read_ok) {
        std::fprintf(stderr, "%s: cannot read certificate baseline\n",
                     cli.baseline.c_str());
        return false;
    }
    for (const ProgramReport &r : reports) {
        if (!r.certified)
            continue;
        auto it = base.find(r.name);
        if (it == base.end())
            continue;
        auto lost = [&](const char *what, bool had, bool have) {
            if (had && !have) {
                std::printf("%s: REGRESSION: lost %s certificate held in "
                            "baseline\n",
                            r.name.c_str(), what);
                ok = false;
            }
        };
        lost("trap-freedom", it->second.trap_free, r.cert.trap_free);
        lost("jit-safety", it->second.jit_safe, r.cert.jit_safe);
        lost("wcet", it->second.wcet_bounded, r.cert.cost.bounded);
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        auto num = [&](size_t &out) {
            if (i + 1 >= argc)
                return false;
            out = static_cast<size_t>(std::strtoull(argv[++i], nullptr, 0));
            return true;
        };
        auto str = [&](std::string &out) {
            if (i + 1 >= argc)
                return false;
            out = argv[++i];
            return true;
        };
        size_t v = 0;
        if (!std::strcmp(a, "--kernels")) {
            cli.kernels = true;
        } else if (!std::strcmp(a, "--certify")) {
            cli.certify = true;
        } else if (!std::strcmp(a, "--wcet")) {
            cli.wcet = true;
        } else if (!std::strncmp(a, "--format=", 9)) {
            if (!parseReportFormat(a + 9, cli.format))
                return usage(argv[0]);
        } else if (!std::strcmp(a, "--format")) {
            std::string f;
            if (!str(f) || !parseReportFormat(f, cli.format))
                return usage(argv[0]);
        } else if (!std::strcmp(a, "--output")) {
            if (!str(cli.output))
                return usage(argv[0]);
        } else if (!std::strcmp(a, "--certify-baseline")) {
            if (!str(cli.baseline))
                return usage(argv[0]);
        } else if (!std::strcmp(a, "--update-certify-baseline")) {
            if (!str(cli.update_baseline))
                return usage(argv[0]);
        } else if (!std::strcmp(a, "--watchdog")) {
            if (!num(v))
                return usage(argv[0]);
            cli.watchdog = v;
        } else if (!std::strcmp(a, "--verify-gfau")) {
            cli.verify_gfau = true;
        } else if (!std::strcmp(a, "--exhaustive")) {
            cli.exhaustive = true;
        } else if (!std::strcmp(a, "--werror")) {
            cli.werror = true;
        } else if (!std::strcmp(a, "-q") || !std::strcmp(a, "--quiet")) {
            cli.quiet = true;
        } else if (!std::strcmp(a, "--mem-bytes")) {
            if (!num(v))
                return usage(argv[0]);
            cli.lint.mem_bytes = v;
        } else if (!std::strcmp(a, "--max-findings")) {
            if (!num(v))
                return usage(argv[0]);
            cli.lint.max_findings = v;
        } else if (a[0] == '-') {
            return usage(argv[0]);
        } else {
            cli.files.push_back(a);
        }
    }
    if (cli.files.empty() && !cli.kernels && !cli.verify_gfau)
        return usage(argv[0]);
    if ((!cli.baseline.empty() || !cli.update_baseline.empty()) &&
        !cli.wantCert()) {
        std::fprintf(stderr, "certificate baselines require --certify or "
                             "--wcet\n");
        return usage(argv[0]);
    }

    bool ok = true;
    unsigned errors = 0, warnings = 0, programs = 0;
    // Programs live here so ProgramReport::prog stays valid (deque:
    // stable addresses under growth).
    std::deque<Program> storage;
    std::vector<ProgramReport> reports;

    for (const std::string &path : cli.files) {
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr, "%s: cannot open\n", path.c_str());
            return 2;
        }
        std::stringstream ss;
        ss << in.rdbuf();

        storage.emplace_back();
        AsmDiagnostic diag;
        if (!Assembler::tryAssembleFile(ss.str(), path, storage.back(),
                                        diag)) {
            std::fprintf(stderr, "%s:%d:%d: error: %s\n", diag.file.c_str(),
                         diag.line, diag.column, diag.message.c_str());
            return 2;
        }
        ++programs;
        ok = processOne(cli, path, path, storage.back(), reports, errors,
                        warnings) &&
             ok;
    }

    if (cli.kernels) {
        for (const KernelSource &k : kernelCatalog()) {
            storage.emplace_back();
            AsmDiagnostic diag;
            if (!Assembler::tryAssemble(k.source, storage.back(), diag)) {
                std::fprintf(stderr,
                             "kernel %s: internal assembly error: %s\n",
                             k.name.c_str(), diag.render().c_str());
                return 2;
            }
            ++programs;
            ok = processOne(cli, "kernel:" + k.name, "", storage.back(),
                            reports, errors, warnings) &&
                 ok;
        }
    }

    if (cli.verify_gfau) {
        VerifySummary vs = verifyAllFields(cli.exhaustive);
        for (const MatrixProof &p : vs.failures)
            std::printf("gfau: %s\n", p.describe().c_str());
        if (!cli.quiet || !vs.ok()) {
            std::printf("gfau: %u field configuration%s verified%s, "
                        "%zu failure%s\n",
                        vs.fields_checked, vs.fields_checked == 1 ? "" : "s",
                        cli.exhaustive ? " (exhaustive)" : "",
                        vs.failures.size(),
                        vs.failures.size() == 1 ? "" : "s");
        }
        ok = ok && vs.ok();
    }

    if (!cli.baseline.empty())
        ok = checkBaseline(cli, reports) && ok;
    if (!cli.update_baseline.empty() &&
        !writeBaseline(cli.update_baseline, reports)) {
        std::fprintf(stderr, "%s: cannot write baseline\n",
                     cli.update_baseline.c_str());
        return 2;
    }

    if (!cli.human()) {
        const std::string doc = cli.format == ReportFormat::kJson
                                    ? renderJson(reports)
                                    : renderSarif(reports);
        if (cli.output.empty()) {
            std::printf("%s\n", doc.c_str());
        } else {
            std::ofstream out(cli.output);
            out << doc << "\n";
            if (!out) {
                std::fprintf(stderr, "%s: cannot write report\n",
                             cli.output.c_str());
                return 2;
            }
        }
    }

    if (!cli.quiet && cli.human()) {
        std::printf("gfp-lint: %u program%s, %u error%s, %u warning%s\n",
                    programs, programs == 1 ? "" : "s", errors,
                    errors == 1 ? "" : "s", warnings,
                    warnings == 1 ? "" : "s");
    }
    return ok ? 0 : 1;
}

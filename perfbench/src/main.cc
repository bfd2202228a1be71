/**
 * perfbench: run one named serving workload and print its metrics.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--part <i> --part-out <file>] [--trace-out <file.json>]
 *   perfbench --aggregate <part file>...
 *
 * The last stdout line is one JSON object: {"correct", "attempted",
 * "failed", "metrics": {name: {"value", "unit"}}}. --trace 0 gives the
 * end-to-end metrics of this process's run (and, with --part-out, saves
 * its raw samples), --trace 1 the per-layer metrics of a traced run.
 * --aggregate combines the saved sub-runs of one untraced run into its
 * end-to-end metrics. perfbench/run.py drives this binary.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "runtime/autotune.h"
#include "runtime/isa.h"
#include "runtime/parallel.h"
#include "workloads.h"

namespace {

/** The pool size every run is pinned to (the reference box's nproc),
 *  so figures from hosts with different core counts stay comparable
 *  in shape. */
constexpr std::size_t kPoolThreads = 4;

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed "
                 "<n> --seconds <s> --trace <0|1> [--part <i> --part-out "
                 "<file>] [--trace-out <file>]\n"
                 "       perfbench --aggregate <part file>...\n"
                 "workloads:",
                 msg);
    for (const auto &w : perfbench::workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parseNumber(const char *s, double &out)
{
    char *end = nullptr;
    out = std::strtod(s, &end);
    return end != s && *end == '\0';
}

std::string
jsonEscape(const std::string &s)
{
    std::string o;
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        o += c;
    }
    return o;
}

void
printResult(const perfbench::RunResult &r)
{
    std::string out = "{\"correct\": ";
    out += r.correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g", r.metrics[i].value);
        out += (i ? ", \"" : "\"") + jsonEscape(r.metrics[i].name) +
               "\": {\"value\": " + buf + ", \"unit\": \"" +
               jsonEscape(r.metrics[i].unit) + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

int
aggregate(int argc, char **argv)
{
    std::vector<perfbench::PartSummary> parts(argc);
    for (int i = 0; i < argc; ++i)
        if (!perfbench::readPart(argv[i], parts[i])) {
            std::fprintf(stderr, "perfbench: unreadable part file %s\n",
                         argv[i]);
            return 1;
        }
    if (parts.empty())
        return usage("--aggregate needs part files");
    printResult(perfbench::endToEnd(parts));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "--aggregate") == 0)
        return aggregate(argc - 2, argv + 2);

    perfbench::RunArgs args;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_val = i + 1 < argc;
        double v = 0.0;
        if (a == "--workload" && has_val) {
            args.workload = argv[++i];
        } else if (a == "--trace-out" && has_val) {
            args.trace_out = argv[++i];
        } else if (a == "--part-out" && has_val) {
            args.part_out = argv[++i];
        } else if (a == "--seed" && has_val && parseNumber(argv[++i], v) &&
                   v >= 0 && v < 9e15 &&
                   v == static_cast<double>(static_cast<long long>(v))) {
            args.seed = static_cast<std::uint64_t>(v);
            have_seed = true;
        } else if (a == "--part" && has_val && parseNumber(argv[++i], v) &&
                   v >= 0 && v < 1024 &&
                   v == static_cast<double>(static_cast<int>(v))) {
            args.part = static_cast<unsigned>(v);
        } else if (a == "--seconds" && has_val && parseNumber(argv[++i], v) &&
                   v > 0 && v <= 3600) {
            args.seconds = v;
            have_seconds = true;
        } else if (a == "--trace" && has_val && parseNumber(argv[++i], v) &&
                   (v == 0 || v == 1)) {
            args.trace = v == 1;
            have_trace = true;
        } else {
            return usage(("bad argument: " + a).c_str());
        }
    }
    bool known = false;
    for (const auto &w : perfbench::workloadNames())
        known = known || w == args.workload;
    if (!known)
        return usage(("unknown workload '" + args.workload + "'").c_str());
    if (!have_seed || !have_seconds || !have_trace)
        return usage("--seed, --seconds and --trace are required");

    fabnet::runtime::setNumThreads(kPoolThreads);
    try {
        std::printf("run: workload=%s seed=%llu part=%u seconds=%g trace=%d "
                    "isa=%s pool_threads=%zu\n",
                    args.workload.c_str(),
                    static_cast<unsigned long long>(args.seed), args.part,
                    args.seconds, args.trace ? 1 : 0,
                    fabnet::runtime::isa(), fabnet::runtime::numThreads());
        std::printf("cpu: %s\n", fabnet::runtime::cpuSignature().c_str());
        const perfbench::RunResult r = perfbench::runWorkload(args);
        std::printf("tuning: %s\n", fabnet::runtime::tuningReport().c_str());
        printResult(r);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}

#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "data/lra.h"
#include "loadgen.h"
#include "model/builder.h"
#include "model/classifier.h"
#include "model/generator.h"
#include "nn/embedding.h"
#include "ops.h"
#include "runtime/autotune.h"
#include "runtime/parallel.h"
#include "serve/generation.h"
#include "serve/serving.h"
#include "sim/accelerator.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

using namespace fabnet;

namespace {

// ------------------------------------------------------------ specs

/** Weights of every workload's model come from this seed; only the
 *  request stream and schedule follow --seed. */
constexpr std::uint64_t kModelSeed = 42;

enum class Kind { Classify, Generate };

struct Spec
{
    std::string name;
    Kind kind = Kind::Classify;
    ModelConfig cfg;
    /** 0: open loop, Poisson at rate_rps. n: closed loop, n clients
     *  that each send their next request when the last one resolved. */
    std::size_t clients = 0;
    double rate_rps = 0.0;    ///< open loop only
    std::size_t min_len = 0;  ///< request / prompt length range
    std::size_t max_len = 0;
    double deadline_ms = 0.0; ///< per-request deadline, 0 = none
    std::size_t queue_cap = 0;
    double limit_ms = 0.0;    ///< latency limit goodput counts against
    std::size_t max_new = 0;  ///< tokens generated per prompt
    std::size_t replay_requests = 0;
    /** Requests per run whose output is checked (evenly spread over
     *  the successful ones); 0 = all. */
    std::size_t check_sample = 0;
};

ModelConfig
paperWidth(ModelKind kind)
{
    ModelConfig c;
    c.kind = kind;
    c.vocab = 256;
    c.max_seq = 64;
    c.d_hid = 256;
    c.r_ffn = 4;
    c.n_total = 2;
    c.n_abfly = kind == ModelKind::FABNet ? 2 : 0;
    c.heads = 8;
    c.classes = 10;
    return c;
}

const std::vector<Spec> &
specs()
{
    static const std::vector<Spec> all = [] {
        std::vector<Spec> v;

        Spec cls;
        cls.name = "classify_fabnet";
        cls.cfg = paperWidth(ModelKind::FABNet);
        cls.rate_rps = 100.0;
        cls.min_len = 4;
        cls.max_len = 32;
        cls.limit_ms = 50.0;
        cls.replay_requests = 128;
        cls.check_sample = 64;
        v.push_back(cls);

        Spec over = cls;
        over.name = "overload_fabnet";
        over.rate_rps = 2000.0;
        over.deadline_ms = 50.0;
        over.queue_cap = 64;
        v.push_back(over);

        Spec dec;
        dec.name = "decode_transformer";
        dec.kind = Kind::Generate;
        dec.cfg = paperWidth(ModelKind::Transformer);
        dec.cfg.causal = true;
        dec.clients = 4;
        dec.min_len = 4;
        dec.max_len = 24;
        dec.max_new = 16;
        dec.limit_ms = 1000.0;
        dec.replay_requests = 16;
        dec.check_sample = 8;
        v.push_back(dec);

        Spec doc;
        doc.name = "longdoc_dense";
        doc.cfg = data::longContextConfig("ListOps", 2048);
        doc.clients = 1;
        doc.min_len = 1536;
        doc.max_len = 2048;
        doc.limit_ms = 1000.0;
        doc.replay_requests = 2;
        doc.check_sample = 2;
        v.push_back(doc);
        return v;
    }();
    return all;
}

const Spec &
specFor(const std::string &name)
{
    for (const Spec &s : specs())
        if (s.name == name)
            return s;
    throw std::invalid_argument("unknown workload: " + name);
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
secondsSince(Clock::time_point a)
{
    return std::chrono::duration<double>(Clock::now() - a).count();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::size_t
countTunedPlans()
{
    const std::string r = runtime::tuningReport();
    std::size_t n = 0;
    for (std::size_t p = r.find("\"family\""); p != std::string::npos;
         p = r.find("\"family\"", p + 1))
        ++n;
    return n;
}

// ------------------------------------------------------------ setup

/** A workload's model + engine. Declaration order matters: the engine
 *  is destroyed (drained, threads joined) before the model it uses. */
struct Served
{
    std::unique_ptr<SequenceClassifier> model;
    std::unique_ptr<CausalGenerator> gen;
    std::unique_ptr<serve::ServingEngine> engine;
    std::unique_ptr<serve::GenerationEngine> gen_engine;

    /** Stop the engines; the models stay for reference checks. */
    void stopEngines()
    {
        engine.reset();
        gen_engine.reset();
    }
};

std::vector<int>
warmTokens(std::size_t len, std::size_t vocab)
{
    std::vector<int> t(len);
    for (std::size_t i = 0; i < len; ++i)
        t[i] = static_cast<int>(1 + (i * 7919) % (vocab - 1));
    return t;
}

/** Requests that touch every batch shape and bucket the run will:
 *  full buckets at both ends of the length range, then lone requests
 *  (the max_wait flush path). Fixed inputs, independent of --seed. */
void
warmUp(const Spec &s, Served &sv)
{
    const std::size_t vocab = s.cfg.vocab;
    if (s.kind == Kind::Generate) {
        std::vector<std::future<std::vector<int>>> f;
        for (std::size_t i = 0; i < 8; ++i)
            f.push_back(sv.gen_engine->submit(
                warmTokens(s.max_len - i, vocab), s.max_new));
        for (auto &x : f)
            x.get();
        sv.gen_engine->submit(warmTokens(s.min_len, vocab), s.max_new).get();
        return;
    }
    if (s.clients == 1) {
        sv.engine->submit(warmTokens(s.max_len, vocab)).get();
        return;
    }
    for (std::size_t len : {s.max_len, s.min_len}) {
        std::vector<std::future<std::vector<float>>> f;
        for (std::size_t i = 0; i < 8; ++i)
            f.push_back(sv.engine->submit(warmTokens(len, vocab)));
        for (auto &x : f)
            x.get();
        sv.engine->submit(warmTokens(len, vocab)).get();
    }
}

Served
buildServed(const Spec &s)
{
    Served sv;
    Rng rng(kModelSeed);
    if (s.kind == Kind::Generate) {
        sv.gen = buildGenerator(s.cfg, rng);
        serve::GenerationConfig gc;
        gc.max_live = 8;
        sv.gen_engine = std::make_unique<serve::GenerationEngine>(*sv.gen, gc);
    } else {
        sv.model = buildModel(s.cfg, rng);
        serve::ServingConfig sc;
        if (s.queue_cap) {
            sc.max_queue_requests = s.queue_cap;
            sc.shed_policy = serve::ShedPolicy::DropExpiredFirst;
        }
        sv.engine = std::make_unique<serve::ServingEngine>(*sv.model, sc);
    }
    warmUp(s, sv);
    return sv;
}

// ------------------------------------------------------------ live run

struct Outcome
{
    Clock::time_point due{}, sub0{}, sub1{}, done{};
    std::vector<Clock::time_point> token_at; ///< generation callbacks
    bool admitted = false;
    bool ok = false;
    bool unexpected = false; ///< non-serve exception
    std::optional<serve::ErrorCode> err;
    std::vector<float> logits;
    std::vector<int> generated;
};

struct LiveRun
{
    Clock::time_point t0{};
    std::vector<Outcome> out; ///< one per attempted request
};

/**
 * One submitter thread (open loop: sleeps until each due time; closed
 * loop: sends a request whenever fewer than `clients` are open, until
 * the run's time is up) and one completion-waiter thread that polls
 * every outstanding future, so a slow request never delays the
 * completion stamp of a fast one.
 */
template <class T, class SubmitFn, class StoreFn>
LiveRun
drive(const Spec &s, const Schedule &sch, double seconds, SubmitFn submit,
      StoreFn store)
{
    const std::size_t n_max = sch.requests.size();
    LiveRun run;
    run.out.resize(n_max);
    std::vector<std::future<T>> futs(n_max);
    std::atomic<std::size_t> published{0};
    std::atomic<bool> submitter_done{false};
    std::mutex mu;
    std::condition_variable resolved_cv;
    std::size_t resolved = 0; // guarded by mu
    std::size_t sent = 0;     // written by the submitter before join

    run.t0 = Clock::now() + std::chrono::milliseconds(5);
    const auto t_end =
        run.t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));

    std::thread waiter([&] {
        std::vector<std::size_t> open;
        std::size_t next = 0;
        auto markResolved = [&] {
            std::lock_guard<std::mutex> lk(mu);
            ++resolved;
            resolved_cv.notify_all();
        };
        for (;;) {
            const bool last = submitter_done.load(std::memory_order_acquire);
            const std::size_t n = published.load(std::memory_order_acquire);
            for (; next < n; ++next) {
                if (run.out[next].admitted)
                    open.push_back(next);
                else
                    markResolved();
            }
            for (std::size_t k = 0; k < open.size();) {
                const std::size_t i = open[k];
                if (futs[i].wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready) {
                    ++k;
                    continue;
                }
                Outcome &o = run.out[i];
                o.done = Clock::now();
                try {
                    store(o, futs[i].get());
                    o.ok = true;
                } catch (const serve::Error &e) {
                    o.err = e.code();
                } catch (...) {
                    o.unexpected = true;
                }
                markResolved();
                open[k] = open.back();
                open.pop_back();
            }
            if (last && next == n && open.empty())
                break;
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    });

    std::thread submitter([&] {
        std::size_t i = 0;
        for (; i < n_max; ++i) {
            Clock::time_point due;
            if (s.clients == 0) {
                due = run.t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(sch.due_s[i]));
                std::this_thread::sleep_until(due);
            } else {
                due = Clock::now();
                if (due >= t_end)
                    break;
            }
            Outcome &o = run.out[i];
            o.due = due;
            o.sub0 = Clock::now();
            try {
                futs[i] = submit(i, due);
                o.admitted = true;
            } catch (const serve::Error &e) {
                o.err = e.code();
            } catch (...) {
                o.unexpected = true;
            }
            o.sub1 = Clock::now();
            published.store(i + 1, std::memory_order_release);
            if (s.clients != 0) {
                // Block until fewer than `clients` requests are open.
                std::unique_lock<std::mutex> lk(mu);
                resolved_cv.wait(lk, [&] { return resolved + s.clients > i + 1; });
            }
        }
        sent = i;
        submitter_done.store(true, std::memory_order_release);
    });
    submitter.join();
    waiter.join();
    run.out.resize(sent); // closed loop: the requests actually sent
    return run;
}

// ------------------------------------------------------------ checks

std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

/** Indices of the successful requests whose outputs are checked. */
std::vector<std::size_t>
checkedIndices(const Spec &s, const LiveRun &run)
{
    std::vector<std::size_t> ok;
    for (std::size_t i = 0; i < run.out.size(); ++i)
        if (run.out[i].ok)
            ok.push_back(i);
    if (s.check_sample == 0 || ok.size() <= s.check_sample)
        return ok;
    std::vector<std::size_t> pick;
    for (std::size_t k = 0; k < s.check_sample; ++k)
        pick.push_back(ok[k * ok.size() / s.check_sample]);
    return pick;
}

/** Compare served outputs with a serial one-request reference, outside
 *  the timed window; returns the number of mismatches. */
std::size_t
checkOutputs(const Spec &s, Served &sv, const Schedule &sch,
             const LiveRun &run, std::size_t &checked)
{
    const std::vector<std::size_t> idx = checkedIndices(s, run);
    checked = idx.size();
    std::size_t bad = 0;
    for (std::size_t i : idx) {
        const Outcome &o = run.out[i];
        const std::vector<int> &req = sch.requests[i];
        if (s.kind == Kind::Classify) {
            const Tensor ref = sv.model->forward(req, 1, req.size());
            if (ref.size() != o.logits.size() ||
                std::memcmp(ref.data(), o.logits.data(),
                            ref.size() * sizeof(float)) != 0)
                ++bad;
            continue;
        }
        SequenceState st = sv.gen->newState();
        std::vector<SequenceState *> ptr{&st};
        std::vector<int> ref;
        Tensor logits = sv.gen->prefill({req}, ptr);
        ref.push_back(nn::argmaxRows(logits)[0]);
        while (ref.size() < s.max_new) {
            logits = sv.gen->decodeStep({ref.back()}, ptr);
            ref.push_back(nn::argmaxRows(logits)[0]);
        }
        if (ref != o.generated || o.token_at.size() != s.max_new)
            ++bad;
    }
    return bad;
}

std::uint64_t
outputDigest(const LiveRun &run)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const Outcome &o : run.out) {
        if (!o.ok)
            continue;
        h = fnv1a(h, o.logits.data(), o.logits.size() * sizeof(float));
        h = fnv1a(h, o.generated.data(), o.generated.size() * sizeof(int));
    }
    return h;
}

/** Failures the workload allows: bounded admission refusing or
 *  shedding work under overload is the policy doing its job. */
bool
allowedFailure(const Spec &s, const Outcome &o)
{
    if (o.unexpected || !o.err)
        return false;
    return s.queue_cap != 0 && (*o.err == serve::ErrorCode::QueueFull ||
                                *o.err == serve::ErrorCode::DeadlineExceeded);
}

// ------------------------------------------------------------ replay

struct ReplayTimes
{
    std::size_t requests = 0; ///< requests replayed
    std::size_t model_calls = 0;
    double quiet_ops_ms = 0.0;  ///< op chain with tracing off
    double traced_ops_ms = 0.0; ///< same work with tracing on
    std::map<std::string, double> sim_cycles; ///< by op metric name
    /** Nominal op costs summed over the traced passes. */
    std::array<OpCost, kNumOps> cost{};
};

constexpr int kTracedPasses = 2;

std::size_t
bucketOf(std::size_t len)
{
    const std::size_t g = serve::ServingConfig{}.bucket_granularity;
    return (len + g - 1) / g * g;
}

/**
 * Replay the head of the workload's stream through the model's public
 * batch calls and, op by op, through a stand-alone copy of its layers,
 * at the batch size the live run averaged. Passes alternate quiet and
 * traced op chains so the tracing overhead is measured on identical
 * work.
 */
ReplayTimes
replay(const Spec &s, Served &sv, const Schedule &sch, const LiveRun &run,
       double live_batch, Tracer &tracer)
{
    ReplayTimes rt;
    Tracer quiet_tracer(false);
    const bool gen = s.kind == Kind::Generate;
    OpChain traced(s.cfg, gen, tracer);
    OpChain quiet(s.cfg, gen, quiet_tracer);
    const std::size_t cap = gen ? 8 : serve::ServingConfig{}.max_batch;
    const auto B = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::llround(live_batch)), 1, cap);

    // Group the replayed requests as the live run would: by bucket
    // for the classifier, in arrival cohorts for the generator.
    std::vector<std::vector<std::size_t>> groups;
    const std::size_t n =
        std::min({s.replay_requests, sch.requests.size(), run.out.size()});
    rt.requests = n;
    if (gen) {
        for (std::size_t i = 0; i < n; i += B) {
            std::vector<std::size_t> g;
            for (std::size_t k = i; k < std::min(n, i + B); ++k)
                g.push_back(k);
            groups.push_back(std::move(g));
        }
    } else {
        std::map<std::size_t, std::vector<std::size_t>> pending;
        for (std::size_t i = 0; i < n; ++i) {
            auto &p = pending[bucketOf(sch.requests[i].size())];
            p.push_back(i);
            if (p.size() == B) {
                groups.push_back(std::move(p));
                p.clear();
            }
        }
        for (auto &[len, p] : pending)
            if (!p.empty())
                groups.push_back(std::move(p));
    }

    auto classifyBatch = [&](const std::vector<std::size_t> &g,
                             auto &&call) {
        std::size_t seq = 0;
        for (std::size_t i : g)
            seq = std::max(seq, bucketOf(sch.requests[i].size()));
        std::vector<int> flat(g.size() * seq, 0);
        std::vector<std::size_t> lens;
        for (std::size_t k = 0; k < g.size(); ++k) {
            const auto &r = sch.requests[g[k]];
            std::copy(r.begin(), r.end(), flat.begin() + k * seq);
            lens.push_back(r.size());
        }
        call(flat, g.size(), seq, lens);
    };
    // Decode inputs: the tokens the live run generated, so the replay
    // walks the same positions the engine did (token 1 stands in for a
    // request that failed live; the cost of a step does not depend on
    // the token id).
    auto tokensAt = [&](const std::vector<std::size_t> &g, std::size_t step) {
        std::vector<int> t;
        for (std::size_t i : g) {
            const std::vector<int> &gen_i = run.out[i].generated;
            t.push_back(step - 1 < gen_i.size() ? gen_i[step - 1] : 1);
        }
        return t;
    };

    auto modelPass = [&] {
        for (const auto &g : groups) {
            if (!gen) {
                classifyBatch(g, [&](auto &flat, std::size_t b,
                                     std::size_t seq, auto &lens) {
                    Scope sp(tracer, "model.forward_batch");
                    sv.model->forwardBatch(flat, b, seq, lens);
                });
                ++rt.model_calls;
                continue;
            }
            std::vector<SequenceState> st(g.size());
            std::vector<SequenceState *> ptrs;
            std::vector<std::vector<int>> prompts;
            for (std::size_t k = 0; k < g.size(); ++k) {
                st[k] = sv.gen->newState();
                ptrs.push_back(&st[k]);
                prompts.push_back(sch.requests[g[k]]);
            }
            {
                Scope sp(tracer, "model.prefill");
                sv.gen->prefill(prompts, ptrs);
            }
            ++rt.model_calls;
            for (std::size_t step = 1; step < s.max_new; ++step) {
                Scope sp(tracer, "model.decode_step");
                sv.gen->decodeStep(tokensAt(g, step), ptrs);
                ++rt.model_calls;
            }
        }
    };
    auto opsPass = [&](OpChain &chain, Tracer &chain_tracer) {
        const auto t0 = Clock::now();
        for (const auto &g : groups) {
            if (!gen) {
                classifyBatch(g, [&](auto &flat, std::size_t b,
                                     std::size_t seq, auto &lens) {
                    Scope sp(chain_tracer, "ops.forward_batch");
                    chain.classify(flat, b, seq, lens);
                });
                continue;
            }
            std::vector<ReplaySeq> st;
            std::vector<std::vector<int>> prompts;
            for (std::size_t i : g) {
                st.push_back(chain.newSeq());
                prompts.push_back(sch.requests[i]);
            }
            std::vector<ReplaySeq *> ptrs;
            for (auto &x : st)
                ptrs.push_back(&x);
            {
                Scope sp(chain_tracer, "ops.prefill");
                chain.prefill(prompts, ptrs);
            }
            for (std::size_t step = 1; step < s.max_new; ++step) {
                Scope sp(chain_tracer, "ops.decode_step");
                chain.decodeStep(tokensAt(g, step), ptrs);
            }
        }
        return msBetween(t0, Clock::now());
    };

    opsPass(quiet, quiet_tracer); // warm caches and lazy tuning
    for (int p = 0; p < kTracedPasses; ++p) {
        modelPass();
        rt.traced_ops_ms += opsPass(traced, tracer);
        rt.quiet_ops_ms += opsPass(quiet, quiet_tracer);
    }
    rt.model_calls /= kTracedPasses;
    rt.cost = traced.costs();

    if (s.cfg.kind == ModelKind::FABNet) {
        // The SOTA-comparison design has no attention processor, which
        // the all-ABfly model needs: add one (one QK/SV unit pair per
        // head, 16 multipliers each, as the repository's ablations do).
        sim::AcceleratorConfig hw = sim::vcu128Sota();
        hw.p_head = s.cfg.heads;
        hw.p_qk = 16;
        hw.p_sv = 16;
        std::map<std::size_t, sim::LatencyReport> by_len;
        for (const auto &g : groups) {
            std::size_t seq = 0;
            for (std::size_t i : g)
                seq = std::max(seq, bucketOf(sch.requests[i].size()));
            auto it = by_len.find(seq);
            if (it == by_len.end())
                it = by_len
                         .emplace(seq, sim::simulateModel(s.cfg, seq, hw))
                         .first;
            for (const auto &op : it->second.ops) {
                std::string label = op.label.substr(op.label.find('.') + 1);
                if (label == "qk" || label == "sv")
                    label = "attn_core";
                rt.sim_cycles[label] += op.total_cycles * g.size();
            }
        }
    }
    return rt;
}

// ------------------------------------------------------------ metrics

double
frac(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

void
noteTail(std::size_t n, double q)
{
    if (!percentileSupported(n, q))
        std::fprintf(stderr,
                     "perfbench: note: latency p%g from %zu samples has "
                     "fewer than %zu samples beyond it (needs %zu)\n",
                     q * 100.0, n, kMinBeyond, minSamplesFor(q));
}

struct Samples
{
    std::vector<double> latency_ms, ttft_ms, itl_ms, lag_ms, submit_us;
    std::size_t within_limit = 0;
    /** Seconds from the run's start to its last completion. */
    double window_s = 0.0;
};

Samples
collect(const Spec &s, const LiveRun &run)
{
    Samples x;
    for (const Outcome &o : run.out) {
        x.lag_ms.push_back(msBetween(o.due, o.sub0));
        x.submit_us.push_back(msBetween(o.sub0, o.sub1) * 1e3);
        if (!o.ok)
            continue;
        Clock::time_point done = o.done;
        if (s.kind == Kind::Generate && !o.token_at.empty()) {
            done = o.token_at.back();
            x.ttft_ms.push_back(msBetween(o.due, o.token_at.front()));
            for (std::size_t k = 1; k < o.token_at.size(); ++k)
                x.itl_ms.push_back(
                    msBetween(o.token_at[k - 1], o.token_at[k]));
        }
        x.window_s = std::max(x.window_s, msBetween(run.t0, done) / 1e3);
        const double lat = msBetween(o.due, done);
        x.latency_ms.push_back(lat);
        if (lat <= s.limit_ms)
            ++x.within_limit;
    }
    return x;
}

} // namespace

// ------------------------------------------------------------ public

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const Spec &s : specs())
            v.push_back(s.name);
        return v;
    }();
    return names;
}

Schedule
makeSchedule(const std::string &workload, std::uint64_t seed,
             double seconds, unsigned part)
{
    const Spec &s = specFor(workload);
    SplitMix rng(streamSeed(seed, workload + "#" + std::to_string(part)));
    Schedule sch;
    std::size_t n;
    if (s.clients == 0) {
        sch.due_s = poissonSchedule(rng, s.rate_rps, seconds);
        n = sch.due_s.size();
    } else {
        // Closed loop: more requests than any run can send (50 per
        // second per client); the run stops at --seconds, not at the
        // end of the stream.
        n = static_cast<std::size_t>(std::ceil(seconds * 50.0 * s.clients)) + 1;
    }
    sch.requests = makeStream(rng, n, s.min_len, s.max_len, s.cfg.vocab);
    return sch;
}

bool
writePart(const std::string &path, const PartSummary &p)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "correct %d\nattempted %zu\nfailed %zu\n",
                 p.correct ? 1 : 0, p.attempted, p.failed);
    std::fprintf(f, "setup_s %.17g\npeak_rss_mb %.17g\n", p.setup_s,
                 p.peak_rss_mb);
    std::fprintf(f, "within_limit %zu\nwindow_s %.17g\n", p.within_limit,
                 p.window_s);
    std::fprintf(f, "latency_ms %zu", p.latency_ms.size());
    for (double v : p.latency_ms)
        std::fprintf(f, " %.17g", v);
    std::fprintf(f, "\n");
    return std::fclose(f) == 0;
}

bool
readPart(const std::string &path, PartSummary &p)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return false;
    int correct = 0;
    std::size_t n = 0;
    bool ok = std::fscanf(f,
                          " correct %d attempted %zu failed %zu setup_s %lf "
                          "peak_rss_mb %lf within_limit %zu window_s %lf "
                          "latency_ms %zu",
                          &correct, &p.attempted, &p.failed, &p.setup_s,
                          &p.peak_rss_mb, &p.within_limit, &p.window_s,
                          &n) == 8 &&
              n <= (std::size_t{1} << 26);
    p.correct = correct == 1;
    p.latency_ms.assign(ok ? n : 0, 0.0);
    for (std::size_t i = 0; ok && i < n; ++i)
        ok = std::fscanf(f, " %lf", &p.latency_ms[i]) == 1;
    std::fclose(f);
    return ok;
}

RunResult
endToEnd(const std::vector<PartSummary> &parts)
{
    RunResult res;
    std::vector<double> lat, setup, rss, goodput;
    for (const PartSummary &p : parts) {
        res.correct = res.correct && p.correct;
        res.attempted += p.attempted;
        res.failed += p.failed;
        lat.insert(lat.end(), p.latency_ms.begin(), p.latency_ms.end());
        setup.push_back(p.setup_s);
        rss.push_back(p.peak_rss_mb);
        goodput.push_back(frac(static_cast<double>(p.within_limit), p.window_s));
    }
    // Each sub-run is a fresh process, and on a shared host a disturbed
    // process (CPU taken by neighbours, placement) is the largest source
    // of spread: every metric is a median over sub-runs, so one
    // disturbed sub-run cannot move it. Where a sub-run has too few
    // samples for a percentile, it comes from the pooled samples.
    auto robust = [&](double q) {
        std::vector<double> per_part;
        for (const PartSummary &p : parts)
            if (percentileSupported(p.latency_ms.size(), q))
                per_part.push_back(percentile(p.latency_ms, q));
        if (per_part.size() == parts.size())
            return median(per_part);
        noteTail(lat.size(), q);
        return percentile(lat, q);
    };
    res.metrics = {
        {"setup_s", median(setup), "s"},
        {"latency_p50_ms", robust(0.5), "ms"},
        {"goodput_rps", median(goodput), "1/s"},
        {"peak_rss_mb", median(rss), "MB"},
    };
    return res;
}

RunResult
runWorkload(const RunArgs &args)
{
    const Spec &s = specFor(args.workload);
    const Schedule sch =
        makeSchedule(args.workload, args.seed, args.seconds, args.part);
    Tracer tracer(args.trace);

    const auto t_setup = Clock::now();
    Served sv = buildServed(s);
    const double setup_s = secondsSince(t_setup);
    const std::size_t tuned_plans = countTunedPlans();

    LiveRun run;
    serve::ServingStats st;
    serve::GenerationStats gst;
    if (s.kind == Kind::Classify) {
        run = drive<std::vector<float>>(
            s, sch, args.seconds,
            [&](std::size_t i, Clock::time_point due) {
                // The deadline runs from the due time, like the latency.
                const serve::Deadline dl =
                    s.deadline_ms > 0.0
                        ? due + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double, std::milli>(
                                        s.deadline_ms))
                        : serve::kNoDeadline;
                return sv.engine->submit(sch.requests[i], dl);
            },
            [](Outcome &o, std::vector<float> v) { o.logits = std::move(v); });
        st = sv.engine->stats();
    } else {
        // Token callbacks run on the engine's scheduler thread; each
        // request's stamps are read only after the engine is stopped.
        std::vector<std::vector<Clock::time_point>> stamps(sch.requests.size());
        run = drive<std::vector<int>>(
            s, sch, args.seconds,
            [&](std::size_t i, Clock::time_point) {
                auto *mine = &stamps[i];
                return sv.gen_engine->submit(
                    sch.requests[i], s.max_new, serve::kNoDeadline,
                    [mine](int) { mine->push_back(Clock::now()); });
            },
            [](Outcome &o, std::vector<int> v) { o.generated = std::move(v); });
        gst = sv.gen_engine->stats();
        sv.stopEngines();
        for (std::size_t i = 0; i < run.out.size(); ++i)
            run.out[i].token_at = std::move(stamps[i]);
    }
    sv.stopEngines();

    // Serving's high-water mark: read before the reference check, whose
    // serial forwards are the benchmark's own work.
    const double peak_rss_mb = peakRssMb();

    RunResult res;
    res.attempted = run.out.size();
    std::size_t checked = 0;
    const auto t_check = Clock::now();
    const std::size_t mismatches = checkOutputs(s, sv, sch, run, checked);
    const double check_s = secondsSince(t_check);
    std::size_t disallowed = 0, served_ok = 0;
    for (const Outcome &o : run.out) {
        if (o.ok)
            ++served_ok;
        else if (!allowedFailure(s, o))
            ++disallowed;
    }
    res.failed = mismatches + disallowed;
    res.correct = res.failed == 0;
    std::printf("output check: %zu of %zu served outputs compared with the "
                "serial reference, %zu mismatches, %zu disallowed failures; "
                "digest %016llx\n",
                checked, served_ok, mismatches, disallowed,
                static_cast<unsigned long long>(outputDigest(run)));
    std::printf("phases: setup %.3f s, check %.3f s\n", setup_s, check_s);

    const Samples x = collect(s, run);
    const double sec = args.seconds;
    auto add = [&](const char *name, double v, const char *unit) {
        res.metrics.push_back({name, v, unit});
    };

    if (!args.trace) {
        PartSummary part;
        part.correct = res.correct;
        part.attempted = res.attempted;
        part.failed = res.failed;
        part.setup_s = setup_s;
        part.peak_rss_mb = peak_rss_mb;
        part.within_limit = x.within_limit;
        part.window_s = x.window_s;
        part.latency_ms = x.latency_ms;
        if (!args.part_out.empty() && !writePart(args.part_out, part))
            throw std::runtime_error("cannot write " + args.part_out);
        return endToEnd({part});
    }

    // ---- traced run: per-layer metrics
    for (std::size_t i = 0; i < run.out.size(); ++i) {
        const Outcome &o = run.out[i];
        const Clock::time_point end =
            o.ok ? (o.token_at.empty() ? o.done : o.token_at.back()) : o.sub1;
        const std::size_t req = tracer.add("request", o.due, end, i + 1);
        tracer.add("submit", o.sub0, o.sub1, i + 1, req);
    }
    const bool gen = s.kind == Kind::Generate;
    const double live_batch =
        gen ? gst.avgLive() : st.avgBatch();
    const std::size_t spans_before = tracer.spans().size();
    const auto t_replay = Clock::now();
    const ReplayTimes rt = replay(s, sv, sch, run, live_batch, tracer);
    std::printf("phases: replay %.3f s\n", secondsSince(t_replay));

    const std::vector<Span> spans = tracer.spans();
    const std::vector<double> self = selfTimesMs(spans);
    std::map<std::string, double> self_by, dur_by;
    std::map<std::string, std::size_t> calls_by;
    for (std::size_t i = spans_before; i < spans.size(); ++i) {
        self_by[spans[i].name] += self[i];
        dur_by[spans[i].name] += msBetween(spans[i].start, spans[i].end);
        ++calls_by[spans[i].name];
    }
    auto meanMs = [&](const char *name) {
        return frac(dur_by[name], static_cast<double>(calls_by[name]));
    };

    const double reqs = static_cast<double>(std::max<std::size_t>(rt.requests, 1));
    double ops_self = 0.0;
    for (int op = 0; op < kNumOps; ++op)
        ops_self += self_by[kOpSpans[op]];
    const double model_ms = dur_by["model.forward_batch"] +
                            dur_by["model.prefill"] +
                            dur_by["model.decode_step"];

    double last_sub = 0.0;
    for (const Outcome &o : run.out)
        last_sub = std::max(last_sub, msBetween(run.t0, o.sub0) / 1e3);
    const double offered_window = s.clients == 0 ? last_sub : sec;

    noteTail(x.latency_ms.size(), 0.99);
    add("loadgen.latency_p90_ms", percentile(x.latency_ms, 0.9), "ms");
    add("loadgen.latency_p99_ms", percentile(x.latency_ms, 0.99), "ms");
    add("loadgen.lag_p99_ms", percentile(x.lag_ms, 0.99), "ms");
    add("loadgen.offered_rps",
        frac(static_cast<double>(res.attempted), offered_window), "1/s");

    // Refused, shed, expired and faulted requests plus output
    // mismatches, over all attempted.
    add("loadgen.failed_frac",
        frac(static_cast<double>(res.attempted - served_ok + mismatches),
             static_cast<double>(res.attempted)),
        "ratio");

    add("serve.submit_p99_us", percentile(x.submit_us, 0.99), "us");
    const double batches =
        gen ? static_cast<double>(gst.prefill_batches + gst.steps)
            : static_cast<double>(st.batches);
    add("serve.batches", batches, "count");
    add("serve.avg_batch",
        gen ? frac(static_cast<double>(gst.requests),
                   static_cast<double>(gst.prefill_batches))
            : st.avgBatch(),
        "count");
    add("serve.timeout_flush_frac",
        gen ? 0.0 : frac(static_cast<double>(st.flushed_timeout), batches),
        "ratio");
    add("serve.pad_frac", gen ? 0.0 : st.padOverhead(), "ratio");
    add("serve.rejected",
        static_cast<double>(gen ? gst.rejected : st.rejected), "count");
    add("serve.shed", static_cast<double>(gen ? gst.shed : st.shed), "count");
    add("serve.expired",
        static_cast<double>(gen ? gst.expired_in_queue + gst.expired_mid_decode
                                : st.expired_in_queue + st.expired_mid_batch),
        "count");
    add("serve.useful_frac",
        gen ? frac(static_cast<double>(gst.completed),
                   static_cast<double>(gst.requests))
            : frac(static_cast<double>(st.completed),
                   static_cast<double>(st.requests)),
        "ratio");
    add("serve.faults",
        static_cast<double>(gen ? gst.model_faults : st.model_faults),
        "count");
    add("serve.gen_steps", static_cast<double>(gst.steps), "count");
    add("serve.gen_avg_live", gst.avgLive(), "count");
    add("serve.gen_prefill_batches", static_cast<double>(gst.prefill_batches),
        "count");
    add("serve.gen_peak_live", static_cast<double>(gst.peak_live), "count");
    add("serve.gen_ttft_p50_ms", percentile(x.ttft_ms, 0.5), "ms");
    add("serve.gen_ttft_p90_ms", percentile(x.ttft_ms, 0.9), "ms");
    add("serve.gen_itl_p50_ms", percentile(x.itl_ms, 0.5), "ms");
    add("serve.gen_itl_p99_ms", percentile(x.itl_ms, 0.99), "ms");

    add("model.forward_batch_ms", meanMs("model.forward_batch"), "ms");
    add("model.prefill_ms", meanMs("model.prefill"), "ms");
    add("model.decode_step_ms", meanMs("model.decode_step"), "ms");
    add("model.calls", static_cast<double>(rt.model_calls), "count");

    double sim_total = 0.0;
    for (const auto &[label, cyc] : rt.sim_cycles)
        sim_total += cyc;

    std::printf("\nper-op breakdown over %zu replayed requests, %d traced "
                "passes (flop and bytes nominal, from tensor sizes)\n",
                rt.requests, kTracedPasses);
    std::printf("%-10s %12s %10s %10s %11s %9s\n", "op", "self ms/req",
                "cpu share", "sim share", "Mflop/req", "MB/req");
    const double per_req = kTracedPasses * reqs;
    for (int op = 0; op < kNumOps; ++op) {
        const std::string name = kOpNames[op];
        const double self_ms = self_by[kOpSpans[op]] / per_req;
        const double share = frac(self_by[kOpSpans[op]], ops_self);
        const auto sim = rt.sim_cycles.find(name);
        const double sim_share =
            frac(sim == rt.sim_cycles.end() ? 0.0 : sim->second, sim_total);
        const double mflop = rt.cost[op].flop / per_req / 1e6;
        const double mbytes = rt.cost[op].bytes / per_req / 1e6;
        res.metrics.push_back({"nn." + name + ".self_ms", self_ms, "ms"});
        res.metrics.push_back({"nn." + name + ".share", share, "ratio"});
        res.metrics.push_back({"nn." + name + ".mflop", mflop, "Mflop"});
        res.metrics.push_back({"nn." + name + ".mbytes", mbytes, "MB"});
        res.metrics.push_back({"sim." + name + ".share", sim_share, "ratio"});
        std::printf("%-10s %12.4f %10.4f %10.4f %11.3f %9.3f\n",
                    name.c_str(), self_ms, share, sim_share, mflop, mbytes);
    }
    const double residual_ms = (model_ms - ops_self) / per_req;
    add("nn.residual_ms", residual_ms, "ms");
    std::printf("residual (model calls minus op self times): %.4f ms/req "
                "of %.4f ms/req model time\n",
                residual_ms, model_ms / per_req);

    add("runtime.pool_threads", static_cast<double>(runtime::numThreads()),
        "count");
    add("runtime.tuned_plans", static_cast<double>(tuned_plans), "count");
    add("trace.overhead_frac",
        frac(rt.traced_ops_ms - rt.quiet_ops_ms, rt.quiet_ops_ms), "ratio");

    if (!args.trace_out.empty()) {
        if (tracer.writeChromeJson(args.trace_out))
            std::printf("trace: %zu spans -> %s\n", spans.size(),
                        args.trace_out.c_str());
        else
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         args.trace_out.c_str());
    }
    return res;
}

} // namespace perfbench

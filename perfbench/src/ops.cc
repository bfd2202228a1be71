#include "ops.h"

#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "tensor/rng.h"

namespace perfbench {

using namespace fabnet;

const char *const kOpNames[kNumOps] = {
    "embed", "proj_q", "proj_k", "proj_v", "proj_o", "attn_core",
    "ln1",   "ffn1",   "gelu",   "ffn2",   "ln2",    "head"};
const char *const kOpSpans[kNumOps] = {
    "embed", "proj_q", "proj_k", "proj_v", "proj_o", "mha",
    "ln1",   "ffn1",   "gelu",   "ffn2",   "ln2",    "head"};

namespace {

constexpr double kF32 = 4.0;
// Nominal per-element flop counts of the row-wise ops.
constexpr double kLnFlopPerElem = 8.0;   // mean, var, scale, shift
constexpr double kGeluFlopPerElem = 10.0; // tanh approximation
constexpr double kSoftmaxFlopPerScore = 5.0;

/** A layer whose every forward call is a span of its own. */
class TimedLayer : public nn::Layer
{
  public:
    TimedLayer(std::unique_ptr<nn::Layer> inner, const char *name,
               Tracer &tracer)
        : inner_(std::move(inner)), name_(name), tracer_(tracer)
    {
    }
    Tensor forward(const Tensor &x) override
    {
        Scope s(tracer_, name_);
        return inner_->forward(x);
    }
    Tensor forwardRows(const Tensor &x, const nn::RowSet &rows) override
    {
        Scope s(tracer_, name_);
        return inner_->forwardRows(x, rows);
    }
    Tensor backward(const Tensor &) override
    {
        throw std::logic_error("TimedLayer: inference only");
    }

  private:
    std::unique_ptr<nn::Layer> inner_;
    const char *name_;
    Tracer &tracer_;
};

std::unique_ptr<nn::Layer>
makeLinear(bool butterfly, std::size_t in, std::size_t out, Rng &rng,
           nn::ButterflyDense *&bfly)
{
    if (!butterfly) {
        bfly = nullptr;
        return std::make_unique<nn::Dense>(in, out, rng);
    }
    auto l = std::make_unique<nn::ButterflyDense>(in, out, rng);
    bfly = l.get();
    return l;
}

void
addInPlace(Tensor &a, const Tensor &b)
{
    float *pa = a.data();
    const float *pb = b.data();
    for (std::size_t i = 0; i < a.size(); ++i)
        pa[i] += pb[i];
}

nn::RowSet
stepRows(std::size_t n)
{
    return nn::RowSet(n, 1, std::vector<std::size_t>(n, 1));
}

} // namespace

struct OpChain::Block
{
    std::unique_ptr<nn::MultiHeadAttention> mha;
    nn::ButterflyDense *proj_bfly[4] = {};
    nn::LayerNorm ln1, ln2;
    std::unique_ptr<nn::Layer> ffn1, ffn2;
    nn::ButterflyDense *ffn1_bfly = nullptr, *ffn2_bfly = nullptr;
    nn::Gelu gelu;

    explicit Block(std::size_t d) : ln1(d), ln2(d) {}
};

OpChain::OpChain(const ModelConfig &cfg, bool generator, Tracer &tracer)
    : cfg_(cfg), generator_(generator), tracer_(tracer)
{
    if (cfg.kind == ModelKind::FNet ||
        (cfg.kind == ModelKind::FABNet && cfg.n_abfly != cfg.n_total))
        throw std::invalid_argument(
            "OpChain: only attention-mixer models are replayed");
    const bool bfly = cfg.kind == ModelKind::FABNet;
    const std::size_t d = cfg.d_hid;
    Rng rng(7);
    embed_ = std::make_unique<nn::Embedding>(cfg.vocab, cfg.max_seq, d, rng);
    for (std::size_t i = 0; i < cfg.n_total; ++i) {
        auto b = std::make_unique<Block>(d);
        std::unique_ptr<nn::Layer> proj[4];
        for (int p = 0; p < 4; ++p)
            proj[p] = std::make_unique<TimedLayer>(
                makeLinear(bfly, d, d, rng, b->proj_bfly[p]),
                kOpSpans[kProjQ + p], tracer_);
        b->mha = std::make_unique<nn::MultiHeadAttention>(
            d, cfg.heads, std::move(proj[0]), std::move(proj[1]),
            std::move(proj[2]), std::move(proj[3]), cfg.causal);
        b->mha->setSparse(cfg.attn_sparse);
        b->ffn1 = makeLinear(bfly, d, cfg.ffnHidden(), rng, b->ffn1_bfly);
        b->ffn2 = makeLinear(bfly, cfg.ffnHidden(), d, rng, b->ffn2_bfly);
        blocks_.push_back(std::move(b));
    }
    if (generator_)
        lm_head_ = std::make_unique<nn::Dense>(d, cfg.vocab, rng);
    else
        pool_head_ =
            std::make_unique<nn::MeanPoolClassifier>(d, cfg.classes, rng);
}

OpChain::~OpChain() = default;

ReplaySeq
OpChain::newSeq() const
{
    ReplaySeq s;
    s.caches.resize(blocks_.size());
    return s;
}

void
OpChain::linearCost(Op op, std::size_t rows, std::size_t in,
                    std::size_t out, const nn::ButterflyDense *bfly)
{
    double flop_per_row, weights;
    if (bfly) {
        const ButterflyLinear &l = bfly->op();
        flop_per_row = static_cast<double>(l.numCores() *
                                           l.core(0).flops() + out);
        weights = static_cast<double>(l.numCores() *
                                      l.core(0).numWeights() + out);
    } else {
        flop_per_row = 2.0 * in * out;
        weights = static_cast<double>(in * out + out);
    }
    cost_[op].flop += flop_per_row * rows;
    cost_[op].bytes += kF32 * (weights + static_cast<double>(rows) *
                                             (in + out));
}

Tensor
OpChain::blocks(Tensor x, const nn::RowSet &rows,
                const std::vector<std::size_t> &attn_lens,
                std::vector<ReplaySeq *> *seqs, bool step)
{
    const std::size_t d = cfg_.d_hid;
    const std::size_t h = cfg_.ffnHidden();
    const std::size_t n_rows = rows.totalRows();
    for (std::size_t l = 0; l < blocks_.size(); ++l) {
        Block &b = *blocks_[l];
        Tensor a;
        {
            Scope s(tracer_, kOpSpans[kAttnCore]);
            if (seqs) {
                nn::StepState st;
                for (ReplaySeq *q : *seqs) {
                    st.caches.push_back(&q->caches[l]);
                    st.positions.push_back(step ? q->len : 0);
                }
                a = step ? b.mha->forwardStep(x, st)
                         : b.mha->forwardPrefill(x, rows, st);
            } else {
                a = b.mha->forwardRows(x, rows);
            }
        }
        for (int p = 0; p < 4; ++p)
            linearCost(static_cast<Op>(kProjQ + p), n_rows, d, d,
                       b.proj_bfly[p]);
        for (std::size_t L : attn_lens) {
            // Scores per head: L x L (causal: the lower triangle), or
            // one row over the L cached keys for a decode step.
            const double pairs =
                step ? static_cast<double>(L)
                     : (cfg_.causal ? L * (L + 1) / 2.0
                                    : static_cast<double>(L) * L);
            const double q_rows = step ? 1.0 : static_cast<double>(L);
            cost_[kAttnCore].flop +=
                4.0 * pairs * d + kSoftmaxFlopPerScore * cfg_.heads * pairs;
            cost_[kAttnCore].bytes +=
                kF32 * (2.0 * q_rows * d + 2.0 * L * d +
                        2.0 * cfg_.heads * pairs);
        }
        addInPlace(a, x);
        Tensor hdn;
        {
            Scope s(tracer_, kOpSpans[kLn1]);
            hdn = b.ln1.forwardRows(a, rows);
        }
        Tensor f;
        {
            Scope s(tracer_, kOpSpans[kFfn1]);
            f = b.ffn1->forwardRows(hdn, rows);
        }
        {
            Scope s(tracer_, kOpSpans[kGelu]);
            f = b.gelu.forwardRows(f, rows);
        }
        {
            Scope s(tracer_, kOpSpans[kFfn2]);
            f = b.ffn2->forwardRows(f, rows);
        }
        addInPlace(f, hdn);
        {
            Scope s(tracer_, kOpSpans[kLn2]);
            x = b.ln2.forwardRows(f, rows);
        }
        for (Op op : {kLn1, kLn2}) {
            cost_[op].flop += kLnFlopPerElem * n_rows * d;
            cost_[op].bytes += kF32 * (2.0 * n_rows * d + 2.0 * d);
        }
        linearCost(kFfn1, n_rows, d, h, b.ffn1_bfly);
        linearCost(kFfn2, n_rows, h, d, b.ffn2_bfly);
        cost_[kGelu].flop += kGeluFlopPerElem * n_rows * h;
        cost_[kGelu].bytes += kF32 * 2.0 * n_rows * h;
    }
    return x;
}

void
OpChain::classify(const std::vector<int> &tokens, std::size_t batch,
                  std::size_t seq, const std::vector<std::size_t> &lens)
{
    if (generator_)
        throw std::logic_error("OpChain::classify on a generator chain");
    const nn::RowSet rows(batch, seq, lens);
    const std::size_t d = cfg_.d_hid;
    Tensor x;
    {
        Scope s(tracer_, kOpSpans[kEmbed]);
        x = embed_->forwardRows(tokens, rows);
    }
    cost_[kEmbed].flop += static_cast<double>(rows.totalRows()) * d;
    cost_[kEmbed].bytes += kF32 * 3.0 * rows.totalRows() * d;
    x = blocks(std::move(x), rows, lens, nullptr, false);
    {
        Scope s(tracer_, kOpSpans[kHead]);
        pool_head_->forwardMasked(x, lens);
    }
    const double c = static_cast<double>(cfg_.classes);
    cost_[kHead].flop +=
        static_cast<double>(rows.totalRows()) * d + 2.0 * batch * d * c;
    cost_[kHead].bytes += kF32 * (static_cast<double>(rows.totalRows()) * d +
                                  d * c + c + batch * c);
}

void
OpChain::prefill(const std::vector<std::vector<int>> &prompts,
                 std::vector<ReplaySeq *> &seqs)
{
    const std::size_t n = prompts.size();
    const std::size_t d = cfg_.d_hid;
    std::size_t seq = 0;
    std::vector<std::size_t> lens(n);
    for (std::size_t b = 0; b < n; ++b) {
        lens[b] = prompts[b].size();
        seq = std::max(seq, lens[b]);
    }
    std::vector<int> flat(n * seq, 0);
    for (std::size_t b = 0; b < n; ++b)
        std::copy(prompts[b].begin(), prompts[b].end(),
                  flat.begin() + static_cast<std::ptrdiff_t>(b * seq));
    const nn::RowSet rows(n, seq, lens);
    Tensor x;
    {
        Scope s(tracer_, kOpSpans[kEmbed]);
        x = embed_->forwardRows(flat, rows);
    }
    cost_[kEmbed].flop += static_cast<double>(rows.totalRows()) * d;
    cost_[kEmbed].bytes += kF32 * 3.0 * rows.totalRows() * d;
    x = blocks(std::move(x), rows, lens, &seqs, false);
    {
        Scope s(tracer_, kOpSpans[kHead]);
        Tensor last = Tensor::zeros(n, 1, d);
        for (std::size_t b = 0; b < n; ++b)
            std::memcpy(last.data() + b * d,
                        x.data() + (b * seq + lens[b] - 1) * d,
                        d * sizeof(float));
        lm_head_->forwardRows(last, stepRows(n));
    }
    linearCost(kHead, n, d, cfg_.vocab, nullptr);
    for (std::size_t b = 0; b < n; ++b)
        seqs[b]->len = lens[b];
}

void
OpChain::decodeStep(const std::vector<int> &tokens,
                    std::vector<ReplaySeq *> &seqs)
{
    const std::size_t n = tokens.size();
    const std::size_t d = cfg_.d_hid;
    std::vector<std::size_t> positions(n), keys(n);
    for (std::size_t b = 0; b < n; ++b) {
        positions[b] = seqs[b]->len;
        keys[b] = seqs[b]->len + 1;
    }
    Tensor x;
    {
        Scope s(tracer_, kOpSpans[kEmbed]);
        x = embed_->forwardStep(tokens, positions);
    }
    cost_[kEmbed].flop += static_cast<double>(n) * d;
    cost_[kEmbed].bytes += kF32 * 3.0 * n * d;
    x = blocks(std::move(x), stepRows(n), keys, &seqs, true);
    {
        Scope s(tracer_, kOpSpans[kHead]);
        lm_head_->forwardRows(x, stepRows(n));
    }
    linearCost(kHead, n, d, cfg_.vocab, nullptr);
    for (ReplaySeq *q : seqs)
        q->len += 1;
}

} // namespace perfbench

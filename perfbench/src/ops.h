/**
 * @file ops.h
 * Per-op replay: one model's layers driven op by op through their
 * public forwardRows / forwardPrefill / forwardStep calls, with a span
 * around every op call.
 *
 * The served models keep their layers private, so the replay builds a
 * stand-alone copy of the same architecture (same config, its own
 * weights - no op's cost depends on weight values) and runs the same
 * chain SequenceClassifier::forwardBatch and CausalGenerator::prefill /
 * decodeStep run: embedding, then per block MHA (whose four
 * projections are wrapped so their calls are spans of their own, and
 * whose self time is therefore the attention core), shortcut, LN, FFN
 * (lin1, GELU, lin2), shortcut, LN, then the head. The shortcut adds
 * are not timed; they fall into the residual between the model call
 * and the sum of op self times.
 *
 * Flop and byte counts are nominal, computed from tensor sizes per
 * call (weights + activations read once, outputs written once); they
 * are not measured.
 */
#ifndef PERFBENCH_OPS_H
#define PERFBENCH_OPS_H

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "model/config.h"
#include "nn/attention.h"
#include "nn/basic_layers.h"
#include "nn/decode.h"
#include "nn/dense.h"
#include "nn/embedding.h"
#include "trace.h"

namespace perfbench {

namespace nn = fabnet::nn;
using fabnet::ModelConfig;
using fabnet::Tensor;

/** Ops of one model, aligned with sim::LayerOp labels (attn_core =
 *  the simulator's qk + sv). */
enum Op {
    kEmbed,
    kProjQ,
    kProjK,
    kProjV,
    kProjO,
    kAttnCore,
    kLn1,
    kFfn1,
    kGelu,
    kFfn2,
    kLn2,
    kHead,
    kNumOps
};

/** Metric name of each op ("embed", "proj_q", ...). */
extern const char *const kOpNames[kNumOps];
/** Span name of each op; the MHA span is "mha" - its self time is
 *  attn_core. */
extern const char *const kOpSpans[kNumOps];

struct OpCost
{
    double flop = 0.0;
    double bytes = 0.0;
};

/** Per-sequence decode state of the replay chain. */
struct ReplaySeq
{
    std::vector<nn::KVCache> caches; ///< one per block
    std::size_t len = 0;
};

class OpChain
{
  public:
    /** @p generator: causal LM head (d -> vocab on the last row)
     *  instead of the mean-pool classifier head. */
    OpChain(const ModelConfig &cfg, bool generator, Tracer &tracer);
    OpChain(const OpChain &) = delete;
    OpChain &operator=(const OpChain &) = delete;
    ~OpChain();

    /** The forwardBatch chain over a padded [batch, seq] token block. */
    void classify(const std::vector<int> &tokens, std::size_t batch,
                  std::size_t seq, const std::vector<std::size_t> &lens);
    /** The prefill chain; fills @p seqs' caches. */
    void prefill(const std::vector<std::vector<int>> &prompts,
                 std::vector<ReplaySeq *> &seqs);
    /** One decode step over @p seqs, one new token each. */
    void decodeStep(const std::vector<int> &tokens,
                    std::vector<ReplaySeq *> &seqs);

    ReplaySeq newSeq() const;
    /** Nominal cost accumulated over every call so far. */
    const std::array<OpCost, kNumOps> &costs() const { return cost_; }

  private:
    struct Block;
    Tensor blocks(Tensor x, const nn::RowSet &rows,
                  const std::vector<std::size_t> &attn_lens,
                  std::vector<ReplaySeq *> *seqs, bool step);
    void linearCost(Op op, std::size_t rows, std::size_t in,
                    std::size_t out, const nn::ButterflyDense *bfly);

    ModelConfig cfg_;
    bool generator_;
    Tracer &tracer_;
    std::unique_ptr<nn::Embedding> embed_;
    std::vector<std::unique_ptr<Block>> blocks_;
    std::unique_ptr<nn::MeanPoolClassifier> pool_head_;
    std::unique_ptr<nn::Dense> lm_head_;
    std::array<OpCost, kNumOps> cost_{};
};

} // namespace perfbench

#endif // PERFBENCH_OPS_H

#include "workloads/vsait.hh"

#include <algorithm>

#include "core/profiler.hh"
#include "tensor/ops.hh"
#include "util/logging.hh"
#include "vsa/ops.hh"

namespace nsbench::workloads
{

using core::OpGraph;
using core::Phase;
using core::PhaseScope;
using data::ImageDomain;
using data::SemanticImage;
using tensor::Tensor;

void
VsaitWorkload::setUp(uint64_t seed)
{
    util::panicIf(config_.imageSize % config_.patch != 0,
                  "VSAIT: patch must divide imageSize");
    rng_ = std::make_unique<util::Rng>(seed);

    // Feature extractor and generator convs (the neural half; real
    // VSAIT pairs a VGG-style extractor with a GAN generator, so the
    // stacks here are several blocks deep).
    extractor_ = std::make_unique<nn::Sequential>();
    int64_t ch = 1;
    for (int64_t out : {8, 8, 16, 16}) {
        extractor_->add(std::make_unique<nn::Conv2dLayer>(ch, out, 3,
                                                          *rng_, 1,
                                                          1));
        extractor_->add(std::make_unique<nn::ActivationLayer>(
            nn::Activation::Relu));
        ch = out;
    }

    generator_ = std::make_unique<nn::Sequential>();
    ch = 1;
    for (int64_t out : {8, 8, 8, 1}) {
        generator_->add(std::make_unique<nn::Conv2dLayer>(ch, out, 3,
                                                          *rng_, 1,
                                                          1));
        if (out != 1) {
            generator_->add(std::make_unique<nn::ActivationLayer>(
                nn::Activation::Relu));
        }
        ch = out;
    }

    // Random LSH projection into the hyperspace.
    lshProjection_ = Tensor::randn(
        {config_.hvDim, config_.patch * config_.patch}, *rng_);
}

void
VsaitWorkload::reseedEpisodes(uint64_t seed)
{
    // Only the episode image stream restarts (salted so it is
    // decoupled from the weight-init draws setUp takes from the
    // same seed); convs and the LSH projection are untouched.
    rng_ = std::make_unique<util::Rng>(seed ^ 0xE9150DE5ULL);
}

uint64_t
VsaitWorkload::storageBytes() const
{
    uint64_t bytes = lshProjection_.empty() ? 0
                                            : lshProjection_.bytes();
    if (extractor_)
        bytes += extractor_->paramBytes();
    if (generator_)
        bytes += generator_->paramBytes();
    return bytes;
}

Tensor
VsaitWorkload::extractPatches(const Tensor &image) const
{
    int64_t size = config_.imageSize;
    int64_t p = config_.patch;
    int64_t per_side = size / p;
    Tensor patches({per_side * per_side, p * p});
    for (int64_t pr = 0; pr < per_side; pr++) {
        for (int64_t pc = 0; pc < per_side; pc++) {
            for (int64_t y = 0; y < p; y++) {
                for (int64_t x = 0; x < p; x++) {
                    patches(pr * per_side + pc, y * p + x) =
                        image(0, pr * p + y, pc * p + x);
                }
            }
        }
    }
    return patches;
}

std::vector<int>
VsaitWorkload::patchLabels(const SemanticImage &img) const
{
    int64_t p = config_.patch;
    int64_t per_side = img.size / p;
    std::vector<int> labels;
    labels.reserve(static_cast<size_t>(per_side * per_side));
    for (int64_t pr = 0; pr < per_side; pr++) {
        for (int64_t pc = 0; pc < per_side; pc++) {
            std::array<int, 3> counts{};
            for (int64_t y = 0; y < p; y++) {
                for (int64_t x = 0; x < p; x++) {
                    int label = img.labels[static_cast<size_t>(
                        (pr * p + y) * img.size + pc * p + x)];
                    counts[static_cast<size_t>(label)]++;
                }
            }
            labels.push_back(static_cast<int>(
                std::max_element(counts.begin(), counts.end()) -
                counts.begin()));
        }
    }
    return labels;
}

Tensor
VsaitWorkload::hashPatches(const Tensor &patches) const
{
    // LSH: sign of a random projection, batched as one MatMul.
    Tensor projected = tensor::matmul(
        patches, tensor::transpose2d(lshProjection_));
    return tensor::sign(projected);
}

double
VsaitWorkload::translateOnce()
{
    SemanticImage source =
        data::makeDomainImage(ImageDomain::Source, config_.imageSize,
                              *rng_);
    SemanticImage target =
        data::makeDomainImage(ImageDomain::Target, config_.imageSize,
                              *rng_);

    // ---- Neural: feature extraction + generator pass.
    {
        PhaseScope neural(Phase::Neural, "vsait/feature_extract");
        int64_t s = config_.imageSize;
        Tensor src = tensor::transfer(source.pixels, "h2d")
                         .reshaped({1, 1, s, s});
        Tensor tgt = tensor::transfer(target.pixels, "h2d")
                         .reshaped({1, 1, s, s});
        Tensor f_src = extractor_->forward(src);
        Tensor f_tgt = extractor_->forward(tgt);
        Tensor generated = generator_->forward(src);
        (void)f_src;
        (void)f_tgt;
        (void)generated;
    }

    // ---- Symbolic: hyperspace mapping, style unbind/bind, cleanup.
    std::vector<int64_t> matches;
    {
        PhaseScope symbolic(Phase::Symbolic, "vsait/hyperspace");
        Tensor src_patches = extractPatches(source.pixels);
        Tensor tgt_patches = extractPatches(target.pixels);
        Tensor src_hv = hashPatches(src_patches);
        Tensor tgt_hv = hashPatches(tgt_patches);
        int64_t n = src_hv.size(0);

        auto hv_row = [&](const Tensor &mat, int64_t r) {
            return tensor::slice(mat, 0, r, 1)
                .reshaped({config_.hvDim});
        };

        // Domain style vectors: majority bundles over patch HVs.
        std::vector<Tensor> src_rows, tgt_rows;
        for (int64_t r = 0; r < n; r++) {
            src_rows.push_back(hv_row(src_hv, r));
            tgt_rows.push_back(hv_row(tgt_hv, r));
        }
        Tensor src_style = vsa::bundleMajority(src_rows);
        Tensor tgt_style = vsa::bundleMajority(tgt_rows);

        // Target-patch cleanup memory.
        vsa::Codebook target_book(tgt_hv.clone());

        // Translate each source patch: strip source style, apply
        // target style, clean up to the nearest real target patch.
        PhaseScope matching(Phase::Symbolic, "vsait/matching");
        matches.reserve(static_cast<size_t>(n));
        for (int64_t r = 0; r < n; r++) {
            Tensor content = vsa::unbind(src_rows[static_cast<size_t>(
                                             r)],
                                         src_style);
            Tensor translated = vsa::bind(content, tgt_style);
            matches.push_back(target_book.cleanup(translated).index);
        }
    }

    // ---- Score: semantic consistency across translation.
    std::vector<int> src_labels = patchLabels(source);
    std::vector<int> tgt_labels = patchLabels(target);
    size_t consistent = 0;
    for (size_t r = 0; r < matches.size(); r++) {
        if (src_labels[r] ==
            tgt_labels[static_cast<size_t>(matches[r])]) {
            consistent++;
        }
    }
    return matches.empty()
               ? 0.0
               : static_cast<double>(consistent) /
                     static_cast<double>(matches.size());
}

void
VsaitWorkload::runStage(int, core::EpisodeState &state)
{
    util::panicIf(!rng_, "VSAIT: setUp() not called");
    double total = 0.0;
    for (int e = 0; e < config_.episodes; e++)
        total += translateOnce();
    state.score = total / static_cast<double>(config_.episodes);
}

OpGraph
VsaitWorkload::opGraph() const
{
    OpGraph g;
    auto input = g.addNode("source+target_images", Phase::Untagged);
    auto extract = g.addNode("vsait/feature_extract", Phase::Neural);
    auto hash = g.addNode("vsait/hyperspace", Phase::Symbolic);
    auto match = g.addNode("vsait/matching", Phase::Symbolic);
    auto output = g.addNode("translated_image", Phase::Untagged);
    g.addEdge(input, extract);
    g.addEdge(extract, hash);
    g.addEdge(hash, match);
    g.addEdge(match, output);
    return g;
}


} // namespace nsbench::workloads

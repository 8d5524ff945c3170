#include "tensor/tensor.hh"

#include <algorithm>
#include <cstring>
#include <new>
#include <numeric>
#include <sstream>

#include "core/profiler.hh"

namespace nsbench::tensor
{

int64_t
shapeNumel(const Shape &shape)
{
    int64_t n = 1;
    for (int64_t d : shape) {
        util::panicIf(d < 0, "shapeNumel: negative dimension");
        n *= d;
    }
    return n;
}

std::string
shapeStr(const Shape &shape)
{
    std::ostringstream os;
    os << "[";
    for (size_t i = 0; i < shape.size(); i++) {
        if (i)
            os << ", ";
        os << shape[i];
    }
    os << "]";
    return os.str();
}

/**
 * Reference-counted flat buffer; reports its lifetime to the profiler
 * so live-byte accounting happens exactly once per physical buffer,
 * however many tensor handles alias it.
 *
 * Each buffer is its own exact-size, 64-byte-aligned heap allocation
 * (cache line / AVX-512 friendly), so a sanitizer sees a read past a
 * tensor's last element as out of bounds.
 */
struct Tensor::Storage
{
    static constexpr std::align_val_t kAlign{64};

    float *data = nullptr;
    size_t n = 0;

    /** The contents are uninitialized unless @p zero_fill is set. */
    Storage(size_t n_, bool zero_fill)
        : data(static_cast<float *>(
              ::operator new(n_ * sizeof(float), kAlign))),
          n(n_)
    {
        core::globalProfiler().recordAlloc(n * sizeof(float));
        if (zero_fill)
            std::memset(data, 0, n * sizeof(float));
    }

    Storage(const Storage &other) : Storage(other.n, false)
    {
        std::memcpy(data, other.data, n * sizeof(float));
    }

    Storage &operator=(const Storage &) = delete;

    ~Storage()
    {
        core::globalProfiler().recordFree(n * sizeof(float));
        ::operator delete(data, kAlign);
    }
};

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      storage_(std::make_shared<Storage>(
          static_cast<size_t>(shapeNumel(shape_)),
          /*zero_fill=*/true))
{
    computeStrides();
}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : Tensor(uninitialized(std::move(shape)))
{
    util::panicIf(values.size() !=
                      static_cast<size_t>(shapeNumel(shape_)),
                  "Tensor: value count does not match shape " +
                      shapeStr(shape_));
    std::copy(values.begin(), values.end(), data().begin());
}

Tensor
Tensor::uninitialized(Shape shape)
{
    Tensor t;
    t.shape_ = std::move(shape);
    t.storage_ = std::make_shared<Storage>(
        static_cast<size_t>(shapeNumel(t.shape_)),
        /*zero_fill=*/false);
    t.computeStrides();
    return t;
}

Tensor
Tensor::zeros(Shape shape)
{
    return Tensor(std::move(shape));
}

Tensor
Tensor::ones(Shape shape)
{
    return full(std::move(shape), 1.0f);
}

Tensor
Tensor::full(Shape shape, float value)
{
    Tensor t = uninitialized(std::move(shape));
    t.fill(value);
    return t;
}

Tensor
Tensor::randn(Shape shape, util::Rng &rng, float mean, float stddev)
{
    Tensor t = uninitialized(std::move(shape));
    for (float &v : t.data())
        v = rng.normal(mean, stddev);
    return t;
}

Tensor
Tensor::rand(Shape shape, util::Rng &rng, float lo, float hi)
{
    Tensor t = uninitialized(std::move(shape));
    for (float &v : t.data())
        v = rng.uniform(lo, hi);
    return t;
}

Tensor
Tensor::bipolar(Shape shape, util::Rng &rng)
{
    Tensor t = uninitialized(std::move(shape));
    for (float &v : t.data())
        v = rng.bipolar();
    return t;
}

Tensor
Tensor::bernoulli(Shape shape, util::Rng &rng, double p)
{
    Tensor t = uninitialized(std::move(shape));
    for (float &v : t.data())
        v = rng.bernoulli(p) ? 1.0f : 0.0f;
    return t;
}

int64_t
Tensor::size(int64_t d) const
{
    auto rank = static_cast<int64_t>(shape_.size());
    if (d < 0)
        d += rank;
    util::panicIf(d < 0 || d >= rank,
                  "Tensor::size: dimension out of range");
    return shape_[static_cast<size_t>(d)];
}

std::span<float>
Tensor::data()
{
    util::panicIf(!storage_, "Tensor::data: empty tensor");
    return {storage_->data, storage_->n};
}

std::span<const float>
Tensor::data() const
{
    util::panicIf(!storage_, "Tensor::data: empty tensor");
    return {storage_->data, storage_->n};
}

float &
Tensor::flat(int64_t i)
{
    return data()[static_cast<size_t>(i)];
}

float
Tensor::flat(int64_t i) const
{
    return data()[static_cast<size_t>(i)];
}

float &
Tensor::at(std::initializer_list<int64_t> idx)
{
    return data()[static_cast<size_t>(flatIndex(idx))];
}

float
Tensor::at(std::initializer_list<int64_t> idx) const
{
    return data()[static_cast<size_t>(flatIndex(idx))];
}

Tensor
Tensor::reshaped(Shape shape) const
{
    util::panicIf(shapeNumel(shape) != numel(),
                  "Tensor::reshaped: element count mismatch (" +
                      shapeStr(shape_) + " -> " + shapeStr(shape) +
                      ")");
    Tensor out;
    out.shape_ = std::move(shape);
    out.storage_ = storage_;
    out.computeStrides();
    return out;
}

Tensor
Tensor::clone() const
{
    Tensor out;
    out.shape_ = shape_;
    out.strides_ = strides_;
    if (storage_)
        out.storage_ = std::make_shared<Storage>(*storage_);
    return out;
}

void
Tensor::fill(float value)
{
    for (float &v : data())
        v = value;
}

void
Tensor::computeStrides()
{
    strides_.assign(shape_.size(), 1);
    for (size_t d = shape_.size(); d-- > 1;)
        strides_[d - 1] = strides_[d] * shape_[d];
}

int64_t
Tensor::flatIndex(std::initializer_list<int64_t> idx) const
{
    // Hot path: build diagnostic strings only on failure.
    if (idx.size() != shape_.size()) {
        util::panic("Tensor: index rank mismatch on " +
                    shapeStr(shape_));
    }
    int64_t flat = 0;
    size_t d = 0;
    for (int64_t i : idx) {
        if (i < 0 || i >= shape_[d]) {
            util::panic("Tensor: index out of range on " +
                        shapeStr(shape_));
        }
        flat += i * strides_[d];
        d++;
    }
    return flat;
}

} // namespace nsbench::tensor

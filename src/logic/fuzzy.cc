#include "logic/fuzzy.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace nsbench::logic
{

namespace
{

void
checkUnit(float v, const char *what)
{
    util::panicIf(v < 0.0f || v > 1.0f,
                  std::string(what) + ": truth value outside [0,1]");
}

} // namespace

float
tNorm(TNormKind kind, float a, float b)
{
    checkUnit(a, "tNorm");
    checkUnit(b, "tNorm");
    switch (kind) {
      case TNormKind::Lukasiewicz:
        return std::max(0.0f, a + b - 1.0f);
      case TNormKind::Goedel:
        return std::min(a, b);
      case TNormKind::Product:
        return a * b;
    }
    util::panic("tNorm: unknown kind");
}

float
tConorm(TNormKind kind, float a, float b)
{
    checkUnit(a, "tConorm");
    checkUnit(b, "tConorm");
    switch (kind) {
      case TNormKind::Lukasiewicz:
        return std::min(1.0f, a + b);
      case TNormKind::Goedel:
        return std::max(a, b);
      case TNormKind::Product:
        return a + b - a * b;
    }
    util::panic("tConorm: unknown kind");
}

float
residuum(TNormKind kind, float a, float b)
{
    checkUnit(a, "residuum");
    checkUnit(b, "residuum");
    switch (kind) {
      case TNormKind::Lukasiewicz:
        return std::min(1.0f, 1.0f - a + b);
      case TNormKind::Goedel:
        return a <= b ? 1.0f : b;
      case TNormKind::Product:
        return a <= b ? 1.0f : b / a;
    }
    util::panic("residuum: unknown kind");
}

float
pMeanError(std::span<const float> truths, float p)
{
    util::panicIf(truths.empty(), "pMeanError: no operands");
    util::panicIf(p < 1.0f, "pMeanError: p must be >= 1");
    double acc = 0.0;
    for (float v : truths) {
        checkUnit(v, "pMeanError");
        acc += std::pow(1.0 - static_cast<double>(v),
                        static_cast<double>(p));
    }
    acc /= static_cast<double>(truths.size());
    double agg = 1.0 - std::pow(acc, 1.0 / static_cast<double>(p));
    return static_cast<float>(std::clamp(agg, 0.0, 1.0));
}

float
pMean(std::span<const float> truths, float p)
{
    util::panicIf(truths.empty(), "pMean: no operands");
    util::panicIf(p < 1.0f, "pMean: p must be >= 1");
    double acc = 0.0;
    for (float v : truths) {
        checkUnit(v, "pMean");
        acc += std::pow(static_cast<double>(v),
                        static_cast<double>(p));
    }
    acc /= static_cast<double>(truths.size());
    double agg = std::pow(acc, 1.0 / static_cast<double>(p));
    return static_cast<float>(std::clamp(agg, 0.0, 1.0));
}

} // namespace nsbench::logic

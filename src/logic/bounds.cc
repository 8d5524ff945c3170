#include "logic/bounds.hh"

#include "logic/fuzzy.hh"

namespace nsbench::logic
{

namespace
{

float
clampUnit(float v)
{
    return std::clamp(v, 0.0f, 1.0f);
}

} // namespace

TruthBounds
tighten(const TruthBounds &a, const TruthBounds &b)
{
    return {std::max(a.lower, b.lower), std::min(a.upper, b.upper)};
}

TruthBounds
boundsNot(const TruthBounds &a)
{
    return {1.0f - a.upper, 1.0f - a.lower};
}

TruthBounds
boundsAnd(const TruthBounds &a, const TruthBounds &b)
{
    // The Lukasiewicz t-norm is monotone in both operands, so the
    // interval image is the image of the endpoints.
    return {tNorm(TNormKind::Lukasiewicz, a.lower, b.lower),
            tNorm(TNormKind::Lukasiewicz, a.upper, b.upper)};
}

TruthBounds
boundsImplies(const TruthBounds &a, const TruthBounds &b)
{
    // a -> b is decreasing in a and increasing in b.
    return {residuum(TNormKind::Lukasiewicz, a.upper, b.lower),
            residuum(TNormKind::Lukasiewicz, a.lower, b.upper)};
}

TruthBounds
downwardAnd(const TruthBounds &out, const TruthBounds &other)
{
    TruthBounds a = TruthBounds::unknown();
    // max(0, a+b-1) <= out.upper always implies a+b-1 <= out.upper.
    a.upper = clampUnit(out.upper + 1.0f - other.lower);
    // A strictly positive lower output bound forces a+b-1 >= out.lower.
    if (out.lower > 0.0f)
        a.lower = clampUnit(out.lower + 1.0f - other.upper);
    return a;
}

TruthBounds
downwardOr(const TruthBounds &out, const TruthBounds &other)
{
    TruthBounds a = TruthBounds::unknown();
    // out.lower <= min(1, a+b) <= a+b.
    a.lower = clampUnit(out.lower - other.upper);
    // An upper output bound below one forces a+b <= out.upper.
    if (out.upper < 1.0f)
        a.upper = clampUnit(out.upper - other.lower);
    return a;
}

} // namespace nsbench::logic

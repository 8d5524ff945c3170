/**
 * @file
 * LNN truth bounds.
 *
 * Logical Neural Networks carry a [lower, upper] truth interval per
 * neuron rather than a point value; incomplete knowledge is the full
 * [0,1] interval, and inference monotonically tightens bounds. These
 * are the interval connectives (Lukasiewicz semantics) LNN's upward
 * and downward passes use.
 */

#ifndef NSBENCH_LOGIC_BOUNDS_HH
#define NSBENCH_LOGIC_BOUNDS_HH

#include <algorithm>

namespace nsbench::logic
{

/** A truth interval [lower, upper] within [0,1]. */
struct TruthBounds
{
    float lower = 0.0f;
    float upper = 1.0f;

    /** Fully unknown truth. */
    static TruthBounds unknown() { return {0.0f, 1.0f}; }

    /** Exactly true. */
    static TruthBounds certainTrue() { return {1.0f, 1.0f}; }

    /** Exactly false. */
    static TruthBounds certainFalse() { return {0.0f, 0.0f}; }

    /** Point truth value. */
    static TruthBounds exactly(float v) { return {v, v}; }

    /** Whether the interval is non-empty and inside [0,1]. */
    bool
    valid() const
    {
        return lower >= 0.0f && upper <= 1.0f && lower <= upper;
    }

    /** Lower bound has crossed above the upper bound. */
    bool contradictory() const { return lower > upper; }

    /** Classified true once the lower bound clears the threshold. */
    bool isTrue(float alpha = 0.5f) const { return lower > alpha; }

    /** Classified false once the upper bound drops below 1-alpha. */
    bool
    isFalse(float alpha = 0.5f) const
    {
        return upper < 1.0f - alpha;
    }

    /** Interval width; 0 means fully determined. */
    float width() const { return upper - lower; }
};

/** Interval intersection: keeps the tighter of each bound. */
TruthBounds tighten(const TruthBounds &a, const TruthBounds &b);

/** Interval negation: [1-U, 1-L]. */
TruthBounds boundsNot(const TruthBounds &a);

/** Lukasiewicz interval conjunction. */
TruthBounds boundsAnd(const TruthBounds &a, const TruthBounds &b);

/** Lukasiewicz interval implication a -> b. */
TruthBounds boundsImplies(const TruthBounds &a, const TruthBounds &b);

/**
 * Downward (modus-ponens style) propagation for conjunction: given
 * bounds on (a AND b) and on b, the implied bounds on a.
 */
TruthBounds downwardAnd(const TruthBounds &out, const TruthBounds &other);

/**
 * Downward propagation for disjunction: given bounds on (a OR b) and
 * on b, the implied bounds on a.
 */
TruthBounds downwardOr(const TruthBounds &out, const TruthBounds &other);

} // namespace nsbench::logic

#endif // NSBENCH_LOGIC_BOUNDS_HH

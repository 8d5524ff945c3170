/**
 * @file
 * Real-valued (fuzzy) logic semantics.
 *
 * Provides the t-norm families (Lukasiewicz, Goedel, product) that
 * ground logical connectives onto [0,1] truth values in LNN and LTN,
 * plus the smooth quantifier aggregators LTN uses (p-mean and
 * p-mean-error generalizations of exists/forall).
 */

#ifndef NSBENCH_LOGIC_FUZZY_HH
#define NSBENCH_LOGIC_FUZZY_HH

#include <span>

namespace nsbench::logic
{

/** Supported t-norm families. */
enum class TNormKind
{
    Lukasiewicz,
    Goedel,
    Product,
};

/** Fuzzy conjunction under the given family. Inputs must be in [0,1]. */
float tNorm(TNormKind kind, float a, float b);

/** Fuzzy disjunction (the dual t-conorm). */
float tConorm(TNormKind kind, float a, float b);

/**
 * The residuum (fuzzy implication) of the family:
 * Lukasiewicz min(1, 1-a+b); Goedel (a<=b ? 1 : b);
 * product (a<=b ? 1 : b/a).
 */
float residuum(TNormKind kind, float a, float b);

/**
 * Smooth universal quantifier: the p-mean-error aggregator
 * 1 - (mean((1-x_i)^p))^(1/p). Approaches min as p grows.
 */
float pMeanError(std::span<const float> truths, float p = 2.0f);

/**
 * Smooth existential quantifier: the p-mean aggregator
 * (mean(x_i^p))^(1/p). Approaches max as p grows.
 */
float pMean(std::span<const float> truths, float p = 2.0f);

} // namespace nsbench::logic

#endif // NSBENCH_LOGIC_FUZZY_HH

/**
 * @file
 * The two text parsers behind the command line: util::parseWhole,
 * which every numeric flag goes through, and failpoints::parse, which
 * reads --faults and NSBENCH_FAILPOINTS. The probability in a
 * failpoint spec follows parseWhole's number rule.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <random>
#include <regex>
#include <string>
#include <vector>

#include "util/failpoint.hh"
#include "util/format.hh"

namespace
{

using namespace nsbench;
namespace fp = util::failpoints;

TEST(FailpointSpec, ProbabilityFollowsTheNumberRule)
{
    // A denormal is a valid probability.
    std::map<std::string, fp::SiteSpec> sites;
    ASSERT_EQ(fp::parse("serve.worker.run=1e-320", &sites), "");
    EXPECT_GT(sites.at("serve.worker.run").probability, 0.0);
    EXPECT_LT(sites.at("serve.worker.run").probability, 1e-300);
    // No leading space, no '+' and no hex form, as for every flag.
    EXPECT_EQ(fp::parse("serve.worker.run= 0.5", nullptr),
              "failpoint 'serve.worker.run': probability is not a number");
    EXPECT_EQ(fp::parse("serve.worker.run=+0.5", nullptr),
              "failpoint 'serve.worker.run': probability is not a number");
    EXPECT_EQ(fp::parse("serve.worker.run=0x1p-1", nullptr),
              "failpoint 'serve.worker.run': unknown field 'p'");
    // The other messages stand.
    EXPECT_EQ(fp::parse("serve.worker.run=nan", nullptr),
              "failpoint 'serve.worker.run': probability must be in "
              "[0, 1]");
    EXPECT_EQ(fp::parse("serve.worker.run=0.5@-3", nullptr),
              "failpoint 'serve.worker.run': '@' needs a number");
}

/** Pieces the fuzz strings are built from. */
const std::vector<std::string> kNumberPieces = {
    "0", "1", "7", "9", "25", "+", "-", ".", "e", "E", "x", "@", "s",
    "~", ",", "=", " ", "nan", "NaN", "inf", "-inf", "infinity", "1e-320",
    "1e999",
};

std::string
garbage(std::mt19937_64 &rng, size_t max_pieces)
{
    std::string text;
    size_t pieces = rng() % (max_pieces + 1);
    for (size_t i = 0; i < pieces; i++)
        text += kNumberPieces[rng() % kNumberPieces.size()];
    return text;
}

TEST(TextParsers, SeededGarbageFuzz)
{
    std::mt19937_64 rng(20241);
    const std::vector<std::string> &sites = fp::knownSites();
    // What parseWhole may accept: one finite decimal number, whole.
    const std::regex decimal(R"(-?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)");
    const std::regex integer(R"(-?\d+)");
    int specs_accepted = 0;
    int numbers_accepted = 0;
    for (int trial = 0; trial < 20000; trial++) {
        // A spec of one to three entries, most of them naming a
        // known site, each with a garbage value.
        std::string spec;
        size_t entries = 1 + rng() % 3;
        for (size_t e = 0; e < entries; e++) {
            if (e > 0)
                spec += ",";
            spec += rng() % 5 == 0 ? garbage(rng, 3)
                                   : sites[rng() % sites.size()];
            if (rng() % 10 != 0)
                spec += "=";
            spec += garbage(rng, 5);
        }
        std::map<std::string, fp::SiteSpec> parsed = {
            {"untouched", fp::SiteSpec{}}};
        std::string error;
        ASSERT_NO_THROW(error = fp::parse(spec, &parsed)) << spec;
        if (error.empty()) {
            specs_accepted++;
            for (const auto &[site, site_spec] : parsed) {
                EXPECT_TRUE(std::isfinite(site_spec.probability)) << spec;
                EXPECT_GE(site_spec.probability, 0.0) << spec;
                EXPECT_LE(site_spec.probability, 1.0) << spec;
            }
        } else {
            EXPECT_NE(error.find("failpoint"), std::string::npos)
                << spec << ": " << error;
            EXPECT_EQ(parsed.count("untouched"), 1u) << spec;
        }

        std::string text = garbage(rng, 6);
        double d = 0.0;
        int64_t i = 0;
        uint64_t u = 0;
        bool ok_d = false, ok_i = false, ok_u = false;
        ASSERT_NO_THROW(ok_d = util::parseWhole(text, &d)) << text;
        ASSERT_NO_THROW(ok_i = util::parseWhole(text, &i)) << text;
        ASSERT_NO_THROW(ok_u = util::parseWhole(text, &u)) << text;
        if (ok_d) {
            numbers_accepted++;
            EXPECT_TRUE(std::isfinite(d)) << text;
            EXPECT_TRUE(std::regex_match(text, decimal)) << text;
        }
        if (ok_i) {
            EXPECT_TRUE(std::regex_match(text, integer)) << text;
        }
        if (ok_u) {
            EXPECT_TRUE(std::regex_match(text, integer) && text[0] != '-')
                << text;
        }
        if (HasFailure())
            return;
    }
    // The accepting paths ran, not only the rejecting ones.
    EXPECT_GT(specs_accepted, 100);
    EXPECT_GT(numbers_accepted, 100);
}

} // namespace

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "corr/common_shock.hpp"
#include "corr/correlation.hpp"
#include "corr/cross_set_shock.hpp"
#include "corr/joint_table.hpp"
#include "corr/model_factory.hpp"
#include "corr/router_derived.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace tomo::corr {
namespace {

// Empirical frequency of an event over many samples of a model.
template <typename Pred>
double frequency(const CongestionModel& model, Pred pred, int n = 200000,
                 std::uint64_t seed = 4242) {
  Rng rng(seed);
  std::vector<std::uint8_t> state(model.link_count());
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    model.sample_block(rng, 1, state.data());
    if (pred(state)) ++hits;
  }
  return static_cast<double>(hits) / n;
}

// --------------------------------------------------- correlation sets ----

TEST(CorrelationSets, PartitionValidation) {
  EXPECT_NO_THROW(CorrelationSets(3, {{0, 2}, {1}}));
  EXPECT_THROW(CorrelationSets(3, {{0}, {1}}), Error);        // missing 2
  EXPECT_THROW(CorrelationSets(3, {{0, 1}, {1, 2}}), Error);  // duplicate
  EXPECT_THROW(CorrelationSets(3, {{0, 1, 2}, {}}), Error);   // empty cell
  EXPECT_THROW(CorrelationSets(2, {{0, 5}}), Error);          // unknown link
}

TEST(CorrelationSets, SetOfAndMayBeCorrelated) {
  CorrelationSets sets(4, {{0, 1}, {2}, {3}});
  EXPECT_EQ(sets.set_of(0), sets.set_of(1));
  EXPECT_NE(sets.set_of(0), sets.set_of(2));
  EXPECT_NE(sets.set_of(1), sets.set_of(3));
  EXPECT_EQ(sets.set_of(2), 1u);
}

TEST(CorrelationSets, CorrelationFree) {
  CorrelationSets sets(4, {{0, 1}, {2}, {3}});
  EXPECT_TRUE(sets.correlation_free({0, 2, 3}));
  EXPECT_FALSE(sets.correlation_free({0, 1}));
  EXPECT_TRUE(sets.correlation_free({}));
  EXPECT_TRUE(sets.correlation_free({2}));
}

TEST(CorrelationSets, SingletonsFactory) {
  const auto sets = CorrelationSets::singletons(5);
  EXPECT_EQ(sets.set_count(), 5u);
  EXPECT_TRUE(sets.correlation_free({0, 1, 2, 3, 4}));
}

TEST(CorrelationSets, SubsetEnumerationMatchesPaper) {
  // Figure 1(a): C-tilde = {{e1},{e2},{e1,e2},{e3},{e4}} — 5 subsets.
  auto sys = tomo::testing::figure_1a();
  const auto subsets = enumerate_correlation_subsets(sys.sets);
  EXPECT_EQ(subsets.size(), 5u);
}

TEST(CorrelationSets, SubsetEnumerationGuard) {
  std::vector<graph::LinkId> big(25);
  graph::LinkPartition partition(1);
  for (std::size_t i = 0; i < big.size(); ++i) partition[0].push_back(i);
  CorrelationSets sets(25, partition);
  EXPECT_THROW(enumerate_correlation_subsets(sets, 20), Error);
}

// --------------------------------------------------- independent model ----

TEST(IndependentModel, MarginalsMatchInput) {
  auto model = make_independent({0.1, 0.5, 0.9});
  EXPECT_NEAR(model->marginal(0), 0.1, 1e-12);
  EXPECT_NEAR(model->marginal(1), 0.5, 1e-12);
  EXPECT_NEAR(model->marginal(2), 0.9, 1e-12);
}

TEST(IndependentModel, ProbAllGoodFactorizes) {
  auto model = make_independent({0.1, 0.2, 0.3});
  EXPECT_NEAR(model->prob_all_good({0, 1, 2}), 0.9 * 0.8 * 0.7, 1e-12);
  EXPECT_NEAR(model->prob_all_good({}), 1.0, 1e-12);
}

TEST(IndependentModel, SampleFrequencies) {
  auto model = make_independent({0.25, 0.0, 1.0});
  const double f0 =
      frequency(*model, [](const auto& s) { return s[0] == 1; }, 100000);
  EXPECT_NEAR(f0, 0.25, 0.01);
  const double f1 =
      frequency(*model, [](const auto& s) { return s[1] == 1; }, 1000);
  EXPECT_DOUBLE_EQ(f1, 0.0);
  const double f2 =
      frequency(*model, [](const auto& s) { return s[2] == 1; }, 1000);
  EXPECT_DOUBLE_EQ(f2, 1.0);
}

TEST(IndependentModel, SetStateProbInclusionExclusion) {
  auto model = make_independent({0.3});
  EXPECT_NEAR(model->set_state_prob(0, {0}), 0.3, 1e-12);
  EXPECT_NEAR(model->set_state_prob(0, {}), 0.7, 1e-12);
}

// --------------------------------------------------- joint table model ----

TEST(JointTableModel, WithinSetAllGood) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  // Set 0 = {e1,e2}: P(both good) = 0.65, P(e1 good) = 0.65 + 0.05 = 0.7.
  EXPECT_NEAR(model->within_set_all_good(0, {0, 1}), 0.65, 1e-12);
  EXPECT_NEAR(model->within_set_all_good(0, {0}), 0.70, 1e-12);
  EXPECT_NEAR(model->within_set_all_good(0, {1}), 0.75, 1e-12);
}

TEST(JointTableModel, MarginalsAndJointAreCorrelated) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  EXPECT_NEAR(model->marginal(0), 0.30, 1e-12);
  EXPECT_NEAR(model->marginal(1), 0.25, 1e-12);
  // Joint congestion 0.20 != 0.075 = product of marginals: correlated.
  EXPECT_NEAR(model->set_state_prob(0, {0, 1}), 0.20, 1e-12);
}

TEST(JointTableModel, CrossSetIndependence) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  EXPECT_NEAR(model->prob_all_good({0, 2}),
              model->prob_all_good({0}) * model->prob_all_good({2}), 1e-12);
}

TEST(JointTableModel, SamplingMatchesTable) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  const double both = frequency(
      *model, [](const auto& s) { return s[0] == 1 && s[1] == 1; });
  EXPECT_NEAR(both, 0.20, 0.005);
  const double e3 =
      frequency(*model, [](const auto& s) { return s[2] == 1; });
  EXPECT_NEAR(e3, 0.15, 0.005);
}

TEST(JointTableModel, FromModelRoundTrip) {
  auto sys = tomo::testing::figure_1a();
  auto model = tomo::testing::figure_1a_model(sys.sets);
  const JointTableModel tabulated = JointTableModel::from_model(*model);
  for (std::uint32_t mask = 0; mask < 4; ++mask) {
    EXPECT_NEAR(tabulated.state_prob(0, mask), model->state_prob(0, mask),
                1e-9);
  }
}

TEST(JointTableModel, ValidatesDistribution) {
  CorrelationSets sets(1, {{0}});
  SetDistribution bad;
  bad.prob = {0.5, 0.6};  // sums to 1.1
  EXPECT_THROW(
      JointTableModel(sets, std::vector<SetDistribution>{bad}), Error);
  SetDistribution wrong_size;
  wrong_size.prob = {1.0};
  EXPECT_THROW(
      JointTableModel(sets, std::vector<SetDistribution>{wrong_size}),
      Error);
}

// -------------------------------------------------- common shock model ----

TEST(CommonShockModel, ClosedFormMatchesSampling) {
  CorrelationSets sets(3, {{0, 1, 2}});
  std::vector<Shock> shocks(1);
  shocks[0].rho = 0.2;
  shocks[0].members = {0, 1};
  CommonShockModel model(sets, {0.1, 0.1, 0.3}, shocks);
  // P(0 and 1 good) = (1-0.1)^2 * (1-0.2).
  EXPECT_NEAR(model.within_set_all_good(0, {0, 1}), 0.81 * 0.8, 1e-12);
  // Link 2 is not shock-exposed.
  EXPECT_NEAR(model.within_set_all_good(0, {2}), 0.7, 1e-12);
  const double f = frequency(
      model, [](const auto& s) { return s[0] == 0 && s[1] == 0; });
  EXPECT_NEAR(f, 0.81 * 0.8, 0.005);
}

TEST(CommonShockModel, ShockCorrelatesMembers) {
  CorrelationSets sets(2, {{0, 1}});
  std::vector<Shock> shocks(1);
  shocks[0].rho = 0.3;
  shocks[0].members = {0, 1};
  CommonShockModel model(sets, {0.0, 0.0}, shocks);
  // Links congest only together (via the shock).
  const double joint = model.set_state_prob(0, {0, 1});
  EXPECT_NEAR(joint, 0.3, 1e-12);
  EXPECT_NEAR(model.set_state_prob(0, {0}), 0.0, 1e-12);
}

TEST(CommonShockModel, BaseForMarginalInverts) {
  const double target = 0.4, rho = 0.25;
  const double base = CommonShockModel::base_for_marginal(target, rho, true);
  EXPECT_NEAR(1.0 - (1.0 - base) * (1.0 - rho), target, 1e-12);
  EXPECT_DOUBLE_EQ(CommonShockModel::base_for_marginal(0.4, 0.25, false),
                   0.4);
  EXPECT_THROW(CommonShockModel::base_for_marginal(0.1, 0.25, true), Error);
}

TEST(CommonShockModel, RejectsForeignShockMembers) {
  CorrelationSets sets(2, {{0}, {1}});
  std::vector<Shock> shocks(2);
  shocks[0].rho = 0.1;
  shocks[0].members = {1};  // link 1 is not in set 0
  EXPECT_THROW(CommonShockModel(sets, {0.1, 0.1}, shocks), Error);
}

// ------------------------------------------------- router derived model ----

TEST(RouterDerivedModel, SharedRouterLinkCorrelates) {
  // Two logical links share router link 0; a third is independent.
  CorrelationSets sets(3, {{0, 1}, {2}});
  RouterDerivedModel model(sets, {{0, 1}, {0, 2}, {3}}, {0.2, 0.1, 0.1, 0.3});
  // P(link0 good) = (1-0.2)(1-0.1) = 0.72.
  EXPECT_NEAR(model.prob_all_good({0}), 0.72, 1e-12);
  // P(link0 and link1 good) counts the shared router link once.
  EXPECT_NEAR(model.within_set_all_good(0, {0, 1}), 0.8 * 0.9 * 0.9, 1e-12);
  // Correlation: joint good != product of marginals.
  EXPECT_GT(model.within_set_all_good(0, {0, 1}),
            model.prob_all_good({0}) * model.prob_all_good({1}) + 1e-6);
}

TEST(RouterDerivedModel, SamplingMatchesClosedForm) {
  CorrelationSets sets(2, {{0, 1}});
  RouterDerivedModel model(sets, {{0, 1}, {0}}, {0.3, 0.2});
  const double f = frequency(
      model, [](const auto& s) { return s[0] == 0 && s[1] == 0; });
  EXPECT_NEAR(f, 0.7 * 0.8, 0.005);
}

TEST(RouterDerivedModel, RejectsCrossSetSharing) {
  CorrelationSets sets(2, {{0}, {1}});
  EXPECT_THROW(RouterDerivedModel(sets, {{0}, {0}}, {0.1}), Error);
}

TEST(RouterDerivedModel, RejectsEmptyUnderlying) {
  CorrelationSets sets(1, {{0}});
  EXPECT_THROW(RouterDerivedModel(sets, {{}}, {0.1}), Error);
}

// ------------------------------------------------- cross-set shock model ----

TEST(CrossSetShockModel, CreatesCrossSetCorrelation) {
  auto inner = make_independent({0.1, 0.1});
  CrossSetShockModel model(std::move(inner), {0, 1}, 0.3);
  // True joint: P(both good) = (0.9*0.9)*(1-0.3).
  EXPECT_NEAR(model.prob_all_good({0, 1}), 0.81 * 0.7, 1e-12);
  // Marginals rise accordingly.
  EXPECT_NEAR(model.marginal(0), 1.0 - 0.9 * 0.7, 1e-12);
  const double f = frequency(
      model, [](const auto& s) { return s[0] == 0 && s[1] == 0; });
  EXPECT_NEAR(f, 0.81 * 0.7, 0.005);
}

TEST(CrossSetShockModel, DeclaredSetsStayInnocent) {
  auto inner = make_independent({0.1, 0.1});
  const CorrelationSets& declared = inner->sets();
  EXPECT_EQ(declared.set_count(), 2u);
  CrossSetShockModel model(std::move(inner), {0, 1}, 0.3);
  // The declared structure still claims independence — that is the point.
  EXPECT_EQ(model.sets().set_count(), 2u);
}

TEST(CrossSetShockModel, NonTargetLinksUnaffected) {
  auto inner = make_independent({0.1, 0.2, 0.3});
  CrossSetShockModel model(std::move(inner), {0}, 0.4);
  EXPECT_NEAR(model.marginal(1), 0.2, 1e-12);
  EXPECT_NEAR(model.marginal(2), 0.3, 1e-12);
}

// ------------------------------------------------------- model factory ----

TEST(ModelFactory, ClusteredShockHitsTargetMarginals) {
  CorrelationSets sets(5, {{0, 1, 2}, {3}, {4}});
  const std::vector<graph::LinkId> congested{0, 1, 3};
  const std::vector<double> targets{0.4, 0.3, 0.5};
  auto model =
      make_clustered_shock_model(sets, congested, targets, 0.8);
  EXPECT_NEAR(model->marginal(0), 0.4, 1e-9);
  EXPECT_NEAR(model->marginal(1), 0.3, 1e-9);
  EXPECT_NEAR(model->marginal(3), 0.5, 1e-9);
  EXPECT_NEAR(model->marginal(2), 0.0, 1e-12);  // not congested
  EXPECT_NEAR(model->marginal(4), 0.0, 1e-12);
}

TEST(ModelFactory, ClusteredShockInducesPositiveCorrelation) {
  CorrelationSets sets(2, {{0, 1}});
  auto model = make_clustered_shock_model(sets, {0, 1}, {0.4, 0.4}, 0.8);
  const double joint_congested =
      1.0 - model->prob_all_good({0}) - model->prob_all_good({1}) +
      model->prob_all_good({0, 1});
  EXPECT_GT(joint_congested, 0.4 * 0.4 + 0.05);
}

TEST(ModelFactory, SingleCongestedLinkGetsNoShock) {
  CorrelationSets sets(2, {{0, 1}});
  auto model = make_clustered_shock_model(sets, {0}, {0.4}, 0.8);
  EXPECT_NEAR(model->marginal(0), 0.4, 1e-12);
  // With one congested link there is nothing to correlate with.
  EXPECT_NEAR(model->prob_all_good({0, 1}), 0.6, 1e-12);
}

TEST(ModelFactory, RejectsDuplicateCongestedLinks) {
  CorrelationSets sets(2, {{0, 1}});
  EXPECT_THROW(
      make_clustered_shock_model(sets, {0, 0}, {0.4, 0.4}, 0.5), Error);
}

// ------------------------------------------------------- draw streams ----

// Every model's block draws, pinned bit for bit: an FNV-1a digest of one
// 130-snapshot sample_block from Rng(0x5eed) on a fixed 7-link system,
// into a buffer prefilled with 0xAA (so an unwritten byte shows). The
// constants were recorded when bursty shocks were still a class of their
// own and every model also had a per-snapshot sampler. The goldens'
// tolerances cannot see a reordered stream; these digests can.

const std::vector<double> kStreamBase{0.1, 0.2, 0.05, 0.3, 0.15, 0.25, 0.0};

CorrelationSets stream_sets() {
  return CorrelationSets(7, {{0, 1, 2}, {3, 4}, {5}, {6}});
}

std::unique_ptr<CongestionModel> stream_shock(double burst_length) {
  // Set 2's shock has no members: a memoryless shock still draws for it,
  // a bursty one does not.
  std::vector<Shock> shocks(4);
  shocks[0].rho = 0.3;
  shocks[0].members = {0, 1};
  shocks[1].rho = 0.2;
  shocks[1].members = {3, 4};
  shocks[2].rho = 0.15;
  for (Shock& shock : shocks) shock.burst_length = burst_length;
  return std::make_unique<CommonShockModel>(stream_sets(), kStreamBase,
                                            shocks);
}

std::unique_ptr<CongestionModel> stream_worm(
    std::unique_ptr<CongestionModel> inner) {
  return make_worm_model(std::move(inner), {1, 3, 5}, 0.25);
}

struct StreamCase {
  const char* name;
  std::unique_ptr<CongestionModel> (*make)();
  std::uint64_t digest;
};

// Listed test names show the case name, not the struct's bytes.
void PrintTo(const StreamCase& c, std::ostream* os) { *os << c.name; }

class DrawStream : public ::testing::TestWithParam<StreamCase> {};

TEST_P(DrawStream, BlockDrawsMatchRecordedDigest) {
  const auto model = GetParam().make();
  const std::size_t count = 130;
  std::vector<std::uint8_t> out(count * model->link_count(), 0xAA);
  Rng rng(0x5eed);
  model->sample_block(rng, count, out.data());
  std::uint64_t digest = 1469598103934665603ULL;
  for (std::uint8_t byte : out) {
    ASSERT_LE(byte, 1);
    digest = (digest ^ byte) * 1099511628211ULL;
  }
  EXPECT_EQ(digest, GetParam().digest) << std::hex << digest;
}

INSTANTIATE_TEST_SUITE_P(
    Models, DrawStream,
    ::testing::Values(
        StreamCase{"independent",
                   []() -> std::unique_ptr<CongestionModel> {
                     return std::make_unique<IndependentModel>(stream_sets(),
                                                               kStreamBase);
                   },
                   0x0b81bb86af969c89ULL},
        StreamCase{"memoryless_shock", [] { return stream_shock(0.0); },
                   0x84e1391a5302ecafULL},
        StreamCase{"bursty_shock_1", [] { return stream_shock(1.0); },
                   0xdaafd4cbfcb25f3cULL},
        StreamCase{"bursty_shock_8", [] { return stream_shock(8.0); },
                   0x8221619aa0fcada7ULL},
        StreamCase{"worm_memoryless",
                   [] { return stream_worm(stream_shock(0.0)); },
                   0xb4bf44dc0077bbcbULL},
        StreamCase{"worm_bursty_8",
                   [] { return stream_worm(stream_shock(8.0)); },
                   0xd9fa25855f947fecULL},
        StreamCase{"joint_table",
                   []() -> std::unique_ptr<CongestionModel> {
                     std::vector<SetDistribution> tables(4);
                     tables[0].prob = {0.4,  0.1,  0.1,  0.15,
                                       0.05, 0.05, 0.05, 0.1};
                     tables[1].prob = {0.5, 0.2, 0.1, 0.2};
                     tables[2].prob = {0.7, 0.3};
                     tables[3].prob = {0.9, 0.1};
                     return std::make_unique<JointTableModel>(stream_sets(),
                                                              tables);
                   },
                   0xa62a80d5bf333986ULL},
        StreamCase{"router_derived",
                   []() -> std::unique_ptr<CongestionModel> {
                     return std::make_unique<RouterDerivedModel>(
                         stream_sets(),
                         std::vector<std::vector<std::size_t>>{
                             {0, 1}, {1, 2}, {3}, {4, 5}, {5}, {6}, {7}},
                         std::vector<double>{0.1, 0.2, 0.05, 0.15, 0.1, 0.2,
                                             0.3, 0.05});
                   },
                   0x1440d9653e92fb68ULL}),
    [](const ::testing::TestParamInfo<StreamCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace tomo::corr

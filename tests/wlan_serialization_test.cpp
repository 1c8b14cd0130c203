#include "wmcast/wlan/serialization.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "test_fixtures.hpp"
#include "wmcast/assoc/centralized.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/wlan/scenario_generator.hpp"

namespace wmcast::wlan {
namespace {

void expect_equivalent(const Scenario& a, const Scenario& b) {
  ASSERT_EQ(a.n_aps(), b.n_aps());
  ASSERT_EQ(a.n_users(), b.n_users());
  ASSERT_EQ(a.n_sessions(), b.n_sessions());
  EXPECT_DOUBLE_EQ(a.load_budget(), b.load_budget());
  for (int s = 0; s < a.n_sessions(); ++s) {
    EXPECT_DOUBLE_EQ(a.session_rate(s), b.session_rate(s));
  }
  for (int u = 0; u < a.n_users(); ++u) {
    EXPECT_EQ(a.user_session(u), b.user_session(u));
  }
  for (int ap = 0; ap < a.n_aps(); ++ap) {
    for (int u = 0; u < a.n_users(); ++u) {
      EXPECT_DOUBLE_EQ(a.link_rate(ap, u), b.link_rate(ap, u)) << ap << "," << u;
    }
  }
}

TEST(Serialization, ExplicitScenarioRoundTrips) {
  const auto sc = test::fig1_scenario(3.0);
  const auto restored = from_text(to_text(sc));
  expect_equivalent(sc, restored);
  EXPECT_FALSE(restored.has_geometry());
}

TEST(Serialization, GeometricScenarioRoundTrips) {
  util::Rng rng(41);
  GeneratorParams p;
  p.n_aps = 12;
  p.n_users = 30;
  p.n_sessions = 3;
  const auto sc = generate_scenario(p, rng);
  const auto restored = from_text(to_text(sc));
  expect_equivalent(sc, restored);
  EXPECT_TRUE(restored.has_geometry());
  // Positions restored exactly (printed at full precision).
  for (int u = 0; u < sc.n_users(); ++u) {
    EXPECT_EQ(sc.user_positions()[static_cast<size_t>(u)],
              restored.user_positions()[static_cast<size_t>(u)]);
  }
}

TEST(Serialization, WritesV2WithSparseExplicitRows) {
  const auto sc = test::fig1_scenario(3.0);
  const std::string text = to_text(sc);
  EXPECT_NE(text.find("wmcast-scenario v2"), std::string::npos);
  EXPECT_NE(text.find("sparse_links"), std::string::npos);
  EXPECT_EQ(text.find("link_rates"), std::string::npos);
}

TEST(Serialization, V1DenseExplicitStillLoads) {
  // Read-compat: scenarios saved before the sparse format (dense [ap][user]
  // matrix under "link_rates") must keep loading to the same instance.
  const auto sc = test::fig1_scenario(3.0);
  std::ostringstream v1;
  v1.precision(17);
  v1 << "wmcast-scenario v1\n";
  v1 << "budget " << sc.load_budget() << "\n";
  v1 << "sessions " << sc.n_sessions() << "\n";
  v1 << "session_rates";
  for (int s = 0; s < sc.n_sessions(); ++s) v1 << ' ' << sc.session_rate(s);
  v1 << "\nusers " << sc.n_users() << "\n";
  v1 << "user_sessions";
  for (int u = 0; u < sc.n_users(); ++u) v1 << ' ' << sc.user_session(u);
  v1 << "\ngeometry 0\n";
  v1 << "aps " << sc.n_aps() << "\n";
  v1 << "link_rates\n";
  for (int a = 0; a < sc.n_aps(); ++a) {
    for (int u = 0; u < sc.n_users(); ++u) {
      v1 << (u > 0 ? " " : "") << sc.link_rate(a, u);
    }
    v1 << "\n";
  }
  const auto restored = from_text(v1.str());
  expect_equivalent(sc, restored);
  // And it re-saves in the current format.
  EXPECT_NE(to_text(restored).find("wmcast-scenario v2"), std::string::npos);
}

TEST(Serialization, MalformedSparseRowsThrow) {
  const std::string head =
      "wmcast-scenario v2\nbudget 0.9\nsessions 1\nsession_rates 1\n"
      "users 2\nuser_sessions 0 0\ngeometry 0\naps 2\nsparse_links\n";
  EXPECT_THROW(from_text(head + "3 0 6 1 6 0 6\n0\n"),
               std::invalid_argument);  // row size > n_aps
  EXPECT_THROW(from_text(head + "1 5 6\n0\n"),
               std::invalid_argument);  // AP id out of range
  EXPECT_THROW(from_text(head + "1 0 -6\n0\n"),
               std::invalid_argument);  // non-positive rate
  EXPECT_THROW(from_text(head + "2 0 6 0 12\n0\n"),
               std::invalid_argument);  // duplicate (ap, user) link
  EXPECT_THROW(from_text(head + "1 0 6\n"),
               std::invalid_argument);  // truncated: second row missing
}

TEST(Serialization, AlgorithmsAgreeOnRestoredScenario) {
  util::Rng rng(43);
  GeneratorParams p;
  p.n_aps = 15;
  p.n_users = 40;
  const auto sc = generate_scenario(p, rng);
  const auto restored = from_text(to_text(sc));
  const auto a = assoc::centralized_mla(sc);
  const auto b = assoc::centralized_mla(restored);
  EXPECT_EQ(a.assoc, b.assoc);
  EXPECT_DOUBLE_EQ(a.loads.total_load, b.loads.total_load);
}

TEST(Serialization, FileRoundTrip) {
  const auto sc = test::fig1_scenario(1.0);
  const std::string path = testing::TempDir() + "/wmcast_scenario_test.txt";
  ASSERT_TRUE(save_scenario(sc, path));
  const auto restored = load_scenario(path);
  expect_equivalent(sc, restored);
  std::remove(path.c_str());
}

TEST(Serialization, SaveFailsGracefully) {
  const auto sc = test::fig1_scenario(1.0);
  EXPECT_FALSE(save_scenario(sc, "/nonexistent-dir/x.txt"));
  EXPECT_THROW(load_scenario("/nonexistent-dir/x.txt"), std::invalid_argument);
}

TEST(Serialization, MalformedInputThrowsNotAborts) {
  EXPECT_THROW(from_text(""), std::invalid_argument);
  EXPECT_THROW(from_text("wmcast-scenario v2"), std::invalid_argument);
  EXPECT_THROW(from_text("wmcast-scenario v1\nbudget oops"), std::invalid_argument);
  EXPECT_THROW(from_text("wmcast-scenario v1\nbudget 0.9\nsessions -3"),
               std::invalid_argument);
  // Truncated in the middle of the link matrix.
  const auto sc = test::fig1_scenario(1.0);
  std::string text = to_text(sc);
  text.resize(text.size() / 2);
  EXPECT_THROW(from_text(text), std::invalid_argument);
  // A scenario that parses structurally but violates model invariants
  // (negative link rate) is rejected by Scenario validation.
  EXPECT_THROW(from_text("wmcast-scenario v1\nbudget 0.9\nsessions 1\n"
                         "session_rates 1\nusers 1\nuser_sessions 0\ngeometry 0\n"
                         "aps 1\nlink_rates\n-5\n"),
               std::invalid_argument);
}

TEST(Serialization, HugeCountsRejected) {
  EXPECT_THROW(from_text("wmcast-scenario v1\nbudget 0.9\nsessions 99999999"),
               std::invalid_argument);
}

// A 16-AP x 17-user explicit matrix, every link positive, with exactly
// `n_distinct` distinct rates (multiples of 0.25 Mbps).
std::vector<std::vector<double>> distinct_rate_matrix(int n_distinct) {
  std::vector<std::vector<double>> link(16, std::vector<double>(17));
  int i = 0;
  for (auto& row : link) {
    for (auto& r : row) r = 1.0 + 0.25 * (i++ % n_distinct);
  }
  return link;
}

TEST(Serialization, ExplicitScenarioHoldsAtMost256DistinctRates) {
  // A link stores its rate as a one-byte level: 256 distinct rates fit.
  const auto link = distinct_rate_matrix(256);
  const Scenario sc =
      Scenario::from_link_rates(link, std::vector<int>(17, 0), {1.0}, 0.9);
  ASSERT_EQ(sc.rate_levels().size(), 256u);
  for (int a = 0; a < sc.n_aps(); ++a) {
    for (int u = 0; u < sc.n_users(); ++u) {
      EXPECT_EQ(sc.link_rate(a, u), link[static_cast<size_t>(a)][static_cast<size_t>(u)])
          << a << "," << u;
    }
  }
  const std::string text = to_text(sc);
  EXPECT_EQ(to_text(from_text(text)), text);

  // One more distinct rate is rejected, built directly or parsed from a v2
  // file.
  const auto over = distinct_rate_matrix(257);
  EXPECT_THROW(Scenario::from_link_rates(over, std::vector<int>(17, 0), {1.0}, 0.9),
               std::invalid_argument);
  std::ostringstream v2;
  v2.precision(17);
  v2 << "wmcast-scenario v2\nbudget 0.9\nsessions 1\nsession_rates 1\nusers 17\n"
     << "user_sessions";
  for (int u = 0; u < 17; ++u) v2 << " 0";
  v2 << "\ngeometry 0\naps 16\nsparse_links\n";
  for (int u = 0; u < 17; ++u) {
    v2 << 16;
    for (int a = 0; a < 16; ++a) {
      v2 << ' ' << a << ' ' << over[static_cast<size_t>(a)][static_cast<size_t>(u)];
    }
    v2 << "\n";
  }
  EXPECT_THROW(from_text(v2.str()), std::invalid_argument);
}

TEST(Serialization, GeometricScenarioOverAnExtremeExtentThrows) {
  // APs 1e12 m apart on each axis would need ~2.5e19 grid cells.
  const std::string text =
      "wmcast-scenario v2\nbudget 0.9\nsessions 1\nsession_rates 1\nusers 1\n"
      "user_sessions 0\ngeometry 1\nap_positions 2\n0 0\n1e12 1e12\n"
      "user_positions\n0 0\nrate_table 1\n6 200\n";
  EXPECT_THROW(from_text(text), std::invalid_argument);
}

}  // namespace
}  // namespace wmcast::wlan

// -- association serialization (appended suite) ------------------------------

#include "wmcast/assoc/centralized.hpp"

namespace wmcast::wlan {
namespace {

TEST(AssociationSerialization, RoundTrips) {
  const Association a{{0, kNoAp, 3, 1, kNoAp}};
  const Association restored = association_from_text(association_to_text(a));
  EXPECT_EQ(restored, a);
}

TEST(AssociationSerialization, EmptyAssociation) {
  const Association a = Association::none(0);
  EXPECT_EQ(association_from_text(association_to_text(a)).n_users(), 0);
}

TEST(AssociationSerialization, SolverOutputRoundTripsThroughFiles) {
  const auto sc = test::fig1_scenario(1.0);
  const auto sol = assoc::centralized_mla(sc);
  const std::string path = testing::TempDir() + "/wmcast_assoc_test.txt";
  ASSERT_TRUE(save_association(sol.assoc, path));
  const auto restored = load_association(path);
  EXPECT_EQ(restored, sol.assoc);
  // Still evaluates identically.
  const auto rep = compute_loads(sc, restored);
  EXPECT_NEAR(rep.total_load, sol.loads.total_load, 1e-12);
  std::remove(path.c_str());
}

TEST(AssociationSerialization, MalformedInputThrows) {
  EXPECT_THROW(association_from_text(""), std::invalid_argument);
  EXPECT_THROW(association_from_text("wmcast-association v2"), std::invalid_argument);
  EXPECT_THROW(association_from_text("wmcast-association v1\nusers 2\n0"),
               std::invalid_argument);  // truncated
  EXPECT_THROW(association_from_text("wmcast-association v1\nusers 1\n-5"),
               std::invalid_argument);  // AP id below kNoAp
  EXPECT_THROW(load_association("/nonexistent/a.txt"), std::invalid_argument);
}

}  // namespace
}  // namespace wmcast::wlan

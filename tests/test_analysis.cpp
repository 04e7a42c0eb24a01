#include "quorum/analysis.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace probft::quorum {
namespace {

Params paper_point(std::int64_t n, double f_ratio, double o) {
  Params p;
  p.n = n;
  p.f = static_cast<std::int64_t>(n * f_ratio);
  p.o = o;
  p.l = 2.0;
  return p;
}

TEST(Params, DerivedSizes) {
  Params p = paper_point(100, 0.2, 1.7);
  EXPECT_EQ(p.q(), 20);          // 2 * sqrt(100)
  EXPECT_EQ(p.s(), 34);          // 1.7 * 20
  EXPECT_EQ(p.det_quorum(), 61); // ceil((100+20+1)/2)
  EXPECT_TRUE(p.valid());
}

TEST(Params, PaperExampleL2N100) {
  // §1: "for l = 2 and n = 100, a replica can make progress after receiving
  // 20 matching messages ... compared with the 67 messages in PBFT."
  Params p;
  p.n = 100;
  p.f = 33;
  p.l = 2.0;
  p.o = 1.7;
  EXPECT_EQ(p.q(), 20);
  EXPECT_EQ(p.det_quorum(), 67);
}

TEST(Params, InvalidConfigsDetected) {
  Params p = paper_point(100, 0.2, 1.7);
  p.f = 34;  // 3f >= n
  EXPECT_FALSE(p.valid());
  p = paper_point(100, 0.2, 0.9);  // o <= 1
  EXPECT_FALSE(p.valid());
  p = paper_point(4, 0.0, 1.7);
  p.l = 3.0;  // q = 6 > n
  EXPECT_FALSE(p.valid());
}

TEST(QuorumFormation, BoundBelowExact) {
  // The Chernoff-style Corollary 2 bound must lower-bound the exact
  // binomial probability.
  for (double o : {1.6, 1.7, 1.8}) {
    for (std::int64_t n : {100, 200, 300}) {
      Params p = paper_point(n, 0.2, o);
      EXPECT_LE(quorum_formation_bound(p), quorum_formation_exact(p) + 1e-12)
          << "n=" << n << " o=" << o;
    }
  }
}

TEST(QuorumFormation, ExactIncreasesWithO) {
  Params lo = paper_point(100, 0.2, 1.6);
  Params hi = paper_point(100, 0.2, 1.8);
  EXPECT_LT(quorum_formation_exact(lo), quorum_formation_exact(hi));
}

TEST(QuorumFormation, ExactDecreasesWithF) {
  Params lo = paper_point(100, 0.1, 1.7);
  Params hi = paper_point(100, 0.3, 1.7);
  EXPECT_GT(quorum_formation_exact(lo), quorum_formation_exact(hi));
}

TEST(QuorumFormation, MonotoneInSenders) {
  // Theorem 6: more senders => higher quorum-formation probability.
  Params p = paper_point(100, 0.2, 1.7);
  double prev = 0;
  for (std::int64_t r = 40; r <= 100; r += 10) {
    const double cur = quorum_formation_exact_r(p, r);
    EXPECT_GE(cur, prev - 1e-12) << "r=" << r;
    prev = cur;
  }
}

TEST(QuorumFormation, BoundRequiresPrecondition) {
  // c <= 1 (n >= o(n-f)) makes the bound vacuous: must return 0.
  Params p = paper_point(100, 0.45, 1.7);  // invalid f but bound math only
  p.f = 45;
  EXPECT_EQ(quorum_formation_bound(p), 0.0);
}

TEST(QuorumFormation, Theorem11BoundBelowExactOnFigure5Points) {
  // Theorem 11 with every correct replica sending (r = n - f) lower-bounds
  // the exact binomial tail at every Figure 5 point: n in [100, 300] at
  // f/n = 0.2, and f/n in [0.10, 0.30] at n = 100.
  std::vector<Params> points;
  for (double o : {1.6, 1.7, 1.8}) {
    for (std::int64_t n = 100; n <= 300; n += 50) {
      points.push_back(paper_point(n, 0.2, o));
    }
    for (double f_ratio : {0.10, 0.15, 0.20, 0.25, 0.30}) {
      points.push_back(paper_point(100, f_ratio, o));
    }
  }
  int non_vacuous = 0;
  for (const Params& p : points) {
    const std::int64_t r = p.n - p.f;
    const double bound = quorum_formation_bound_r(p, r);
    EXPECT_GE(bound, 0.0);
    EXPECT_LE(bound, 1.0);
    EXPECT_LE(bound, quorum_formation_exact_r(p, r) + 1e-12)
        << "n=" << p.n << " f=" << p.f << " o=" << p.o;
    if (bound > 0.0) ++non_vacuous;
  }
  EXPECT_GT(non_vacuous, 0);
}

TEST(QuorumFormation, Theorem11BoundRequiresPrecondition) {
  // n >= o r makes the Theorem 11 bound vacuous: it must return 0.
  const Params p = paper_point(100, 0.2, 1.7);
  EXPECT_EQ(quorum_formation_bound_r(p, 50), 0.0);  // o r = 85 <= n
  EXPECT_GT(quorum_formation_bound_r(p, 80), 0.0);  // o r = 136 > n
}

TEST(Termination, ExactRatesAreProbabilities) {
  for (std::int64_t n : {100, 200, 300}) {
    Params p = paper_point(n, 0.2, 1.7);
    const double per = replica_termination_exact(p);
    EXPECT_GE(per, 0.0);
    EXPECT_LE(per, 1.0);
    EXPECT_LE(all_termination_exact(p), per + 1e-12);
  }
}

TEST(Termination, ImprovesWithN) {
  // Figure 5 top-right: termination probability grows with n.
  Params small = paper_point(100, 0.2, 1.7);
  Params large = paper_point(300, 0.2, 1.7);
  EXPECT_LT(replica_termination_exact(small),
            replica_termination_exact(large));
}

TEST(Termination, DegradesWithF) {
  // Figure 5 bottom-right: termination probability shrinks as f/n grows.
  Params lo = paper_point(100, 0.1, 1.7);
  Params hi = paper_point(100, 0.3, 1.7);
  EXPECT_GT(replica_termination_exact(lo), replica_termination_exact(hi));
}

TEST(Termination, BoundBelowExactWhenMeaningful) {
  Params p = paper_point(300, 0.2, 1.8);
  const double bound = replica_termination_bound(p);
  if (bound > 0.0) {
    EXPECT_LE(bound, replica_termination_exact(p) + 0.05);
  }
}

TEST(Termination, Theorem15BoundBelowExactWhereNonVacuous) {
  // Theorem 15 (every correct replica decides) is a union bound over the
  // n - f correct replicas; wherever it says more than 0 it must not
  // exceed the exact-model union bound.
  int non_vacuous = 0;
  for (std::int64_t n = 100; n <= 1000; n += 100) {
    for (double f_ratio : {0.0, 0.1, 0.2, 0.3}) {
      for (double o : {1.5, 2.0, 2.5, 3.0}) {
        for (double l : {1.5, 2.0, 2.5}) {
          Params p = paper_point(n, f_ratio, o);
          p.l = l;
          if (!p.valid()) continue;
          const double bound = all_termination_bound(p);
          EXPECT_GE(bound, 0.0);
          EXPECT_LE(bound, 1.0);
          if (bound == 0.0) continue;
          ++non_vacuous;
          EXPECT_LE(bound, all_termination_exact(p) + 1e-12)
              << "n=" << n << " f=" << p.f << " o=" << o << " l=" << l;
        }
      }
    }
  }
  EXPECT_GT(non_vacuous, 0);

  Params p = paper_point(100, 0.0, 2.5);
  EXPECT_GT(all_termination_bound(p), 0.98);
  EXPECT_LE(all_termination_bound(p), all_termination_exact(p));
}

TEST(Agreement, ViolationRatesAreTiny) {
  // Figure 5 left panels: agreement probability ~ 1 for paper parameters.
  for (std::int64_t n : {100, 200, 300}) {
    Params p = paper_point(n, 0.2, 1.7);
    EXPECT_LT(view_disagreement_exact(p), 1e-3) << "n=" << n;
    EXPECT_GT(view_agreement_exact(p), 0.999) << "n=" << n;
  }
}

TEST(Agreement, ViolationShrinksWithN) {
  Params small = paper_point(100, 0.2, 1.7);
  Params large = paper_point(300, 0.2, 1.7);
  EXPECT_GT(view_disagreement_exact(small), view_disagreement_exact(large));
}

TEST(Agreement, ViolationGrowsWithF) {
  Params lo = paper_point(100, 0.1, 1.7);
  Params hi = paper_point(100, 0.3, 1.7);
  EXPECT_LT(view_disagreement_exact(lo), view_disagreement_exact(hi));
}

TEST(Agreement, BoundIsAProbability) {
  for (std::int64_t n : {100, 200, 300}) {
    Params p = paper_point(n, 0.2, 1.6);
    const double b = view_disagreement_bound(p);
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
    EXPECT_NEAR(view_agreement_bound(p), 1.0 - b, 1e-12);
  }
}

TEST(CrossView, BoundIsAProbabilityAndShrinksWithN) {
  Params small = paper_point(100, 0.2, 1.2);
  Params large = paper_point(400, 0.2, 1.2);
  const double b_small = cross_view_violation_bound(small);
  const double b_large = cross_view_violation_bound(large);
  EXPECT_GE(b_small, 0.0);
  EXPECT_LE(b_small, 1.0);
  EXPECT_LE(b_large, b_small + 1e-12);
}

TEST(CrossView, SafetyBoundIsTheComplementOfTheViolationBound) {
  for (std::int64_t n : {100, 200, 400, 1000}) {
    for (double o : {1.2, 1.4, 1.7}) {
      const Params p = paper_point(n, 0.2, o);
      const double safety = cross_view_safety_bound(p);
      EXPECT_GE(safety, 0.0);
      EXPECT_LE(safety, 1.0);
      EXPECT_NEAR(safety, 1.0 - cross_view_violation_bound(p), 1e-12)
          << "n=" << n << " o=" << o;
    }
  }
}

TEST(CrossView, DecideWithFewPreparersIsUnlikely) {
  // Lemma 6 mechanism: deciding with r = q preparers is far less likely
  // than with all n-f.
  Params p = paper_point(100, 0.2, 1.7);
  EXPECT_LT(decide_with_r_prepared_exact(p, p.q()),
            decide_with_r_prepared_exact(p, p.n - p.f));
}

TEST(Messages, Figure1bShape) {
  // PBFT quadratic, ProBFT ~ n^1.5, HotStuff linear; at n = 400 the paper's
  // figure shows PBFT ~ 320k messages.
  EXPECT_NEAR(messages_pbft(400), 319'599.0, 1.0);
  Params p = paper_point(400, 0.2, 1.7);
  const double probft = messages_probft(p);
  EXPECT_GT(probft, messages_hotstuff(400));
  EXPECT_LT(probft, messages_pbft(400));
}

TEST(Messages, ProbftFractionOfPbft) {
  // §5: with o = 1.7, ProBFT uses a small fraction (paper: 18-25% over its
  // plotted range) of PBFT's messages; the ratio improves with n.
  Params p100 = paper_point(100, 0.2, 1.7);
  Params p400 = paper_point(400, 0.2, 1.7);
  const double r100 = messages_probft(p100) / messages_pbft(100);
  const double r400 = messages_probft(p400) / messages_pbft(400);
  EXPECT_LT(r400, r100);
  EXPECT_LT(r400, 0.25);
  EXPECT_GT(r400, 0.10);
}

TEST(Messages, GrowthOrders) {
  // Doubling n roughly quadruples PBFT, ~2.8x ProBFT, 2x HotStuff.
  const double pbft_ratio = messages_pbft(400) / messages_pbft(200);
  EXPECT_NEAR(pbft_ratio, 4.0, 0.1);
  Params p200 = paper_point(200, 0.2, 1.7);
  Params p400 = paper_point(400, 0.2, 1.7);
  const double probft_ratio = messages_probft(p400) / messages_probft(p200);
  EXPECT_NEAR(probft_ratio, std::pow(2.0, 1.5), 0.25);
  EXPECT_NEAR(messages_hotstuff(400) / messages_hotstuff(200), 2.0, 0.05);
}

TEST(Steps, GoodCaseLatency) {
  // Figure 1a: PBFT and ProBFT share the optimal 3 steps; HotStuff needs
  // more.
  EXPECT_EQ(steps_pbft(), 3);
  EXPECT_EQ(steps_probft(), 3);
  EXPECT_GT(steps_hotstuff(), 3);
}


TEST(Theorem2, MaxORangeMatchesPaperConstant) {
  // Paper: o in [1, 3.732 (n/(n-f))]; 2 + sqrt(3) = 3.7320...
  EXPECT_NEAR(theorem2_max_o(100, 0), 3.732, 0.001);
  EXPECT_NEAR(theorem2_max_o(100, 20), 3.732 * 100.0 / 80.0, 0.002);
  // More faults widen the admissible o range upper end.
  EXPECT_GT(theorem2_max_o(100, 30), theorem2_max_o(100, 10));
}

}  // namespace
}  // namespace probft::quorum

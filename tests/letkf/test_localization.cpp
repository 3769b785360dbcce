#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "letkf/localization.hpp"
#include "util/rng.hpp"

namespace bda::letkf {
namespace {

TEST(GaspariCohn, UnityAtZero) {
  EXPECT_NEAR(gaspari_cohn(0.0f), 1.0f, 1e-6f);
}

TEST(GaspariCohn, CompactSupportEndsAtTwo) {
  EXPECT_EQ(gaspari_cohn(2.0f), 0.0f);
  EXPECT_EQ(gaspari_cohn(5.0f), 0.0f);
  EXPECT_GT(gaspari_cohn(1.99f), 0.0f);
}

TEST(GaspariCohn, MonotoneDecay) {
  real prev = gaspari_cohn(0.0f);
  for (real r = 0.05f; r <= 2.0f; r += 0.05f) {
    const real g = gaspari_cohn(r);
    EXPECT_LE(g, prev + 1e-6f) << "r=" << r;
    EXPECT_GE(g, 0.0f);
    prev = g;
  }
}

TEST(GaspariCohn, SymmetricInR) {
  EXPECT_FLOAT_EQ(gaspari_cohn(0.7f), gaspari_cohn(-0.7f));
}

TEST(GaspariCohn, MatchesPublishedMidpoints) {
  // GC(1) = 1 - 1/4 + 1/2 + 5/8 - 5/3 + ... evaluate both branches agree.
  const real left = gaspari_cohn(0.999999f);
  const real right = gaspari_cohn(1.000001f);
  EXPECT_NEAR(left, right, 1e-4f);
  // Half width: GC(0.5) ~ 0.68 (known value of the quintic).
  EXPECT_NEAR(gaspari_cohn(0.5f), 0.685f, 0.01f);
}

TEST(GaspariCohn, ResemblesGaussianCore) {
  // GC with support 2c approximates a Gaussian of sigma = c*sqrt(3/10),
  // i.e. GC(r) ~ exp(-r^2 * 5/3); loose shape check.
  for (real r : {0.3f, 0.6f, 1.0f}) {
    const real gc = gaspari_cohn(r);
    const real gauss = std::exp(-r * r * 5.0f / 3.0f);
    EXPECT_NEAR(gc, gauss, 0.05f) << "r=" << r;
  }
}

ObsVector random_obs(std::size_t n, real extent, Rng& rng) {
  ObsVector obs(n);
  for (auto& o : obs) {
    o.x = real(rng.uniform(0, extent));
    o.y = real(rng.uniform(0, extent));
    o.z = real(rng.uniform(0, 10000));
    o.value = real(rng.normal());
    o.error = 1.0f;
  }
  return obs;
}

TEST(ObsIndex, QueryMatchesBruteForce) {
  Rng rng(17);
  const auto obs = random_obs(500, 50000.0f, rng);
  ObsIndex index(obs, 4000.0f);
  std::vector<std::size_t> got;
  for (int trial = 0; trial < 20; ++trial) {
    const real x = real(rng.uniform(0, 50000));
    const real y = real(rng.uniform(0, 50000));
    const real radius = real(rng.uniform(500, 8000));
    got.clear();
    index.query(x, y, radius, got);
    std::vector<std::size_t> expect;
    for (std::size_t n = 0; n < obs.size(); ++n) {
      const real dx = obs[n].x - x, dy = obs[n].y - y;
      if (dx * dx + dy * dy <= radius * radius) expect.push_back(n);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expect) << "trial " << trial;
  }
}

// analyze_window numbers its obs by query_box and looks every query()
// result up in that numbering, so the box must cover each point's query.
TEST(ObsIndex, QueryBoxCoversEveryQueryInsideTheBox) {
  Rng rng(29);
  const auto obs = random_obs(800, 20000.0f, rng);
  ObsIndex index(obs, 4000.0f);
  std::vector<std::size_t> box, got;
  for (int trial = 0; trial < 20; ++trial) {
    const real x0 = real(rng.uniform(-2000, 20000));
    const real y0 = real(rng.uniform(-2000, 20000));
    const real x1 = x0 + real(rng.uniform(0, 8000));
    const real y1 = y0 + real(rng.uniform(0, 8000));
    box.clear();
    index.query_box(x0, x1, y0, y1, 4000.0f, box);
    std::sort(box.begin(), box.end());
    EXPECT_TRUE(std::adjacent_find(box.begin(), box.end()) == box.end());
    for (int s = 0; s <= 8; ++s)
      for (int t = 0; t <= 8; ++t) {
        got.clear();
        index.query(x0 + (x1 - x0) * real(s) / 8, y0 + (y1 - y0) * real(t) / 8,
                    4000.0f, got);
        for (std::size_t n : got)
          EXPECT_TRUE(std::binary_search(box.begin(), box.end(), n))
              << "trial " << trial << " obs " << n;
      }
  }
}

TEST(ObsIndex, EmptyObsYieldsNothing) {
  ObsVector obs;
  ObsIndex index(obs, 1000.0f);
  std::vector<std::size_t> out;
  index.query(0, 0, 5000.0f, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(index.size(), 0u);
}

TEST(ObsIndex, QueryOutsideCloudFindsNothing) {
  Rng rng(18);
  const auto obs = random_obs(100, 10000.0f, rng);
  ObsIndex index(obs, 2000.0f);
  std::vector<std::size_t> out;
  index.query(1.0e6f, 1.0e6f, 3000.0f, out);
  EXPECT_TRUE(out.empty());
}

TEST(ObsIndex, RadiusIsInclusiveBoundary) {
  ObsVector obs;
  obs.push_back({ObsType::kReflectivity, 1000.0f, 0.0f, 0.0f, 1.0f, 1.0f});
  ObsIndex index(obs, 500.0f);
  std::vector<std::size_t> out;
  index.query(0, 0, 1000.0f, out);
  EXPECT_EQ(out.size(), 1u);
  out.clear();
  index.query(0, 0, 999.0f, out);
  EXPECT_TRUE(out.empty());
}

TEST(ObsIndex, SingleObservationFound) {
  ObsVector obs;
  obs.push_back({ObsType::kDopplerVelocity, 5.0f, 7.0f, 100.0f, 3.0f, 1.0f});
  ObsIndex index(obs, 1000.0f);
  std::vector<std::size_t> out;
  index.query(0, 0, 100.0f, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0u);
}

}  // namespace
}  // namespace bda::letkf

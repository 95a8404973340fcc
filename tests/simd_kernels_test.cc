// Bit-identity and dispatch tests for the SIMD kernel primitives
// (linalg/simd.h), the packed feature layout, the MIL ranking built on
// them, and the zero-copy corpus snapshot.
//
// The load-bearing invariant: every primitive produces bit-identical
// results on every dispatch tier, so rankings never depend on the host's
// instruction set (or on MIVID_SIMD / MIVID_THREADS).

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_io.h"
#include "common/rng.h"
#include "db/packed_corpus_io.h"
#include "fnv1a.h"
#include "linalg/packed_matrix.h"
#include "linalg/simd.h"
#include "mil/citation_knn.h"
#include "mil/dataset.h"
#include "mil/packed_corpus.h"
#include "retrieval/mil_rf_engine.h"
#include "segment/segmenter.h"
#include "segment/spcpe.h"
#include "svm/kernel.h"
#include "svm/one_class_svm.h"
#include "trafficsim/renderer.h"
#include "trafficsim/scenarios.h"

namespace mivid {
namespace {

namespace fs = std::filesystem;
using test::Fnv1a;

/// Restores native dispatch however a test leaves the tier.
class TierGuard {
 public:
  ~TierGuard() {
    unsetenv("MIVID_SIMD");
    SetSimdTier(-1);
  }
};

std::vector<double> RandomDoubles(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (auto& v : out) v = rng.Gaussian(0.0, 1.0);
  return out;
}

PackedFeatureMatrix PackRandom(const std::vector<Vec>& points) {
  std::vector<const Vec*> ptrs;
  for (const auto& p : points) ptrs.push_back(&p);
  return PackedFeatureMatrix::FromPoints(ptrs, points[0].size());
}

std::vector<Vec> RandomPoints(size_t n, size_t dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec> points(n, Vec(dim));
  for (auto& p : points) {
    for (auto& v : p) v = rng.Gaussian(0.1, 0.5);
  }
  return points;
}

/// Runs `fn` once per available tier and bit-compares the outputs of the
/// later tiers against the scalar reference.
template <typename Fn>
void ExpectTiersAgree(size_t out_len, const Fn& fn) {
  TierGuard guard;
  SetSimdTier(static_cast<int>(SimdTier::kScalar));
  std::vector<double> reference(out_len, 0.0);
  fn(reference.data());
  if (!Avx2Available()) return;
  SetSimdTier(static_cast<int>(SimdTier::kAvx2));
  std::vector<double> avx2(out_len, 0.0);
  fn(avx2.data());
  for (size_t i = 0; i < out_len; ++i) {
    // Bit equality, not tolerance: NaN-safe via the bit pattern.
    EXPECT_EQ(reference[i], avx2[i]) << "lane " << i;
  }
}

TEST(SimdKernelsTest, DistanceRowsMatchScalarAtEveryLength) {
  // Odd lengths cover every main-loop/4-wide/scalar tail combination.
  for (size_t n : {size_t{1}, size_t{3}, size_t{5}, size_t{7}, size_t{8},
                   size_t{9}, size_t{13}, size_t{31}, size_t{64},
                   size_t{257}}) {
    for (size_t dim : {size_t{1}, size_t{3}, size_t{9}, size_t{12}}) {
      const auto points = RandomPoints(n, dim, 1000 * n + dim);
      const auto packed = PackRandom(points);
      const Vec query = RandomPoints(1, dim, 7 * n + dim)[0];
      double query_norm = 0.0;
      for (double v : query) query_norm += v * v;

      ExpectTiersAgree(n, [&](double* out) {
        SimdOps().expanded_d2_row(query.data(), query_norm, dim,
                                  packed.data(), packed.stride(),
                                  packed.squared_norms(), n, out);
      });
      ExpectTiersAgree(n, [&](double* out) {
        SimdOps().direct_d2_row(query.data(), dim, packed.data(),
                                packed.stride(), n, out);
      });
      ExpectTiersAgree(n, [&](double* out) {
        SimdOps().dot_row(query.data(), dim, packed.data(), packed.stride(),
                          n, out);
      });
    }
  }
}

TEST(SimdKernelsTest, DirectRowEqualsSquaredDistanceExactly) {
  const size_t n = 37, dim = 9;
  const auto points = RandomPoints(n, dim, 21);
  const auto packed = PackRandom(points);
  const Vec query = RandomPoints(1, dim, 22)[0];
  std::vector<double> row(n);
  TierGuard guard;
  for (int tier = 0; tier <= (Avx2Available() ? 1 : 0); ++tier) {
    SetSimdTier(tier);
    SimdOps().direct_d2_row(query.data(), dim, packed.data(),
                            packed.stride(), n, row.data());
    for (size_t j = 0; j < n; ++j) {
      EXPECT_EQ(row[j], SquaredDistance(query, points[j])) << j;
    }
  }
}

TEST(SimdKernelsTest, RowsMatchAtUnalignedOffsets) {
  // Row primitives must not assume 32-byte alignment: slice the packed
  // block at every sub-vector offset (bag slices start anywhere).
  const size_t n = 64, dim = 5;
  const auto points = RandomPoints(n, dim, 31);
  const auto packed = PackRandom(points);
  const Vec query = RandomPoints(1, dim, 32)[0];
  const double gamma = 1.7;
  for (size_t offset : {size_t{1}, size_t{2}, size_t{3}, size_t{5}}) {
    const size_t count = n - offset;
    ExpectTiersAgree(count, [&](double* out) {
      SimdOps().direct_d2_row(query.data(), dim, packed.data() + offset,
                              packed.stride(), count, out);
    });
    const auto d2 = RandomDoubles(count, 100 + offset);
    std::vector<double> d2_abs(count);
    for (size_t i = 0; i < count; ++i) d2_abs[i] = std::fabs(d2[i]);
    ExpectTiersAgree(count, [&](double* out) {
      SimdOps().rbf_from_d2_row(gamma, d2_abs.data(), count, out);
    });
  }
}

TEST(SimdKernelsTest, RbfRowAndAxpyMatchScalar) {
  for (size_t n : {size_t{1}, size_t{4}, size_t{15}, size_t{16}, size_t{17},
                   size_t{33}, size_t{100}, size_t{1024}}) {
    auto d2 = RandomDoubles(n, n);
    for (auto& v : d2) v = std::fabs(v);
    ExpectTiersAgree(n, [&](double* out) {
      SimdOps().rbf_from_d2_row(0.9, d2.data(), n, out);
    });

    const auto x = RandomDoubles(n, 2 * n + 1);
    const auto q = RandomDoubles(n, 2 * n + 2);
    const auto y0 = RandomDoubles(n, 2 * n + 3);
    ExpectTiersAgree(n, [&](double* out) {
      std::copy(y0.begin(), y0.end(), out);
      SimdOps().axpy(0.37, x.data(), n, out);
    });
    ExpectTiersAgree(n, [&](double* out) {
      std::copy(y0.begin(), y0.end(), out);
      SimdOps().axpy_diff(-1.21, x.data(), q.data(), n, out);
    });
  }
}

TEST(SimdKernelsTest, DetExpTracksStdExpTightly) {
  Rng rng(5);
  EXPECT_EQ(DetExp(0.0), 1.0);
  EXPECT_EQ(DetExp(-0.0), 1.0);
  // Arguments past the clamp saturate at the clamp value instead of
  // underflowing through subnormals.
  EXPECT_EQ(DetExp(-800.0), DetExp(-708.0));
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.Uniform(-700.0, 50.0);
    const double want = std::exp(x);
    const double got = DetExp(x);
    if (want == 0.0) {
      EXPECT_EQ(got, 0.0) << x;
    } else {
      EXPECT_NEAR(got / want, 1.0, 5e-15) << x;
    }
  }
}

TEST(SimdKernelsTest, EnvOverrideSelectsTier) {
  TierGuard guard;
  setenv("MIVID_SIMD", "scalar", 1);
  SetSimdTier(-1);  // re-resolve from the environment
  EXPECT_EQ(ActiveSimdTier(), SimdTier::kScalar);

  if (Avx2Available()) {
    setenv("MIVID_SIMD", "avx2", 1);
    SetSimdTier(-1);
    EXPECT_EQ(ActiveSimdTier(), SimdTier::kAvx2);
  }

  // Unknown value: warn and fall back to native resolution.
  setenv("MIVID_SIMD", "sse42", 1);
  SetSimdTier(-1);
  EXPECT_EQ(ActiveSimdTier(),
            Avx2Available() ? SimdTier::kAvx2 : SimdTier::kScalar);
}

TEST(SimdKernelsTest, BackgroundPassBitIdenticalAcrossTiers) {
  // Means straddling the selective-update threshold and outside [0, 255]
  // (both clamps), both update modes, and lengths with every tail size.
  Rng rng(33);
  TierGuard guard;
  for (size_t count : {0, 1, 3, 4, 7, 13, 1003}) {
    std::vector<uint8_t> px(count);
    std::vector<double> start(count);
    for (size_t i = 0; i < count; ++i) {
      px[i] = static_cast<uint8_t>(rng.UniformInt(0, 255));
      start[i] = rng.Bernoulli(0.1) ? rng.Uniform(-20.0, 280.0)
                                    : px[i] + rng.Uniform(-30.0, 30.0);
    }
    for (bool warmup : {true, false}) {
      SetSimdTier(static_cast<int>(SimdTier::kScalar));
      std::vector<double> ref_mean = start;
      std::vector<uint8_t> ref_mask(count, 7);
      const uint64_t ref_sum = SimdOps().background_pass(
          px.data(), count, warmup, 4.0, 0.02, 18.0, ref_mean.data(),
          ref_mask.data());
      if (!Avx2Available()) continue;
      SetSimdTier(static_cast<int>(SimdTier::kAvx2));
      std::vector<double> mean = start;
      std::vector<uint8_t> mask(count, 7);
      EXPECT_EQ(SimdOps().background_pass(px.data(), count, warmup, 4.0, 0.02,
                                          18.0, mean.data(), mask.data()),
                ref_sum);
      EXPECT_EQ(mean, ref_mean) << "count " << count << " warmup " << warmup;
      EXPECT_EQ(mask, ref_mask) << "count " << count << " warmup " << warmup;
    }
  }
}

TEST(PackedMatrixTest, LayoutNormsAndRoundTrip) {
  const size_t n = 11, dim = 4;
  const auto points = RandomPoints(n, dim, 77);
  const auto packed = PackRandom(points);
  EXPECT_EQ(packed.n(), n);
  EXPECT_EQ(packed.dim(), dim);
  EXPECT_EQ(packed.stride(), PackedFeatureMatrix::StrideFor(n));
  for (size_t j = 0; j < n; ++j) {
    for (size_t k = 0; k < dim; ++k) {
      EXPECT_EQ(packed.At(k, j), points[j][k]);
    }
    // Norms carry the exact Dot(p, p) accumulation order.
    EXPECT_EQ(packed.squared_norms()[j], Dot(points[j], points[j]));
    Vec back;
    packed.CopyPoint(j, &back);
    EXPECT_EQ(back, points[j]);
  }
  // Padding lanes are zero so SIMD tails can read them safely.
  for (size_t k = 0; k < dim; ++k) {
    for (size_t j = n; j < packed.stride(); ++j) {
      EXPECT_EQ(packed.At(k, j), 0.0);
    }
  }
}

TEST(PackedCorpusTest, BagOffsetsAndMixedDimRefused) {
  MilDataset ds;
  for (int b = 0; b < 3; ++b) {
    MilBag bag;
    bag.id = b;
    for (int i = 0; i <= b; ++i) {
      MilInstance inst;
      inst.bag_id = b;
      inst.instance_id = i;
      inst.features = {0.1 * b, 0.2 * i, 0.3};
      inst.raw_features = inst.features;
      bag.instances.push_back(std::move(inst));
    }
    ASSERT_TRUE(ds.AddBag(std::move(bag)).ok());
  }
  const auto packed = ds.EnsurePacked();
  EXPECT_EQ(packed->features.n(), 6u);
  EXPECT_EQ(packed->features.dim(), 3u);
  EXPECT_EQ(packed->bag_begin, (std::vector<size_t>{0, 1, 3, 6}));
  // The cache is shared until the corpus changes.
  EXPECT_EQ(ds.EnsurePacked().get(), packed.get());

  // A bag of another dimension is refused and leaves the corpus, and its
  // cached packing, as they were.
  MilBag odd;
  odd.id = 3;
  MilInstance inst;
  inst.features = {1.0, 2.0};  // different dimension
  odd.instances.push_back(std::move(inst));
  EXPECT_TRUE(ds.AddBag(std::move(odd)).IsInvalidArgument());
  EXPECT_EQ(ds.size(), 3u);
  EXPECT_EQ(ds.EnsurePacked().get(), packed.get());

  // A bag that is uniform with the corpus still enters and repacks.
  MilBag more;
  more.id = 4;
  more.instances.resize(2);
  for (auto& i : more.instances) i.features = {0.4, 0.5, 0.6};
  EXPECT_TRUE(ds.AddBag(std::move(more)).ok());
  const auto repacked = ds.EnsurePacked();
  EXPECT_NE(repacked.get(), packed.get());
  EXPECT_EQ(repacked->bag_begin, (std::vector<size_t>{0, 1, 3, 6, 8}));
}

/// Synthetic labeled corpus with planted "incident" bags (mirrors the
/// retrieval tests).
MilDataset MakeCorpus(int n_bags, const std::set<int>& hot_bags,
                      uint64_t seed) {
  Rng rng(seed);
  MilDataset ds;
  for (int b = 0; b < n_bags; ++b) {
    MilBag bag;
    bag.id = b;
    const int n_inst = 1 + static_cast<int>(rng.UniformInt(0, 2));
    for (int i = 0; i < n_inst; ++i) {
      MilInstance inst;
      inst.bag_id = b;
      inst.instance_id = i;
      inst.features.assign(9, 0.0);
      for (auto& v : inst.features) v = std::fabs(rng.Gaussian(0.05, 0.03));
      if (hot_bags.count(b) && i == 0) {
        inst.features[3] = 0.8 + rng.Uniform(0, 0.2);
        inst.features[4] = 0.7 + rng.Uniform(0, 0.2);
        inst.features[5] = 0.6 + rng.Uniform(0, 0.2);
      }
      inst.raw_features = inst.features;
      bag.instances.push_back(std::move(inst));
    }
    ds.AddBag(std::move(bag));
  }
  return ds;
}

TEST(MilRfRankTest, BitIdenticalAcrossTiers) {
  if (!Avx2Available()) GTEST_SKIP() << "single-tier host";
  TierGuard guard;

  // The full pipeline (train + rank) under each tier, from scratch.
  auto run = [](int tier) {
    SetSimdTier(tier);
    MilDataset ds = MakeCorpus(50, {2, 11, 23}, 424242);
    MilRfEngine engine(&ds, MilRfOptions{});
    EXPECT_TRUE(ds.SetLabel(2, BagLabel::kRelevant).ok());
    EXPECT_TRUE(ds.SetLabel(23, BagLabel::kRelevant).ok());
    EXPECT_TRUE(engine.Learn().ok());
    return engine.Rank();
  };
  const auto scalar = run(static_cast<int>(SimdTier::kScalar));
  const auto avx2 = run(static_cast<int>(SimdTier::kAvx2));
  ASSERT_EQ(scalar.size(), avx2.size());
  for (size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(scalar[i].bag_id, avx2[i].bag_id) << i;
    EXPECT_EQ(scalar[i].score, avx2[i].score) << i;
  }
}

// ---------------------------------------------------------------------
// Golden pins: FNV-1a hashes of the outputs of every numeric loop that
// builds a Gram matrix, trains or evaluates an SVM, partitions a frame or
// ranks by citation. Each pin holds on every tier and at any
// MIVID_THREADS, so a rewrite of one of these loops must keep its
// per-element accumulation order to keep the bits.

/// Runs `hash` on every available tier and checks each result against
/// the golden `want`.
template <typename Fn>
void ExpectPinnedOnEveryTier(uint64_t want, const Fn& hash) {
  TierGuard guard;
  for (const SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2}) {
    if (tier == SimdTier::kAvx2 && !Avx2Available()) continue;
    SetSimdTier(static_cast<int>(tier));
    const uint64_t got = hash();
    EXPECT_EQ(got, want) << SimdTierName(tier) << std::hex << " got 0x"
                         << got;
  }
}

void HashGram(const GramMatrix& gram, Fnv1a* h) {
  for (size_t i = 0; i < gram.size(); ++i) {
    for (size_t j = 0; j < gram.size(); ++j) h->Double(gram.At(i, j));
  }
}

void HashModel(const OneClassSvmModel& model, Fnv1a* h) {
  h->Double(model.rho());
  h->Int(model.iterations_used());
  h->Int(static_cast<int64_t>(model.num_support_vectors()));
  for (const double a : model.coefficients()) h->Double(a);
}

TEST(SimdKernelsTest, GramMatrixPinned) {
  // n = 70 crosses a 32-row mirror tile and leaves a partial last tile.
  const auto points = RandomPoints(70, 9, 7);
  auto pin = [&](KernelType type, uint64_t want) {
    KernelParams params;
    params.type = type;
    ExpectPinnedOnEveryTier(want, [&] {
      Fnv1a h;
      HashGram(GramMatrix(params, points), &h);
      return h.value();
    });
  };
  pin(KernelType::kRbf, 0x87f588ada1c5da4dULL);
  pin(KernelType::kLinear, 0x97d0d7077746e4feULL);
  pin(KernelType::kPoly, 0x346f473c0fb5c9fcULL);
}

TEST(SimdKernelsTest, PairwiseSquaredDistancesPinned) {
  // The training-set distances and the RBF Gram built from them, which
  // must equal the Gram built straight from the points.
  const auto points = RandomPoints(70, 9, 11);
  ExpectPinnedOnEveryTier(0x5ec8acfe05108a95ULL, [&] {
    const Matrix d2 = PairwiseSquaredDistances(points);
    Fnv1a h;
    for (size_t i = 0; i < d2.rows(); ++i) {
      for (size_t j = 0; j < d2.cols(); ++j) h.Double(d2.At(i, j));
    }
    const GramMatrix from_d2(KernelParams{}, d2);
    HashGram(from_d2, &h);
    Fnv1a direct;
    HashGram(GramMatrix(KernelParams{}, points), &direct);
    Fnv1a via_d2;
    HashGram(from_d2, &via_d2);
    EXPECT_EQ(via_d2.value(), direct.value());
    return h.value();
  });
}

TEST(SimdKernelsTest, OneClassSvmTrainingPinned) {
  // 300 points: the SMO initial gradient spans more than 256 columns.
  const auto points = RandomPoints(300, 9, 33);
  OneClassSvmOptions options;
  options.nu = 0.25;
  ExpectPinnedOnEveryTier(0xd0caab1b2be76622ULL, [&] {
    auto model = OneClassSvmTrainer(options).Train(points);
    EXPECT_TRUE(model.ok());
    Fnv1a h;
    HashModel(*model, &h);
    return h.value();
  });
}

TEST(SimdKernelsTest, PackedDecisionValuesPinned) {
  // 200 query points: three full 64-point blocks and a partial one.
  const auto train = RandomPoints(40, 9, 5);
  const auto queries = RandomPoints(200, 9, 6);
  const PackedFeatureMatrix packed = PackRandom(queries);
  auto pin = [&](KernelType type, uint64_t want) {
    OneClassSvmOptions options;
    options.kernel.type = type;
    ExpectPinnedOnEveryTier(want, [&] {
      auto model = OneClassSvmTrainer(options).Train(train);
      EXPECT_TRUE(model.ok());
      Fnv1a h;
      HashModel(*model, &h);
      for (const double v : model->DecisionValues(packed)) h.Double(v);
      return h.value();
    });
  };
  pin(KernelType::kRbf, 0x39eec1bdcdd138e5ULL);
  pin(KernelType::kPoly, 0xc3af361098f357baULL);
}

TEST(SimdKernelsTest, SpcpePinned) {
  // A rendered tunnel frame after 150 frames of background learning.
  // Without a prior all 76 800 pixels are candidates; with the
  // background-subtraction mask as prior only the foreground is.
  auto pin = [](bool with_prior, uint64_t want) {
    ExpectPinnedOnEveryTier(want, [&] {
      TrafficWorld world(MakeTunnelScenario());
      Renderer renderer(world.spec().layout);
      VehicleSegmenter segmenter;
      PendingSegmentation pending;
      for (int f = 0; f < 150; ++f) {
        world.Step();
        pending = segmenter.Ingest(renderer.Render(world.vehicles()));
      }
      EXPECT_TRUE(pending.ready);
      const SpcpeResult result =
          with_prior ? RunSpcpe(pending.frame, &pending.mask, pending.bg_mean)
                     : RunSpcpe(pending.frame, nullptr, -1.0);
      EXPECT_GT(result.iterations, 1);
      Fnv1a h;
      h.Bytes(result.partition.data(), result.partition.size());
      h.Double(result.class_mean[0]);
      h.Double(result.class_mean[1]);
      h.Int(result.iterations);
      h.Int(result.two_classes ? 1 : 0);
      return h.value();
    });
  };
  pin(false, 0x67754e77a9e394f5ULL);
  pin(true, 0x7bee5cee5af86417ULL);
}

TEST(SimdKernelsTest, CitationKnnRankingPinned) {
  ExpectPinnedOnEveryTier(0x444a685c661b009fULL, [] {
    MilDataset ds = MakeCorpus(60, {3, 17, 29, 41}, 777);
    for (int b : {3, 29}) EXPECT_TRUE(ds.SetLabel(b, BagLabel::kRelevant).ok());
    for (int b : {10, 20}) {
      EXPECT_TRUE(ds.SetLabel(b, BagLabel::kIrrelevant).ok());
    }
    CitationKnnEngine engine(&ds, CitationKnnOptions{});
    EXPECT_TRUE(engine.Learn().ok());
    Fnv1a h;
    for (const ScoredBag& s : engine.Rank()) {
      h.Int(s.bag_id);
      h.Double(s.score);
    }
    return h.value();
  });
}

TEST(PackedCorpusIoTest, SnapshotRoundTripsAndIsAdoptedZeroCopy) {
  const std::string dir =
      (fs::temp_directory_path() / "mivid_packed_corpus_io").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/cam-1.mivpack";

  CameraCorpus corpus;
  corpus.camera_id = "cam-1";
  corpus.dataset = MakeCorpus(12, {4, 7}, 31337);
  for (int b = 0; b < 12; ++b) {
    corpus.bag_refs[b] = CorpusBagRef{1, b, 10 * b, 10 * b + 15};
    corpus.truth[b] =
        (b == 4 || b == 7) ? BagLabel::kRelevant : BagLabel::kIrrelevant;
  }
  QueryOptions query;
  ASSERT_TRUE(WritePackedCorpusFile(corpus, path, query).ok());

  auto restored = ReadPackedCorpusFile(path, query);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const CameraCorpus& got = *restored.value();
  EXPECT_EQ(got.camera_id, "cam-1");
  ASSERT_EQ(got.dataset.size(), corpus.dataset.size());
  for (size_t b = 0; b < corpus.dataset.size(); ++b) {
    const MilBag& want = corpus.dataset.bag(b);
    const MilBag& have = got.dataset.bag(b);
    EXPECT_EQ(have.id, want.id);
    ASSERT_EQ(have.instances.size(), want.instances.size());
    for (size_t i = 0; i < want.instances.size(); ++i) {
      EXPECT_EQ(have.instances[i].instance_id, want.instances[i].instance_id);
      EXPECT_EQ(have.instances[i].features, want.instances[i].features);
      EXPECT_EQ(have.instances[i].raw_features,
                want.instances[i].raw_features);
    }
  }
  EXPECT_EQ(got.bag_refs.size(), corpus.bag_refs.size());
  EXPECT_EQ(got.bag_refs.at(3).begin_frame, 30);
  EXPECT_EQ(got.truth.at(4), BagLabel::kRelevant);
  EXPECT_EQ(got.truth.at(5), BagLabel::kIrrelevant);

  // The restored dataset already carries the mapped packing, and it is
  // bit-identical to packing the restored bags from scratch.
  const auto adopted = got.dataset.EnsurePacked();
  const auto rebuilt = BuildPackedCorpus(got.dataset.bags());
  ASSERT_EQ(adopted->features.dim(), rebuilt->features.dim());
  ASSERT_EQ(adopted->features.n(), rebuilt->features.n());
  EXPECT_EQ(adopted->bag_begin, rebuilt->bag_begin);
  for (size_t k = 0; k < adopted->features.dim(); ++k) {
    for (size_t j = 0; j < adopted->features.n(); ++j) {
      EXPECT_EQ(adopted->features.At(k, j), rebuilt->features.At(k, j));
    }
  }

  // Wrong query fingerprint: rejected, never half-loaded.
  QueryOptions other = query;
  other.features.include_velocity = true;
  EXPECT_FALSE(ReadPackedCorpusFile(path, other).ok());

  // Flipped byte in the feature block: CRC catches it.
  {
    std::string bytes;
    {
      auto r = ReadFileToString(path);
      ASSERT_TRUE(r.ok());
      bytes = std::move(r).value();
    }
    bytes[4096 + 8] ^= 0x40;
    ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
    EXPECT_FALSE(ReadPackedCorpusFile(path, query).ok());
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mivid

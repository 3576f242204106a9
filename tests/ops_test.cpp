//===- tests/ops_test.cpp - operator library and network suites -----------===//

#include "ops/Networks.h"
#include "pipeline/Pipeline.h"

#include <gtest/gtest.h>

using namespace pinj;

//===----------------------------------------------------------------------===//
// Factory sanity
//===----------------------------------------------------------------------===//

TEST(OpFactory, AllFamiliesVerify) {
  EXPECT_EQ(makeFusedMulSubMulTensorAdd(16).verify(), "");
  EXPECT_EQ(makeElementwiseChain("c", 32, 33, 5, 1).verify(), "");
  EXPECT_EQ(makeBiasActivation("b", 32, 64, 2).verify(), "");
  EXPECT_EQ(makeHostileOrderCopy("h", 32, 64, 3).verify(), "");
  EXPECT_EQ(makeHostileOrderPermute3D("p", 8, 16, 32, 4).verify(), "");
  EXPECT_EQ(makeMiddlePermuted3D("m", 8, 16, 32, 5).verify(), "");
  EXPECT_EQ(makeReduceTail("r", 16, 32, 6).verify(), "");
  EXPECT_EQ(makeProducerConsumerPair("pc", 16, 32, 7).verify(), "");
}

TEST(OpFactory, ChainLengthAndSeedsVaryOps) {
  Kernel A = makeElementwiseChain("a", 16, 17, 4, 1);
  Kernel B = makeElementwiseChain("b", 16, 17, 4, 2);
  EXPECT_EQ(A.Stmts.size(), 4u);
  bool Differ = false;
  for (unsigned S = 0; S != 4; ++S)
    Differ |= A.Stmts[S].Kind != B.Stmts[S].Kind ||
              A.Stmts[S].Reads.size() != B.Stmts[S].Reads.size();
  EXPECT_TRUE(Differ);
}

//===----------------------------------------------------------------------===//
// Family classification under the pipeline (these invariants shape the
// Table II reproduction; see ops/Networks.h).
//===----------------------------------------------------------------------===//

namespace {

OperatorReport report(const Kernel &K) {
  PipelineOptions Options;
  return runOperator(K, Options);
}

} // namespace

TEST(FamilyClassification, OddChainNotInfluencedNotVec) {
  OperatorReport R = report(makeElementwiseChain("c", 64, 63, 4, 9));
  EXPECT_FALSE(R.Influenced);
  EXPECT_FALSE(R.VecEligible);
}

TEST(FamilyClassification, RunningExampleInfluencedAndVec) {
  OperatorReport R = report(makeFusedMulSubMulTensorAdd(32));
  EXPECT_TRUE(R.Influenced);
  EXPECT_TRUE(R.VecEligible);
}

TEST(FamilyClassification, HostileCopyInfluencedVecAndFaster) {
  OperatorReport R = report(makeHostileOrderCopy("h", 128, 256, 9));
  EXPECT_TRUE(R.Influenced);
  EXPECT_TRUE(R.VecEligible);
  EXPECT_LT(R.Infl.TimeUs, R.Isl.TimeUs * 0.7);
}

TEST(FamilyClassification, OddHostileInfluencedNotVec) {
  OperatorReport R = report(makeHostileOrderCopy("h", 128, 255, 9));
  EXPECT_TRUE(R.Influenced);
  EXPECT_FALSE(R.VecEligible);
  // Reordering alone still helps (the "novec" effect).
  EXPECT_LT(R.Novec.TimeUs, R.Isl.TimeUs);
}

TEST(FamilyClassification, MiddlePermutedInfluencedNearNeutral) {
  OperatorReport R = report(makeMiddlePermuted3D("m", 16, 28, 64, 9));
  EXPECT_TRUE(R.Influenced);
  EXPECT_LE(R.Infl.TimeUs, R.Isl.TimeUs * 1.1);
  EXPECT_GE(R.Infl.TimeUs, R.Isl.TimeUs * 0.7);
}

TEST(FamilyClassification, Hostile3DInfluencedAndFaster) {
  OperatorReport R = report(makeHostileOrderPermute3D("p", 16, 32, 128, 9));
  EXPECT_TRUE(R.Influenced);
  EXPECT_LT(R.Infl.TimeUs, R.Isl.TimeUs);
}

//===----------------------------------------------------------------------===//
// Network suites: Table II operator counts
//===----------------------------------------------------------------------===//

struct SuiteCounts {
  const char *Name;
  unsigned Total;
  unsigned Vec;
  unsigned Infl;
};

// Without a printer gtest lists the parameter as raw bytes, which embed
// the Name pointer and the struct padding, so the listed test names would
// change from build to build.
void PrintTo(const SuiteCounts &C, std::ostream *OS) {
  *OS << C.Name << " total=" << C.Total << " vec=" << C.Vec
      << " infl=" << C.Infl;
}

class NetworkCounts : public ::testing::TestWithParam<SuiteCounts> {};

TEST_P(NetworkCounts, MatchesTable2) {
  SuiteCounts Expected = GetParam();
  NetworkSuite Suite = makeNetworkSuite(Expected.Name);
  EXPECT_EQ(Suite.Operators.size(), Expected.Total);
  for (const Kernel &K : Suite.Operators)
    EXPECT_EQ(K.verify(), "") << K.Name;
}

INSTANTIATE_TEST_SUITE_P(
    Table2, NetworkCounts,
    ::testing::Values(SuiteCounts{"bert", 109, 53, 53},
                      SuiteCounts{"lstm", 4, 3, 3},
                      SuiteCounts{"mobilenetv2", 18, 16, 16},
                      SuiteCounts{"resnet50", 17, 10, 12},
                      SuiteCounts{"resnet101", 22, 14, 16},
                      SuiteCounts{"resnext50", 33, 21, 22},
                      SuiteCounts{"vgg16", 14, 9, 10}),
    [](const ::testing::TestParamInfo<SuiteCounts> &Info) {
      return std::string(Info.param.Name);
    });

TEST(NetworkSuites, AllNamesBuild) {
  for (const std::string &Name : allNetworkNames()) {
    NetworkSuite Suite = makeNetworkSuite(Name);
    EXPECT_FALSE(Suite.Operators.empty()) << Name;
    EXPECT_FALSE(Suite.Dataset.empty()) << Name;
  }
}

/// The full influenced/vec classification of the small suites (the BERT
/// suite is exercised by the Table II bench; here we keep test time
/// bounded).
TEST(NetworkSuites, LstmClassification) {
  NetworkSuite Suite = makeNetworkSuite("lstm");
  unsigned Infl = 0, Vec = 0;
  for (const Kernel &K : Suite.Operators) {
    OperatorReport R = report(K);
    Infl += R.Influenced;
    Vec += R.Influenced && R.VecEligible;
  }
  EXPECT_EQ(Infl, 3u);
  EXPECT_EQ(Vec, 3u);
}

TEST(NetworkSuites, ResNet50Classification) {
  NetworkSuite Suite = makeNetworkSuite("resnet50");
  unsigned Infl = 0, Vec = 0;
  for (const Kernel &K : Suite.Operators) {
    OperatorReport R = report(K);
    Infl += R.Influenced;
    Vec += R.Influenced && R.VecEligible;
  }
  EXPECT_EQ(Infl, 12u);
  EXPECT_EQ(Vec, 10u);
}

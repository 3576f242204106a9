//===- tests/exec_table2_test.cpp - Table II schedules walk ---------------===//
//
// Runs every isl, novec and infl schedule of the seven Table II suites
// (about 257M statement instances per configuration) through the
// date-order walk and the sorted fallback. It takes minutes and several
// hundred MB, so it is a tier-2 test; tests/exec_test.cpp checks the
// same suites' plans, and the corpus end to end, in tier 1.
//
//===----------------------------------------------------------------------===//

#include "DateWalkCheck.h"
#include "ops/Networks.h"
#include "pipeline/Pipeline.h"

using namespace pinj;

class TableTwoWalk : public ::testing::TestWithParam<std::string> {};

TEST_P(TableTwoWalk, SchedulesWalkBitIdenticalToSort) {
  for (const Kernel &K : makeNetworkSuite(GetParam()).Operators) {
    OperatorReport R = runOperator(K, PipelineOptions());
    ASSERT_FALSE(R.degraded()) << K.Name;
    for (const auto &[Config, S] :
         {std::pair{"isl", &R.Isl.Sched}, std::pair{"novec", &R.Novec.Sched},
          std::pair{"infl", &R.Infl.Sched}})
      EXPECT_NE(expectWalkMatchesSort(K, *S, K.Name + "/" + Config),
                DateOrder::Sorted)
          << K.Name << "/" << Config;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suites, TableTwoWalk, ::testing::ValuesIn(allNetworkNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

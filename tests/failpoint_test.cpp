//===- tests/failpoint_test.cpp - Fault-injection sweep -------------------===//
//
// Sweeps every registered fail-point through the full pipeline and
// asserts the fault-tolerance contract: runOperator never crashes, every
// configuration still carries a dependence-respecting schedule, and the
// degradation is recorded on the report (and in the sidecar record).
// Each site is swept over the running example and over a softmax-shaped
// kernel whose influence tree is abandoned, so faults also land in the
// plain rerun that shares the operator's dependence analysis.
// The service.* sites fire at the compilation daemon's own boundaries
// rather than inside the pipeline, so they get their own sweep: each
// must surface as exactly one attributed terminal response.
//
//===----------------------------------------------------------------------===//

#include "exec/Interpreter.h"
#include "ir/Printer.h"
#include "obs/Json.h"
#include "ops/OpFactory.h"
#include "pipeline/Pipeline.h"
#include "service/Daemon.h"
#include "support/FailPoint.h"

#include "TestKernels.h"

#include <gtest/gtest.h>

using namespace pinj;

namespace {

bool isServiceSite(const char *Site) {
  return std::string(Site).rfind("service.", 0) == 0;
}

/// The pipeline-stage sites: everything the runOperator degradation
/// ladder absorbs in-process.
std::vector<const char *> pipelineSites() {
  std::vector<const char *> Sites;
  for (const char *Site : failpoint::allSites())
    if (!isServiceSite(Site))
      Sites.push_back(Site);
  return Sites;
}

/// The daemon-boundary sites, swept through service::Daemon below.
std::vector<const char *> serviceSites() {
  std::vector<const char *> Sites;
  for (const char *Site : failpoint::allSites())
    if (isServiceSite(Site))
      Sites.push_back(Site);
  return Sites;
}

/// Exact schedule validity (same oracle as sched_test / fuzz_test).
bool scheduleRespects(const Kernel &K, const Schedule &S,
                      const DependenceRelation &D) {
  AffineSet Remaining = D.Rel;
  for (unsigned Dim = 0, E = S.numDims(); Dim != E; ++Dim) {
    if (Remaining.isEmpty())
      return true;
    IntVector Diff = S.differenceExpr(K, D, Dim);
    if (!Remaining.isAlwaysAtLeast(Diff, 0))
      return false;
    if (Remaining.isAlwaysAtLeast(Diff, 1))
      return true;
    Remaining.addEq(Diff);
  }
  return Remaining.isEmpty();
}

bool isValidSchedule(const Kernel &K, const Schedule &S) {
  for (const DependenceRelation &D : computeDependences(K))
    if (D.constrainsValidity() && !scheduleRespects(K, S, D))
      return false;
  return true;
}

/// The kernels every pipeline site is swept over.
std::vector<Kernel> sweepKernels() {
  return {makeRunningExample(8), makeSoftmaxLike("softmax_like", 48, 96)};
}

} // namespace

class FailPointSweep : public ::testing::TestWithParam<const char *> {
protected:
  void TearDown() override { failpoint::clearAll(); }
};

TEST_P(FailPointSweep, PipelineSurvivesAndRecordsDegradation) {
  const char *Site = GetParam();
  for (const Kernel &K : sweepKernels()) {
    SCOPED_TRACE(K.Name);
    PipelineOptions Options;
    Options.Validate = true;
    obs::ReportSink Sink;
    Options.Sink = &Sink;

    failpoint::activate(Site);
    ASSERT_TRUE(failpoint::isActive(Site));
    OperatorReport R = runOperator(K, Options);
    failpoint::clearAll();

    // The fault must surface as a recorded degradation attributed to the
    // injected site, never as a crash or a silent wrong answer.
    ASSERT_TRUE(R.degraded()) << Site;
    bool Attributed = false;
    for (const DegradationEvent &E : R.Degradations) {
      EXPECT_FALSE(E.Config.empty());
      if (E.Site == Site && E.Code == StatusCode::InjectedFault)
        Attributed = true;
    }
    EXPECT_TRUE(Attributed) << "no degradation attributed to " << Site;

    // Whatever the ladder substituted, the schedules must still respect
    // every dependence (checked with the fault cleared, so the oracle
    // itself cannot trip it).
    EXPECT_TRUE(isValidSchedule(K, R.Isl.Sched)) << Site;
    EXPECT_TRUE(isValidSchedule(K, R.Novec.Sched)) << Site;
    EXPECT_TRUE(isValidSchedule(K, R.Infl.Sched)) << Site;
    EXPECT_TRUE(scheduleIsSemanticallyEqual(K, R.Infl.Sched)) << Site;

    // The sidecar record carries the same degradations.
    ASSERT_EQ(Sink.operators().size(), 1u);
    EXPECT_EQ(Sink.operators()[0].Degradations.size(), R.Degradations.size());
  }
}

// The sweep's second kernel must reach the plain rerun when healthy.
TEST(FailPoint, SweepKernelAbandonsItsTree) {
  Kernel K = sweepKernels().back();
  OperatorReport R = runOperator(K, PipelineOptions());
  EXPECT_FALSE(R.degraded());
  EXPECT_TRUE(R.Novec.Stats.TreeAbandoned);
}

INSTANTIATE_TEST_SUITE_P(PipelineSites, FailPointSweep,
                         ::testing::ValuesIn(pipelineSites()));

/// The daemon-boundary contract: with a service.* site active, every
/// submitted line still gets exactly one terminal response, and (except
/// for the drain site, which must make progress regardless) that
/// response is an error attributed to the injected site.
class DaemonFailPointSweep : public ::testing::TestWithParam<const char *> {
protected:
  void TearDown() override { failpoint::clearAll(); }
};

TEST_P(DaemonFailPointSweep, OneAttributedTerminalResponse) {
  const char *Site = GetParam();
  service::DaemonConfig Cfg;
  Cfg.Sync = true;

  std::vector<std::string> Lines;
  service::Daemon D(Cfg);
  D.start([&Lines](const std::string &L) { Lines.push_back(L); });

  std::string Error;
  std::optional<std::string> Text = printPinj(makeElementwise(6, 6), Error);
  ASSERT_TRUE(Text.has_value()) << Error;
  std::string Request =
      "{\"id\":\"r1\",\"kernel\":\"" + obs::json::escape(*Text) + "\"}";

  failpoint::activate(Site);
  D.submitLine(Request);

  if (std::string(Site) == "service.drain") {
    // The drain fail-point fires inside drainAndStop; the compile
    // itself succeeds, and the faulted drain must still drain cleanly
    // without producing or dropping responses.
    ASSERT_EQ(1u, Lines.size());
    EXPECT_NE(std::string::npos, Lines[0].find("\"status\":\"ok\""))
        << Lines[0];
    D.drainAndStop();
    EXPECT_EQ(1u, Lines.size());
    EXPECT_TRUE(D.cleanDrain());
    EXPECT_EQ(1u, D.stats().Responses);
  } else {
    ASSERT_EQ(1u, Lines.size());
    EXPECT_NE(std::string::npos, Lines[0].find("\"status\":\"error\""))
        << Lines[0];
    EXPECT_NE(std::string::npos, Lines[0].find(Site))
        << "response not attributed to " << Site << ": " << Lines[0];
    EXPECT_EQ(1u, D.stats().FaultResponses);
    failpoint::clearAll();
    D.drainAndStop();
    EXPECT_EQ(1u, Lines.size());
  }
}

INSTANTIATE_TEST_SUITE_P(ServiceSites, DaemonFailPointSweep,
                         ::testing::ValuesIn(serviceSites()));

TEST(FailPoint, CatalogAndActivationApi) {
  ASSERT_GE(failpoint::allSites().size(), 10u);
  for (const char *Site : failpoint::allSites())
    EXPECT_FALSE(failpoint::isActive(Site)) << Site;

  failpoint::activate("lp.simplex");
  EXPECT_TRUE(failpoint::isActive("lp.simplex"));
  EXPECT_THROW(failpoint::hit("lp.simplex"), RecoverableError);
  failpoint::deactivate("lp.simplex");
  EXPECT_FALSE(failpoint::isActive("lp.simplex"));
  EXPECT_NO_THROW(failpoint::hit("lp.simplex"));
}

TEST(FailPoint, InjectedFaultCarriesSite) {
  failpoint::activate("poly.farkas");
  try {
    failpoint::hit("poly.farkas");
    FAIL() << "fail-point did not fire";
  } catch (const RecoverableError &E) {
    EXPECT_EQ(E.status().code(), StatusCode::InjectedFault);
    EXPECT_EQ(E.status().site(), "poly.farkas");
  }
  failpoint::clearAll();
}

TEST(FailPoint, CleanRunHasNoDegradations) {
  Kernel K = makeRunningExample(8);
  PipelineOptions Options;
  Options.Validate = true;
  OperatorReport R = runOperator(K, Options);
  EXPECT_FALSE(R.degraded());
  EXPECT_TRUE(R.Validated);
  EXPECT_TRUE(R.Isl.Outcome.ok());
  EXPECT_TRUE(R.Novec.Outcome.ok());
  EXPECT_TRUE(R.Infl.Outcome.ok());
}

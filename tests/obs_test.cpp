//===- tests/obs_test.cpp - observability subsystem tests -----------------===//

#include "obs/Exposition.h"
#include "obs/Journal.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Report.h"
#include "obs/Trace.h"
#include "pipeline/Pipeline.h"
#include "TestKernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <thread>

using namespace pinj;

namespace {

/// Enables JSON span buffering for one test and restores the previous
/// tracer state afterwards (the tracer is process-wide and other suites
/// run in the same binary).
class TracerGuard {
public:
  TracerGuard() {
    obs::tracer().disable();
    obs::tracer().reset();
    obs::tracer().enable(obs::Tracer::Json);
  }
  ~TracerGuard() {
    obs::tracer().disable();
    obs::tracer().reset();
  }
};

/// Checks that every event nests inside the closest preceding event of
/// smaller depth (events are stored in open order).
void expectContainment(const std::vector<obs::TraceEvent> &Events) {
  std::vector<const obs::TraceEvent *> Stack;
  for (const obs::TraceEvent &E : Events) {
    ASSERT_TRUE(E.Closed) << E.Name;
    while (!Stack.empty() && Stack.back()->Depth >= E.Depth)
      Stack.pop_back();
    if (!Stack.empty()) {
      const obs::TraceEvent &Parent = *Stack.back();
      EXPECT_GE(E.BeginUs, Parent.BeginUs - 1e-6)
          << E.Name << " starts before parent " << Parent.Name;
      EXPECT_LE(E.BeginUs + E.DurUs, Parent.BeginUs + Parent.DurUs + 1e-6)
          << E.Name << " ends after parent " << Parent.Name;
    }
    Stack.push_back(&E);
  }
}

unsigned countEvents(const std::vector<obs::TraceEvent> &Events,
                     const std::string &Name) {
  unsigned N = 0;
  for (const obs::TraceEvent &E : Events)
    if (E.Name == Name)
      ++N;
  return N;
}

/// Enables the journal for one test and restores the disabled, empty
/// state afterwards (the journal is process-wide like the tracer).
class JournalGuard {
public:
  explicit JournalGuard(std::size_t Capacity =
                            obs::Journal::DefaultRingCapacity) {
    obs::journal().disable();
    obs::journal().closeFile();
    obs::journal().reset();
    obs::journal().enable(Capacity);
  }
  ~JournalGuard() {
    obs::journal().disable();
    obs::journal().closeFile();
    obs::journal().reset();
  }
};

/// Fieldwise equality of two histogram summaries (exact: merge is
/// defined to be lossless on these fields).
void expectSummariesEqual(const obs::HistogramSummary &A,
                          const obs::HistogramSummary &B) {
  EXPECT_EQ(A.Count, B.Count);
  EXPECT_DOUBLE_EQ(A.Sum, B.Sum);
  EXPECT_DOUBLE_EQ(A.Min, B.Min);
  EXPECT_DOUBLE_EQ(A.Max, B.Max);
  EXPECT_EQ(A.Buckets, B.Buckets);
}

} // namespace

//===----------------------------------------------------------------------===//
// Tracer and Span
//===----------------------------------------------------------------------===//

TEST(Trace, SpanNestingAndOrdering) {
  TracerGuard Guard;
  {
    obs::Span Outer("outer");
    {
      obs::Span A("child_a");
      A.arg("k", 1);
    }
    {
      obs::Span B("child_b");
      { obs::Span C("grandchild"); }
    }
  }
  const std::vector<obs::TraceEvent> &Events = obs::tracer().events();
  ASSERT_EQ(Events.size(), 4u);
  // Open order: parents before children.
  EXPECT_EQ(Events[0].Name, "outer");
  EXPECT_EQ(Events[1].Name, "child_a");
  EXPECT_EQ(Events[2].Name, "child_b");
  EXPECT_EQ(Events[3].Name, "grandchild");
  EXPECT_EQ(Events[0].Depth, 0u);
  EXPECT_EQ(Events[1].Depth, 1u);
  EXPECT_EQ(Events[2].Depth, 1u);
  EXPECT_EQ(Events[3].Depth, 2u);
  expectContainment(Events);
  // Siblings do not overlap: child_a closed before child_b opened.
  EXPECT_LE(Events[1].BeginUs + Events[1].DurUs, Events[2].BeginUs + 1e-6);
}

TEST(Trace, DisabledSpansCostNothingAndRecordNothing) {
  obs::tracer().disable();
  obs::tracer().reset();
  {
    obs::Span S("invisible");
    EXPECT_FALSE(S.active());
    S.arg("k", 42); // Must be a no-op, not a crash.
  }
  EXPECT_TRUE(obs::tracer().events().empty());
}

TEST(Trace, JsonIsWellFormedChromeTrace) {
  TracerGuard Guard;
  {
    obs::Span S("phase \"quoted\"\\slash");
    S.arg("kernel", "mm\n").arg("n", 3).arg("ratio", 0.5).arg("ok", true);
  }
  std::string Error;
  std::optional<obs::json::Value> Doc =
      obs::json::parse(obs::tracer().json(), Error);
  ASSERT_TRUE(Doc) << Error;
  const obs::json::Value *Events = Doc->find("traceEvents");
  ASSERT_TRUE(Events && Events->isArray());
  // The stream opens with process/thread metadata ("M" phase) so viewers
  // label the track, followed by the one complete span.
  unsigned Metadata = 0;
  const obs::json::Value *Span = nullptr;
  for (const obs::json::Value &Ev : Events->Items) {
    if (Ev.at("ph").Str == "M") {
      const std::string &MName = Ev.at("name").Str;
      EXPECT_TRUE(MName == "process_name" || MName == "thread_name")
          << MName;
      ++Metadata;
      continue;
    }
    ASSERT_EQ(Span, nullptr) << "more than one span event";
    Span = &Ev;
  }
  EXPECT_GE(Metadata, 2u);
  ASSERT_TRUE(Span);
  const obs::json::Value &E = *Span;
  EXPECT_EQ(E.at("name").Str, "phase \"quoted\"\\slash");
  EXPECT_EQ(E.at("ph").Str, "X");
  EXPECT_TRUE(E.at("ts").isNumber());
  EXPECT_TRUE(E.at("dur").isNumber());
  EXPECT_GE(E.at("dur").Num, 0);
  const obs::json::Value &Args = E.at("args");
  ASSERT_TRUE(Args.isObject());
  EXPECT_EQ(Args.at("kernel").Str, "mm\n");
  EXPECT_EQ(Args.at("n").Num, 3);
  EXPECT_EQ(Args.at("ratio").Num, 0.5);
  EXPECT_TRUE(Args.at("ok").BoolVal);
}

TEST(Trace, ResetDropsEventsAndSurvivesOpenSpan) {
  TracerGuard Guard;
  {
    obs::Span S("dropped");
    obs::tracer().reset(); // Destructor must tolerate the stale index.
  }
  EXPECT_TRUE(obs::tracer().events().empty());
}

//===----------------------------------------------------------------------===//
// JSON parser
//===----------------------------------------------------------------------===//

TEST(Json, ParsesScalarsArraysObjects) {
  std::string Error;
  std::optional<obs::json::Value> V = obs::json::parse(
      " {\"a\": [1, -2.5, 1e2], \"b\": {\"c\": null, \"d\": false}, "
      "\"s\": \"x\\u0041\\n\"} ",
      Error);
  ASSERT_TRUE(V) << Error;
  const obs::json::Value &A = V->at("a");
  ASSERT_TRUE(A.isArray());
  ASSERT_EQ(A.Items.size(), 3u);
  EXPECT_EQ(A.Items[0].Num, 1);
  EXPECT_EQ(A.Items[1].Num, -2.5);
  EXPECT_EQ(A.Items[2].Num, 100);
  EXPECT_TRUE(V->at("b").at("c").isNull());
  EXPECT_FALSE(V->at("b").at("d").BoolVal);
  EXPECT_EQ(V->at("s").Str, "xA\n");
}

TEST(Json, RejectsMalformedInput) {
  std::string Error;
  EXPECT_FALSE(obs::json::parse("{\"a\":}", Error));
  EXPECT_FALSE(obs::json::parse("[1, 2", Error));
  EXPECT_FALSE(obs::json::parse("{} trailing", Error));
  EXPECT_FALSE(obs::json::parse("", Error));
  EXPECT_FALSE(Error.empty());
}

TEST(Json, EscapeRoundTrips) {
  std::string Raw = "tab\t quote\" back\\ newline\n ctrl\x01";
  std::string Error;
  std::optional<obs::json::Value> V =
      obs::json::parse("\"" + obs::json::escape(Raw) + "\"", Error);
  ASSERT_TRUE(V) << Error;
  EXPECT_EQ(V->Str, Raw);
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(Metrics, CounterAccuracyAndSnapshotDiff) {
  obs::MetricsRegistry &M = obs::metrics();
  obs::Counter &C = M.counter("test.obs_counter");
  obs::MetricsSnapshot Before = M.snapshot();
  C.inc();
  C.add(9);
  obs::MetricsSnapshot After = M.snapshot();
  EXPECT_EQ(After.since(Before).counter("test.obs_counter"), 10u);
  // Absent names read as zero.
  EXPECT_EQ(After.counter("test.never_created"), 0u);
}

TEST(Metrics, HistogramAccuracy) {
  obs::Histogram &H = obs::metrics().histogram("test.obs_hist");
  H.reset();
  H.observe(1);
  H.observe(3);
  H.observe(8);
  obs::HistogramSummary Live = H.summary();
  EXPECT_EQ(Live.Count, 3u);
  EXPECT_EQ(Live.Sum, 12);
  EXPECT_EQ(Live.Min, 1);
  EXPECT_EQ(Live.Max, 8);
  EXPECT_EQ(Live.mean(), 4);
  obs::MetricsSnapshot S = obs::metrics().snapshot();
  const obs::HistogramSummary *Sum = S.histogram("test.obs_hist");
  ASSERT_TRUE(Sum);
  EXPECT_EQ(Sum->Count, 3u);
  EXPECT_EQ(Sum->Sum, 12);
}

TEST(Metrics, ResetKeepsCachedReferencesValid) {
  obs::MetricsRegistry &M = obs::metrics();
  obs::Counter &C = M.counter("test.obs_reset");
  C.add(5);
  obs::MetricsSnapshot Mid = M.snapshot();
  EXPECT_GE(Mid.counter("test.obs_reset"), 5u);
  M.reset();
  // The same reference must still work after reset() (hot call sites
  // cache these in function-local statics).
  EXPECT_EQ(C.value(), 0u);
  C.inc();
  EXPECT_EQ(M.snapshot().counter("test.obs_reset"), 1u);
}

TEST(Metrics, SnapshotJsonParsesBack) {
  obs::MetricsRegistry &M = obs::metrics();
  M.counter("test.obs_json").add(7);
  M.histogram("test.obs_json_hist").observe(2);
  obs::MetricsSnapshot S = M.snapshot();
  std::string Error;
  std::optional<obs::json::Value> Doc = obs::json::parse(S.json(), Error);
  ASSERT_TRUE(Doc) << Error;
  EXPECT_EQ(Doc->at("counters").at("test.obs_json").Num, 7);
  EXPECT_EQ(Doc->at("histograms").at("test.obs_json_hist").at("count").Num,
            1);
  // table() lists the nonzero entries.
  EXPECT_NE(S.table().find("test.obs_json"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Histogram buckets, percentiles and merging
//===----------------------------------------------------------------------===//

TEST(Metrics, BucketSchemeIsFixedAndTotal) {
  using H = obs::Histogram;
  // Sub-1 samples (and garbage) land in bucket 0.
  EXPECT_EQ(H::bucketIndex(0), 0u);
  EXPECT_EQ(H::bucketIndex(0.99), 0u);
  EXPECT_EQ(H::bucketIndex(-5), 0u);
  // Quarter-octave spacing: 1 opens bucket 1, each doubling spans 4.
  EXPECT_EQ(H::bucketIndex(1), 1u);
  EXPECT_EQ(H::bucketIndex(2), 5u);
  EXPECT_EQ(H::bucketIndex(4), 9u);
  // Every bucket interval is nonempty and its geometric midpoint maps
  // back to the bucket (midpoints avoid FP sensitivity at boundaries).
  for (unsigned I = 0; I != H::NumBuckets; ++I) {
    double Lo = H::bucketLowerBound(I);
    double Hi = H::bucketUpperBound(I);
    ASSERT_LT(Lo, Hi) << I;
    double Mid = I == 0 ? (Lo + Hi) / 2 : std::sqrt(Lo * Hi);
    EXPECT_EQ(H::bucketIndex(Mid), I) << "midpoint of bucket " << I;
  }
  // The last bucket absorbs anything beyond its nominal bound.
  EXPECT_EQ(H::bucketIndex(1e300), H::NumBuckets - 1);
}

TEST(Metrics, PercentilesWithinBucketErrorOnUniformData) {
  obs::Histogram H;
  for (int I = 1; I <= 10000; ++I)
    H.observe(I);
  obs::HistogramSummary S = H.summary();
  // Quarter-octave buckets bound the relative error at ~19%.
  for (double Q : {50.0, 90.0, 99.0}) {
    double True = Q * 100.0; // The Q-th percentile of 1..10000.
    double Est = S.percentile(Q);
    EXPECT_NEAR(Est, True, 0.19 * True) << "p" << Q;
  }
  // The estimate is clamped to the observed range at the extremes.
  EXPECT_GE(S.percentile(0), 1.0);
  EXPECT_LE(S.percentile(100), 10000.0);
}

TEST(Metrics, SingleSamplePercentilesAreExact) {
  obs::Histogram H;
  H.observe(42);
  obs::HistogramSummary S = H.summary();
  // Clamping to [Min, Max] collapses every percentile onto the sample.
  EXPECT_DOUBLE_EQ(S.percentile(0), 42);
  EXPECT_DOUBLE_EQ(S.percentile(50), 42);
  EXPECT_DOUBLE_EQ(S.percentile(100), 42);
}

TEST(Metrics, SummaryMergeIsAssociativeAndLossless) {
  // Three disjoint sample sets, as if from three fleet processes.
  obs::Histogram HA, HB, HC, HAll;
  for (int I = 1; I <= 50; ++I) {
    HA.observe(I);
    HAll.observe(I);
  }
  for (int I = 1000; I <= 1100; I += 10) {
    HB.observe(I);
    HAll.observe(I);
  }
  for (double V : {0.25, 0.5, 7.5}) {
    HC.observe(V);
    HAll.observe(V);
  }
  obs::HistogramSummary A = HA.summary(), B = HB.summary(),
                        C = HC.summary();
  // (A + B) + C.
  obs::HistogramSummary Left = A;
  Left.merge(B);
  Left.merge(C);
  // A + (B + C).
  obs::HistogramSummary BC = B;
  BC.merge(C);
  obs::HistogramSummary Right = A;
  Right.merge(BC);
  expectSummariesEqual(Left, Right);
  // And either order equals observing everything in one histogram.
  expectSummariesEqual(Left, HAll.summary());
  // Merging an empty summary is the identity.
  obs::HistogramSummary Empty;
  obs::HistogramSummary WithEmpty = Left;
  WithEmpty.merge(Empty);
  expectSummariesEqual(WithEmpty, Left);
}

//===----------------------------------------------------------------------===//
// Exposition format
//===----------------------------------------------------------------------===//

TEST(Exposition, NameSanitization) {
  EXPECT_EQ(obs::expositionName("lp.ilp_solves"), "pinj_lp_ilp_solves");
  EXPECT_EQ(obs::expositionName("weird-name:x/y"), "pinj_weird_name_x_y");
  EXPECT_EQ(obs::expositionName(""), "pinj_");
}

TEST(Exposition, RendersCountersAndCumulativeHistograms) {
  obs::MetricsSnapshot S;
  S.Counters["test.expo_counter"] = 7;
  obs::Histogram H;
  H.observe(0.5);
  H.observe(0.5);
  H.observe(100);
  S.Histograms["test.expo_hist"] = H.summary();
  std::string Out = obs::renderExposition(S);
  EXPECT_NE(Out.find("# TYPE pinj_test_expo_counter counter\n"
                     "pinj_test_expo_counter 7\n"),
            std::string::npos);
  EXPECT_NE(Out.find("# TYPE pinj_test_expo_hist histogram\n"),
            std::string::npos);
  // Cumulative le-series: the two sub-1 samples close at le="1.0", the
  // +Inf bucket and _count carry the total, _sum the exact total.
  EXPECT_NE(Out.find("pinj_test_expo_hist_bucket{le=\"1.0\"} 2\n"),
            std::string::npos);
  EXPECT_NE(Out.find("pinj_test_expo_hist_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(Out.find("pinj_test_expo_hist_sum 101.0\n"), std::string::npos);
  EXPECT_NE(Out.find("pinj_test_expo_hist_count 3\n"), std::string::npos);
}

TEST(Exposition, WriterLeavesFinalSnapshotOnStop) {
  namespace fs = std::filesystem;
  fs::path Path = fs::temp_directory_path() / "pinj_obs_test_expo.prom";
  std::error_code Ec;
  fs::remove(Path, Ec);
  obs::metrics().counter("test.expo_writer").inc();
  {
    obs::ExpositionWriter Writer;
    Writer.start(Path.string(), /*IntervalMs=*/60000);
    EXPECT_TRUE(Writer.running());
    // stop() performs one final write even when no interval elapsed.
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(Text.find("pinj_test_expo_writer 1"), std::string::npos);
  fs::remove(Path, Ec);
}

//===----------------------------------------------------------------------===//
// ReportSink
//===----------------------------------------------------------------------===//

TEST(Report, SinkJsonParsesBack) {
  obs::ReportSink Sink;
  obs::OperatorRecord Op;
  Op.Name = "mm";
  Op.Influenced = true;
  obs::ConfigRecord Cfg;
  Cfg.Name = "infl";
  Cfg.TimeUs = 12.5;
  Cfg.Transactions = 64;
  Cfg.Metrics.Counters["lp.ilp_solves"] = 4;
  Op.Configs.push_back(Cfg);
  Sink.add(Op);
  std::string Error;
  std::optional<obs::json::Value> Doc = obs::json::parse(Sink.json(), Error);
  ASSERT_TRUE(Doc) << Error;
  const obs::json::Value *Ops = Doc->find("operators");
  ASSERT_TRUE(Ops && Ops->isArray());
  ASSERT_EQ(Ops->Items.size(), 1u);
  const obs::json::Value &O = Ops->Items[0];
  EXPECT_EQ(O.at("name").Str, "mm");
  EXPECT_TRUE(O.at("influenced").BoolVal);
  const obs::json::Value *Configs = O.find("configs");
  ASSERT_TRUE(Configs && Configs->isArray());
  ASSERT_EQ(Configs->Items.size(), 1u);
  EXPECT_EQ(Configs->Items[0].at("time_us").Num, 12.5);
  EXPECT_EQ(
      Configs->Items[0].at("metrics").at("counters").at("lp.ilp_solves").Num,
      4);
}

//===----------------------------------------------------------------------===//
// Pipeline integration
//===----------------------------------------------------------------------===//

TEST(ObsPipeline, TraceCoversAllPhasesWithContainment) {
  TracerGuard Guard;
  Kernel K = makeRunningExample(16);
  PipelineOptions Options;
  runOperator(K, Options);
  const std::vector<obs::TraceEvent> &Events = obs::tracer().events();
  EXPECT_EQ(countEvents(Events, "pipeline.operator"), 1u);
  EXPECT_GE(countEvents(Events, "poly.dependences"), 1u);
  EXPECT_GE(countEvents(Events, "sched.schedule"), 2u); // isl + influenced
  EXPECT_GE(countEvents(Events, "sched.dim"), 2u); // one per dimension
  EXPECT_GE(countEvents(Events, "sched.ilp"), 1u);
  EXPECT_GE(countEvents(Events, "influence.scenarios"), 1u);
  EXPECT_GE(countEvents(Events, "codegen.map_to_gpu"), 1u);
  EXPECT_GE(countEvents(Events, "gpusim.simulate"), 3u); // isl/novec/infl
  expectContainment(Events);
  // Every event sits inside the root pipeline.operator span.
  const obs::TraceEvent &Root = Events.front();
  ASSERT_EQ(Root.Name, "pipeline.operator");
  for (const obs::TraceEvent &E : Events) {
    EXPECT_GE(E.BeginUs, Root.BeginUs - 1e-6) << E.Name;
    EXPECT_LE(E.BeginUs + E.DurUs, Root.BeginUs + Root.DurUs + 1e-6)
        << E.Name;
  }
  // And the whole trace serializes to parseable Chrome JSON.
  std::string Error;
  ASSERT_TRUE(obs::json::parse(obs::tracer().json(), Error)) << Error;
}

TEST(ObsPipeline, RunOperatorAttributesMetricsAndFillsSink) {
  Kernel K = makeRunningExample(16);
  PipelineOptions Options;
  obs::ReportSink Sink;
  Options.Sink = &Sink;
  OperatorReport R = runOperator(K, Options);
  // The reference configuration solved ILPs while scheduling.
  EXPECT_GT(R.Isl.Metrics.counter("lp.ilp_solves"), 0u);
  EXPECT_GT(R.Isl.Metrics.counter("lp.simplex_pivots"), 0u);
  // Simulation counted warps and memory transactions.
  EXPECT_GT(R.Metrics.counter("gpusim.transactions"), 0u);
  EXPECT_GT(R.Metrics.counter("gpusim.warps_simulated"), 0u);
  EXPECT_GT(R.Metrics.counter("poly.dependences_computed"), 0u);
  // The whole-operator delta dominates any per-config delta.
  EXPECT_GE(R.Metrics.counter("lp.ilp_solves"),
            R.Isl.Metrics.counter("lp.ilp_solves"));
  // The sink got exactly this operator.
  ASSERT_EQ(Sink.operators().size(), 1u);
  EXPECT_EQ(Sink.operators()[0].Name, K.Name);
  ASSERT_EQ(Sink.operators()[0].Configs.size(), 4u);
  EXPECT_EQ(Sink.operators()[0].Configs[0].Name, "isl");
  EXPECT_GT(Sink.operators()[0].Configs[0].Transactions, 0);
  // The stats table mentions every configuration.
  std::string Table = printStatsTable(R);
  EXPECT_NE(Table.find("isl"), std::string::npos);
  EXPECT_NE(Table.find("novec"), std::string::npos);
  EXPECT_NE(Table.find("infl"), std::string::npos);
  EXPECT_NE(Table.find("tvm"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Journal
//===----------------------------------------------------------------------===//

TEST(Journal, DisabledEventsCostNothingAndRecordNothing) {
  obs::journal().disable();
  obs::journal().reset();
  {
    obs::JournalEvent E("invisible");
    EXPECT_FALSE(E.active());
    E.field("k", 1).field("s", "x"); // Must be a no-op, not a crash.
  }
  EXPECT_EQ(obs::journal().size(), 0u);
  EXPECT_TRUE(obs::journal().snapshot().empty());
}

TEST(Journal, RingEvictsOldestAndCountsDrops) {
  JournalGuard Guard(/*Capacity=*/4);
  for (int I = 0; I != 6; ++I)
    obs::JournalEvent("ev").field("i", I);
  EXPECT_EQ(obs::journal().size(), 4u);
  EXPECT_EQ(obs::journal().dropped(), 2u);
  std::vector<obs::JournalRecord> Snap = obs::journal().snapshot();
  ASSERT_EQ(Snap.size(), 4u);
  // Oldest first; records 0 and 1 were evicted.
  EXPECT_EQ(Snap.front().Fields.at(0).Value, "2");
  EXPECT_EQ(Snap.back().Fields.at(0).Value, "5");
}

TEST(Journal, RecordJsonlParsesBackTyped) {
  JournalGuard Guard;
  obs::RequestScope Scope("r-test-0001");
  obs::JournalEvent("solve_end")
      .field("status", "optimal \"quoted\"\nline")
      .field("nodes", 17)
      .field("neg", -3)
      .field("big", std::uint64_t(1) << 40)
      .field("ok", true)
      .field("ratio", 2.5);
  std::vector<obs::JournalRecord> Snap = obs::journal().snapshot();
  ASSERT_EQ(Snap.size(), 1u);
  std::string Error;
  std::optional<obs::json::Value> Doc =
      obs::json::parse(Snap[0].jsonl(), Error);
  ASSERT_TRUE(Doc) << Error;
  EXPECT_TRUE(Doc->at("ts_us").isNumber());
  EXPECT_GE(Doc->at("ts_us").Num, 0);
  EXPECT_EQ(Doc->at("request_id").Str, "r-test-0001");
  EXPECT_EQ(Doc->at("type").Str, "solve_end");
  EXPECT_EQ(Doc->at("status").Str, "optimal \"quoted\"\nline");
  EXPECT_EQ(Doc->at("nodes").Num, 17);
  EXPECT_EQ(Doc->at("neg").Num, -3);
  EXPECT_EQ(Doc->at("big").Num, static_cast<double>(std::uint64_t(1) << 40));
  EXPECT_TRUE(Doc->at("ok").BoolVal);
  EXPECT_EQ(Doc->at("ratio").Num, 2.5);
}

TEST(Journal, RequestIdsAreUniqueAndScoped) {
  std::string A = obs::nextRequestId();
  std::string B = obs::nextRequestId();
  EXPECT_NE(A, B);
  EXPECT_EQ(A[0], 'r');
  EXPECT_NE(A.find('-'), std::string::npos);
  // Ids share the per-process token (the part before the sequence).
  EXPECT_EQ(A.substr(0, A.find('-')), B.substr(0, B.find('-')));
  // Scopes nest and restore.
  EXPECT_EQ(obs::currentRequestId(), "");
  {
    obs::RequestScope Outer(A);
    EXPECT_EQ(obs::currentRequestId(), A);
    {
      obs::RequestScope Inner(B);
      EXPECT_EQ(obs::currentRequestId(), B);
    }
    EXPECT_EQ(obs::currentRequestId(), A);
  }
  EXPECT_EQ(obs::currentRequestId(), "");
}

TEST(Journal, FileSinkWritesOneParseableLinePerRecord) {
  namespace fs = std::filesystem;
  fs::path Path = fs::temp_directory_path() / "pinj_obs_test_journal.jsonl";
  std::error_code Ec;
  fs::remove(Path, Ec);
  JournalGuard Guard;
  std::string Error;
  ASSERT_TRUE(obs::journal().openFile(Path.string(), Error)) << Error;
  {
    obs::RequestScope Scope(obs::nextRequestId());
    obs::JournalEvent("request_start").field("operator", "mm");
    obs::JournalEvent("request_end").field("dur_us", 12);
  }
  obs::journal().closeFile();
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::string Line;
  unsigned Lines = 0;
  while (std::getline(In, Line)) {
    ++Lines;
    std::optional<obs::json::Value> Doc = obs::json::parse(Line, Error);
    ASSERT_TRUE(Doc) << Error << " in: " << Line;
    EXPECT_TRUE(Doc->at("type").isString());
  }
  EXPECT_EQ(Lines, 2u);
  // A sink on a path that cannot be created reports the error.
  EXPECT_FALSE(obs::journal().openFile("/nonexistent-dir/x/y.jsonl", Error));
  EXPECT_FALSE(Error.empty());
  fs::remove(Path, Ec);
}

// The batch compiler journals from concurrent workers; under the
// POLYINJECT_SANITIZE=thread build this doubles as the data-race check.
TEST(Journal, ConcurrentEmitIsThreadSafe) {
  JournalGuard Guard;
  constexpr unsigned Threads = 8;
  constexpr unsigned PerThread = 250;
  std::vector<std::string> Ids;
  for (unsigned T = 0; T != Threads; ++T)
    Ids.push_back(obs::nextRequestId());
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      obs::RequestScope Scope(Ids[T]);
      for (unsigned I = 0; I != PerThread; ++I)
        obs::JournalEvent("tick").field("i", I);
    });
  for (std::thread &Th : Pool)
    Th.join();
  std::vector<obs::JournalRecord> Snap = obs::journal().snapshot();
  ASSERT_EQ(Snap.size(), Threads * PerThread);
  std::map<std::string, unsigned> PerId;
  for (const obs::JournalRecord &R : Snap)
    ++PerId[R.RequestId];
  ASSERT_EQ(PerId.size(), Threads);
  for (const auto &[Id, N] : PerId)
    EXPECT_EQ(N, PerThread) << Id;
}

TEST(Journal, StageEndPerPipelineStageMatchesReport) {
  // One stage_end per stage, in pipeline order, with a fixed field list;
  // a configuration stage reports its own metrics' solver effort, and the
  // five stages' effort adds up to the operator's. This operator's ILPs
  // branch, so nodes and solves differ.
  JournalGuard Guard;
  Kernel K = makeGatherReduction(8);
  PipelineOptions Options;
  Options.Validate = true;
  OperatorReport R = runOperator(K, Options);
  std::vector<obs::JournalRecord> Stages;
  for (obs::JournalRecord &Rec : obs::journal().snapshot())
    if (Rec.Type == "stage_end")
      Stages.push_back(std::move(Rec));
  const char *Names[] = {"isl", "novec", "infl", "tvm", "validate"};
  const ConfigResult *Configs[] = {&R.Isl, &R.Novec, &R.Infl};
  const char *Counters[] = {"lp.ilp_nodes", "lp.ilp_solves",
                            "lp.simplex_pivots"};
  std::uint64_t StageSums[3] = {};
  ASSERT_EQ(Stages.size(), 5u);
  for (unsigned I = 0; I != 5; ++I) {
    const std::vector<obs::Field> &F = Stages[I].Fields;
    ASSERT_EQ(F.size(), 6u) << Names[I];
    EXPECT_EQ(Stages[I].RequestId, R.RequestId);
    EXPECT_EQ(F[0].Key, "stage");
    EXPECT_EQ(F[0].Value, Names[I]);
    EXPECT_EQ(F[1].Key, "dur_us");
    for (unsigned C = 0; C != 3; ++C) {
      StageSums[C] += std::stoull(F[2 + C].Value);
      if (I < 3) {
        EXPECT_EQ(F[2 + C].Value,
                  std::to_string(Configs[I]->Metrics.counter(Counters[C])))
            << Names[I] << " " << F[2 + C].Key;
      }
    }
    EXPECT_EQ(F[2].Key, "ilp_nodes");
    EXPECT_EQ(F[3].Key, "ilp_solves");
    EXPECT_EQ(F[4].Key, "pivots");
    EXPECT_EQ(F[5].Key, "outcome");
    EXPECT_EQ(F[5].Value, "ok");
  }
  for (unsigned C = 0; C != 3; ++C)
    EXPECT_EQ(StageSums[C], R.Metrics.counter(Counters[C])) << Counters[C];
  EXPECT_GT(R.Isl.Metrics.counter("lp.ilp_nodes"),
            R.Isl.Metrics.counter("lp.ilp_solves"));
}

//===----------------------------------------------------------------------===//
// JSON parser edge cases
//===----------------------------------------------------------------------===//

TEST(Json, StringEscapeEdgeCases) {
  std::string Error;
  // Every escape form, including multi-byte \u code points.
  std::optional<obs::json::Value> V = obs::json::parse(
      "\"a\\\"b\\\\c\\/d\\b\\f\\n\\r\\t\\u0041\\u00e9\\u20ac\"", Error);
  ASSERT_TRUE(V) << Error;
  EXPECT_EQ(V->Str, "a\"b\\c/d\b\f\n\r\t"
                    "A\xC3\xA9\xE2\x82\xAC");
  // Raw control characters, bad escapes and truncation are rejected.
  EXPECT_FALSE(obs::json::parse("\"a\x01" "b\"", Error));
  EXPECT_FALSE(obs::json::parse("\"\\q\"", Error));
  EXPECT_FALSE(obs::json::parse("\"\\u00\"", Error));
  EXPECT_FALSE(obs::json::parse("\"\\u00zz\"", Error));
  EXPECT_FALSE(obs::json::parse("\"abc", Error));
}

TEST(Json, NestedArraysAndDepthLimit) {
  std::string Error;
  std::optional<obs::json::Value> V = obs::json::parse(
      "[[1,[2,[3,[]]]],{\"k\":[{\"x\":[]}]}]", Error);
  ASSERT_TRUE(V) << Error;
  ASSERT_TRUE(V->isArray());
  ASSERT_EQ(V->Items.size(), 2u);
  const obs::json::Value &Deep = V->Items[0].Items[1].Items[1];
  ASSERT_EQ(Deep.Items.size(), 2u);
  EXPECT_EQ(Deep.Items[0].Num, 3);
  EXPECT_TRUE(Deep.Items[1].Items.empty());
  EXPECT_TRUE(V->Items[1].at("k").Items[0].at("x").isArray());
  // Pathological nesting fails cleanly instead of overflowing the stack.
  std::string Pathological(300, '[');
  Pathological += std::string(300, ']');
  EXPECT_FALSE(obs::json::parse(Pathological, Error));
  EXPECT_NE(Error.find("nesting too deep"), std::string::npos);
}

TEST(Json, NumberOverflowIsRejected) {
  std::string Error;
  // JSON has no infinity: literals that overflow double are errors, at
  // top level and nested alike.
  EXPECT_FALSE(obs::json::parse("1e999", Error));
  EXPECT_NE(Error.find("number out of range"), std::string::npos);
  EXPECT_FALSE(obs::json::parse("-1e999", Error));
  EXPECT_FALSE(obs::json::parse("[1, 1e999]", Error));
  EXPECT_FALSE(obs::json::parse("{\"v\": 1e999}", Error));
  // Large but representable magnitudes still parse.
  std::optional<obs::json::Value> V = obs::json::parse("1e308", Error);
  ASSERT_TRUE(V) << Error;
  EXPECT_TRUE(std::isfinite(V->Num));
  EXPECT_FALSE(obs::json::parse("1e+", Error)); // Still malformed.
}

TEST(ObsPipeline, FallbackSpansCarryKind) {
  TracerGuard Guard;
  // The producer/consumer pair needs fallback work under influence.
  Kernel K = makeProducerConsumer(16, 16);
  PipelineOptions Options;
  runOperator(K, Options);
  // Whatever fallbacks fired, each marker span names its kind.
  for (const obs::TraceEvent &E : obs::tracer().events()) {
    if (E.Name != "sched.fallback")
      continue;
    bool HasKind = false;
    for (const obs::Field &A : E.Args)
      HasKind |= A.Key == std::string("kind") && !A.Value.empty();
    EXPECT_TRUE(HasKind);
  }
}

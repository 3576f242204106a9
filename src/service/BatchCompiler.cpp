//===- service/BatchCompiler.cpp ------------------------------------------===//

#include "service/BatchCompiler.h"

#include "obs/Journal.h"
#include "support/Parallel.h"

#include <algorithm>
#include <exception>

using namespace pinj;
using namespace pinj::service;

std::size_t BatchResult::hits() const {
  std::size_t N = 0;
  for (const OperatorReport &R : Reports)
    N += R.CacheHit ? 1 : 0;
  return N;
}

std::size_t BatchResult::degraded() const {
  std::size_t N = 0;
  for (const OperatorReport &R : Reports)
    N += R.degraded() ? 1 : 0;
  return N;
}

BatchCompiler::BatchCompiler(PipelineOptions Opts, unsigned Jobs)
    : Options(std::move(Opts)),
      NumWorkers(std::clamp(Jobs, 1u, 64u)) {}

namespace {

/// Builds the placeholder report for a job whose worker threw: empty
/// results under the job's request id, one degradation event at site
/// "service.batch" so the failure is visible in reports and the sidecar.
OperatorReport failedReport(const BatchJob &Job, const std::string &Rid,
                            const std::string &What) {
  OperatorReport R;
  R.Name = Job.K.Name;
  R.RequestId = Rid;
  DegradationEvent E;
  E.Config = "batch";
  E.Site = "service.batch";
  E.Code = StatusCode::Internal;
  E.Detail = "worker exception: " + What;
  R.Degradations.push_back(E);
  return R;
}

} // namespace

BatchResult BatchCompiler::run(const std::vector<BatchJob> &Jobs) {
  BatchResult Result;
  Result.Reports.resize(Jobs.size());
  if (Jobs.empty())
    return Result;

  // Workers never see the sink: records are appended in submission
  // order after the join, so the sidecar is identical for any pool size.
  PipelineOptions WorkerOptions = Options;
  WorkerOptions.Sink = nullptr;

  // Request ids are pre-assigned at submission, before the pool starts,
  // so the id<->job mapping does not depend on worker interleaving and
  // every journal event a worker emits (through the RequestScope it
  // installs) carries its job's id. A job that throws still reports its
  // pre-assigned id via failedReport.
  std::vector<std::string> RequestIds(Jobs.size());
  for (std::size_t I = 0; I != Jobs.size(); ++I)
    RequestIds[I] = obs::nextRequestId();
  if (obs::Journal::fastEnabled())
    obs::JournalEvent("batch_start")
        .field("jobs", Jobs.size())
        .field("workers",
               std::min<std::size_t>(NumWorkers, Jobs.size()));

  parallelFor(Jobs.size(), NumWorkers, [&](std::size_t I) {
    obs::RequestScope Request(RequestIds[I]);
    try {
      Result.Reports[I] = runOperator(Jobs[I].K, WorkerOptions);
    } catch (const std::exception &Ex) {
      Result.Reports[I] = failedReport(Jobs[I], RequestIds[I], Ex.what());
    } catch (...) {
      Result.Reports[I] = failedReport(Jobs[I], RequestIds[I], "unknown");
    }
  });

  if (obs::Journal::fastEnabled())
    obs::JournalEvent("batch_end")
        .field("jobs", Jobs.size())
        .field("cache_hits", Result.hits())
        .field("degraded", Result.degraded());

  if (Options.Sink)
    for (const OperatorReport &R : Result.Reports)
      Options.Sink->add(toSinkRecord(R));
  return Result;
}

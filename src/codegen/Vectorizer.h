//===- codegen/Vectorizer.h - Vector mark finalization ----------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backend vectorization decision (the paper's second AKG
/// modification): after scheduling, each vector-marked dimension is
/// checked against the final schedule — the dimension must be the
/// statement's innermost loop, bound by a unit row, parallel over the
/// uncarried relations between the loop's statements (the carried-relation
/// walk of sched/Schedule.h), with an extent divisible by the lane count.
/// The accesses are not checked here: the influence tree places a mark
/// only where the marked statements' accesses are vectorizable
/// (influence/AccessAnalysis.h). Statements are added or removed from the
/// mark accordingly, the width is narrowed when needed (4 -> 2), and the
/// mark is cleared when nothing survives. The simulator and printer then
/// treat the surviving statements' loads and stores as float2/float4
/// operations.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_CODEGEN_VECTORIZER_H
#define POLYINJECT_CODEGEN_VECTORIZER_H

#include "sched/Schedule.h"

namespace pinj {

/// Rechecks and finalizes the vector marks of \p S against the scheduled
/// kernel \p K, whose relations are \p Relations (computed here when
/// null). \returns the number of dimensions left vector-marked. With
/// \p DisableVectorization the marks are stripped, with no analysis.
unsigned
finalizeVectorMarks(const Kernel &K, Schedule &S,
                    bool DisableVectorization = false,
                    const std::vector<DependenceRelation> *Relations = nullptr);

/// Clears every vector mark of \p S (the isl and novec configurations).
void stripVectorMarks(Schedule &S);

} // namespace pinj

#endif // POLYINJECT_CODEGEN_VECTORIZER_H

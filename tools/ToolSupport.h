//===- tools/ToolSupport.h - Input helpers shared by the tools --*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Kernel-file and operator-list loading for polyinject-opt,
/// polyinject-calibrate and polyinject-train. Both helpers treat bad
/// input as fatal: they print a diagnostic on stderr and exit 1.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_TOOLS_TOOLSUPPORT_H
#define POLYINJECT_TOOLS_TOOLSUPPORT_H

#include "ir/Kernel.h"

#include <string>
#include <vector>

namespace pinj {

/// Reads, parses and verifies one .pinj kernel file.
Kernel loadKernelOrDie(const std::string &Path);

/// Expands an --ops-file list: one path per line, '#' comments,
/// relative paths resolved against the list file's directory.
std::vector<std::string> readOpsFile(const std::string &ListPath);

} // namespace pinj

#endif // POLYINJECT_TOOLS_TOOLSUPPORT_H

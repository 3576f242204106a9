//===- tools/ToolSupport.cpp ----------------------------------------------===//

#include "ToolSupport.h"

#include "ir/Parser.h"
#include "support/Support.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>

using namespace pinj;

Kernel pinj::loadKernelOrDie(const std::string &Path) {
  std::string Text;
  if (!readFile(Path, Text)) {
    std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
    std::exit(1);
  }
  std::string Error;
  std::optional<Kernel> K = parseKernel(Text, Error);
  if (!K) {
    std::fprintf(stderr, "%s: %s\n", Path.c_str(), Error.c_str());
    std::exit(1);
  }
  std::string Diag = K->verify();
  if (!Diag.empty()) {
    std::fprintf(stderr, "%s: malformed kernel: %s\n", Path.c_str(),
                 Diag.c_str());
    std::exit(1);
  }
  return std::move(*K);
}

std::vector<std::string> pinj::readOpsFile(const std::string &ListPath) {
  std::ifstream In(ListPath);
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", ListPath.c_str());
    std::exit(1);
  }
  std::filesystem::path Base = std::filesystem::path(ListPath).parent_path();
  std::vector<std::string> Paths;
  std::string Line;
  while (std::getline(In, Line)) {
    std::size_t Hash = Line.find('#');
    if (Hash != std::string::npos)
      Line = Line.substr(0, Hash);
    std::size_t First = Line.find_first_not_of(" \t\r");
    if (First == std::string::npos)
      continue;
    std::size_t Last = Line.find_last_not_of(" \t\r");
    std::string Entry = Line.substr(First, Last - First + 1);
    std::filesystem::path P(Entry);
    Paths.push_back(P.is_absolute() ? P.string() : (Base / P).string());
  }
  return Paths;
}

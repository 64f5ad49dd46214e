// Interface of the pprox_lint --ct pass (interprocedural constant-time /
// secret-taint analyzer, DESIGN.md §13). The driver fills Options and
// calls run(); the implementation lives in pprox_lint_ct.cpp.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

namespace ct {

struct Options {
  bool json = false;
  std::string baseline;        ///< --baseline FILE (ratchet mode)
  std::string baseline_write;  ///< --baseline-write FILE (regenerate)
  std::vector<std::filesystem::path> inputs;
};

/// Exit code: 0 clean/within-baseline, 1 findings/regressions, 2 IO errors.
int run(const Options& opts);

}  // namespace ct

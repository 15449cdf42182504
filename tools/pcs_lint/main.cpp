// pcs-lint CLI. Exit codes: 0 clean, 1 diagnostics reported, 2 usage or
// I/O error. Every run lints the whole tree under the root.
//
//   pcs_lint                         # scan src bench tests examples under .
//   pcs_lint --root /path/to/repo    # scan the same dirs under a root
//   pcs_lint --rules SCHEMA001       # report only the telemetry docs gate
//   pcs_lint --format=json           # machine-readable output on stdout
//   pcs_lint --list-rules

#include <cstdio>
#include <string>

#include "lint.hpp"

namespace {

int usage(std::FILE* to) {
  std::fputs(
      "usage: pcs_lint [--root DIR] [--rules ID[,ID...]] "
      "[--format=text|json]\n"
      "       pcs_lint --list-rules\n",
      to);
  return to == stdout ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  pcs_lint::LintOptions opts;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      return usage(stdout);
    }
    if (arg == "--list-rules") {
      for (const pcs_lint::RuleInfo& r : pcs_lint::rule_registry()) {
        std::printf("%-10s %s\n", r.id, r.summary);
      }
      return 0;
    }
    if (arg == "--root") {
      if (++i >= argc) return usage(stderr);
      opts.root = argv[i];
      continue;
    }
    if (arg.rfind("--format=", 0) == 0) {
      const std::string fmt = arg.substr(9);
      if (fmt == "json") {
        json = true;
      } else if (fmt != "text") {
        std::fprintf(stderr, "pcs-lint: unknown format '%s'\n", fmt.c_str());
        return 2;
      }
      continue;
    }
    if (arg == "--rules") {
      if (++i >= argc) return usage(stderr);
      const std::string list = argv[i];
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string id = list.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        if (!id.empty()) {
          if (!pcs_lint::is_known_rule(id)) {
            std::fprintf(stderr, "pcs-lint: unknown rule '%s'\n", id.c_str());
            return 2;
          }
          opts.rules.insert(id);
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      continue;
    }
    std::fprintf(stderr, "pcs-lint: unexpected argument '%s'\n", arg.c_str());
    return usage(stderr);
  }

  const pcs_lint::LintResult result = pcs_lint::run_lint(opts);
  for (const std::string& err : result.io_errors) {
    std::fprintf(stderr, "pcs-lint: cannot read %s\n", err.c_str());
  }
  if (json) {
    std::printf("%s\n", pcs_lint::render_json(result).c_str());
  } else {
    for (const pcs_lint::Diagnostic& d : result.diags) {
      std::printf("%s\n", pcs_lint::format(d).c_str());
    }
  }
  if (!result.io_errors.empty() || result.files_scanned == 0) {
    std::fprintf(stderr, "pcs-lint: error (%d files scanned, %zu unreadable)\n",
                 result.files_scanned, result.io_errors.size());
    return 2;
  }
  if (result.diags.empty()) {
    std::fprintf(stderr, "pcs-lint: clean (%d files scanned)\n",
                 result.files_scanned);
    return 0;
  }
  std::fprintf(stderr, "pcs-lint: %zu diagnostic(s) in %d files scanned\n",
               result.diags.size(), result.files_scanned);
  return 1;
}

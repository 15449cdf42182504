#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace pcs_lint {
namespace {

namespace fs = std::filesystem;

// Directories scanned under the root. tools/pcs_lint is deliberately
// excluded: its fixture corpus contains intentional violations, and its
// rule tables name the very identifiers they hunt.
constexpr const char* kScanDirs[] = {"src", "bench", "tests", "examples"};

bool lintable_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc" ||
         ext == ".hh";
}

bool read_file(const fs::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

// Forward-slash path relative to root, for stable diagnostics and the
// path-keyed exemptions.
std::string rel_path(const fs::path& root, const fs::path& p) {
  return fs::relative(p, root).generic_string();
}

// Rules whose diagnostics come from lint_tokens (vs. the whole-tree and
// schema passes); drives the "did the filter select any token rule" check.
const std::set<std::string> kTokenRules = {"DET001", "DET002", "DET003",
                                           "DET004", "DET006", "INV001"};

// One scanned file.
struct LintFile {
  std::string abs;  // readable path (root-joined)
  std::string rel;  // forward-slash path relative to root (diagnostic key)
};

// Every lintable file under the scan directories, sorted so the scan order
// does not depend on directory-entry order.
std::vector<LintFile> collect_lint_files(const fs::path& root) {
  std::vector<fs::path> files;
  for (const char* dir : kScanDirs) {
    const fs::path base = root / dir;
    std::error_code ec;
    if (!fs::is_directory(base, ec)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base, ec)) {
      if (entry.is_regular_file() && lintable_extension(entry.path())) {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<LintFile> out;
  out.reserve(files.size());
  for (const fs::path& file : files) {
    out.push_back({file.string(), rel_path(root, file)});
  }
  return out;
}

}  // namespace

LintResult run_lint(const LintOptions& opts) {
  LintResult result;
  const fs::path root(opts.root);
  const std::vector<LintFile> files = collect_lint_files(root);

  const auto want = [&opts](const char* id) {
    return opts.rules.empty() || opts.rules.count(id) != 0;
  };
  const bool want_schema = want("SCHEMA001");
  const bool want_job_schema = want("SCHEMA002");
  bool want_tokens = opts.rules.empty();
  for (const std::string& r : opts.rules) {
    if (kTokenRules.count(r) != 0) want_tokens = true;
  }

  // Pass 1: lex every file once, harvest suppressions, and index the INV002
  // struct/fingerprint shapes.
  struct Lexed {
    LintFile file;
    LexResult lx;
  };
  std::vector<Lexed> lexed;
  SymbolIndex index;
  std::map<std::string, Suppressions> suppressions;
  for (const LintFile& file : files) {
    std::string content;
    if (!read_file(file.abs, content)) {
      result.io_errors.push_back(file.abs);
      continue;
    }
    ++result.files_scanned;
    lexed.push_back({file, lex(content)});
    const LexResult& lx = lexed.back().lx;
    // LINT001 diagnostics about malformed annotations bypass suppression.
    const Suppressions& sup = suppressions[file.rel] =
        collect_suppressions(lx, file.rel, result.diags);
    for (const auto& [rule, n] : sup.counts) {
      result.suppression_counts[rule] += n;
    }
    index_file(file.rel, lx, index);
  }

  // Pass 2: the token rules plus the accumulated schema scans.
  SchemaScan schema_scan;
  JobSchemaScan job_schema_scan;
  std::vector<Diagnostic> raw;
  for (const Lexed& l : lexed) {
    if (want_tokens) {
      lint_tokens(l.file.rel, l.lx, opts.rules, raw);
    }
    if (want_schema && l.file.rel.rfind("src/", 0) == 0) {
      scan_schema_uses(l.file.rel, l.lx, schema_scan);
    }
    if (want_job_schema && l.file.rel.rfind("src/", 0) == 0) {
      scan_job_schema_uses(l.file.rel, l.lx, job_schema_scan);
    }
  }

  if (want_schema) {
    const fs::path md = root / "TELEMETRY.md";
    std::string content;
    if (read_file(md, content)) {
      check_schema(content, "TELEMETRY.md", schema_scan, raw);
    } else {
      result.diags.push_back({"SCHEMA001", "TELEMETRY.md", 1,
                              "TELEMETRY.md not found under lint root '" +
                                  opts.root + "'"});
    }
  }
  if (want_job_schema) {
    const fs::path md = root / "POPULATION.md";
    std::string content;
    if (read_file(md, content)) {
      check_job_schema(content, "POPULATION.md", job_schema_scan, raw);
    } else {
      result.diags.push_back({"SCHEMA002", "POPULATION.md", 1,
                              "POPULATION.md not found under lint root '" +
                                  opts.root + "'"});
    }
  }

  if (want("INV002")) {
    check_fingerprints(index, raw);
  }
  if (want("BUDGET001")) {
    // A tree without a budget file has nothing to ratchet.
    std::string budget_text;
    if (read_file(root / ".pcs-lint-budget", budget_text)) {
      check_suppression_budget(budget_text, ".pcs-lint-budget",
                               result.suppression_counts, raw);
    }
  }

  for (Diagnostic& d : raw) {
    const auto it = suppressions.find(d.file);
    if (it != suppressions.end() && it->second.active(d.rule, d.line)) {
      continue;
    }
    result.diags.push_back(std::move(d));
  }
  // The rule filter is authoritative: annotation-hygiene diagnostics
  // (LINT001) are also dropped when not selected.
  if (!opts.rules.empty()) {
    std::erase_if(result.diags, [&opts](const Diagnostic& d) {
      return opts.rules.count(d.rule) == 0;
    });
  }
  std::sort(result.diags.begin(), result.diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  return result;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string render_json(const LintResult& result) {
  std::ostringstream out;
  out << "{\"version\":1,\"files_scanned\":" << result.files_scanned
      << ",\"diagnostics\":[";
  bool first = true;
  for (const Diagnostic& d : result.diags) {
    if (!first) out << ",";
    first = false;
    out << "{\"rule\":\"" << json_escape(d.rule) << "\",\"file\":\""
        << json_escape(d.file) << "\",\"line\":" << d.line
        << ",\"message\":\"" << json_escape(d.message) << "\"}";
  }
  out << "],\"suppressions\":{";
  first = true;
  for (const auto& [rule, n] : result.suppression_counts) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(rule) << "\":" << n;
  }
  out << "}}";
  return out.str();
}

}  // namespace pcs_lint

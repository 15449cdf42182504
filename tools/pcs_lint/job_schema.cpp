// SCHEMA002: the job-file docs-consistency gate. POPULATION.md carries a
// machine-readable ```job-schema block (one `kind: key key ...` line per
// job kind); every job kind in the kJobKinds table and every key read
// through the jstr/jnum/jreal/jbool accessors in src/ must appear there and
// vice versa, so the operator-facing schema table cannot drift from the
// parser. Defaults/types are covered by tests/test_job_service.cpp; this
// rule guards the docs file.

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace pcs_lint {

namespace {

// The schema accessors: `jstr(obj, "key", ...)` and friends. Definitions
// don't match the pattern (their second token is a type name, not a bare
// object identifier followed by a comma).
const std::set<std::string, std::less<>> kKeyAccessors = {"jstr", "jnum",
                                                          "jreal", "jbool"};

void add(std::vector<Diagnostic>& diags, const std::string& file, int line,
         std::string message) {
  diags.push_back({"SCHEMA002", file, line, std::move(message)});
}

}  // namespace

void scan_job_schema_uses(const std::string& rel_path, const LexResult& lx,
                          JobSchemaScan& scan) {
  const std::vector<Token>& toks = lx.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    // `kJobKinds[] = {"sim", "population"}` -- collect the brace literals.
    if (t.text == "kJobKinds") {
      std::size_t j = i + 1;
      while (j < toks.size() && !(toks[j].kind == TokKind::kPunct &&
                                  (toks[j].text == "{" || toks[j].text == ";"))) {
        ++j;
      }
      if (j >= toks.size() || toks[j].text != "{") continue;
      for (++j; j < toks.size(); ++j) {
        if (toks[j].kind == TokKind::kPunct &&
            (toks[j].text == "}" || toks[j].text == ";")) {
          break;
        }
        if (toks[j].kind == TokKind::kString) {
          scan.kinds.push_back({toks[j].text, rel_path, toks[j].line});
        }
      }
      continue;
    }
    // `jstr(obj, "key", ...)` and the other accessors.
    if (kKeyAccessors.count(t.text) != 0 && i + 4 < toks.size() &&
        toks[i + 1].kind == TokKind::kPunct && toks[i + 1].text == "(" &&
        toks[i + 2].kind == TokKind::kIdent &&
        toks[i + 3].kind == TokKind::kPunct && toks[i + 3].text == "," &&
        toks[i + 4].kind == TokKind::kString) {
      scan.keys.push_back({toks[i + 4].text, rel_path, t.line});
    }
  }
}

void check_job_schema(const std::string& population_md,
                      const std::string& md_rel_path,
                      const JobSchemaScan& scan,
                      std::vector<Diagnostic>& diags) {
  // Parse the ```job-schema block out of the docs.
  struct DocEntry {
    int line = 0;
    std::vector<std::string> keys;
  };
  std::map<std::string, DocEntry> doc_kinds;
  std::map<std::string, int> doc_keys;  // key -> first block line
  bool in_block = false;
  bool saw_block = false;
  int lineno = 0;
  std::istringstream in(population_md);
  for (std::string line; std::getline(in, line);) {
    ++lineno;
    if (line == "```job-schema") {
      in_block = true;
      saw_block = true;
      continue;
    }
    if (in_block && line.rfind("```", 0) == 0) {
      in_block = false;
      continue;
    }
    if (!in_block) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string kind = line.substr(0, colon);
    auto [it, inserted] = doc_kinds.try_emplace(kind);
    DocEntry& entry = it->second;
    if (inserted) {
      entry.line = lineno;
    } else {
      // Duplicate kind line: the second line silently shadows or merges
      // with the first in any reader, so flag it. Keys still accumulate
      // onto the first entry to avoid cascading never-read reports.
      add(diags, md_rel_path, lineno,
          "job kind '" + kind + "' is documented twice (first at line " +
              std::to_string(entry.line) + ")");
    }
    std::istringstream keys(line.substr(colon + 1));
    for (std::string k; keys >> k;) {
      if (std::find(entry.keys.begin(), entry.keys.end(), k) !=
          entry.keys.end()) {
        add(diags, md_rel_path, lineno,
            "job key '" + k + "' is listed twice for kind '" + kind + "'");
      } else {
        entry.keys.push_back(k);
      }
      doc_keys.emplace(k, lineno);
    }
  }
  if (!saw_block) {
    add(diags, md_rel_path, 1,
        "no ```job-schema block found in " + md_rel_path);
    return;
  }

  // Used but undocumented: reported at the first use site.
  std::set<std::string> reported;
  for (const SchemaUse& u : scan.kinds) {
    if (doc_kinds.count(u.name) == 0 && reported.insert(u.name).second) {
      add(diags, u.file, u.line,
          "job kind '" + u.name + "' is accepted but missing from " +
              md_rel_path);
    }
  }
  for (const SchemaUse& u : scan.keys) {
    if (doc_keys.count(u.name) == 0 && reported.insert("." + u.name).second) {
      add(diags, u.file, u.line,
          "job key '" + u.name + "' is read but missing from " + md_rel_path);
    }
  }

  // Documented but never used.
  std::set<std::string> src_kinds;
  std::set<std::string> src_keys;
  for (const SchemaUse& u : scan.kinds) src_kinds.insert(u.name);
  for (const SchemaUse& u : scan.keys) src_keys.insert(u.name);
  for (const auto& [name, entry] : doc_kinds) {
    if (src_kinds.count(name) == 0) {
      add(diags, md_rel_path, entry.line,
          "job kind '" + name + "' is documented but never accepted in src/");
    }
    for (const std::string& k : entry.keys) {
      if (src_keys.count(k) == 0 && reported.insert("~" + k).second) {
        add(diags, md_rel_path, entry.line,
            "job key '" + k + "' is documented but never read in src/");
      }
    }
  }
}

}  // namespace pcs_lint

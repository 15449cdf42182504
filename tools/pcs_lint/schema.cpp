// SCHEMA001: the telemetry docs-consistency gate. TELEMETRY.md ends with a
// machine-readable ```schema-fields appendix (one `type: field field ...`
// line per record type); every record type and field emitted from src/ must
// appear there and vice versa, and the documented schema version must match
// kTelemetrySchemaVersion. Field->type association is covered by the schema
// golden test in tests/test_telemetry.cpp; this rule guards the docs file.

#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace pcs_lint {

void scan_schema_uses(const std::string& rel_path, const LexResult& lx,
                      SchemaScan& scan) {
  const std::vector<Token>& toks = lx.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    // `TraceRecord rec("type")` or a `TraceRecord("type")` temporary.
    if (t.text == "TraceRecord") {
      std::size_t j = i + 1;
      if (j < toks.size() && toks[j].kind == TokKind::kIdent) ++j;
      if (j + 1 < toks.size() && toks[j].kind == TokKind::kPunct &&
          toks[j].text == "(" && toks[j + 1].kind == TokKind::kString) {
        scan.types.push_back({toks[j + 1].text, rel_path, t.line});
      }
      continue;
    }
    // `.field("name", ...)`
    if (t.text == "field" && i > 0 && toks[i - 1].kind == TokKind::kPunct &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
        i + 2 < toks.size() && toks[i + 1].kind == TokKind::kPunct &&
        toks[i + 1].text == "(" && toks[i + 2].kind == TokKind::kString) {
      scan.fields.push_back({toks[i + 2].text, rel_path, t.line});
      continue;
    }
    // `kTelemetrySchemaVersion = N`
    if (t.text == "kTelemetrySchemaVersion" && i + 2 < toks.size() &&
        toks[i + 1].kind == TokKind::kPunct && toks[i + 1].text == "=" &&
        toks[i + 2].kind == TokKind::kNumber) {
      scan.version = std::stol(toks[i + 2].text);
      scan.version_file = rel_path;
      scan.version_line = t.line;
    }
  }
}

namespace {

struct DocEntry {
  int line = 0;
  std::vector<std::string> fields;
};

void add(std::vector<Diagnostic>& diags, const std::string& file, int line,
         std::string message) {
  diags.push_back({"SCHEMA001", file, line, std::move(message)});
}

}  // namespace

void check_schema(const std::string& telemetry_md,
                  const std::string& md_rel_path, const SchemaScan& scan,
                  std::vector<Diagnostic>& diags) {
  // Parse the appendix and the advertised schema version out of the docs.
  std::map<std::string, DocEntry> doc_types;
  std::map<std::string, int> doc_fields;  // field -> first appendix line
  long doc_version = -1;
  int doc_version_line = 0;
  bool in_appendix = false;
  bool saw_appendix = false;
  int lineno = 0;
  std::istringstream in(telemetry_md);
  for (std::string line; std::getline(in, line);) {
    ++lineno;
    if (line == "```schema-fields") {
      in_appendix = true;
      saw_appendix = true;
      continue;
    }
    if (in_appendix && line.rfind("```", 0) == 0) {
      in_appendix = false;
      continue;
    }
    if (in_appendix) {
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      DocEntry& entry = doc_types[line.substr(0, colon)];
      entry.line = lineno;
      std::istringstream fields(line.substr(colon + 1));
      for (std::string f; fields >> f;) {
        entry.fields.push_back(f);
        doc_fields.emplace(f, lineno);
      }
      continue;
    }
    const std::size_t v = line.find("Schema version: ");
    if (v != std::string::npos && doc_version < 0) {
      doc_version = std::stol(line.substr(v + 16));
      doc_version_line = lineno;
    }
  }
  if (!saw_appendix) {
    add(diags, md_rel_path, 1,
        "no ```schema-fields appendix found in TELEMETRY.md");
    return;
  }

  // Emitted but undocumented: reported at the first emission site.
  std::set<std::string> reported;
  for (const SchemaUse& u : scan.types) {
    if (doc_types.count(u.name) == 0 && reported.insert(u.name).second) {
      add(diags, u.file, u.line,
          "record type '" + u.name + "' is emitted but missing from " +
              md_rel_path);
    }
  }
  for (const SchemaUse& u : scan.fields) {
    if (doc_fields.count(u.name) == 0 &&
        reported.insert("." + u.name).second) {
      add(diags, u.file, u.line,
          "field '" + u.name + "' is emitted but missing from " +
              md_rel_path);
    }
  }

  // Documented but never emitted.
  std::set<std::string> src_types;
  std::set<std::string> src_fields;
  for (const SchemaUse& u : scan.types) src_types.insert(u.name);
  for (const SchemaUse& u : scan.fields) src_fields.insert(u.name);
  for (const auto& [name, entry] : doc_types) {
    if (src_types.count(name) == 0) {
      add(diags, md_rel_path, entry.line,
          "record type '" + name + "' is documented but never emitted "
          "in src/");
    }
    for (const std::string& f : entry.fields) {
      if (src_fields.count(f) == 0 && reported.insert("~" + f).second) {
        add(diags, md_rel_path, entry.line,
            "field '" + f + "' is documented but never emitted in src/");
      }
    }
  }

  // Version agreement (only when both sides declare one).
  if (doc_version < 0) {
    add(diags, md_rel_path, 1,
        "no 'Schema version: N' declaration found in TELEMETRY.md");
  } else if (scan.version >= 0 && scan.version != doc_version) {
    add(diags, md_rel_path, doc_version_line,
        "TELEMETRY.md says schema version " + std::to_string(doc_version) +
            " but " + scan.version_file + ":" +
            std::to_string(scan.version_line) +
            " says kTelemetrySchemaVersion = " +
            std::to_string(scan.version));
  }
}

}  // namespace pcs_lint

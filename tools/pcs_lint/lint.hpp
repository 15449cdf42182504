#pragma once

// pcs-lint: determinism & invariant static analysis for the pcs-cache tree.
//
// Every run does one thing: lex every file under src/ bench/ tests/
// examples/, run the flat token rules at every matching site, then run the
// whole-tree checks (INV002 against a small symbol index, SCHEMA001/002
// against the docs, BUDGET001 against the committed budget). A token rule
// fires wherever its pattern appears; it does not try to prove that the
// value reaches output.
//
// Each rule has a stable ID, reports `file:line: ID: message` diagnostics,
// and can be silenced per line or per file with an annotation that must
// carry a written reason:
//
//   // pcs-lint: allow(DET001) reason why this line is exempt
//   // pcs-lint: allow-file(DET001) reason why the whole file is exempt
//
// A trailing annotation suppresses its own line; an annotation on a line of
// its own suppresses the next line that holds code. Annotations with an
// unknown rule ID or no reason are themselves diagnosed (LINT001).
//
// Rules (see DESIGN.md §10 for the contract they enforce):
//   DET001    no wall-clock/time sources (system_clock, steady_clock, time(),
//             ...) -- replay determinism
//   DET002    no range-for or iterator loops over unordered containers --
//             hash-table order must not reach output
//   DET003    no std::rand / random_device / local std::mt19937 outside
//             src/util/rng.* -- all randomness flows through derive_seed/Rng
//   DET004    no float/double std::atomic accumulation -- associativity
//             determinism (reduce in index order instead)
//   DET006    no thread-id / pointer-address values (this_thread::get_id,
//             reinterpret_cast<uintptr_t>, "%p" format strings) --
//             scheduler/ASLR-dependent bytes
//   INV001    faulty-bits writes only in src/core/mechanism.cpp and
//             src/cache/cache_level.cpp -- single-writer fault inclusion
//   INV002    every field of a contract struct must appear in each of its
//             canonical fingerprint functions (kFingerprintContracts) -- a
//             forgotten field lets a stale checkpoint resume under a
//             changed spec
//   SCHEMA001 telemetry record/field string literals in src/ must match the
//             TELEMETRY.md schema appendix, both directions, and the
//             documented schema version must match kTelemetrySchemaVersion
//   SCHEMA002 job-file schema literals in src/ (jstr/jnum/jreal/jbool key
//             accessors and the kJobKinds table) must match POPULATION.md's
//             ```job-schema block, both directions
//   BUDGET001 the committed per-rule suppression budget (.pcs-lint-budget)
//             must equal the tree's actual suppression counts -- the budget
//             is a ratchet: any change to it shows up in review
//   LINT001   malformed pcs-lint suppression annotation

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace pcs_lint {

struct Diagnostic {
  std::string rule;
  std::string file;  // path relative to the scan root
  int line = 0;
  std::string message;
};

std::string format(const Diagnostic& d);

struct RuleInfo {
  const char* id;
  const char* summary;
};

const std::vector<RuleInfo>& rule_registry();
bool is_known_rule(const std::string& id);

// -- Suppressions ----------------------------------------------------------

struct Suppressions {
  std::set<std::string> file_rules;
  std::set<std::pair<int, std::string>> line_rules;
  // Annotations successfully parsed, per rule (line + file scope); feeds
  // the BUDGET001 ratchet.
  std::map<std::string, int> counts;

  bool active(const std::string& rule, int line) const;
};

// Parses `pcs-lint:` annotations out of the comment stream. Malformed
// annotations append LINT001 diagnostics (which are never suppressible).
Suppressions collect_suppressions(const LexResult& lx, const std::string& file,
                                  std::vector<Diagnostic>& diags);

// -- Symbol index for INV002 (index.cpp) -----------------------------------

// INV002 contract: a spec struct and a canonical fingerprint function that
// must mention every one of its fields. A struct may have several
// functions: the grid fingerprint covers PopulationSpec as its base.
struct FingerprintContract {
  const char* struct_name;
  const char* canonical_fn;
};
inline constexpr FingerprintContract kFingerprintContracts[] = {
    {"PopulationSpec", "population_canonical"},
    {"PopulationGridSpec", "grid_canonical"},
    {"PopulationSpec", "grid_canonical"},
};

// A contract-struct field, where it is declared.
struct IndexedField {
  std::string name;
  std::string file;
  int line = 0;
};

// A canonical fingerprint function's definition site and every identifier
// in its body.
struct FingerprintFn {
  std::string file;
  int line = 0;
  std::set<std::string> idents;
};

struct SymbolIndex {
  // Contract structs (PopulationSpec, ...) -> fields, in declaration order.
  std::map<std::string, std::vector<IndexedField>> struct_fields;
  // Canonical function name -> its definition.
  std::map<std::string, FingerprintFn> fingerprint_fns;
};

// Records the contract structs' fields and the canonical functions' body
// identifiers found in one lexed file.
void index_file(const std::string& rel_path, const LexResult& lx,
                SymbolIndex& index);

// -- Token rules (DET001..DET004, DET006, INV001) --------------------------

// Runs every token rule in `rules` (empty set = all) over one lexed file.
// `rel_path` uses forward slashes relative to the scan root; path-based
// exemptions (rng.*, mechanism.cpp, ...) key off it. Diagnostics are
// appended unfiltered; the caller applies suppressions.
void lint_tokens(const std::string& rel_path, const LexResult& lx,
                 const std::set<std::string>& rules,
                 std::vector<Diagnostic>& diags);

// -- INV002 (flow.cpp) -----------------------------------------------------

// Compares every contract struct's fields against its canonical fingerprint
// functions over the whole-tree index.
void check_fingerprints(const SymbolIndex& index,
                        std::vector<Diagnostic>& diags);

// -- BUDGET001 (flow.cpp) --------------------------------------------------

// Compares the committed budget file (content in `budget_text`, reported as
// `budget_rel_path`) against the actual per-rule suppression counts. The
// budget is an exact ratchet: over OR under budget is a diagnostic, so any
// suppression change forces a reviewed budget-file edit.
void check_suppression_budget(const std::string& budget_text,
                              const std::string& budget_rel_path,
                              const std::map<std::string, int>& counts,
                              std::vector<Diagnostic>& diags);

// -- SCHEMA001 -------------------------------------------------------------

struct SchemaUse {
  std::string name;
  std::string file;
  int line = 0;
};

// Telemetry emissions accumulated over every scanned src/ file.
struct SchemaScan {
  std::vector<SchemaUse> types;   // TraceRecord rec("type") literals
  std::vector<SchemaUse> fields;  // .field("name") literals
  long version = -1;              // kTelemetrySchemaVersion = N
  std::string version_file;
  int version_line = 0;
};

void scan_schema_uses(const std::string& rel_path, const LexResult& lx,
                      SchemaScan& scan);

// Compares the accumulated emissions against the ```schema-fields appendix
// of TELEMETRY.md (content in `telemetry_md`, reported as `md_rel_path`),
// both directions: emitted-but-undocumented and documented-but-never-
// emitted entries are each reported.
void check_schema(const std::string& telemetry_md,
                  const std::string& md_rel_path, const SchemaScan& scan,
                  std::vector<Diagnostic>& diags);

// -- SCHEMA002 -------------------------------------------------------------

// Job-file schema uses accumulated over every scanned src/ file: the key
// literals read through the jstr/jnum/jreal/jbool accessors and the kind
// literals in the kJobKinds table (see src/exp/job_service.cpp).
struct JobSchemaScan {
  std::vector<SchemaUse> kinds;  // kJobKinds[] = {"sim", ...} literals
  std::vector<SchemaUse> keys;   // jstr(obj, "key", ...) literals
};

void scan_job_schema_uses(const std::string& rel_path, const LexResult& lx,
                          JobSchemaScan& scan);

// Compares the accumulated uses against the ```job-schema block of
// POPULATION.md (one `kind: key key ...` line per job kind; content in
// `population_md`, reported as `md_rel_path`), both directions.
void check_job_schema(const std::string& population_md,
                      const std::string& md_rel_path,
                      const JobSchemaScan& scan,
                      std::vector<Diagnostic>& diags);

// -- Driver ----------------------------------------------------------------

struct LintOptions {
  // Scan root: src, bench, tests and examples under it are linted, and
  // TELEMETRY.md, POPULATION.md and .pcs-lint-budget are read from it.
  std::string root = ".";
  // Rule filter; empty = all rules.
  std::set<std::string> rules;
};

struct LintResult {
  std::vector<Diagnostic> diags;
  int files_scanned = 0;
  std::vector<std::string> io_errors;  // unreadable paths
  // Successfully parsed suppression annotations per rule, tree-wide.
  std::map<std::string, int> suppression_counts;
};

LintResult run_lint(const LintOptions& opts);

// Renders a LintResult as stable machine-readable JSON (--format=json):
// {"version":1,"files_scanned":N,"diagnostics":[{"rule","file","line",
// "message"},...],"suppressions":{"RULE":N,...}}.
std::string render_json(const LintResult& result);

}  // namespace pcs_lint

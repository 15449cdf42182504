// The INV002 symbol index: from each scanned file it records the fields of
// the contract structs and every identifier in the bodies of their
// canonical fingerprint functions (kFingerprintContracts, lint.hpp).
//
// The parser is deliberately AST-lite: a contract struct is `struct Name
// ... {`, and a canonical function's definition is its name, a balanced
// parameter list, then `{` (a call is never followed by a brace). A
// definition of another shape (say, with `noexcept`) is not recognized, so
// INV002 reports the function as missing rather than passing silently.

#include <cstddef>
#include <string_view>

#include "lint.hpp"

namespace pcs_lint {
namespace {

using std::size_t;

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool is_contract_struct(std::string_view name) {
  for (const auto& c : kFingerprintContracts) {
    if (name == c.struct_name) return true;
  }
  return false;
}

bool is_contract_fn(std::string_view name) {
  for (const auto& c : kFingerprintContracts) {
    if (name == c.canonical_fn) return true;
  }
  return false;
}

// Index one past the punctuator matching toks[i] (an `open`), honoring
// nesting of the same pair. Returns toks.size() when unbalanced.
size_t match_group(const std::vector<Token>& toks, size_t i,
                   std::string_view open, std::string_view close) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (is_punct(toks[i], open)) ++depth;
    if (is_punct(toks[i], close) && --depth == 0) return i + 1;
  }
  return toks.size();
}

// Skips a balanced template-argument list starting at toks[i] == "<";
// max-munch lexes ">>" as one token, which closes two levels here.
size_t skip_angles(const std::vector<Token>& toks, size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (is_punct(t, "<")) {
      ++depth;
    } else if (is_punct(t, ">")) {
      if (--depth == 0) return i + 1;
    } else if (is_punct(t, ">>")) {
      depth -= 2;
      if (depth <= 0) return i + 1;
    } else if (is_punct(t, ";") || is_punct(t, "{")) {
      return i;  // not template args after all; bail out
    }
  }
  return i;
}

// Parses the body of a contract struct starting at its `{` (index `open`),
// recording instance-field names. Methods (any `(` before the terminating
// `;`), nested types, and static/using members are skipped.
size_t harvest_struct_fields(const std::string& rel_path,
                             const std::vector<Token>& toks, size_t open,
                             std::vector<IndexedField>& fields) {
  const size_t close = match_group(toks, open, "{", "}");
  size_t i = open + 1;
  while (i + 1 < close) {
    // One member statement at class depth 1.
    bool method = false;
    bool skip = false;
    std::string cand;
    int cand_line = 0;
    std::string last_ident;
    int last_line = 0;
    bool first = true;
    while (i + 1 < close) {
      const Token& t = toks[i];
      if (t.kind == TokKind::kIdent) {
        if (first && (t.text == "using" || t.text == "typedef" ||
                      t.text == "friend" || t.text == "static" ||
                      t.text == "struct" || t.text == "class" ||
                      t.text == "enum" || t.text == "union" ||
                      t.text == "public" || t.text == "private" ||
                      t.text == "protected" || t.text == "template")) {
          skip = true;
        }
        first = false;
        if (t.text != "const" && t.text != "constexpr" &&
            t.text != "inline" && t.text != "volatile") {
          last_ident = t.text;
          last_line = t.line;
        }
        ++i;
        continue;
      }
      first = false;
      if (is_punct(t, "<")) {
        i = skip_angles(toks, i);
        continue;
      }
      if (is_punct(t, "(")) {
        method = true;
        i = match_group(toks, i, "(", ")");
        continue;
      }
      if (is_punct(t, "=") && cand.empty()) {
        cand = last_ident;
        cand_line = last_line;
        ++i;
        continue;
      }
      if (is_punct(t, "{")) {
        // Brace initializer of a field, or a method/nested-type body.
        if (!method && !skip && cand.empty()) {
          cand = last_ident;
          cand_line = last_line;
        }
        i = match_group(toks, i, "{", "}");
        if (method || skip) break;  // inline body ends the member
        continue;
      }
      if (is_punct(t, ";")) {
        ++i;
        break;
      }
      ++i;  // punctuation inside the declarator (::, &, *, labels, ...)
    }
    if (!method && !skip) {
      if (cand.empty()) {
        cand = last_ident;
        cand_line = last_line;
      }
      if (!cand.empty()) fields.push_back({cand, rel_path, cand_line});
    }
  }
  return close;
}

}  // namespace

void index_file(const std::string& rel_path, const LexResult& lx,
                SymbolIndex& index) {
  const std::vector<Token>& toks = lx.tokens;
  size_t i = 0;
  while (i < toks.size()) {
    const Token& t = toks[i];
    // Contract struct definition: `struct Name ... {`.
    if ((is_ident(t, "struct") || is_ident(t, "class")) &&
        i + 1 < toks.size() && toks[i + 1].kind == TokKind::kIdent &&
        is_contract_struct(toks[i + 1].text)) {
      size_t j = i + 2;
      while (j < toks.size() && !is_punct(toks[j], "{") &&
             !is_punct(toks[j], ";")) {
        ++j;
      }
      if (j < toks.size() && is_punct(toks[j], "{")) {
        i = harvest_struct_fields(rel_path, toks, j,
                                  index.struct_fields[toks[i + 1].text]);
        continue;
      }
    }
    // Canonical function definition: name, `( ... )`, then the body `{`.
    if (t.kind == TokKind::kIdent && is_contract_fn(t.text) &&
        i + 1 < toks.size() && is_punct(toks[i + 1], "(")) {
      const size_t body = match_group(toks, i + 1, "(", ")");
      if (body < toks.size() && is_punct(toks[body], "{")) {
        const size_t body_end = match_group(toks, body, "{", "}");
        FingerprintFn& fn = index.fingerprint_fns[t.text];
        fn.file = rel_path;
        fn.line = t.line;
        for (size_t k = body + 1; k < body_end; ++k) {
          if (toks[k].kind == TokKind::kIdent) {
            fn.idents.insert(toks[k].text);
          }
        }
        i = body_end;
        continue;
      }
    }
    ++i;
  }
}

}  // namespace pcs_lint

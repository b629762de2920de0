//===- bench/BenchReport.h - Bench flags and JSON reports -------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the perf benches share: their command-line flags (`--quick` or
/// DYC_BENCH_QUICK=1, `--check`, `--json FILE`) and the JSON report each
/// writes to FILE (a BENCH_*.json artifact).
///
//===----------------------------------------------------------------------===//

#ifndef DYC_BENCH_BENCHREPORT_H
#define DYC_BENCH_BENCHREPORT_H

#include "support/Support.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace dyc {
namespace bench {

/// Whether \p Flag is one of the arguments.
inline bool hasFlag(int Argc, char **Argv, const char *Flag) {
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], Flag) == 0)
      return true;
  return false;
}

/// CI-sized run: `--quick`, or DYC_BENCH_QUICK=1.
inline bool quickMode(int Argc, char **Argv) {
  if (hasFlag(Argc, Argv, "--quick"))
    return true;
  const char *Env = std::getenv("DYC_BENCH_QUICK");
  return Env && Env[0] == '1';
}

/// The FILE of `--json FILE`, or null.
inline const char *jsonPath(int Argc, char **Argv) {
  for (int I = 1; I + 1 < Argc; ++I)
    if (std::strcmp(Argv[I], "--json") == 0)
      return Argv[I + 1];
  return nullptr;
}

/// A JSON report built member by member, one per line: the document is an
/// object, and object() and array() open nested values that close() ends.
/// A member's key is ignored inside an array.
class JsonReport {
public:
  JsonReport() { Open.push_back({'}', true}); }

  JsonReport &str(const char *Key, const std::string &V) {
    member(Key);
    S += '"';
    for (char C : V) {
      if (C == '"' || C == '\\')
        S += '\\';
      S += C;
    }
    S += '"';
    return *this;
  }
  JsonReport &boolean(const char *Key, bool V) {
    member(Key);
    S += V ? "true" : "false";
    return *this;
  }
  JsonReport &count(const char *Key, uint64_t V) {
    member(Key);
    S += std::to_string(V);
    return *this;
  }
  /// \p V with \p Decimals digits after the point (none: an integer).
  JsonReport &real(const char *Key, double V, int Decimals) {
    member(Key);
    S += formatString("%.*f", Decimals, V);
    return *this;
  }

  JsonReport &object(const char *Key = nullptr) { return open(Key, '{'); }
  JsonReport &array(const char *Key) { return open(Key, '['); }
  JsonReport &close() {
    Level L = Open.back();
    Open.pop_back();
    if (!L.Empty)
      newline();
    S += L.Closer;
    return *this;
  }

  /// Closes every open value and writes the document to \p Path.
  void save(const char *Path) {
    while (!Open.empty())
      close();
    S += '\n';
    std::FILE *F = std::fopen(Path, "w");
    if (!F)
      fatal(formatString("cannot open --json output file %s", Path));
    std::fputs(S.c_str(), F);
    std::fclose(F);
  }

private:
  struct Level {
    char Closer;
    bool Empty;
  };

  void newline() {
    S += '\n';
    S.append(2 * Open.size(), ' ');
  }
  void member(const char *Key) {
    if (!Open.back().Empty)
      S += ',';
    Open.back().Empty = false;
    newline();
    if (Open.back().Closer == '}' && Key)
      S += formatString("\"%s\": ", Key);
  }
  JsonReport &open(const char *Key, char Opener) {
    member(Key);
    S += Opener;
    Open.push_back({Opener == '{' ? '}' : ']', true});
    return *this;
  }

  std::string S = "{";
  std::vector<Level> Open;
};

} // namespace bench
} // namespace dyc

#endif // DYC_BENCH_BENCHREPORT_H

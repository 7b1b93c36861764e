//===- common.cpp - Shared plumbing of the perfbench workloads -------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "perfbench/src/common.h"

#include <unistd.h>

#include <cmath>

namespace perfbench {

size_t rss_bytes() {
  std::FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0;
  unsigned long long Size = 0, Resident = 0;
  int N = std::fscanf(F, "%llu %llu", &Size, &Resident);
  std::fclose(F);
  if (N != 2)
    return 0;
  return static_cast<size_t>(Resident) *
         static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

size_t l3_bytes() {
  long V = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return V > 0 ? static_cast<size_t>(V) : 0;
}

namespace {

void put_string(std::FILE *F, const std::string &S) {
  std::fputc('"', F);
  for (char C : S) {
    if (C == '"' || C == '\\')
      std::fputc('\\', F);
    std::fputc(C, F);
  }
  std::fputc('"', F);
}

void put_number(std::FILE *F, double V) {
  if (std::isfinite(V))
    std::fprintf(F, "%.17g", V);
  else
    std::fputs("null", F);
}

template <class Map, class Put>
void put_object(std::FILE *F, const Map &M, const Put &PutValue) {
  std::fputc('{', F);
  bool First = true;
  for (const auto &[K, V] : M) {
    std::fputs(First ? "\n    " : ",\n    ", F);
    put_string(F, K);
    std::fputs(": ", F);
    PutValue(V);
    First = false;
  }
  std::fputs(First ? "}" : "\n  }", F);
}

} // namespace

bool result::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  auto Num = [&](double V) { put_number(F, V); };
  std::fprintf(F, "{\n  \"attempted\": %llu,\n  \"failed\": %llu,\n",
               static_cast<unsigned long long>(Attempted),
               static_cast<unsigned long long>(Failed));
  std::fputs("  \"config\": ", F);
  put_object(F, this->Num, Num);
  std::fputs(",\n  \"config_str\": ", F);
  put_object(F, Str, [&](const std::string &V) { put_string(F, V); });
  std::fputs(",\n  \"e2e\": ", F);
  put_object(F, E2E, Num);
  std::fputs(",\n  \"layer\": ", F);
  put_object(F, Layer, Num);
  std::fputs(",\n  \"series\": ", F);
  put_object(F, Series, [&](const std::vector<double> &V) {
    std::fputc('[', F);
    for (size_t I = 0; I < V.size(); ++I) {
      if (I)
        std::fputs(", ", F);
      put_number(F, V[I]);
    }
    std::fputc(']', F);
  });
  // Registry snapshots are already JSON; splice them verbatim.
  std::fputs(",\n  \"obs_rounds\": [", F);
  for (size_t I = 0; I < ObsRounds.size(); ++I)
    std::fprintf(F, "%s\n    {\"before\": %s, \"after\": %s}",
                 I ? "," : "", ObsRounds[I].first.c_str(),
                 ObsRounds[I].second.c_str());
  std::fprintf(F, "%s],\n  \"obs_final\": %s\n}\n",
               ObsRounds.empty() ? "" : "\n  ", ObsFinal.c_str());
  return std::fclose(F) == 0;
}

} // namespace perfbench

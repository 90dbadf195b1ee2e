#include "bench_json.h"

#include <cstdio>
#include <cstdlib>

namespace repro::bench {

bool ReadBaseline(const char* path, std::string* text) {
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    std::printf("FAIL: cannot read baseline %s\n", path);
    return false;
  }
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text->append(buf, n);
  std::fclose(f);
  return true;
}

bool FindJsonNumber(const std::string& text, const char* key, double* out,
                    const std::string& anchor) {
  const size_t from = anchor.empty() ? 0 : text.find(anchor);
  if (from == std::string::npos) return false;
  const std::string needle = std::string("\"") + key + "\": ";
  const size_t pos = text.find(needle, from);
  if (pos == std::string::npos) return false;
  *out = std::strtod(text.c_str() + pos + needle.size(), nullptr);
  return true;
}

int WriteBenchJson(const char* default_path, const std::string& json,
                   const char* label) {
  std::string path = default_path;
  if (const char* env = std::getenv("REPRO_BENCH_JSON")) path = env;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("FAIL: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("%s -> %s\n", label, path.c_str());
  return 0;
}

}  // namespace repro::bench

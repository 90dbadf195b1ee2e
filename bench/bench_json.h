// The BENCH_*.json plumbing shared by the gated benches: read a committed
// baseline, find one number in it, and write the run's JSON to
// $REPRO_BENCH_JSON (default: a file in the working directory). The JSON
// is text the benches write themselves, so a string search is all the
// parsing it needs.
#pragma once

#include <string>

namespace repro::bench {

// Reads the baseline file at `path` into `*text`. Prints
// "FAIL: cannot read baseline <path>" and returns false if it cannot.
bool ReadBaseline(const char* path, std::string* text);

// Finds `"key": <number>` in `text`; with a non-empty `anchor`, only after
// the first occurrence of `anchor` (e.g. a zone's `"name": {`).
bool FindJsonNumber(const std::string& text, const char* key, double* out,
                    const std::string& anchor = "");

// Writes `json` to $REPRO_BENCH_JSON, or to `default_path` when unset, and
// prints "<label> -> <path>". Returns 0, or 1 after printing
// "FAIL: cannot write <path>".
int WriteBenchJson(const char* default_path, const std::string& json,
                   const char* label);

}  // namespace repro::bench

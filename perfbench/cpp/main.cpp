// perfbench: runs one benchmark workload in this process and prints one
// JSON document with its metrics (value, unit, sample count), operation
// counts, run-level correctness, and the trajectory digest.
//
//   perfbench --workload plant|fleet|service|chaos --seed N --seconds S
//             --trace 0|1 [--scratch DIR]
//
// perfbench/run.py builds this binary and wraps it in the benchmark
// contract; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"

namespace {

using perfbench::Options;
using perfbench::Result;

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload plant|fleet|service|chaos "
               "--seed N --seconds S --trace 0|1 [--scratch DIR]\n");
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void print_metrics(const char* key,
                   const std::map<std::string, perfbench::Metric>& ms,
                   const char* trailer) {
  std::printf(" \"%s\": {\n", key);
  std::size_t i = 0;
  for (const auto& [name, m] : ms) {
    std::printf("  \"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                "\"samples\": %zu}%s\n",
                name.c_str(), m.value, m.unit.c_str(), m.samples,
                ++i == ms.size() ? "" : ",");
  }
  std::printf(" }%s\n", trailer);
}

void print(const Options& o, const Result& r) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %s,\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.trace ? "true" : "false");
  std::printf(" \"correct\": %s, \"attempted\": %llu, \"failed\": %llu,\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::printf(" \"digest\": \"%016llx\", \"digest_rounds\": %zu,\n",
              static_cast<unsigned long long>(r.digest),
              perfbench::kDigestRounds);
  std::printf(" \"errors\": [");
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                json_escape(r.errors[i]).c_str());
  }
  std::printf("],\n");
  print_metrics("metrics", r.metrics, ",");
  print_metrics("raw", r.raw, "");
  std::printf("}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      o.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--scratch") {
      o.scratch = value;
    } else {
      usage();
      return 2;
    }
  }
  if (!have_workload || !(o.seconds > 0.0)) {
    usage();
    return 2;
  }
  try {
    Result r;
    if (o.workload == "plant" || o.workload == "chaos") {
      r = perfbench::run_plant(o);
    } else if (o.workload == "fleet") {
      r = perfbench::run_fleet(o);
    } else if (o.workload == "service") {
      r = perfbench::run_service(o);
    } else {
      usage();
      return 2;
    }
    print(o, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (std::fflush(stdout) != 0 || std::ferror(stdout) != 0) return 1;
  return 0;
}

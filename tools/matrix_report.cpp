// matrix_report: run the scenario-matrix sweep.
//
// Usage:
//   matrix_report run [--out report.json] [--md report.md] [--seed N]
//                     [--members N] [--small]
//
// `run` sweeps {topology x link class (manet/leo/geo) x loss model x
// churn} with sim::MatrixRunner and writes the comparative report (JSON
// and/or markdown; markdown goes to stdout when neither file is given).
// --small shrinks the sweep to a CI-sized smoke matrix (2 link classes,
// 2 loss models, 1 churn level). The report is a pure function of the
// seed: CI diffs the smoke sweep's JSON against baselines/matrix_smoke.json
// with tools/bench_compare.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "sim/matrix.h"

namespace {

bool write_file(const char* path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

int usage() {
  std::fprintf(stderr,
               "usage: matrix_report run [--out report.json] [--md report.md] [--seed N]\n"
               "                         [--members N] [--small]\n");
  return 2;
}

int run_sweep(int argc, char** argv) {
  idgka::sim::MatrixConfig cfg;
  const char* out_json = nullptr;
  const char* out_md = nullptr;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_json = argv[++i];
    } else if (std::strcmp(argv[i], "--md") == 0 && i + 1 < argc) {
      out_md = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--members") == 0 && i + 1 < argc) {
      cfg.members = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--small") == 0) {
      cfg.name = "matrix-smoke";
      cfg.members = 8;
      cfg.link_classes = {idgka::sim::LinkClass::manet(), idgka::sim::LinkClass::leo()};
      cfg.loss_models = {{"clean", 0.0, false}, {"bursty10", 0.10, true}};
      cfg.churn_levels = {{"calm", 4}};
    } else {
      return usage();
    }
  }
  const idgka::sim::MatrixReport report = idgka::sim::MatrixRunner(cfg).run();
  if (out_json != nullptr && !write_file(out_json, report.to_json() + "\n")) {
    std::fprintf(stderr, "matrix_report: cannot write %s\n", out_json);
    return 1;
  }
  if (out_md != nullptr && !write_file(out_md, report.to_markdown())) {
    std::fprintf(stderr, "matrix_report: cannot write %s\n", out_md);
    return 1;
  }
  if (out_json == nullptr && out_md == nullptr) std::cout << report.to_markdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    if (std::strcmp(argv[1], "run") == 0) return run_sweep(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "matrix_report: %s\n", e.what());
    return 1;
  }
  return usage();
}

// psched-lint CLI. Scans src/, tools/, bench/ (or an explicit file list) for
// violations of the project's determinism/durability contracts and exits
// non-zero on any finding. See docs/static_analysis.md for the rule catalog.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "psched_lint/lint.hpp"

namespace {

void print_usage() {
  std::printf(
      "usage: psched_lint [--root DIR] [--list-rules] [file...]\n"
      "\n"
      "With no files, scans DIR/src, DIR/tools, DIR/bench (DIR defaults to the\n"
      "current directory). Exits 1 when any contract violation is found.\n"
      "Suppress a finding with: // psched-lint: allow(<rule>): <reason>\n");
}

void print_rules() {
  using psched::lint::Rule;
  for (int i = 0; i < static_cast<int>(Rule::kBadSuppression); ++i) {
    const Rule rule = static_cast<Rule>(i);
    std::printf("%-18s %s\n", psched::lint::rule_name(rule), psched::lint::rule_summary(rule));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::filesystem::path root = ".";
  std::vector<std::filesystem::path> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    }
    if (arg == "--list-rules") {
      print_rules();
      return 0;
    }
    if (arg == "--root") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "psched_lint: --root needs a directory\n");
        return 2;
      }
      root = argv[++i];
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "psched_lint: unknown option '%s'\n", arg.c_str());
      print_usage();
      return 2;
    }
    files.emplace_back(arg);
  }

  std::vector<psched::lint::Finding> findings;
  try {
    findings = files.empty() ? psched::lint::lint_tree(root) : psched::lint::lint_paths(files);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 2;
  }

  for (const psched::lint::Finding& finding : findings)
    std::printf("%s\n", psched::lint::format_finding(finding).c_str());
  if (!findings.empty()) {
    std::fprintf(stderr, "psched-lint: %zu finding(s)\n", findings.size());
    return 1;
  }
  std::fprintf(stderr, "psched-lint: clean\n");
  return 0;
}

// Fixture: reads registry-owned arming variables directly instead of asking
// their registries. PSCHED_FAULT* is parsed exactly once at static init by
// src/util/fault.cpp and PSCHED_TRACE by src/obs/obs.cpp; a later getenv sees
// a stale/diverging arming view.
#include <cstdlib>

bool chaos_is_armed() {
  return std::getenv("PSCHED_FAULTS") != nullptr;
}

const char* report_path() {
  return getenv(
      "PSCHED_FAULTS_REPORT");
}

bool tracing_requested() {
  return std::getenv("PSCHED_TRACE") != nullptr;
}

const char* trace_destination() {
  return getenv(
      "PSCHED_TRACE");
}

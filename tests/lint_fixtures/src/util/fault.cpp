// Mirrors the sanctioned suffix src/util/fault.cpp: the fault registry itself
// is the one place allowed to read the fault-arming environment. The sanction
// is per variable, so its PSCHED_TRACE read on line 7 still fires.
#include <cstdlib>

const char* armed_specs() { return std::getenv("PSCHED_FAULTS"); }
const char* trace_request() { return std::getenv("PSCHED_TRACE"); }

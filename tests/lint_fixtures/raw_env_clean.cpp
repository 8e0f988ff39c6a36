// Compliant twin: other PSCHED_* knobs are fair game (only the arming
// variables are registry-owned), setting them is fine (that is how harnesses
// arm child processes), and a literal that merely mentions one without an
// environment read is prose, not a violation.
#include <cstdlib>

const char* pool_size() { return std::getenv("PSCHED_THREADS"); }

void arm_child() {
  setenv("PSCHED_FAULTS", "journal.open:errno=EACCES", 1);
  setenv("PSCHED_TRACE", "trace.json", 1);
}

const char* hint() { return "set PSCHED_FAULTS=point:errno=EIO or PSCHED_TRACE=trace.json"; }

// Ledger of the untraced binary: no layer entry point is interposed, so
// nothing is counted and the timed runs pay no tracing cost.
#include "bench.hpp"

namespace bench::ledger {

bool traced() noexcept { return false; }
void arm(bool) noexcept {}
Totals disarm() noexcept { return {}; }
bool write_spans(const char*, double) { return false; }

}  // namespace bench::ledger

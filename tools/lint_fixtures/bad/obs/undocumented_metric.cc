// Fixture: metric-catalog — a registered metric without a README row.
#include "obs/metrics.h"

void RegisterUndocumented() {
  diffc::obs::Registry::Global().GetCounter("diffc_fixture_undocumented_total", "Ops.");
}

// Exit code shared by the benchmark applications.
#pragma once

#include "util/types.h"

namespace zapc::apps {

/// Exit code of a run whose computation finished but whose result object
/// could not be written to shared storage.  Distinct from the per-app
/// codes 2 (peer lost), 3 (result failed verification) and 9 (bad state).
inline constexpr i32 kExitResultWriteFailed = 4;

}  // namespace zapc::apps

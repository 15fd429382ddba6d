/**
 * @file
 * Shared experiment plumbing: the static baseline allocation used by
 * benches and integration tests. The layout lives in core next to
 * StaticPolicy (core/baselines.hh); scenarios keep its name.
 */

#ifndef IATSIM_SCENARIOS_COMMON_HH
#define IATSIM_SCENARIOS_COMMON_HH

#include "core/baselines.hh"

namespace iat::scenarios {

using core::applyStaticLayout;

} // namespace iat::scenarios

#endif // IATSIM_SCENARIOS_COMMON_HH

/**
 * @file
 * JSON export of the statistics registry, for plotting scripts and
 * external tooling (every bench's tables can be re-derived from the
 * raw counters this emits).
 */

#ifndef DIMMLINK_COMMON_STATS_JSON_HH
#define DIMMLINK_COMMON_STATS_JSON_HH

#include <ostream>
#include <string>

#include "common/stats.hh"

namespace dimmlink {

struct SystemConfig;

namespace stats {

/**
 * Version of the run-record layout, emitted as the top-level
 * "schemaVersion" next to the config section. Version 2: the config
 * section holds every key that can change a result, so the record
 * replays through SystemConfig::fromString(). Version 1 (unmarked)
 * hid the rack, recovery, reliability and watchdog keys.
 */
inline constexpr int schemaVersion = 2;

/**
 * Serialize the registry as a JSON object:
 *   { "group": { "scalars": {..}, "distributions": { name:
 *     {count,mean,min,max} } }, ... }
 * Zero-valued statistics, and groups with none populated, are
 * omitted unless @p include_empty is set. Output is deterministic
 * (sorted names).
 *
 * When @p config is given, a leading "config" section holds the fully
 * resolved configuration (SystemConfig::describeEntries()), so every
 * stats file records the exact machine that produced it, followed by
 * "schemaVersion".
 */
void dumpJson(const Registry &reg, std::ostream &os,
              bool include_empty = false,
              const SystemConfig *config = nullptr);

/** JSON string-escape helper (quotes, backslashes, control chars). */
std::string jsonEscape(const std::string &s);

} // namespace stats
} // namespace dimmlink

#endif // DIMMLINK_COMMON_STATS_JSON_HH

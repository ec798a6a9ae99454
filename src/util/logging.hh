/**
 * @file
 * Logging plus gem5-style fatal()/panic() termination helpers.
 *
 * fatal() reports a user-caused error (bad configuration) and exits;
 * panic() reports an internal invariant violation and aborts.  warn()
 * emits a warning without stopping the run.  All three write one
 * tagged line to stderr; there is no level to set.
 */

#ifndef MPRESS_UTIL_LOGGING_HH
#define MPRESS_UTIL_LOGGING_HH

namespace mpress {
namespace util {

/** Emit a warning to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report a user error and exit(1).  Never returns. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an internal bug and abort().  Never returns. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace util
} // namespace mpress

#endif // MPRESS_UTIL_LOGGING_HH

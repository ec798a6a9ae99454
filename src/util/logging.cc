#include "util/logging.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "util/strings.hh"

namespace mpress {
namespace util {

namespace {

void
emit(const char *tag, const char *fmt, std::va_list args)
{
    std::string msg = vstrformat(fmt, args);
    std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
}

} // namespace

void
warn(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    emit("warn", fmt, args);
    va_end(args);
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    emit("fatal", fmt, args);
    va_end(args);
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    emit("panic", fmt, args);
    va_end(args);
    std::abort();
}

} // namespace util
} // namespace mpress

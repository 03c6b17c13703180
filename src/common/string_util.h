#ifndef M2G_COMMON_STRING_UTIL_H_
#define M2G_COMMON_STRING_UTIL_H_

#include <string>

namespace m2g {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace m2g

#endif  // M2G_COMMON_STRING_UTIL_H_

// Small string helpers shared across the library.

#ifndef MIVID_COMMON_STRING_UTIL_H_
#define MIVID_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mivid {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// True iff `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True iff `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Parses a decimal double (surrounding ASCII whitespace and a leading
/// '+' allowed); returns false on malformed input, trailing junk, or a
/// value that overflows to infinity or underflows to zero. Subnormals
/// parse, so every finite double AppendDouble writes reads back
/// bit-identically. Hexadecimal floats are not accepted.
bool ParseDouble(std::string_view s, double* out);

/// Parses a signed 64-bit integer; returns false on malformed input.
bool ParseInt64(std::string_view s, int64_t* out);

/// The one wire-number writer: appends `v` exactly as printf("%.17g")
/// prints it (std::to_chars general format, precision 17, which the C++
/// standard defines to match), so every finite double round-trips
/// bit-identically through ParseDouble.
void AppendDouble(std::string* out, double v);

/// Appends the decimal digits of `v` (printf("%lld")'s text).
void AppendInt(std::string* out, int64_t v);

/// Renders `v` with `precision` digits after the decimal point.
std::string DoubleToString(double v, int precision = 6);

}  // namespace mivid

#endif  // MIVID_COMMON_STRING_UTIL_H_

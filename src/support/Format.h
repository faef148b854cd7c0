//===- Format.h - String formatting helpers ------------------------------===//
//
// Part of the Cypress reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style std::string formatting and small string utilities used by the
/// IR printer, diagnostics, and the CUDA emitter.
///
//===----------------------------------------------------------------------===//

#ifndef CYPRESS_SUPPORT_FORMAT_H
#define CYPRESS_SUPPORT_FORMAT_H

#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

namespace cypress {

/// Formats like printf into a std::string.
#if defined(__GNUC__)
__attribute__((format(printf, 1, 2)))
#endif
inline std::string
formatString(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Size = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  std::string Result(Size > 0 ? static_cast<size_t>(Size) : 0, '\0');
  if (Size > 0)
    std::vsnprintf(Result.data(), Result.size() + 1, Fmt, ArgsCopy);
  va_end(ArgsCopy);
  return Result;
}

namespace detail {
inline void appendPart(std::string &Out, const std::string &Text) {
  Out += Text;
}
inline void appendPart(std::string &Out, const char *Text) { Out += Text; }
inline void appendPart(std::string &Out, char C) { Out += C; }
template <typename IntT,
          typename = std::enable_if_t<std::is_integral_v<IntT>>>
void appendPart(std::string &Out, IntT Value) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), Value).ptr);
}
} // namespace detail

/// Appends each of \p Parts to \p Out as `std::ostream <<` prints it:
/// strings and characters verbatim, integers in decimal. Identity keys
/// are built with it, so building one never constructs a stream.
template <typename... PartTs>
void appendTo(std::string &Out, const PartTs &...Parts) {
  (detail::appendPart(Out, Parts), ...);
}

/// Joins the elements of \p Parts with \p Sep between them.
inline std::string joinStrings(const std::vector<std::string> &Parts,
                               const std::string &Sep) {
  std::string Result;
  for (size_t I = 0, E = Parts.size(); I != E; ++I) {
    if (I != 0)
      Result += Sep;
    Result += Parts[I];
  }
  return Result;
}

/// Returns \p Text with each line prefixed by \p Indent spaces.
inline std::string indentLines(const std::string &Text, unsigned Indent) {
  std::string Pad(Indent, ' ');
  std::string Result;
  size_t Start = 0;
  while (Start < Text.size()) {
    size_t End = Text.find('\n', Start);
    if (End == std::string::npos)
      End = Text.size();
    Result += Pad + Text.substr(Start, End - Start) + "\n";
    Start = End + 1;
  }
  return Result;
}

} // namespace cypress

#endif // CYPRESS_SUPPORT_FORMAT_H

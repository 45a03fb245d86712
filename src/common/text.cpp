#include "common/text.hpp"

#include <cstdarg>
#include <cstdio>

namespace dnc {

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap, ap2;
  va_start(ap, fmt);
  va_copy(ap2, ap);
  const int need = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (need >= 0 && static_cast<std::size_t>(need) < sizeof buf) {
    out.append(buf, static_cast<std::size_t>(need));
  } else if (need > 0) {  // longer than the stack buffer: format in place
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(need) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(need) + 1, fmt, ap2);
    out.resize(at + static_cast<std::size_t>(need));
  }
  va_end(ap2);
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && wrote;
}

}  // namespace dnc

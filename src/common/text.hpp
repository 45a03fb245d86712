// Text output helpers shared by every artifact writer.
#pragma once

#include <string>

namespace dnc {

/// printf-style append to `out`; output of any length is kept whole.
[[gnu::format(printf, 2, 3)]] void appendf(std::string& out, const char* fmt, ...);

/// Writes `text` as the whole content of `path` (created or truncated).
/// Returns false when the file cannot be opened or fully written.
bool write_text_file(const std::string& path, const std::string& text);

}  // namespace dnc

// The pin file, `bench/pins.json`: one flat JSON object with one
// `"<scenario or gate row>.<output>": value` per line. Values are simulated
// nanoseconds, counts and digests, plus the SHA-256 of each deterministic
// binary's stdout; a value moves only when simulated behaviour does.
#pragma once

#include <charconv>
#include <map>
#include <string>

#include "util/error.h"

namespace nm::scenarios {

/// Reads a flat JSON object as key -> value text, string values without
/// their quotes. A missing file reads as empty, so every lookup then fails
/// as unpinned.
std::map<std::string, std::string> read_pins(const std::string& path);

/// Pin `key` of the pin file at `path` as an integer of type T. Throws
/// naming the key and the file when the key is missing or its value is not
/// a T.
template <class T>
T pin(const std::string& path, const std::string& key) {
  const std::map<std::string, std::string> pins = read_pins(path);
  const auto it = pins.find(key);
  NM_CHECK(it != pins.end(), key << " is not pinned in " << path);
  T value{};
  const std::string& text = it->second;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  NM_CHECK(ec == std::errc() && end == text.data() + text.size(),
           key << " = " << text << " in " << path << " is not an integer of the expected type");
  return value;
}

}  // namespace nm::scenarios

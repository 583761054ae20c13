#include "scenarios/pins.h"

#include <fstream>
#include <iterator>

namespace nm::scenarios {

std::map<std::string, std::string> read_pins(const std::string& path) {
  std::ifstream in(path);
  const std::string s((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::map<std::string, std::string> values;
  std::size_t pos = 0;
  while ((pos = s.find('"', pos)) != std::string::npos) {
    const std::size_t key_end = s.find('"', pos + 1);
    if (key_end == std::string::npos) {
      break;
    }
    std::size_t begin = s.find_first_not_of(" \t\r\n:", key_end + 1);
    if (begin == std::string::npos) {
      break;
    }
    std::size_t end = s.find_first_of(" \t\r\n,}", begin);
    std::size_t next = end;
    if (s[begin] == '"') {
      end = s.find('"', ++begin);
      next = end == std::string::npos ? end : end + 1;
    }
    values[s.substr(pos + 1, key_end - pos - 1)] = s.substr(begin, end - begin);
    pos = next;
  }
  return values;
}

}  // namespace nm::scenarios

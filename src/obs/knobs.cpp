#include "obs/knobs.h"

#include <cctype>
#include <cstddef>
#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <string>

namespace gpuddt::obs {

namespace {

constexpr bool table_in_knob_order() {
  for (std::size_t i = 0; i < std::size(kKnobs); ++i) {
    if (static_cast<std::size_t>(kKnobs[i].knob) != i) return false;
  }
  return true;
}
static_assert(table_in_knob_order(), "kKnobs rows must follow Knob order");

}  // namespace

bool resolve(Knob knob, int field) {
  if (field >= 0) return field != 0;
  const KnobSpec& k = kKnobs[static_cast<std::size_t>(knob)];
  const char* raw = std::getenv(k.env);
  if (raw == nullptr || *raw == '\0') return false;
  std::string v(raw);
  for (char& c : v) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (v == "1" || v == "on" || v == "true" || v == "yes") return true;
  if (v == "0" || v == "off" || v == "false" || v == "no") return false;
  throw std::invalid_argument(std::string(k.env) + "='" + raw +
                              "' is not a switch value (expected "
                              "1/on/true/yes or 0/off/false/no)");
}

}  // namespace gpuddt::obs

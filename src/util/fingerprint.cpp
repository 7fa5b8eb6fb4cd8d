#include "src/util/fingerprint.h"

namespace revisim::util {

void StateSink::render(std::uint64_t w) {
  *text_ += std::to_string(w);
  text_->push_back(' ');
}

}  // namespace revisim::util

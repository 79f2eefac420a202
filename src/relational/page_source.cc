#include "relational/page_source.h"

namespace cape {

void PageRef::Release() {
  if (source_ != nullptr) {
    // Unpin is protected; PageRef is a friend of PageSource.
    source_->Unpin(cookie_);
    source_ = nullptr;
  }
}

}  // namespace cape

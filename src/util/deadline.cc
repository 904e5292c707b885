#include "util/deadline.h"

namespace diffc {

Status StopCheck::CheckNow() {
  if (!armed_ || !status_.ok()) return status_;
  ++samples_;
  countdown_ = stride_ - 1;
  if (token_.Cancelled()) {
    status_ = Status::Cancelled("cancel token fired");
  } else if (deadline_.Expired()) {
    status_ = Status::DeadlineExceeded("deadline expired");
  }
  return status_;
}

}  // namespace diffc

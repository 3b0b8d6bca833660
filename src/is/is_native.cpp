#include "is/is_impl.hpp"

namespace npb::is_detail {
template IsOutput is_run<Unchecked>(long, long, int, const par::Launch&);
}  // namespace npb::is_detail
